"""Polymer-expansion series for the log of the loop-corrected partition sum.

ln(1 + sum of loop activities) = sum over ordered tuples of polymers of
Ursell coefficients times activity products.  Grouping tuples into multisets
gives the series summed here; its convergence is certified through the
standard single-node criterion q (loops.polymer_q), and the combinatorial
lemmas that control the number of polymers are exposed alongside for
direct verification.

Order M grows every order-(M-1) multiset, its prefix, by one more polymer
index: the prefix's overlap pattern and, per Ursell value, its activity
product are formed once and shared by all of its children.  The prefixes
are grown the same way from the tuples of the order before, both with the
loop walk's pair generator, loops._runs.  The Ursell value of each overlap
pattern is computed once per process.  The pieces of an order are added
exactly, by the loop sum's exponent-binned integer sum (loops._exact_sum,
bit for bit math.fsum), so their order does not matter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bp import MessageSet, check_weight_range
from .errors import (
    BudgetExceededError,
    InvalidDegreeSequenceError,
    OrderTooLargeError,
)
from .graphs import FactorGraph
from .loops import (
    ActivityEvaluator,
    Polymer,
    _exact_sum,
    _meets,
    enumerate_polymers,
    node_words,
    polymer_q,
    _runs,
)

URSELL_MAX_ORDER = 7
SERIES_BLOCK = 1 << 12  # prefixes per block, children per chunk; bounds memory
_UNKNOWN = np.iinfo(np.int32).min  # chain row of a pattern code not yet seen


@dataclass(frozen=True)
class SeriesResult:
    """Per-order terms and partial sums of the polymer series."""

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    q: float
    polymer_count: int
    size_cutoff: int | None


@dataclass(frozen=True)
class QReport:
    """Single-node convergence statistic q and whether it certifies."""

    q: float
    certified: bool
    size_cutoff: int | None


def ursell(polymers: list[Polymer] | tuple[Polymer, ...]) -> int:
    """Ursell coefficient of a tuple of polymers.

    Sums, over the connected spanning subgraphs of the overlap pattern
    (vertices = tuple slots, an edge wherever two polymers share a node),
    the product of -1 per edge.  A single polymer gives 1, an overlapping
    pair -1, and any tuple whose overlap pattern is disconnected gives 0.
    """
    if len(polymers) < 1:
        raise ValueError("need at least one polymer")
    return _multiset_ursell(tuple(p.node_mask for p in polymers))


def connected_mayer_sum(m: int, edges: frozenset[tuple[int, int]]) -> int:
    """Signed count of connected spanning subgraphs of a graph on m vertices.

    The abstract core of the Ursell coefficient, taking the overlap pattern
    directly: +1 for a single vertex, -1 for one edge on two vertices, 0
    whenever the pattern is disconnected.  Vertices are 0..m-1; edges are
    unordered pairs.
    """
    if m < 1:
        raise ValueError(f"need at least one vertex, got m = {m}")
    if m > URSELL_MAX_ORDER:
        raise OrderTooLargeError(
            f"order {m} exceeds the supported maximum {URSELL_MAX_ORDER}"
        )
    adj = [0] * m
    for u, v in edges:
        if not (0 <= u < m and 0 <= v < m) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for {m} vertices")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _ursell_masked(tuple(adj), (1 << m) - 1, {})


def _ursell_masked(adj: tuple[int, ...], vmask: int, memo: dict[int, int]) -> int:
    """The signed count on the vertices of vmask; memo holds the counts of
    the vertex sets of this pattern done so far."""
    if vmask.bit_count() == 1:
        return 1
    if vmask in memo:
        return memo[vmask]
    members = [i for i in range(len(adj)) if (vmask >> i) & 1]

    def edgeless(mask: int) -> bool:
        return all(not (adj[i] & mask) for i in members if (mask >> i) & 1)

    total = 1 if edgeless(vmask) else 0
    v0 = members[0]
    rest = vmask & ~(1 << v0)
    # proper submasks W of vmask containing v0
    sub = rest
    while True:
        sub = (sub - 1) & rest
        w = sub | (1 << v0)
        if w != vmask and edgeless(vmask & ~w):
            total -= _ursell_masked(adj, w, memo)
        if sub == 0:
            break
    memo[vmask] = total
    return total


# U per (order, pattern code), kept for the life of the process: slot pair
# (a, b) of an order-`order` tuple sets bit b(b-1)/2 + a of its code
_URSELL: dict[tuple[int, int], int] = {}


def _pattern_ursell(order: int, code: int) -> int:
    """U of the overlap pattern `code` on `order` slots, evaluated once."""
    if (order, code) not in _URSELL:
        pairs = [(a, b) for b in range(order) for a in range(b)]
        edges = frozenset(pair for i, pair in enumerate(pairs) if code >> i & 1)
        _URSELL[order, code] = connected_mayer_sum(order, edges)
    return _URSELL[order, code]


def _multiset_ursell(masks: tuple[int, ...]) -> int:
    m = len(masks)
    return _pattern_ursell(
        m,
        sum(1 << (b * (b - 1) // 2 + a) for b in range(m) for a in range(b) if masks[a] & masks[b]),
    )


def check_series_options(m_max: int, size_cutoff: int | None, z: float) -> None:
    """Refuse series options before any work: a non-finite z, an order
    outside 1..URSELL_MAX_ORDER, a negative size cutoff."""
    if not math.isfinite(z):
        raise ValueError(f"z must be a finite number, got {z}")
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if m_max > URSELL_MAX_ORDER:
        raise OrderTooLargeError(
            f"order {m_max} exceeds the supported maximum {URSELL_MAX_ORDER}"
        )
    if size_cutoff is not None and size_cutoff < 0:
        raise ValueError(f"size_cutoff must be >= 0, got {size_cutoff}")


def polymer_series(
    graph: FactorGraph,
    messages: MessageSet,
    m_max: int = 4,
    size_cutoff: int | None = None,
    polymers: list[Polymer] | None = None,
    budget: int = 10_000_000,
    z: float = 1.0,
) -> SeriesResult:
    """Orders 1..m_max of the series for ln(1 + sum of loop activities).

    Order M sums, over multisets of M polymers, the Ursell coefficient of
    their overlap pattern times the product of activities divided by the
    multiplicity factorials.  Multisets of pairwise disjoint polymers drop
    out on their own (their pattern is disconnected).  `z` scales every
    activity; the default 1 evaluates the series itself, smaller values
    probe its decay.  `budget` caps the number of multisets over all orders;
    a series that needs more is refused before any of them is evaluated.
    """
    check_series_options(m_max, size_cutoff, z)
    check_weight_range(graph)
    if polymers is None:
        polymers = enumerate_polymers(graph, max_size=size_cutoff, budget=budget)
    tuples = sum(
        math.comb(len(polymers) + order - 1, order) for order in range(1, m_max + 1)
    )
    if tuples > budget:
        raise BudgetExceededError(
            f"series needs {tuples} tuples, over the budget of {budget};"
            " lower m_max or restrict size_cutoff"
        )
    ev = ActivityEvaluator(graph, messages)
    acts = z * ev.values([p.edge_ids for p in polymers])
    words = node_words([p.node_mask for p in polymers], graph.n + graph.m)
    terms = [_series_term(order, words, acts) for order in range(1, m_max + 1)]
    partial = list(itertools.accumulate(terms))
    return SeriesResult(
        terms=tuple(terms),
        partial_sums=tuple(partial),
        q=_q_report(graph, polymers, acts, size_cutoff, words).q,
        polymer_count=len(polymers),
        size_cutoff=size_cutoff,
    )


def _series_term(order: int, words: np.ndarray, acts: np.ndarray) -> float:
    """Order-`order` term: the exact sum of one piece per multiset.

    A piece is float(U) * acts[j] over the multiset's indices in
    nondecreasing order, then divided by k! for each run of k equal indices,
    in run order; multisets with U = 0 give no piece.  Each multiset is a
    prefix, its first order - 1 indices, grown by one index j >= the
    prefix's last.  _multiset_blocks grows the prefixes from the tuples of
    the order before, SERIES_BLOCK at a time, and each block's children
    are formed prefix-major, SERIES_BLOCK at a time (loops._runs), so memory
    is bounded by the block.  U depends only on which slots overlap: slot
    pair (a, b) sets bit b(b-1)/2 + a of a pattern code, and a table filled
    on first use maps codes to U, read from the process-wide
    _pattern_ursell.  A prefix's pairs are tested once per
    block; a child tests only its order - 1 pairs with j, on node words
    (loops._meets).  For each U met so far, the chain
    ((U * a_i1) * a_i2) ... * a_i(order-1) over the prefix is formed once per
    block, and a child's piece is that chain times acts[j]: the products of
    the multiset order, in that order, so every piece is the same float.
    Only children with a repeated index are divided, since dividing by 1!
    is exact.  loops._exact_sum equals math.fsum, so the order in which
    the multisets are visited does not change the term.
    """
    p, head = len(acts), order - 1
    if not p:
        return 0.0
    slot_pairs = [(a, b) for b in range(order) for a in range(b)]
    new_bit = len(slot_pairs) - head  # the pairs (a, head) take the top bits
    # per pattern code: _UNKNOWN until met, -1 where U = 0, else its chain row
    chain_row = np.full(1 << len(slot_pairs), _UNKNOWN, dtype=np.int64)
    ursells: list[int] = []  # the nonzero U met so far, in chain-row order
    factorial = np.array([float(math.factorial(k)) for k in range(order + 1)])

    def chain_rows(code: np.ndarray) -> np.ndarray:
        row = chain_row[code]
        if not (row == _UNKNOWN).any():
            return row
        for c in np.unique(code[row == _UNKNOWN]).tolist():
            u = _pattern_ursell(order, c)
            if u and u not in ursells:
                ursells.append(u)
            chain_row[c] = ursells.index(u) if u else -1
        return chain_row[code]

    def pieces():
        for rows in _multiset_blocks(p, head):
            slot_words = [words[:, rows[:, a]] for a in range(head)]
            code = np.zeros(len(rows), dtype=np.int64)
            for bit, (a, b) in enumerate(slot_pairs[:new_bit]):
                code |= np.left_shift(_meets(slot_words[a], slot_words[b]), bit, dtype=np.int64)
            chain = np.empty((0, len(rows)))  # row r holds U = ursells[r]
            # each row's largest index is its last; the empty prefix takes every j
            last = rows[:, -1] if head else np.zeros(1, dtype=np.int64)
            # a child j of prefix i holds a repeated index iff j <= tied[i]:
            # every child where the prefix repeats one, else only j = last
            tied = np.where((rows[:, 1:] == rows[:, :-1]).any(axis=1), p, last)
            # prefix i's k-th child is j = last[i] + k; the chunk's arrays, updated
            # in place where they can be, are let go before _exact_sum bins the piece
            for parent, j in _runs(p - last, SERIES_BLOCK):
                j += last[parent]
                row = code[parent]
                child_words = words[:, j]
                for a in range(head):
                    overlap = _meets(np.take(slot_words[a], parent, axis=1), child_words)
                    row |= np.left_shift(overlap, new_bit + a, dtype=np.int64)
                row = chain_rows(row)
                if len(chain) < len(ursells):
                    met = len(chain)
                    u = np.array(ursells[met:], dtype=np.float64)[:, None]
                    chain = np.vstack([chain, np.repeat(u, len(rows), axis=1)])
                    for a in range(head):
                        chain[met:] *= acts[rows[:, a]]
                keep = row >= 0
                if not keep.all():
                    parent, j, row = parent[keep], j[keep], row[keep]
                row *= len(rows)
                row += parent
                piece = chain.ravel()[row] * acts[j]
                split = np.flatnonzero(j <= tied[parent])
                if len(split):
                    piece[split] = _divide_runs(
                        piece[split], np.column_stack([rows[parent[split]], j[split]]), factorial
                    )
                del parent, j, row, child_words, keep, split
                yield piece

    return _exact_sum(pieces())


def _divide_runs(piece: np.ndarray, rows: np.ndarray, factorial: np.ndarray) -> np.ndarray:
    """piece / k! for each run of k equal indices in its row, in run order."""
    run = np.ones(len(rows), dtype=np.int64)
    for k in range(rows.shape[1] - 1):
        ends = rows[:, k] != rows[:, k + 1]
        np.divide(piece, factorial[run], out=piece, where=ends)
        run = np.where(ends, 1, run + 1)
    return piece / factorial[run]


def _multiset_blocks(p: int, order: int):
    """Every nondecreasing `order`-tuple over range(p), in lexicographic
    order, at most SERIES_BLOCK rows at a time: each block of (order -
    1)-tuples grown by every index j >= its last (loops._runs)."""
    if not order:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    for rows in _multiset_blocks(p, order - 1):
        last = rows[:, -1] if order > 1 else np.zeros(1, dtype=np.int64)
        for s, k in _runs(p - last, SERIES_BLOCK):
            block = np.column_stack([rows[s], last[s] + k])
            del s, k  # else every level would keep its chunk across the yield
            yield block


def convergence_criterion_q(
    graph: FactorGraph,
    messages: MessageSet,
    size_cutoff: int | None = None,
    polymers: list[Polymer] | None = None,
    budget: int = 10_000_000,
) -> QReport:
    """q = max over nodes of sum_{polymers through it} e^size * |activity|.

    q < 1 certifies a convergent series with per-order error decay.
    """
    if polymers is None:
        polymers = enumerate_polymers(graph, max_size=size_cutoff, budget=budget)
    acts = ActivityEvaluator(graph, messages).values([p.edge_ids for p in polymers])
    return _q_report(graph, polymers, acts, size_cutoff)


def convergence_criterion_q_bound(
    graph: FactorGraph,
    polymers: list[Polymer],
    bound_fn,
    size_cutoff: int | None = None,
) -> QReport:
    """Same statistic with a per-polymer activity bound in place of |K|."""
    return _q_report(graph, polymers, [float(bound_fn(p)) for p in polymers], size_cutoff)


def _q_report(graph: FactorGraph, polymers, acts, size_cutoff, words=None) -> QReport:
    """polymer_q over polymers in list order with activities (or bounds)
    acts; words, when given, is their node_words."""
    if words is None:
        words = node_words([p.node_mask for p in polymers], graph.n + graph.m)
    q = polymer_q(np.zeros(graph.n + graph.m), words, acts, [p.size for p in polymers])
    return QReport(q=q, certified=q < 1.0, size_cutoff=size_cutoff)


# ---------------------------------------------------------------------------
# combinatorial counting lemmas


def count_rooted_polymers(
    graph: FactorGraph,
    root: int,
    t: int,
    budget: int = 10_000_000,
) -> tuple[int, float]:
    """(number of polymers through node `root` with size <= t, e^(d t)).

    root is a global node id: variables 0..n-1 then checks n..n+m-1; d is the
    largest degree in the graph.  The bound always dominates the count; it
    is inf where e^(d t) passes float range.
    """
    if not 0 <= root < graph.n + graph.m:
        raise ValueError(f"root {root} outside the node range")
    if t < 1:
        raise ValueError(f"size threshold must be positive, got {t}")
    polymers = enumerate_polymers(graph, max_size=t, budget=budget)
    bit = 1 << root
    count = sum(1 for p in polymers if p.node_mask & bit)
    d = max(
        max((graph.var_degree(i) for i in range(graph.n)), default=0),
        max((graph.check_degree(a) for a in range(graph.m)), default=0),
    )
    return count, math.exp(d * t) if d * t <= 709 else math.inf


def rooted_dary_tree_count(d: int, t: int) -> int:
    """Rooted ordered trees with t nodes, each with up to d ordered slots.

    Fuss-Catalan: C(t*d, t) / (t*(d-1) + 1); d = 2 gives the Catalan numbers
    and t = 0 counts the empty tree once.
    """
    if d < 1 or t < 0:
        raise ValueError(f"need d >= 1 and t >= 0, got d = {d}, t = {t}")
    return math.comb(t * d, t) // (t * (d - 1) + 1)


def cayley_tree_count(degrees: tuple[int, ...]) -> int:
    """Labeled trees on len(degrees) vertices with the given degree sequence.

    (M-2)! / prod (d_k - 1)!; the sequence must have every degree >= 1 and
    total 2(M-1).
    """
    m = len(degrees)
    if m < 2:
        raise InvalidDegreeSequenceError(f"need at least 2 vertices, got {m}")
    if any(d < 1 for d in degrees):
        raise InvalidDegreeSequenceError(f"degrees must be >= 1: {degrees}")
    if sum(degrees) != 2 * (m - 1):
        raise InvalidDegreeSequenceError(
            f"degree total {sum(degrees)} != 2(M-1) = {2 * (m - 1)}"
        )
    out = math.factorial(m - 2)
    for d in degrees:
        out //= math.factorial(d - 1)
    return out
