"""Polymer-expansion series for the log of the loop-corrected partition sum.

ln(1 + sum of loop activities) = sum over ordered tuples of polymers of
Ursell coefficients times activity products.  Grouping tuples into multisets
gives the series summed here; its convergence is certified through the
standard single-node criterion q (loops.polymer_q), and the combinatorial
lemmas that control the number of polymers are exposed alongside for
direct verification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

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
    enumerate_polymers,
    node_words,
    polymer_q,
)

URSELL_MAX_ORDER = 7
SERIES_BLOCK = 1 << 12  # multisets per block of polymer_series; bounds its memory
_UNKNOWN = np.iinfo(np.int32).min  # Ursell coefficient of a pattern not yet seen


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
    return _ursell_masked(m, tuple(adj), (1 << m) - 1)


@lru_cache(maxsize=65536)
def _ursell_masked(m: int, adj: tuple[int, ...], vmask: int) -> int:
    if vmask.bit_count() == 1:
        return 1
    members = [i for i in range(m) if (vmask >> i) & 1]

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
            total -= _ursell_masked(m, adj, w)
        if sub == 0:
            break
    return total


def _multiset_ursell(masks: tuple[int, ...]) -> int:
    m = len(masks)
    edges = frozenset(
        (u, v)
        for u in range(m)
        for v in range(u + 1, m)
        if masks[u] & masks[v]
    )
    return connected_mayer_sum(m, edges)


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
        raise ValueError(f"max_size must be >= 0, got {size_cutoff}")


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
    in run order; multisets with U = 0 give no piece.  The Ursell coefficient
    U depends only on which slots overlap, so it is looked up per pattern
    code (bit i set when the i-th slot pair overlaps) in a table filled on
    first use.  math.fsum is exactly rounded, so the order in which the
    blocks visit the multisets does not change the term.
    """
    slot_pairs = list(itertools.combinations(range(order), 2))
    ursell_of_code = np.full(1 << len(slot_pairs), _UNKNOWN, dtype=np.int32)
    factorial = np.array([float(math.factorial(k)) for k in range(order + 1)])

    def pieces():
        for rows in _multiset_blocks(len(acts), order):
            slot_words = [words[:, rows[:, k]] for k in range(order)]
            code = np.zeros(len(rows), dtype=np.int64)
            for bit, (a, b) in enumerate(slot_pairs):
                overlap = (slot_words[a] & slot_words[b]).any(axis=0)
                code |= overlap.astype(np.int64) << bit
            u = ursell_of_code[code]
            new_codes = np.unique(code[u == _UNKNOWN]).tolist()
            for c in new_codes:
                ursell_of_code[c] = connected_mayer_sum(
                    order, frozenset(e for i, e in enumerate(slot_pairs) if c >> i & 1)
                )
            if new_codes:
                u = ursell_of_code[code]
            keep = u != 0
            rows = rows[keep]
            piece = u[keep].astype(np.float64)
            for k in range(order):
                piece *= acts[rows[:, k]]
            run = np.ones(len(rows), dtype=np.int64)
            for k in range(order - 1):
                ends = rows[:, k] != rows[:, k + 1]
                np.divide(piece, factorial[run], out=piece, where=ends)
                run = np.where(ends, 1, run + 1)
            piece /= factorial[run]
            yield piece.tolist()

    return math.fsum(itertools.chain.from_iterable(pieces()))


def _multiset_blocks(p: int, order: int):
    """Every nondecreasing `order`-tuple over range(p), SERIES_BLOCK rows at a time.

    Colex rank r unranks to c_1 < ... < c_order in range(p + order - 1) with
    r = sum_k C(c_k, k); the tuple is (c_k - k + 1)_k.  Each block unranks
    its own rank range, so memory does not grow with the tuple count.
    """
    total = math.comb(p + order - 1, order)
    # C(c, k) for c < p + order - 1; entries past `total` exceed every rank,
    # so they are clipped to fit int64
    binom = {
        k: np.array(
            [min(math.comb(c, k), total) for c in range(p + order - 1)], dtype=np.int64
        )
        for k in range(1, order + 1)
    }
    for start in range(0, total, SERIES_BLOCK):
        rank = np.arange(start, min(start + SERIES_BLOCK, total), dtype=np.int64)
        rows = np.empty((len(rank), order), dtype=np.int64)
        for k in range(order, 0, -1):
            c = np.searchsorted(binom[k], rank, side="right") - 1
            rank -= binom[k][c]
            rows[:, k - 1] = c - (k - 1)
        yield rows


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
