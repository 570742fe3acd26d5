"""Generalized loops, their activities, and the loop-corrected partition sum.

The partition function factorizes as Z = exp(n f_bethe) * sum_g K(g), where g
runs over all subsets of edges and K(g) is a product of one factor per touched
check and variable.  The factors are built from an exact per-edge resolution
of the identity, so the full-subset expansion holds for arbitrary messages.
A node's factor depends only on which of its edges g includes, so each node
has one table of 2^d factors (ActivityEvaluator); the walk and the
activities of edge lists read those tables.  At a BP fixed point every
subset containing a node of induced degree one drops out, and the sum
collapses onto generalized loops: subsets whose every touched node has
induced degree at least two.

Polymers are connected generalized loops; every generalized loop is a disjoint
union of polymers and its activity factorizes over them.

One walk visits every generalized loop, carrying its activity when asked.
It goes one check at a time over a numpy frontier of partial choices.  At
each check it crosses a state only with the options that keep every
variable closing there off induced degree one, decided once per pattern of
those variables' degrees, so no pair that one of them would end is ever
built; what it keeps, and in what order, is the same as crossing every
state with every option and filtering.  _runs expands the (state, option)
pairs state-major, so the leaves come out in depth-first order: the
lexicographic order of the per-check options, with the empty option first.
That order is part of the output: the polymers are listed, and q adds
each node's weights, in it.  Pairs and leaves go in chunks of _CHUNK,
which bounds the temporaries, and the visit budget is checked at every
chunk boundary, so an over-budget walk is refused after at most one chunk
more than the budget.  Expansion's series grows its families with _runs.
Enumeration (with or without activities) and the loop sum with its
small/large split read the leaf arrays chunk by chunk, from leaf 1: leaf 0
is the empty loop.  A loop splits into polymers along its checks:
Warshall's closure on the node masks of its check blocks merges every two
blocks that share a node, for all loops of a chunk at once and for each
connected component of the graph's checks on its own.  The loop sum adds
each chunk's terms into exact integers (_exact_total; it also sums
expansion's families) and rounds once at the end.  The identity check
adds the exact ln Z, BP and the Bethe free energy to the loop sum.

Expansion's series and criterion take their polymers from a walk capped
at their size cutoff (_polymer_arrays), so without a cutoff their
polymers, activities, order and q are the loop sum's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bp import (
    MessageSet,
    check_forms,
    check_weight_range,
    node_name,
    solve_fixed_point,
    table_degree,
    table_fold,
)
from .bethe import bethe_free_energy
from .errors import (
    BudgetExceededError,
    HypothesisNotMetError,
    LogDomainError,
    SingularDenominatorError,
    WeightOverflowError,
)
from .exact import log_partition
from .graphs import (
    ExpanderCheckResult,
    ExpanderParams,
    FactorGraph,
    GeneralWeights,
    LdgmWeights,
    LdpcWeights,
)

_DENOMINATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class Polymer:
    """A generalized loop: its edge ids and touched-node bookkeeping.

    node_mask packs variable i as bit i and check a as bit n + a; size is the
    number of touched nodes.  enumerate_polymers returns connected loops,
    the polymers proper; the other enumerations return every loop, each a
    disjoint union of polymers, in the same record.
    """

    edge_ids: tuple[int, ...]
    node_mask: int
    size: int


@dataclass(frozen=True)
class LoopSumResult:
    """The loop sum and its small/large split; see loop_sum_direct."""

    total: float
    loop_count: int
    polymer_count: int
    z_small: float
    r_large: float
    q: float


@dataclass(frozen=True)
class IdentityReport:
    """The verify-identity payload; see verify_loop_identity."""

    ln_z_exact: float
    f_bethe: float
    ln_loop_sum: float
    residual: float
    bp_residual: float
    q: float
    z_small: float
    r_large: float
    loop_count: int
    polymer_count: int
    max_dangling_activity: float


# ---------------------------------------------------------------------------
# activities


def _masked_products(start: list[float], factors: list[tuple]) -> np.ndarray:
    """(rows, 2^d) products over the local masks of d edges: row r is start[r]
    times, edge by edge, off[r] or on[r] of factors[k] = (off, on) as bit k
    of the mask is clear or set."""
    prod = np.array(start)[:, None]
    for off, on in factors:
        prod = np.concatenate([prod * np.array(off)[:, None], prod * np.array(on)[:, None]], 1)
    return prod


class ActivityEvaluator:
    """The touched-node factors of one (graph, messages) pair: one float64
    table per node, node ids as in Polymer.node_mask (check a is n + a).

    Entry mask of a node's table is its factor when a subset includes the
    node's edges whose bits are set, bit k for its k-th edge in var_edges /
    check_edges order; entry 0, the untouched node, is 1.0.  A table is built
    in d numpy passes the first time its node is read: variables and parity
    checks as masked products in the per-node rule's order, general checks
    as one table_fold of the check table with the pairs ((1 + t) / 2,
    (1 - t) / 2) and ((1 - t_hat) / 2, (-1 - t_hat) / 2).  An entry whose
    normalization is below _DENOMINATOR_FLOOR relative to its numerator is
    flagged; reading it raises SingularDenominatorError naming the node.  A
    node of degree above CHECK_TABLE_MAX_DEGREE raises DegreeTooLargeError
    when first read, before its table is allocated.
    """

    def __init__(self, graph: FactorGraph, messages: MessageSet) -> None:
        check_weight_range(graph)
        self.graph = graph
        self.t = np.asarray(messages.var_to_check, dtype=float).tolist()
        self.that = np.asarray(messages.check_to_var, dtype=float).tolist()
        w = graph.weights
        self.fields = w.variable_fields if isinstance(w, LdpcWeights) else (0.0,) * graph.n
        self.forms = check_forms(graph)
        # per node, (factors, flagged, normalization) over its local masks
        self._tables: list[tuple | None] = [None] * (graph.n + graph.m)
        # per edge, its variable and check as nodes, and its local bit at each
        self.edge_nodes = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T + [[0], [graph.n]]
        self.edge_bits = np.zeros((2, graph.edge_count), dtype=np.int64)
        for side, incidence in enumerate((graph.var_edges, graph.check_edges)):
            for eids in incidence:
                self.edge_bits[side, list(eids)] = 1 << np.arange(len(eids))
        self.last_check = _last_checks(graph)

    def _terms(self, node: int) -> tuple[np.ndarray, np.ndarray | float]:
        """(numerator, normalization) of node's factor over its local masks."""
        t, that, n = self.t, self.that, self.graph.n
        if node < n:
            h = self.fields[node]
            up, dn, sign = _masked_products(
                [math.exp(h), math.exp(-h), 1.0],
                [((1.0 + that[e], 1.0 - that[e], 1.0), (1.0 - t[e], 1.0 + t[e], -1.0))
                 for e in self.graph.var_edges[node]],
            )
            return up + sign * dn, up[0] + dn[0]
        eids, form = self.graph.check_edges[node - n], self.forms[node - n]
        if isinstance(self.graph.weights, GeneralWeights):
            pairs = [[(1.0 + t[e], 1.0 - t[e]), (1.0 - that[e], -1.0 - that[e])] for e in eids]
            num = table_fold(np.array(form), [[(p / 2.0, q / 2.0) for p, q in w] for w in pairs])
            return num, num[0]
        out_t, in_that, in_t, sign = _masked_products(
            [1.0] * 4, [((t[e], 1.0, 1.0, 1.0), (1.0, that[e], t[e], -1.0)) for e in eids]
        )
        tau = form[1]
        return sign * in_that + tau * out_t, 1.0 + tau * out_t * in_t

    def _entries(self, node: int) -> tuple:
        if self._tables[node] is None:
            table_degree(self.graph, node)
            with np.errstate(all="ignore"):
                num, den = self._terms(node)
                den = np.broadcast_to(den, num.shape)
                flagged = np.abs(den) < _DENOMINATOR_FLOOR * np.fmax(1.0, np.abs(num))
                factors = num / den
            factors[0], flagged[0] = 1.0, False
            self._tables[node] = factors, flagged, den
        return self._tables[node]

    def _read(self, nodes: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """The table entry of each (node, mask) pair; SingularDenominatorError
        for the first pair whose entry is flagged."""
        if not len(nodes):
            return np.zeros(0)
        distinct, which = np.unique(nodes, return_inverse=True)
        tables = [self._entries(node) for node in distinct.tolist()]
        at = np.cumsum([0] + [len(f) for f, _, _ in tables])[which] + masks
        factors, flagged = (np.concatenate([table[k] for table in tables])[at] for k in (0, 1))
        if flagged.any():
            j = int(flagged.argmax())
            node = int(nodes[j])
            den = float(self._tables[node][2][masks[j]])
            raise SingularDenominatorError(
                f"{node_name(self.graph, node)} normalization {den} is numerically singular"
            )
        return factors

    def table(self, node: int, masks=None) -> np.ndarray:
        """node's factors at the given local masks, by default all 2^d of
        them in mask order; SingularDenominatorError if one is flagged."""
        if masks is None:
            masks = np.arange(len(self._entries(node)[0]))
        return self._read(np.full(len(masks), node), np.asarray(masks, dtype=np.intp))

    def value(self, edge_ids: tuple[int, ...]) -> float:
        """The activity of one edge subset, bit for bit the walk's product:
        1.0 times, check by check, its table entry and then those of the
        variables whose last check it is, ascending; see _read."""
        edges = list(edge_ids)
        masks: dict[int, int] = {}
        for node, bit in zip(
            self.edge_nodes[:, edges].ravel().tolist(), self.edge_bits[:, edges].ravel().tolist()
        ):
            masks[node] = masks.get(node, 0) | bit
        n = self.graph.n
        nodes = sorted(masks, key=lambda v: (v - n, -1) if v >= n else (self.last_check[v], v))
        factors = self._read(np.array(nodes, np.intp), np.array([masks[v] for v in nodes], np.intp))
        return float(math.prod(factors.tolist()))

    def values(self, edge_id_tuples) -> np.ndarray:
        """value of every edge subset, as one float64 array."""
        return np.array([self.value(s) for s in edge_id_tuples], dtype=np.float64)


# ---------------------------------------------------------------------------
# the loop walk

# Frontier expansions (state, option pairs) processed at once, and leaves
# handed to a consumer at once.  Bounds the walk's temporaries; the visit
# budget is checked after each chunk.
_CHUNK = 1 << 14


def _check_options(graph: FactorGraph, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Check a's locally admissible edge subsets (size != 1), as a bool
    (subsets, degree) matrix over check_edges[a] and each subset's local
    mask (bit k for the k-th edge, its table index) in the narrowest
    unsigned type that holds d bits.  The empty subset comes
    first, then by size, then in itertools.combinations order, which within
    one size is the descending order of the rows.  The walk branches in
    this order, which fixes its leaf order.  DegreeTooLargeError past
    CHECK_TABLE_MAX_DEGREE.
    """
    d = table_degree(graph, graph.n + a)
    masks = np.arange(1 << d, dtype=np.min_scalar_type((1 << d) - 1))
    masks = masks[np.bitwise_count(masks) != 1]
    options = np.empty((len(masks), d), dtype=bool)
    for k in range(d):
        options[:, k] = masks >> k & 1
    order = np.lexsort([~options[:, k] for k in range(d - 1, -1, -1)] + [np.bitwise_count(masks)])
    return options[order], masks[order]


class _Leaves:
    """The leaves of one walk: every choice of one option per check that
    survived it, in depth-first order.

    levels[a] = (parent, option): for each state after check a, its parent's
    index among the states after check a - 1 (the single root before check
    0) and its option index at check a.  prod holds each leaf's activity;
    leaf 0 takes the empty option at every check, the only empty leaf.
    visits counts every state, the root included.  option_words[a] holds
    the node masks of check a's options, as node_words.  order lists the
    checks by connected component of the graph, and lower[:, r] holds the
    bits of the checks below order[r], as a (words, 1) column.

    A loop's polymers are the classes of checks whose blocks are joined by
    shared variables.  Check bits never coincide, so two blocks share a
    variable exactly when their node words share a bit, and blocks of
    different components of the graph's checks never do.

    Arrays over loops keep the loops on their last axis, so that reductions
    over checks or mask words run across whole rows.
    """

    def __init__(
        self,
        graph: FactorGraph,
        options: list[np.ndarray],
        levels: list[tuple[np.ndarray, np.ndarray]],
        prod: np.ndarray,
        visits: int,
    ) -> None:
        self.graph = graph
        self.options = options
        self.levels = levels
        self.prod = prod
        self.visits = visits
        self.mask_words = max(1, (graph.n + graph.m + 63) // 64)
        self.option_words = []
        for a, opts in enumerate(options):
            words = np.zeros((self.mask_words, len(opts)), dtype=np.uint64)
            for b, member in [(graph.n + a, opts.any(axis=1))] + [
                (graph.edges[e][0], opts[:, k]) for k, e in enumerate(graph.check_edges[a])
            ]:
                words[b >> 6] |= member.astype(np.uint64) << np.uint64(b & 63)
            self.option_words.append(words)
        # the checks by connected component of the graph, ascending within
        # each; components holds, for every component of two or more
        # checks (a lone check is a polymer of its own), its row slice and
        # the slice of node words from the lowest to the highest that its
        # nodes occupy: no other word of its parts is ever set
        seen: set[int] = set()
        self.order: list[int] = []
        self.components: list[tuple[slice, slice]] = []
        for a in range(graph.m):
            if a in seen:
                continue
            reached, todo = {a}, [a]
            nodes = {graph.n + a}
            while todo:
                for e in graph.check_edges[todo.pop()]:
                    nodes.add(graph.edges[e][0])
                    for f in graph.var_edges[graph.edges[e][0]]:
                        b = graph.edges[f][1]
                        if b not in reached:
                            reached.add(b)
                            nodes.add(graph.n + b)
                            todo.append(b)
            if len(reached) > 1:
                rows = slice(len(self.order), len(self.order) + len(reached))
                words = slice(min(nodes) >> 6, (max(nodes) >> 6) + 1)
                self.components.append((rows, words))
            self.order += sorted(reached)
            seen |= reached
        lower = [(1 << (graph.n + a)) - (1 << graph.n) for a in self.order]
        self.lower = node_words(lower, graph.n + graph.m)[:, :, None]

    def loops(self):
        """(choices, activities) of the nonempty leaves, chunk by chunk in
        walk order; choices[a, j] is loop j's option index at check a,
        rebuilt by backtracking through the levels in their stored narrow
        types, so no copy of them is made.  Leaf 0, the empty option at
        every check, is the only empty leaf, so the chunks start at leaf 1."""
        for start in range(1, len(self.prod), _CHUNK):
            stop = min(start + _CHUNK, len(self.prod))
            idx = np.arange(start, stop)
            choices = np.empty((len(self.levels), stop - start), dtype=np.intp)
            for a in range(len(self.levels) - 1, -1, -1):
                parent, option = self.levels[a]
                choices[a] = option[idx]
                idx = parent[idx]
            yield choices, self.prod[start:stop]

    def split(self, choices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(count, largest, union) of the given loops: each loop's polymer
        count, the size of its largest polymer and its (words, loops) node
        masks.

        The loops go through in slices.  part[:, r] starts as the block of
        check order[r], the node words of its chosen option, empty when the
        check is outside the loop; each component of the graph's checks is
        one run of rows over the span of words its nodes occupy, a view.
        Warshall's closure on node masks, one component at a time: for each
        row k of it, every part of the component that shares a node with
        part[:, k] takes it in, after which each part is the node mask of
        the polymer that holds its check.  A polymer is counted at its lowest check, the one whose
        part holds no lower check's bit.  The closure's passes over the
        parts are why a slice holds at most 512 * _CHUNK bytes of them.
        """
        m = len(self.option_words)
        count = np.empty(choices.shape[1], dtype=np.intp)
        largest = np.empty(choices.shape[1], dtype=np.intp)
        union = np.empty((self.mask_words, choices.shape[1]), dtype=np.uint64)
        step = max(1, 512 * _CHUNK // (m * self.mask_words * 8))
        for start in range(0, choices.shape[1], step):
            here = slice(start, start + step)
            chosen = choices[self.order, here]
            # (words, checks, loops)
            part = np.stack(
                [self.option_words[a][:, c] for a, c in zip(self.order, chosen)], axis=1
            )
            union[:, here] = np.bitwise_or.reduce(part, axis=1)
            for rows, words in self.components:
                block = part[words, rows]
                for k in range(block.shape[1]):
                    block |= block[:, k : k + 1] * _meets(block, block[:, k])
            largest[here] = np.bitwise_count(part).sum(axis=0).max(axis=0)
            count[here] = ((chosen != 0) & ~_meets(part, self.lower)).sum(axis=0)
        return count, largest, union

    def records(self, choices: np.ndarray) -> list[Polymer]:
        """Polymer records of the given loops, edge ids in check order."""
        included = np.concatenate(
            [opts[choices[a]] for a, opts in enumerate(self.options)], axis=1
        )
        order = np.array([e for eids in self.graph.check_edges for e in eids], dtype=np.intp)
        edge_ids = order[included.nonzero()[1]].tolist()
        ends = np.cumsum(included.sum(axis=1)).tolist()
        union = np.zeros((self.mask_words, choices.shape[1]), dtype=np.uint64)
        for words, chosen in zip(self.option_words, choices):
            union |= words[:, chosen]
        sizes = np.bitwise_count(union).sum(axis=0).tolist()
        masks = union[0].tolist()
        for w in range(1, len(union)):
            masks = [low | high << (64 * w) for low, high in zip(masks, union[w].tolist())]
        edge_tuples = [tuple(edge_ids[s:e]) for s, e in zip([0] + ends[:-1], ends)]
        return list(map(Polymer, edge_tuples, masks, sizes))

    def profiles(self, choices: np.ndarray, shared: dict) -> list[tuple]:
        """(variable, check) degree profiles of the given loops.

        A profile lists (degree, node count) by increasing degree; a check's
        degree is its block's edge count, a variable's the number of blocks
        holding it.  shared maps each profile pair seen so far to one copy.
        """
        graph = self.graph
        var_deg = np.zeros((graph.n, choices.shape[1]), dtype=np.intp)
        for a, opts in enumerate(self.options):
            var_deg[[graph.edges[e][0] for e in graph.check_edges[a]]] += opts[choices[a]].T
        check_deg = np.stack(
            [opts.sum(axis=1)[choices[a]] for a, opts in enumerate(self.options)]
        )
        var_degrees = range(1, graph.l_max + 1)
        check_degrees = range(2, graph.r_max + 1)
        hist = np.stack(
            [(var_deg == d).sum(axis=0) for d in var_degrees]
            + [(check_deg == d).sum(axis=0) for d in check_degrees],
            axis=1,
        )
        out = []
        for key in map(tuple, hist.tolist()):
            if key not in shared:
                counts = key[: len(var_degrees)], key[len(var_degrees) :]
                shared[key] = tuple(
                    tuple((d, c) for d, c in zip(degrees, part) if c)
                    for degrees, part in zip((var_degrees, check_degrees), counts)
                )
            out.append(shared[key])
        return out


def _admitted_options(
    masks: np.ndarray, bits: np.ndarray, closing: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per frontier state, the options of one check that keep every
    variable closing there off induced degree one.

    masks holds the options' local masks (bit k for the check's k-th edge);
    bits is the frontier's (columns, states) included-edge bits; closing
    lists each closing variable's (frontier column, position in the
    check).  A state fixes the bits of the closing variables its
    included-edge bits leave at degree 0 or 1, and needs set exactly those
    at degree 1; an option is admitted when its mask, restricted to the
    fixed bits, equals the needed ones.  States are grouped by their (fixed,
    needed) pair.  The options are sorted once per fixed set by their
    restricted mask, stably, so each group's options are one run of that
    order, found by searchsorted, still in option order.  Returns (admitted,
    first, count): the admitted option indices of every group, run after
    run, and per state its group's run start and length.
    """
    bit = np.array([1 << k for _c, k in closing], dtype=masks.dtype)[:, None]
    degree = np.bitwise_count(bits[[c for c, _k in closing]])
    fixed = np.bitwise_or.reduce((degree < 2) * bit, axis=0)
    needed = np.bitwise_or.reduce((degree == 1) * bit, axis=0)
    # one key per pair, fixed in the high and needed in the low 32 bits (a
    # mask has at most CHECK_TABLE_MAX_DEGREE bits), so the groups sort by
    # fixed and then by needed
    keys, group = np.unique(fixed.astype(np.int64) << 32 | needed, return_inverse=True)
    fixed_sets, starts = np.unique(keys >> 32, return_index=True)
    admitted, count = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for f, want in zip(fixed_sets.tolist(), np.split(keys & 0xFFFFFFFF, starts[1:])):
        restricted = masks & f
        order = np.argsort(restricted, kind="stable")
        restricted = restricted[order]
        lo, hi = np.searchsorted(restricted, [want, want + 1])
        count.append(hi - lo)
        # the runs of want, in order: the positions whose value want holds
        inside = want.take(np.searchsorted(want, restricted), mode="clip") == restricted
        admitted.append(order[inside])
    count = np.concatenate(count)
    return np.concatenate(admitted), (np.cumsum(count) - count)[group], count[group]


def _runs(count: np.ndarray, chunk: int):
    """Every pair (s, k) with 0 <= k < count[s], s-major with k ascending,
    as arrays (s, k) of at most chunk pairs each; no chunk is empty.  Only
    the run ends stay alive between chunks."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, chunk):
        yield _run_chunk(count, ends, start, min(start + chunk, total))


def _run_chunk(count: np.ndarray, ends: np.ndarray, start: int, stop: int):
    # the runs lo..hi hold pairs start..stop - 1, the first and the last of
    # them cut to the chunk; run s's first pair is ends[s] - count[s]
    lo, hi = np.searchsorted(ends, [start, stop - 1], side="right").tolist()
    size = count[lo : hi + 1].copy()
    size[0] = ends[lo] - start
    size[-1] -= ends[hi] - stop
    s = np.repeat(np.arange(lo, hi + 1), size)
    return s, np.arange(start, stop) - ends[s] + count[s]


def _last_checks(graph: FactorGraph) -> list[int]:
    """Per variable, its highest check (-1 for none), where the walk closes it."""
    return [max((graph.edges[e][1] for e in eids), default=-1) for eids in graph.var_edges]


def _walk(
    graph: FactorGraph,
    budget: int,
    evaluator: ActivityEvaluator | None = None,
    max_nodes: int | None = None,
) -> _Leaves:
    """Visit every generalized loop once, one check level at a time.

    Checks are processed in index order.  A state dies as soon as a
    variable whose checks are all decided has induced degree one, or the
    touched nodes exceed max_nodes.  The first rule is applied before the
    state is crossed with the next check: _admitted_options picks, per
    distinct degree pattern of the variables closing at the check, the
    locally admissible edge subsets (see _check_options) that keep them all
    off degree one, by one test on their local masks, and _runs pairs each
    state with its admitted options in order, state-major, so the leaves
    are exactly those of crossing every state with every option and
    dropping the dead pairs, in the same order.  The frontier
    holds each state's activity and the included-edge bits of the
    variables still open, column-major: one contiguous row of states per
    open variable, so each flip, closing-table lookup and degree read runs
    over one row.  With an evaluator the activity is built up on the way
    down: prod * the check's table entry at the option's mask, then times each
    closing variable's entry at its included-edge bits, in the fixed closing
    order.  Every variable table is read before the first check, and each
    check's option entries at its level.  Without an evaluator it stays 1.
    The node tally is kept only when max_nodes can bind; it, the factors
    and the lookups run only on admitted pairs.
    Each level keeps only (parent, option) per state, from which _Leaves
    rebuilds the leaves.

    Every surviving state counts against the budget: BudgetExceededError
    is raised at the first chunk boundary (every _CHUNK pairs) where the
    visits exceed it, so exactly when the walk would visit more than
    budget states.
    """
    n, m = graph.n, graph.m
    n_cap = n + m if max_nodes is None else max_nodes
    # the node tally only matters when the cap can bind
    capped = n_cap < n + m
    last_check = _last_checks(graph)
    local_bit = {e: 1 << k for eids in graph.var_edges for k, e in enumerate(eids)}
    bits_dtype = np.min_scalar_type((1 << graph.l_max) - 1)
    # per variable, its factor by included-edge bits
    var_table = [
        np.ones(1 << len(eids)) if evaluator is None else evaluator.table(i)
        for i, eids in enumerate(graph.var_edges)
    ]

    open_vars: list[int] = []  # frontier column -> variable
    bits = np.zeros((0, 1), dtype=bits_dtype)  # (columns, states)
    prod = np.ones(1)
    nodes = np.zeros(1, dtype=np.min_scalar_type(n + m))  # the node tally, when capped
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    visits = 1
    if visits > budget:
        raise BudgetExceededError(f"loop walk exceeded budget of {budget} visits")
    options = []
    for a, eids in enumerate(graph.check_edges):
        opts, masks = _check_options(graph, a)
        options.append(opts)
        check_vars = [graph.edges[e][0] for e in eids]
        cols = open_vars + [i for i in check_vars if i not in open_vars]
        col = {i: c for c, i in enumerate(cols)}
        bits = np.pad(bits, ((0, len(cols) - len(bits)), (0, 0)))
        var_cols = [col[i] for i in check_vars]
        # per check edge, its option membership and its variable's flip by option
        member = np.ascontiguousarray(opts.T)
        flips = member * np.array([[local_bit[e]] for e in eids], dtype=bits_dtype)
        factor = np.ones(len(opts)) if evaluator is None else evaluator.table(n + a, masks)
        # closing variables in index order, the order their factors multiply in
        closing = [(col[i], var_table[i]) for i in sorted(cols) if last_check[i] == a]
        staying = np.array([c for c, i in enumerate(cols) if last_check[i] != a], dtype=np.intp)
        # each chunk's (parent, option) narrowed before it is kept
        narrow = np.min_scalar_type(max(len(prod) - 1, 0)), np.min_scalar_type(len(opts) - 1)
        admitted, first, count = _admitted_options(
            masks, bits, [(c, var_cols.index(c)) for c, _table in closing]
        )
        # an empty part keeps the level defined when no pair survives
        parts = [(*(np.zeros(0, t) for t in narrow), bits[staying, :0], prod[:0], nodes[:0])]
        # pair (s, n) takes state s's n-th admitted option
        for parent, nth in _runs(count, _CHUNK):
            option = admitted[first[parent] + nth]
            child = bits[:, parent]
            grown = nodes[:0]
            if capped:
                grown = nodes[parent] + (option > 0)
                for k, c in enumerate(var_cols):
                    grown += member[k][option] & (child[c] == 0)
                keep = np.flatnonzero(grown <= n_cap)
                parent, option, child, grown = parent[keep], option[keep], child[:, keep], grown[keep]
            for k, c in enumerate(var_cols):
                child[c] ^= flips[k][option]
            p = prod[parent] * factor[option]
            for c, table in closing:
                p = p * table[child[c]]
            visits += len(parent)
            if visits > budget:
                raise BudgetExceededError(f"loop walk exceeded budget of {budget} visits")
            narrowed = parent.astype(narrow[0]), option.astype(narrow[1])
            parts.append((*narrowed, child[staying], p, grown))
        parent, option, bits, prod, nodes = (np.concatenate(x, axis=-1) for x in zip(*parts))
        del parts
        levels.append((parent, option))
        open_vars = [cols[c] for c in staying.tolist()]
    return _Leaves(graph, options, levels, prod, visits)


def node_words(masks: list[int], node_count: int) -> np.ndarray:
    """Node masks over node_count nodes as a (words, masks) uint64 array.

    Bit b of a mask goes to bit b % 64 of word b // 64; there are always
    enough words for every node, at least one.
    """
    out = np.zeros((max(1, (node_count + 63) // 64), len(masks)), dtype=np.uint64)
    low = (1 << 64) - 1
    for w in range(len(out)):
        out[w] = [(mask >> (64 * w)) & low for mask in masks]
    return out


def _meets(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where the node-word arrays x and y (words on the first axis,
    broadcast over the rest) share a node, one word at a time."""
    out = (x[0] & y[0]) != 0
    for w in range(1, len(x)):
        out |= (x[w] & y[w]) != 0
    return out


# e^s for the sizes s = 0..709 where it is finite; math.exp, not np.exp,
# which may differ in the last bit
_EXP_SIZE = np.array([math.exp(s) for s in range(710)])


def polymer_q(load: np.ndarray, words: np.ndarray, acts, sizes) -> float:
    """Add each polymer's weight to load at the nodes it touches and return
    the largest load: q, the single-node statistic of the series criterion.

    A polymer's weight is |K| e^size up to size 709; past it e^(size +
    ln|K|), which is 0 for K = 0 and inf only past float range.  words is
    node_words over len(load) nodes, one column per polymer; each node's
    load grows one weight at a time in column order, so a fixed polymer
    order gives a reproducible q.
    """
    acts = np.abs(np.asarray(acts, dtype=np.float64))
    sizes = np.asarray(sizes, dtype=np.intp)
    big = sizes >= len(_EXP_SIZE)
    with np.errstate(divide="ignore", over="ignore"):
        weights = acts * _EXP_SIZE[np.where(big, 0, sizes)]
        if big.any():
            weights[big] = np.exp(sizes[big] + np.log(acts[big]))
    for b in range(len(load)):
        through = weights[(words[b >> 6] >> (b & 63) & 1).astype(bool)]
        if len(through):
            # load + w0 is w0 + load: addition commutes in IEEE arithmetic
            through[0] += load[b]
            load[b] = np.add.accumulate(through)[-1]
    return max(load.tolist(), default=0.0)


def _exact_total(x: np.ndarray) -> int:
    """The exact sum of the finite float64 array x, as an int in units of
    2**-1126, which total / 2**1126 rounds correctly (math.fsum's value,
    +0.0 when 0).  x holds fewer than 2**26 elements, else ValueError.

    A finite x is m * 2**e (np.frexp) with m * 2**53 an integer below 2**53
    in magnitude, even for subnormals; it splits into halves hi * 2**26 + lo
    with |hi| < 2**27 and |lo| < 2**26.  Per exponent each half is summed by
    a float64 bincount, exact for fewer than 2**26 elements, and the bins
    are folded into one Python int.
    """
    if len(x) >= 1 << 26:
        raise ValueError(f"_exact_total adds fewer than 2**26 elements at once, got {len(x)}")
    m, e = np.frexp(x)
    m *= 2.0**27
    hi = np.trunc(m)
    m -= hi
    m *= 2.0**26
    e += 1073  # the least exponent, of 2**-1074, is -1073
    hi, lo = np.bincount(e, hi), np.bincount(e, m)
    at = np.flatnonzero((hi != 0) | (lo != 0))
    hi, lo = hi[at].tolist(), lo[at].tolist()
    return sum(((int(a) << 26) + int(b)) << k for k, a, b in zip(at.tolist(), hi, lo))


# ---------------------------------------------------------------------------
# enumeration and loop sums


def loop_activities(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
) -> list[tuple[Polymer, float, tuple, tuple]]:
    """Every generalized loop with its activity and degree profiles, sorted
    by (edge count, edge ids).

    Each entry is (loop, activity, variable profile, check profile); the
    activity is the product the walk carries down to the loop, the profiles
    come from its check blocks (see _Leaves.profiles).
    """
    leaves = _walk(graph, budget, ActivityEvaluator(graph, messages))
    out: list[tuple[Polymer, float, tuple, tuple]] = []
    # profiles repeat (142 distinct ones over the README demo's 151,338 loops):
    # keep one copy of each
    shared: dict[tuple, tuple] = {}
    for choices, prod in leaves.loops():
        records = leaves.records(choices)
        profiles = leaves.profiles(choices, shared)
        out += [
            (loop, activity, *profile)
            for loop, activity, profile in zip(records, prod.tolist(), profiles)
        ]
    out.sort(key=lambda entry: (len(entry[0].edge_ids), entry[0].edge_ids))
    return out


def enumerate_polymers(
    graph: FactorGraph,
    max_size: int | None = None,
    budget: int = 10_000_000,
) -> list[Polymer]:
    """Connected generalized loops with at most max_size touched nodes, in
    walk order."""
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    leaves = _walk(graph, budget, max_nodes=max_size)
    out: list[Polymer] = []
    for choices, _prod in leaves.loops():
        connected = leaves.split(choices)[0] == 1
        out += leaves.records(choices[:, connected])
    return out


def _polymer_arrays(graph: FactorGraph, max_size: int | None, budget: int, evaluator=None):
    """(node words, activities, sizes) of enumerate_polymers' polymers, in
    its order, from one walk; the activities are 1.0 without an evaluator."""
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    leaves = _walk(graph, budget, evaluator, max_nodes=max_size)
    parts = [(np.zeros((leaves.mask_words, 0), np.uint64), leaves.prod[:0], np.zeros(0, np.intp))]
    for choices, prod in leaves.loops():
        count, largest, union = leaves.split(choices)
        connected = count == 1
        parts.append((union[:, connected], prod[connected], largest[connected]))
    return tuple(np.concatenate(x, axis=-1) for x in zip(*parts))


def loop_sum_direct(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
    split_lambda: float = 0.5,
) -> LoopSumResult:
    """1 + sum of activities over all generalized loops, in one walk.

    The loop terms are added exactly, chunk by chunk (_exact_total), and
    rounded once: bit for bit 1.0 + math.fsum of the activities.  A
    non-finite activity, or a sum past the float range, raises
    WeightOverflowError.  The walk also splits the sum by polymer size: a
    loop term is small when each polymer of its disjoint decomposition has
    size < split_lambda * n; z_small is 1 plus the small terms, r_large the
    rest, each rounded once likewise.  The connected loops are the
    polymers; q is polymer_q over them in walk order, convergence_criterion_q
    with no cutoff, and a q past the float range raises WeightOverflowError.
    """
    _check_split_lambda(split_lambda)
    return _loop_sum(ActivityEvaluator(graph, messages), budget, split_lambda)


def _check_split_lambda(split_lambda: float) -> None:
    if not math.isfinite(split_lambda):
        raise ValueError(f"split_lambda must be a finite number, got {split_lambda}")


def _loop_sum(evaluator: ActivityEvaluator, budget: int, split_lambda: float) -> LoopSumResult:
    graph = evaluator.graph
    leaves = _walk(graph, budget, evaluator)
    threshold = split_lambda * graph.n
    small = large = 0  # exact, in units of 2**-1126 (_exact_total)
    load = np.zeros(graph.n + graph.m)
    polymer_count, q = 0, 0.0
    for choices, prod in leaves.loops():
        j = int(np.isfinite(prod).argmin())  # the first non-finite term if any
        if not math.isfinite(prod[j]):
            edges = list(leaves.records(choices[:, j : j + 1])[0].edge_ids)
            raise WeightOverflowError(f"loop on edges {edges} has non-finite activity {prod[j]}")
        count, largest, union = leaves.split(choices)
        is_large = largest >= threshold
        large += _exact_total(prod[is_large])
        small += _exact_total(prod[~is_large])
        connected = count == 1
        polymer_count += int(connected.sum())
        q = polymer_q(load, union[:, connected], prod[connected], largest[connected])
    try:
        total, z_small, r_large = (s / (1 << 1126) for s in (small + large, small, large))
    except OverflowError:
        raise WeightOverflowError("the loop sum passes the float range") from None
    if not math.isfinite(q):
        raise WeightOverflowError(f"q = {q} passes the float range")
    return LoopSumResult(
        total=1.0 + total,
        loop_count=len(leaves.prod) - 1,
        polymer_count=polymer_count,
        z_small=1.0 + z_small,
        r_large=r_large,
        q=q,
    )


# ---------------------------------------------------------------------------
# end-to-end identity check


def verify_loop_identity(
    graph: FactorGraph,
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    budget: int = 10_000_000,
    split_lambda: float = 0.5,
) -> IdentityReport:
    """Check ln Z = n f_bethe + ln(1 + sum of loop activities) on one instance.

    Takes ln Z from log_partition, runs BP to a fixed point for f_bethe, then
    takes the loop sum, its counts, q and its split at polymer size
    split_lambda * n from one loop_sum_direct walk.  max_dangling_activity
    is the largest single-edge activity, which vanishes at an exact fixed
    point; it reads the node tables the walk built.
    """
    _check_split_lambda(split_lambda)
    check_weight_range(graph)
    ln_z = log_partition(graph).log_z
    bp = solve_fixed_point(graph, damping=damping, tol=tol, max_iter=max_iter)
    f = bethe_free_energy(graph, bp.messages).f_bethe
    ev = ActivityEvaluator(graph, bp.messages)
    loops = _loop_sum(ev, budget, split_lambda)
    if loops.total <= 0.0:
        raise LogDomainError(f"loop-sum total {loops.total} is not positive")
    ln_loop = math.log(loops.total)
    # a single edge's activity is its variable's entry times its check's
    variable, check = (ev._read(ev.edge_nodes[k], ev.edge_bits[k]) for k in (0, 1))
    return IdentityReport(
        ln_z_exact=ln_z,
        f_bethe=f,
        ln_loop_sum=ln_loop,
        residual=abs(ln_z - graph.n * f - ln_loop),
        bp_residual=bp.residual,
        q=loops.q,
        z_small=loops.z_small,
        r_large=loops.r_large,
        loop_count=loops.loop_count,
        polymer_count=loops.polymer_count,
        max_dangling_activity=float(np.abs(variable * check).max(initial=0.0)),
    )


# ---------------------------------------------------------------------------
# activity bounds


def _size_power(graph: FactorGraph, polymer: Polymer, x: float) -> float:
    """x^(2|g|/(2+r_max)), the per-size decay of the first three bounds."""
    return x ** (2.0 * polymer.size / (2.0 + graph.r_max))


def _check_theta_window(theta: float) -> None:
    if not 0.0 < theta <= 0.1:
        raise HypothesisNotMetError(f"theta = {theta} outside the validity window (0, 0.1]")


def high_temperature_activity_bound(graph: FactorGraph, polymer: Polymer) -> float:
    """(6 e mu)^(2|g|/(2+r_max)) for general weights at small coupling mass."""
    w = graph.weights
    if not isinstance(w, GeneralWeights):
        raise HypothesisNotMetError("high-temperature bound needs general weights")
    mu = w.mu()
    limit = 1.0 / (2.0 * graph.l_max**2 * graph.r_max)
    if not mu < limit:
        raise HypothesisNotMetError(
            f"coupling mass mu = {mu} is not below 1/(2 l_max^2 r_max) = {limit}"
        )
    return _size_power(graph, polymer, 6.0 * math.e * mu)


def ldgm_activity_bound(graph: FactorGraph, polymer: Polymer) -> float:
    """(12 e h)^(2|g|/(2+r_max)) for ldgm weights at small field strength."""
    w = graph.weights
    if not isinstance(w, LdgmWeights):
        raise HypothesisNotMetError("this bound needs ldgm weights")
    h = max((abs(x) for x in w.check_fields), default=0.0)
    limit = 1.0 / (4.0 * graph.l_max**2 * graph.r_max)
    if not h < limit:
        raise HypothesisNotMetError(
            f"field strength h = {h} is not below 1/(4 l_max^2 r_max) = {limit}"
        )
    return _size_power(graph, polymer, 12.0 * math.e * h)


def ldgm_trivial_activity_bound(
    graph: FactorGraph,
    polymer: Polymer,
    p: float,
    messages: MessageSet,
) -> float:
    """(1-2p)^(2|g|/(2+r_max)) at the all-zero fixed point of an ldgm channel."""
    w = graph.weights
    if not isinstance(w, LdgmWeights):
        raise HypothesisNotMetError("this bound needs ldgm weights")
    if not 0.0 < p < 0.5:
        raise HypothesisNotMetError(f"flip probability p = {p} not in (0, 1/2)")
    h = math.atanh(1.0 - 2.0 * p)
    if any(abs(abs(x) - h) > 1e-9 for x in w.check_fields):
        raise HypothesisNotMetError(
            "check fields do not all have the channel magnitude atanh(1-2p)"
        )
    peak = max(
        float(np.abs(messages.var_to_check).max(initial=0.0)),
        float(np.abs(messages.check_to_var).max(initial=0.0)),
    )
    if peak > 1e-12:
        raise HypothesisNotMetError(
            f"messages reach {peak}; the bound holds at the all-zero fixed point"
        )
    return _size_power(graph, polymer, 1.0 - 2.0 * p)


def ldpc_type_activity_bound(
    graph: FactorGraph,
    polymer: Polymer,
    theta: float,
    alpha1: float = 1.1,
    alpha2: float = 1.1,
) -> float:
    """Per-node type bound for ldpc activities in the high-noise window.

    Requires 0 < theta <= 0.1 and messages within theta of zero (the caller
    certifies the latter, e.g. with verify_high_noise).  Checks of degree r
    with d included edges contribute alpha1 * theta^(r-d), or 1 + alpha1 *
    theta^r when fully included; variables with d included edges contribute
    alpha2 * (1+d) * theta for odd d and 1 + (alpha2/2) * (1+4d+d^2) * theta^2
    for even d.
    """
    if not isinstance(graph.weights, LdpcWeights):
        raise HypothesisNotMetError("the type bound needs ldpc weights")
    _check_theta_window(theta)
    var_deg: dict[int, int] = {}
    check_deg: dict[int, int] = {}
    for e in polymer.edge_ids:
        i, a = graph.edges[e]
        var_deg[i] = var_deg.get(i, 0) + 1
        check_deg[a] = check_deg.get(a, 0) + 1
    bound = 1.0
    for a, d in check_deg.items():
        r = graph.check_degree(a)
        if d == r:
            bound *= 1.0 + alpha1 * theta**r
        else:
            bound *= alpha1 * theta ** (r - d)
    for _i, d in var_deg.items():
        if d % 2:
            bound *= alpha2 * (1.0 + d) * theta
        else:
            bound *= 1.0 + (alpha2 / 2.0) * (1.0 + 4.0 * d + d * d) * theta**2
    return bound


def expander_activity_bound(
    graph: FactorGraph,
    polymer: Polymer,
    theta: float,
    expander: ExpanderParams,
    certificate: ExpanderCheckResult,
) -> float:
    """theta^((c/2)|g|) for small polymers of a certified expander code."""
    if not isinstance(graph.weights, LdpcWeights):
        raise HypothesisNotMetError("the expander bound needs ldpc weights")
    if not certificate.certified:
        raise HypothesisNotMetError("the expansion property is not certified")
    _check_theta_window(theta)
    if not polymer.size < expander.lam * graph.n:
        raise HypothesisNotMetError(
            f"polymer size {polymer.size} is not below lambda*n = {expander.lam * graph.n}"
        )
    return theta ** (expander.c / 2.0 * polymer.size)
