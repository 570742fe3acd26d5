"""Generalized loops, their activities, and the loop-corrected partition sum.

The partition function factorizes as Z = exp(n f_bethe) * sum_g K(g), where g
runs over all subsets of edges and K(g) is a product of one factor per touched
check and variable.  The factors are built from an exact per-edge resolution
of the identity, so the full-subset expansion holds for arbitrary messages.
At a BP fixed point every subset containing a node of induced degree one drops
out, and the sum collapses onto generalized loops: subsets whose every touched
node has induced degree at least two.

Polymers are connected generalized loops; every generalized loop is a disjoint
union of polymers and its activity factorizes over them.

One walk visits every generalized loop, carrying its activity when asked.
It goes one check at a time over a numpy frontier of partial choices, and
keeps the (state, option) pairs state-major.  Its leaves therefore come out
in depth-first order: the lexicographic order of the per-check options, with
the empty option first.  That order is part of the output, because q adds
each node's weights in it.  The frontier is expanded, and the leaves handed
on, in chunks of _CHUNK, which bounds the temporaries.  The visit budget is
checked at every chunk boundary, so an over-budget walk is refused after at
most one chunk more than the budget.  Enumeration (with or without
activities) and the loop sum with its small/large split read the leaf
arrays chunk by chunk.  The identity check adds brute-force ln Z, BP and the
Bethe free energy to the loop sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bp import MessageSet, check_forms, check_sum, solve_fixed_point
from .bethe import bethe_free_energy
from .errors import (
    BudgetExceededError,
    HypothesisNotMetError,
    LogDomainError,
    SingularDenominatorError,
)
from .exact import brute_force_log_partition
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


class ActivityEvaluator:
    """Evaluates touched-node factors for one (graph, messages) pair.

    Precomputes everything reusable across subsets so that sweeping many
    polymers or subsets stays cheap.
    """

    def __init__(self, graph: FactorGraph, messages: MessageSet) -> None:
        self.graph = graph
        self.t = [float(x) for x in messages.var_to_check]
        self.that = [float(x) for x in messages.check_to_var]
        w = graph.weights
        self.kind = w.kind
        if isinstance(w, LdpcWeights):
            self.exp_h = [math.exp(h) for h in w.variable_fields]
            self.exp_mh = [math.exp(-h) for h in w.variable_fields]
        else:
            self.exp_h = [1.0] * graph.n
            self.exp_mh = [1.0] * graph.n
        self.forms = check_forms(graph)

    def check_factor(self, a: int, g_edges: frozenset[int] | set[int]) -> float:
        graph = self.graph
        t = self.t
        that = self.that
        eids = graph.check_edges[a]
        if self.kind == "general":
            den_w = [((1.0 + t[e]) / 2.0, (1.0 - t[e]) / 2.0) for e in eids]
            num_w = [
                ((1.0 - that[e]) / 2.0, (-1.0 - that[e]) / 2.0) if e in g_edges else pair
                for e, pair in zip(eids, den_w)
            ]
            psi = self.forms[a]
            num = check_sum(psi, num_w)
            den = check_sum(psi, den_w)
        else:
            d = 0
            out_prod = 1.0  # product of t over edges not in g
            in_that = 1.0  # product of t_hat over edges in g
            in_t = 1.0  # product of t over edges in g
            for e in eids:
                if e in g_edges:
                    d += 1
                    in_that *= that[e]
                    in_t *= t[e]
                else:
                    out_prod *= t[e]
            sign = -1.0 if d % 2 else 1.0
            _c, tau = self.forms[a]
            num = sign * in_that + tau * out_prod
            den = 1.0 + tau * out_prod * in_t
        if abs(den) < _DENOMINATOR_FLOOR * max(1.0, abs(num)):
            raise SingularDenominatorError(
                f"check {a} normalization {den} is numerically singular"
            )
        return num / den

    def var_factor(self, i: int, g_edges: frozenset[int] | set[int]) -> float:
        t = self.t
        that = self.that
        up = self.exp_h[i]
        dn = self.exp_mh[i]
        num_up = up
        num_dn = dn
        d = 0
        for e in self.graph.var_edges[i]:
            he = that[e]
            up_f = 1.0 + he
            dn_f = 1.0 - he
            if e in g_edges:
                d += 1
                te = t[e]
                num_up *= 1.0 - te
                num_dn *= 1.0 + te
            else:
                num_up *= up_f
                num_dn *= dn_f
            up *= up_f
            dn *= dn_f
        den = up + dn
        sign = -1.0 if d % 2 else 1.0
        num = num_up + sign * num_dn
        if abs(den) < _DENOMINATOR_FLOOR * max(1.0, abs(num)):
            raise SingularDenominatorError(
                f"variable {i} normalization {den} is numerically singular"
            )
        return num / den

    def touched(self, edge_ids: tuple[int, ...]) -> tuple[list[int], list[int]]:
        seen_v: set[int] = set()
        seen_c: set[int] = set()
        for e in edge_ids:
            i, a = self.graph.edges[e]
            seen_v.add(i)
            seen_c.add(a)
        return sorted(seen_v), sorted(seen_c)

    def value(self, edge_ids: tuple[int, ...]) -> float:
        g_edges = set(edge_ids)
        tv, tc = self.touched(edge_ids)
        out = 1.0
        for i in tv:
            out *= self.var_factor(i, g_edges)
        for a in tc:
            out *= self.check_factor(a, g_edges)
        return out


# ---------------------------------------------------------------------------
# the loop walk

# Frontier expansions (state, option pairs) processed at once, and leaves
# handed to a consumer at once.  Bounds the walk's temporaries; the visit
# budget is checked after each chunk.
_CHUNK = 1 << 14


def _check_options(graph: FactorGraph, a: int) -> np.ndarray:
    """Check a's locally admissible edge subsets (size != 1).

    A bool (options, degree) matrix over check_edges[a], one row per subset:
    the empty subset first, then by (size, edge positions).  The walk
    branches in this order, which fixes its leaf order.
    """
    d = len(graph.check_edges[a])
    combos = [c for k in range(2, d + 1) for c in itertools.combinations(range(d), k)]
    out = np.zeros((1 + len(combos), d), dtype=bool)
    for row, combo in enumerate(combos, start=1):
        out[row, list(combo)] = True
    return out


class _Leaves:
    """The leaves of one walk: every choice of one option per check that
    survived it, in depth-first order.

    levels[a] = (parent, option): for each state after check a, its parent's
    index among the states after check a - 1 (the single root before check
    0) and its option index at check a.  prod holds each leaf's activity;
    visits counts every state, the root included.

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
        # node masks of each check's options, as node_words
        self.option_words = []
        for a, opts in enumerate(options):
            masks = [0] + [1 << (graph.n + a)] * (len(opts) - 1)
            for e, member in zip(graph.check_edges[a], opts.T):
                for o in np.flatnonzero(member).tolist():
                    masks[o] |= 1 << graph.edges[e][0]
            self.option_words.append(node_words(masks, graph.n + graph.m))

    def loops(self):
        """(choices, activities) of the nonempty leaves, chunk by chunk in
        walk order; choices[a, j] is loop j's option index at check a,
        rebuilt by backtracking through the levels."""
        m = len(self.levels)
        for start in range(0, len(self.prod), _CHUNK):
            stop = min(start + _CHUNK, len(self.prod))
            idx = np.arange(start, stop)
            choices = np.empty((m, stop - start), dtype=np.intp)
            for a in range(m - 1, -1, -1):
                parent, option = self.levels[a]
                choices[a] = option[idx]
                idx = parent[idx]
            rows = np.flatnonzero(choices.any(axis=0))
            if len(rows):
                yield choices[:, rows], self.prod[start:stop][rows]

    def blocks(self, choices: np.ndarray) -> np.ndarray:
        """(words, checks, loops) node masks of each loop's check blocks; a
        check outside the loop has an all-zero block."""
        return np.stack(
            [table[:, choices[a]] for a, table in enumerate(self.option_words)], axis=1
        )

    def records(self, choices: np.ndarray, blocks: np.ndarray) -> list[Polymer]:
        """Polymer records of the given loops, edge ids in check order."""
        included = np.concatenate(
            [opts[choices[a]] for a, opts in enumerate(self.options)], axis=1
        )
        order = np.array([e for eids in self.graph.check_edges for e in eids], dtype=np.intp)
        edge_ids = order[included.nonzero()[1]].tolist()
        ends = np.cumsum(included.sum(axis=1)).tolist()
        union = np.bitwise_or.reduce(blocks, axis=1)
        sizes = np.bitwise_count(union).sum(axis=0).tolist()
        masks = union[0].tolist()
        for w in range(1, len(union)):
            masks = [low | high << (64 * w) for low, high in zip(masks, union[w].tolist())]
        edge_tuples = [tuple(edge_ids[s:e]) for s, e in zip([0] + ends[:-1], ends)]
        return list(map(Polymer, edge_tuples, masks, sizes))

    def profiles(self, choices: np.ndarray, blocks: np.ndarray, shared: dict) -> list[tuple]:
        """(variable, check) degree profiles of the given loops.

        A profile lists (degree, node count) by increasing degree; a check's
        degree is its block's edge count, a variable's the number of blocks
        holding it.  shared maps each profile pair seen so far to one copy.
        """
        graph = self.graph
        var_deg = np.stack(
            [(blocks[i >> 6] >> (i & 63) & 1).sum(axis=0) for i in range(graph.n)]
        )
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


def _walk(
    graph: FactorGraph,
    budget: int,
    evaluator: ActivityEvaluator | None = None,
    max_nodes: int | None = None,
) -> _Leaves:
    """Visit every generalized loop once, one check level at a time.

    Checks are processed in index order; each state of the frontier is
    crossed with every locally admissible edge subset of the next check, and
    the surviving (state, option) pairs are kept state-major, so the leaves
    come out in depth-first order (empty option first, see _check_options).
    A state dies as soon as a variable whose checks are all decided has
    induced degree one, or the touched nodes exceed max_nodes.  The frontier
    holds each state's activity and the included-edge bits of the variables
    still open; with an evaluator the activity is built up on the way down:
    prod * check factor, then times each closing variable's factor looked up
    by its included edges, in the fixed closing order.  Without one it stays
    1.  Each level keeps only (parent, option) per state, from which
    _Leaves rebuilds the leaves.

    The frontier is expanded in chunks of at most _CHUNK pairs, and every
    surviving state counts against the budget: BudgetExceededError is raised
    at the first chunk boundary where the visits exceed it, so exactly when
    the walk would visit more than budget states.
    """
    n, m = graph.n, graph.m
    n_cap = n + m if max_nodes is None else max_nodes
    # the node tally only matters when the cap can bind
    capped = n_cap < n + m
    options = [_check_options(graph, a) for a in range(m)]
    last_check = [max((graph.edges[e][1] for e in eids), default=-1) for eids in graph.var_edges]
    local_bit = {e: 1 << k for eids in graph.var_edges for k, e in enumerate(eids)}
    bits_dtype = np.min_scalar_type((1 << graph.l_max) - 1)
    single = np.bitwise_count(np.arange(1 << graph.l_max)) == 1
    # per variable, its factor by included-edge bits (1 for none)
    var_table = []
    for i, eids in enumerate(graph.var_edges):
        row = [1.0] * (1 << len(eids))
        if evaluator is not None:
            for mk in range(1, len(row)):
                row[mk] = evaluator.var_factor(i, {e for k, e in enumerate(eids) if mk >> k & 1})
        var_table.append(np.array(row))

    open_vars: list[int] = []  # frontier column -> variable
    bits = np.zeros((1, 0), dtype=bits_dtype)
    prod = np.ones(1)
    nodes = np.zeros(1, dtype=np.min_scalar_type(n + m))
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    visits = 1
    if visits > budget:
        raise BudgetExceededError(f"loop walk exceeded budget of {budget} visits")
    for a, opts in enumerate(options):
        eids = graph.check_edges[a]
        check_vars = [graph.edges[e][0] for e in eids]
        cols = open_vars + [i for i in check_vars if i not in open_vars]
        col = {i: c for c, i in enumerate(cols)}
        bits = np.pad(bits, ((0, 0), (0, len(cols) - bits.shape[1])))
        var_cols = [col[i] for i in check_vars]
        flips = (opts * np.array([local_bit[e] for e in eids], dtype=np.intp)).astype(bits_dtype)
        factor = np.ones(len(opts))
        if evaluator is not None:
            for o in range(1, len(opts)):
                factor[o] = evaluator.check_factor(a, {e for e, x in zip(eids, opts[o]) if x})
        # closing variables in index order, the order their factors multiply in
        closing = [(col[i], var_table[i]) for i in sorted(cols) if last_check[i] == a]
        staying = np.array([c for c, i in enumerate(cols) if last_check[i] != a], dtype=np.intp)
        states = len(prod)
        per_chunk = max(1, _CHUNK // len(opts))
        parts = []
        for start in range(0, max(states, 1), per_chunk):
            parent = np.repeat(np.arange(start, min(start + per_chunk, states)), len(opts))
            option = np.tile(np.arange(len(opts)), len(parent) // len(opts))
            child = bits[parent]
            alive = np.ones(len(parent), dtype=bool)
            grown = nodes[parent]
            if capped:
                grown = grown + (option > 0)
                for k, c in enumerate(var_cols):
                    grown += opts[option, k] & (child[:, c] == 0)
                alive = grown <= n_cap
            for k, c in enumerate(var_cols):
                child[:, c] ^= flips[option, k]
            p = prod[parent] * factor[option]
            for c, table in closing:
                mk = child[:, c]
                alive &= ~single[mk]
                p = p * table[mk]
            keep = np.flatnonzero(alive)
            visits += len(keep)
            if visits > budget:
                raise BudgetExceededError(f"loop walk exceeded budget of {budget} visits")
            parts.append((parent[keep], option[keep], child[np.ix_(keep, staying)], p[keep], grown[keep]))
        parent, option, bits, prod, nodes = (np.concatenate(x) for x in zip(*parts))
        levels.append(
            (
                parent.astype(np.min_scalar_type(max(states - 1, 0))),
                option.astype(np.min_scalar_type(len(opts) - 1)),
            )
        )
        open_vars = [cols[c] for c in staying.tolist()]
    return _Leaves(graph, options, levels, prod, visits)


def _peel(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component count and largest component size of each loop.

    blocks is (words, checks, loops) as from _Leaves.blocks; two blocks
    connect when they share a variable.  Each pass peels one component off
    every loop that has blocks left: seeded with its first block left, the
    component absorbs the blocks left that meet it until none joins.
    """
    left = blocks.any(axis=0)
    count = np.zeros(blocks.shape[2], dtype=np.intp)
    largest = np.zeros(blocks.shape[2], dtype=np.intp)
    rows = np.flatnonzero(left.any(axis=0))
    while len(rows):
        b = blocks[:, :, rows]
        b_left = left[:, rows]
        pool = b[:, b_left.argmax(axis=0), np.arange(len(rows))]
        while True:
            joined = b_left & (b & pool[:, None, :]).any(axis=0)
            grown = np.bitwise_or.reduce(b * joined, axis=1)
            if np.array_equal(grown, pool):
                break
            pool = grown
        count[rows] += 1
        size = np.bitwise_count(pool).sum(axis=0, dtype=np.intp)
        largest[rows] = np.maximum(largest[rows], size)
        left[:, rows] = b_left & ~joined
        rows = rows[left[:, rows].any(axis=0)]
    return count, largest


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


def _add_node_loads(load: np.ndarray, words: np.ndarray, weights: np.ndarray) -> None:
    """load[b] += each weight whose mask holds node b, one at a time in order.

    words is node_words over len(load) nodes.
    """
    for b in range(len(load)):
        through = weights[(words[b >> 6] >> (b & 63) & 1).astype(bool)]
        if len(through):
            load[b] = np.add.accumulate(np.concatenate(([load[b]], through)))[-1]


def max_node_load(node_count: int, masks: list[int], weights: list[float]) -> float:
    """max over nodes of the summed weights of the node masks through it.

    Each node's sum runs in the order of the masks, so a fixed order gives a
    reproducible value.
    """
    load = np.zeros(node_count)
    _add_node_loads(load, node_words(masks, node_count), np.array(weights, dtype=np.float64))
    return max(load.tolist(), default=0.0)


# ---------------------------------------------------------------------------
# enumeration and loop sums


def enumerate_generalized_loops(
    graph: FactorGraph,
    budget: int = 10_000_000,
) -> list[Polymer]:
    """All nonempty edge subsets with every touched node of induced degree >= 2.

    Sorted by (edge count, edge ids); the budget is the walk's.
    """
    leaves = _walk(graph, budget)
    out: list[Polymer] = []
    for choices, _prod in leaves.loops():
        out += leaves.records(choices, leaves.blocks(choices))
    out.sort(key=lambda g: (len(g.edge_ids), g.edge_ids))
    return out


def loop_activities(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
) -> list[tuple[Polymer, float, tuple, tuple]]:
    """Every generalized loop with its activity and degree profiles, in
    enumerate_generalized_loops order.

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
        blocks = leaves.blocks(choices)
        records = leaves.records(choices, blocks)
        profiles = leaves.profiles(choices, blocks, shared)
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
    """Connected generalized loops with at most max_size touched nodes."""
    leaves = _walk(graph, budget, max_nodes=max_size)
    out: list[Polymer] = []
    for choices, _prod in leaves.loops():
        blocks = leaves.blocks(choices)
        connected = _peel(blocks)[0] == 1
        out += leaves.records(choices[:, connected], blocks[:, :, connected])
    out.sort(key=lambda g: (len(g.edge_ids), g.edge_ids))
    return out


def loop_sum_direct(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
    split_lambda: float = 0.5,
) -> LoopSumResult:
    """1 + sum of activities over all generalized loops, in one walk.

    The loop terms are fsummed, so the total is the exactly rounded sum of
    the per-loop activities.  The same walk splits the sum by polymer size:
    a loop term is small when each polymer of its disjoint decomposition
    has size < split_lambda * n; z_small is 1 plus the small terms, r_large
    the rest.  The connected loops are the polymers; q is
    convergence_criterion_q's single-node statistic over them, each node's
    sum taken in the walk's depth-first leaf order.
    """
    leaves = _walk(graph, budget, ActivityEvaluator(graph, messages))
    threshold = split_lambda * graph.n
    # math.exp, not np.exp, which may differ in the last bit
    exp_size = np.array([math.exp(s) for s in range(graph.n + graph.m + 1)])
    small: list[float] = []
    large: list[float] = []
    load = np.zeros(graph.n + graph.m)
    polymer_count = 0
    for choices, prod in leaves.loops():
        blocks = leaves.blocks(choices)
        count, largest = _peel(blocks)
        is_large = largest >= threshold
        large += prod[is_large].tolist()
        small += prod[~is_large].tolist()
        connected = count == 1
        polymer_count += int(connected.sum())
        _add_node_loads(
            load,
            np.bitwise_or.reduce(blocks[:, :, connected], axis=1),
            np.abs(prod[connected]) * exp_size[largest[connected]],
        )
    return LoopSumResult(
        total=1.0 + math.fsum(small + large),
        loop_count=len(small) + len(large),
        polymer_count=polymer_count,
        z_small=1.0 + math.fsum(small),
        r_large=math.fsum(large),
        q=max(load.tolist(), default=0.0),
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

    Takes ln Z by brute force, runs BP to a fixed point for f_bethe, then
    takes the loop sum, its counts, q and its split at polymer size
    split_lambda * n from one loop_sum_direct walk.  max_dangling_activity
    is the largest single-edge activity, which vanishes at an exact fixed
    point.
    """
    ln_z = brute_force_log_partition(graph).log_z
    bp = solve_fixed_point(graph, damping=damping, tol=tol, max_iter=max_iter)
    f = bethe_free_energy(graph, bp.messages).f_bethe
    loops = loop_sum_direct(graph, bp.messages, budget, split_lambda)
    if loops.total <= 0.0:
        raise LogDomainError(f"loop-sum total {loops.total} is not positive")
    ln_loop = math.log(loops.total)
    ev = ActivityEvaluator(graph, bp.messages)
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
        max_dangling_activity=max(
            (abs(ev.value((e,))) for e in range(graph.edge_count)), default=0.0
        ),
    )


# ---------------------------------------------------------------------------
# activity bounds


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
    return (6.0 * math.e * mu) ** (2.0 * polymer.size / (2.0 + graph.r_max))


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
    return (12.0 * math.e * h) ** (2.0 * polymer.size / (2.0 + graph.r_max))


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
    return (1.0 - 2.0 * p) ** (2.0 * polymer.size / (2.0 + graph.r_max))


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
    if not 0.0 < theta <= 0.1:
        raise HypothesisNotMetError(
            f"theta = {theta} outside the validity window (0, 0.1]"
        )
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
    if not 0.0 < theta <= 0.1:
        raise HypothesisNotMetError(
            f"theta = {theta} outside the validity window (0, 0.1]"
        )
    if not polymer.size < expander.lam * graph.n:
        raise HypothesisNotMetError(
            f"polymer size {polymer.size} is not below lambda*n = {expander.lam * graph.n}"
        )
    return theta ** (expander.c / 2.0 * polymer.size)
