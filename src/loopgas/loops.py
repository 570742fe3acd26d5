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

One depth-first walk visits every generalized loop, carrying its activity
when asked.  Enumeration (with or without activities) and the loop sum with
its small/large split are leaf functions over that walk; the identity check
adds brute-force ln Z, BP and the Bethe free energy to the loop sum.
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


def _check_block_options(graph: FactorGraph) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Per check: the locally admissible edge subsets (size != 1).

    Every option is (node_mask, edge_ids), the mask holding the check and
    its chosen variables (0 for the empty option), ordered empty-first then
    by (size, ids), so the depth-first walk below is deterministic.
    """
    options = []
    for a in range(graph.m):
        eids = graph.check_edges[a]
        opts: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        for k in range(2, len(eids) + 1):
            for combo in itertools.combinations(eids, k):
                mask = 1 << (graph.n + a)
                for e in combo:
                    mask |= 1 << graph.edges[e][0]
                opts.append((mask, combo))
        options.append(opts)
    return options


def _walk(
    graph: FactorGraph,
    leaf,
    budget: int,
    evaluator: ActivityEvaluator | None = None,
    max_nodes: int | None = None,
) -> None:
    """Visit every generalized loop once, calling leaf(activity, blocks).

    Checks are processed in index order; each picks one locally admissible
    edge subset.  A branch dies as soon as a variable whose checks are all
    decided has induced degree one, or the touched nodes exceed max_nodes;
    every visited state counts against the budget.  With an evaluator the
    activity is built up on the way down: each check contributes a factor
    depending only on its own included-edge subset, each variable a factor
    looked up by its included edges once its last check is decided.  Without
    one it stays 1.  blocks holds the nonempty check blocks as (node_mask,
    edge_ids) in check order; the list is reused across calls and must not be
    retained.
    """
    n_cap = graph.n + graph.m if max_nodes is None else max_nodes
    # the node tally only matters when the cap can bind; the uncapped walks
    # behind the loop sums skip it to keep each visit cheap
    capped = n_cap < graph.n + graph.m
    options = _check_block_options(graph)
    # variables whose last incident check is a, to finalize after level a
    finalize: list[list[int]] = [[] for _ in range(graph.m)]
    for i, eids in enumerate(graph.var_edges):
        if eids:
            finalize[max(graph.edges[e][1] for e in eids)].append(i)
    var_bit: dict[int, tuple[int, int]] = {}
    for i, eids in enumerate(graph.var_edges):
        for k, e in enumerate(eids):
            var_bit[e] = (i, 1 << k)
    # factor tables: per variable by included-edge bits, per check option
    var_table: list[list[float]] = []
    for i, eids in enumerate(graph.var_edges):
        row = [1.0] * (1 << len(eids))
        if evaluator is not None:
            for bits in range(1, len(row)):
                subset = {e for k, e in enumerate(eids) if (bits >> k) & 1}
                row[bits] = evaluator.var_factor(i, subset)
        var_table.append(row)
    # per check: (factor, [(var, bit), ...], block)
    rows: list[list[tuple[float, list[tuple[int, int]], tuple[int, tuple[int, ...]]]]] = []
    for a, opts in enumerate(options):
        rows.append(
            [
                (
                    evaluator.check_factor(a, set(eids))
                    if evaluator is not None and eids
                    else 1.0,
                    [var_bit[e] for e in eids],
                    (mask, eids),
                )
                for mask, eids in opts
            ]
        )

    var_inc = [0] * graph.n
    blocks: list[tuple[int, tuple[int, ...]]] = []
    visits = 0
    m = graph.m

    def dfs(a: int, prod: float, node_mask: int) -> None:
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceededError(
                f"loop walk exceeded budget of {budget} visits"
            )
        if a == m:
            if blocks:
                leaf(prod, blocks)
            return
        grown = node_mask
        for factor, bits, block in rows[a]:
            if capped:
                grown = node_mask | block[0]
                if grown.bit_count() > n_cap:
                    continue
            for i, bit in bits:
                var_inc[i] ^= bit
            p2 = prod * factor
            dead = False
            for i in finalize[a]:
                mk = var_inc[i]
                if mk:
                    if mk.bit_count() == 1:
                        dead = True
                        break
                    p2 *= var_table[i][mk]
            if not dead:
                if bits:
                    blocks.append(block)
                    dfs(a + 1, p2, grown)
                    blocks.pop()
                else:
                    dfs(a + 1, p2, grown)
            for i, bit in bits:
                var_inc[i] ^= bit

    try:
        dfs(0, 1.0, 0)
    finally:
        # dfs refers to itself; without the cycle, leaf and what it holds are
        # freed on return instead of at the next cyclic garbage collection
        del dfs


def _components(
    blocks: list[tuple[int, tuple[int, ...]]],
) -> list[tuple[int, list[tuple[int, tuple[int, ...]]]]]:
    """Connected components of check blocks joined through shared variables.

    Each component is (node mask, its blocks in merge order): every block
    after the first shares a variable with the ones before it.
    """
    comps = []
    rest = blocks
    while rest:
        pool = rest[0][0]
        members = [rest[0]]
        rest = rest[1:]
        grew = True
        while grew:
            grew = False
            nxt = []
            for b in rest:
                if b[0] & pool:
                    pool |= b[0]
                    members.append(b)
                    grew = True
                else:
                    nxt.append(b)
            rest = nxt
        comps.append((pool, members))
    return comps


def _loop_record(blocks: list[tuple[int, tuple[int, ...]]]) -> Polymer:
    mask = 0
    edge_ids: list[int] = []
    for bmask, eids in blocks:
        mask |= bmask
        edge_ids.extend(eids)
    return Polymer(edge_ids=tuple(edge_ids), node_mask=mask, size=mask.bit_count())


def max_node_load(node_count: int, masks, weights) -> float:
    """max over nodes of the summed weights of the node masks through it.

    Each node's sum runs in the order of the masks, so a fixed order gives a
    reproducible value.
    """
    per_node = [0.0] * node_count
    for mask, w in zip(masks, weights):
        while mask:
            low = mask & -mask
            per_node[low.bit_length() - 1] += w
            mask ^= low
    return max(per_node, default=0.0)


# ---------------------------------------------------------------------------
# enumeration and loop sums


def enumerate_generalized_loops(
    graph: FactorGraph,
    budget: int = 10_000_000,
) -> list[Polymer]:
    """All nonempty edge subsets with every touched node of induced degree >= 2.

    Sorted by (edge count, edge ids); the budget is the walk's.
    """
    out: list[Polymer] = []

    def leaf(_prod: float, blocks) -> None:
        out.append(_loop_record(blocks))

    _walk(graph, leaf, budget)
    out.sort(key=lambda g: (len(g.edge_ids), g.edge_ids))
    return out


def _degree_profiles(
    blocks: list[tuple[int, tuple[int, ...]]], n: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(variable, check) degree profiles of a loop from its check blocks.

    A profile lists (degree, node count) by increasing degree.  A check's
    degree is its block's edge count; a variable's is the number of blocks
    whose node mask holds it, tallied with bit-sliced counters:
    at_least[d] holds the variables in more than d blocks.
    """
    var_bits = (1 << n) - 1
    at_least: list[int] = []
    check_counts: dict[int, int] = {}
    for bmask, eids in blocks:
        check_counts[len(eids)] = check_counts.get(len(eids), 0) + 1
        carry = bmask & var_bits
        for d, have in enumerate(at_least):
            at_least[d] = have | carry
            carry &= have
        if carry:
            at_least.append(carry)
    at_least.append(0)
    var_profile = tuple(
        (d + 1, count)
        for d in range(len(at_least) - 1)
        if (count := (at_least[d] & ~at_least[d + 1]).bit_count())
    )
    return var_profile, tuple(sorted(check_counts.items()))


def loop_activities(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
) -> list[tuple[Polymer, float, tuple, tuple]]:
    """Every generalized loop with its activity and degree profiles, in
    enumerate_generalized_loops order.

    Each entry is (loop, activity, variable profile, check profile); the
    activity is the product the walk carries down to the loop, the profiles
    come from its check blocks (see _degree_profiles).
    """
    out: list[tuple[Polymer, float, tuple, tuple]] = []
    n = graph.n
    # profiles repeat (142 distinct ones over the README demo's 151,338 loops):
    # keep one copy of each
    shared: dict[tuple, tuple] = {}

    def leaf(prod: float, blocks) -> None:
        profiles = _degree_profiles(blocks, n)
        out.append((_loop_record(blocks), prod, *shared.setdefault(profiles, profiles)))

    _walk(graph, leaf, budget, ActivityEvaluator(graph, messages))
    out.sort(key=lambda entry: (len(entry[0].edge_ids), entry[0].edge_ids))
    return out


def enumerate_polymers(
    graph: FactorGraph,
    max_size: int | None = None,
    budget: int = 10_000_000,
) -> list[Polymer]:
    """Connected generalized loops with at most max_size touched nodes."""
    out: list[Polymer] = []

    def leaf(_prod: float, blocks) -> None:
        if len(_components(blocks)) == 1:
            out.append(_loop_record(blocks))

    _walk(graph, leaf, budget, max_nodes=max_size)
    out.sort(key=lambda g: (len(g.edge_ids), g.edge_ids))
    return out


def loop_sum_direct(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
    split_lambda: float = 0.5,
) -> LoopSumResult:
    """1 + sum of activities over all generalized loops, in one walk.

    Leaf terms are collected and fsummed, so the total matches summing
    per-loop activities without ever materializing the loops.  The same
    walk splits the sum by polymer size: a loop term is small when each
    polymer of its disjoint decomposition has size < split_lambda * n;
    z_small is 1 plus the small terms, r_large the rest.  The connected
    leaves are the polymers; q is convergence_criterion_q's single-node
    statistic over them, each node's sum taken in walk order.
    """
    threshold = split_lambda * graph.n
    small_terms: list[float] = []
    large_terms: list[float] = []
    polymer_masks: list[int] = []
    q_weights: list[float] = []

    def leaf(prod: float, blocks) -> None:
        comps = _components(blocks)
        if len(comps) == 1:
            mask = comps[0][0]
            polymer_masks.append(mask)
            q_weights.append(abs(prod) * math.exp(mask.bit_count()))
        if any(mask.bit_count() >= threshold for mask, _b in comps):
            large_terms.append(prod)
        else:
            small_terms.append(prod)

    _walk(graph, leaf, budget, ActivityEvaluator(graph, messages))
    return LoopSumResult(
        total=1.0 + math.fsum(small_terms + large_terms),
        loop_count=len(small_terms) + len(large_terms),
        polymer_count=len(polymer_masks),
        z_small=1.0 + math.fsum(small_terms),
        r_large=math.fsum(large_terms),
        q=max_node_load(graph.n + graph.m, polymer_masks, q_weights),
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
