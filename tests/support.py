"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately naive: subset filters, joint enumerations,
Prufer sequences, textbook recurrences.  The point is that none of it shares
code paths with the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from loopgas import (
    ActivityEvaluator,
    FactorGraph,
    GeneralWeights,
    LdgmWeights,
    LdpcWeights,
    MessageSet,
    Polymer,
    apply_channel,
    attach_random_general_weights,
    bethe_free_energy,
    brute_force_log_partition,
    build_factor_graph,
    enumerate_generalized_loops,
    enumerate_polymers,
    sample_ldgm,
    sample_regular_bipartite,
    ursell,
)
from loopgas.errors import BudgetExceededError, InfeasibleDomainError, TooLargeError
from loopgas.loops import LoopSumResult
from loopgas.ratefunc import (
    REFINE_TOP,
    RateFunctionResult,
    RateFunctionSpec,
    _coordinate_ascent,
    f_xy,
    k_theta,
)

# ---------------------------------------------------------------------------
# instance builders


def ldpc_instance(l: int, r: int, n: int, p: float, seed: int, chan_seed: int = 0) -> FactorGraph:
    """Regular parity-check instance with channel fields applied."""
    g = sample_regular_bipartite(l, r, n, seed=seed)
    return apply_channel(g, p, seed=chan_seed)


def ldgm_instance(l: int, r: int, n: int, p: float, seed: int, chan_seed: int = 0) -> FactorGraph:
    """Regular generator-matrix instance with channel fields applied."""
    g = sample_ldgm({l: 1.0}, {r: 1.0}, n, seed=seed)
    return apply_channel(g, p, seed=chan_seed)


def general_instance(l: int, r: int, n: int, beta: float, seed: int) -> FactorGraph:
    """Regular graph with random soft couplings of unit mass per check."""
    g = sample_regular_bipartite(l, r, n, seed=seed)
    g = build_factor_graph(
        g.n, g.m, g.edges, LdpcWeights(variable_fields=(0.0,) * g.n), meta=dict(g.meta)
    )
    return attach_random_general_weights(g, beta=beta, seed=seed)


def random_tree(n_vars: int, seed: int, kind: str = "ldpc") -> FactorGraph:
    """Random bipartite tree grown check by check from a single variable.

    Each new check attaches to one existing variable and at least one fresh
    variable, so every check has degree >= 2 and the factor graph is acyclic
    by construction.
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 1
    m = 0
    while n < n_vars:
        anchor = rng.randrange(n)
        fresh = rng.randint(1, min(3, n_vars - n))
        a = m
        m += 1
        edges.append((anchor, a))
        for _ in range(fresh):
            edges.append((n, a))
            n += 1
    return build_factor_graph(n, m, edges, _tree_weights(kind, n, m, rng))


def _tree_weights(kind: str, n: int, m: int, rng: random.Random):
    if kind == "ldpc":
        return LdpcWeights(variable_fields=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)))
    if kind == "ldgm":
        return LdgmWeights(check_fields=tuple(rng.uniform(-1.0, 1.0) for _ in range(m)))
    raise ValueError(kind)


def random_general_tree(n_vars: int, seed: int, beta: float) -> FactorGraph:
    """Tree-shaped instance with random soft couplings."""
    g = random_tree(n_vars, seed, kind="ldpc")
    return attach_random_general_weights(g, beta=beta, seed=seed)


def random_messages(graph: FactorGraph, seed: int, scale: float = 0.5) -> MessageSet:
    """Arbitrary tanh-domain messages, uniform in (-scale, scale)."""
    rng = np.random.default_rng(seed)
    e = graph.edge_count
    return MessageSet(
        kind=graph.weights.kind,
        var_to_check=rng.uniform(-scale, scale, size=e),
        check_to_var=rng.uniform(-scale, scale, size=e),
    )


# ---------------------------------------------------------------------------
# spin-enumeration oracle for one general check


def oracle_check_sum(graph: FactorGraph, a: int, weight) -> float:
    """sum over the spins s around check a of psi_a(s) prod_k weight(k, s_k).

    psi_a is read straight from GeneralWeights.couplings, and k runs over the
    neighbours in check_neighbors order (the order of check_edges[a]).
    """
    w = graph.weights
    assert isinstance(w, GeneralWeights)
    hood = graph.check_neighbors(a)
    local = {i: k for k, i in enumerate(hood)}
    total = 0.0
    for spins in itertools.product((1.0, -1.0), repeat=len(hood)):
        log_psi = 0.0
        for subset, j in w.couplings[a]:
            prod_s = 1.0
            for v in subset:
                prod_s *= spins[local[v]]
            log_psi += w.beta * j * prod_s
        term = math.exp(log_psi)
        for k, s in enumerate(spins):
            term *= weight(k, s)
        total += term
    return total


# ---------------------------------------------------------------------------
# subset-filter oracles for generalized loops and polymers


def oracle_loops(graph: FactorGraph) -> set[frozenset[int]]:
    """All dangling-free nonempty edge subsets, by filtering 2^|E|."""
    e = graph.edge_count
    if e > 16:
        raise ValueError("oracle only meant for |E| <= 16")
    out: set[frozenset[int]] = set()
    for bits in range(1, 1 << e):
        subset = [k for k in range(e) if bits >> k & 1]
        var_deg: dict[int, int] = {}
        check_deg: dict[int, int] = {}
        for k in subset:
            i, a = graph.edges[k]
            var_deg[i] = var_deg.get(i, 0) + 1
            check_deg[a] = check_deg.get(a, 0) + 1
        if all(d >= 2 for d in var_deg.values()) and all(
            d >= 2 for d in check_deg.values()
        ):
            out.add(frozenset(subset))
    return out


def _edge_components(graph: FactorGraph, subset: frozenset[int]) -> list[set[int]]:
    """Connected components of the subgraph, as sets of global node ids."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for k in subset:
        i, a = graph.edges[k]
        u, v = i, graph.n + a
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        union(u, v)
    comps: dict[int, set[int]] = {}
    for node in parent:
        comps.setdefault(find(node), set()).add(node)
    return list(comps.values())


def oracle_polymers(graph: FactorGraph) -> set[frozenset[int]]:
    """Connected dangling-free subsets, from the loop oracle plus union-find."""
    return {
        s for s in oracle_loops(graph) if len(_edge_components(graph, s)) == 1
    }


# ---------------------------------------------------------------------------
# loop-sum oracles: polymer composition, per-loop evaluation, polymer series,
# factorization, the full subset expansion


def _node_load(node_sets: list, weights: list[float]) -> float:
    """max over nodes of the summed weights of the node sets through it."""
    load: dict[int, float] = {}
    for nodes, w in zip(node_sets, weights):
        for v in nodes:
            load[v] = load.get(v, 0.0) + w
    return max(load.values(), default=0.0)


def _loop_sum_result(
    small: list[float], large: list[float], polymer_count: int, q: float
) -> LoopSumResult:
    return LoopSumResult(
        total=1.0 + math.fsum(small + large),
        loop_count=len(small) + len(large),
        polymer_count=polymer_count,
        z_small=1.0 + math.fsum(small),
        r_large=math.fsum(large),
        q=q,
    )


def loop_sum(
    graph: FactorGraph, messages: MessageSet, split_lambda: float = 0.5
) -> LoopSumResult:
    """1 + sum of activities over all generalized loops, by composing polymers.

    The activity of a disjoint union is the product of the activities, so
    each set of pairwise node-disjoint polymers is one generalized loop; its
    term is large when one of those polymers has size >= split_lambda * n.
    q sums |K| e^size per node over the polymers.
    """
    polymers = enumerate_polymers(graph)
    ev = ActivityEvaluator(graph, messages)
    acts = [ev.value(p.edge_ids) for p in polymers]
    masks = [p.node_mask for p in polymers]
    big = [p.size >= split_lambda * graph.n for p in polymers]
    small: list[float] = []
    large: list[float] = []

    def extend(start: int, mask: int, prod: float, is_large: bool) -> None:
        for j in range(start, len(polymers)):
            if masks[j] & mask:
                continue
            term = prod * acts[j]
            (large if is_large or big[j] else small).append(term)
            extend(j + 1, mask | masks[j], term, is_large or big[j])

    extend(0, 0, 1.0, False)
    nodes = [[b for b in range(graph.n + graph.m) if mask >> b & 1] for mask in masks]
    weights = [abs(k) * math.exp(p.size) for k, p in zip(acts, polymers)]
    return _loop_sum_result(small, large, len(polymers), _node_load(nodes, weights))


def loop_sum_bruteforce(
    graph: FactorGraph, messages: MessageSet, split_lambda: float = 0.5
) -> LoopSumResult:
    """Same as loop_sum, evaluating every loop of the 2^|E| subset filter
    on its own and splitting it into components by union-find."""
    ev = ActivityEvaluator(graph, messages)
    small: list[float] = []
    large: list[float] = []
    polymer_nodes: list[set[int]] = []
    weights: list[float] = []
    for s in oracle_loops(graph):
        term = ev.value(tuple(sorted(s)))
        comps = _edge_components(graph, s)
        if len(comps) == 1:
            polymer_nodes.append(comps[0])
            weights.append(abs(term) * math.exp(len(comps[0])))
        if any(len(c) >= split_lambda * graph.n for c in comps):
            large.append(term)
        else:
            small.append(term)
    return _loop_sum_result(
        small, large, len(polymer_nodes), _node_load(polymer_nodes, weights)
    )


# ---------------------------------------------------------------------------
# the recursive loop walk: oracle for the level-order walk in loops._walk and
# the leaf consumers over it


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


def recursive_walk(
    graph: FactorGraph,
    leaf,
    budget: int,
    evaluator: ActivityEvaluator | None = None,
    max_nodes: int | None = None,
) -> int:
    """Visit every generalized loop once, calling leaf(activity, blocks);
    returns the number of visited states.

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
        del dfs
    return visits


def _components(
    blocks: list[tuple[int, tuple[int, ...]]],
) -> list[tuple[int, list[tuple[int, tuple[int, ...]]]]]:
    """Connected components of check blocks joined through shared variables,
    each as (node mask, its blocks in merge order)."""
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


def _degree_profiles(
    blocks: list[tuple[int, tuple[int, ...]]], n: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(variable, check) degree profiles of a loop from its check blocks,
    tallied with bit-sliced counters: at_least[d] holds the variables in
    more than d blocks."""
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


def _by_edges(loop: Polymer):
    return len(loop.edge_ids), loop.edge_ids


def recursive_loops(graph: FactorGraph, budget: int = 10_000_000) -> list[Polymer]:
    """enumerate_generalized_loops over the recursive walk."""
    out: list[Polymer] = []
    recursive_walk(graph, lambda _prod, blocks: out.append(_loop_record(blocks)), budget)
    return sorted(out, key=_by_edges)


def recursive_polymers(
    graph: FactorGraph, max_size: int | None = None, budget: int = 10_000_000
) -> list[Polymer]:
    """enumerate_polymers over the recursive walk."""
    out: list[Polymer] = []

    def leaf(_prod: float, blocks) -> None:
        if len(_components(blocks)) == 1:
            out.append(_loop_record(blocks))

    recursive_walk(graph, leaf, budget, max_nodes=max_size)
    return sorted(out, key=_by_edges)


def recursive_loop_activities(
    graph: FactorGraph, messages: MessageSet, budget: int = 10_000_000
) -> list[tuple[Polymer, float, tuple, tuple]]:
    """loop_activities over the recursive walk."""
    out: list[tuple[Polymer, float, tuple, tuple]] = []

    def leaf(prod: float, blocks) -> None:
        out.append((_loop_record(blocks), prod, *_degree_profiles(blocks, graph.n)))

    recursive_walk(graph, leaf, budget, ActivityEvaluator(graph, messages))
    return sorted(out, key=lambda entry: _by_edges(entry[0]))


def recursive_loop_sum(
    graph: FactorGraph,
    messages: MessageSet,
    budget: int = 10_000_000,
    split_lambda: float = 0.5,
) -> LoopSumResult:
    """loop_sum_direct over the recursive walk: leaf terms fsummed, q summed
    per node in walk order."""
    threshold = split_lambda * graph.n
    small: list[float] = []
    large: list[float] = []
    polymer_nodes: list[list[int]] = []
    weights: list[float] = []

    def leaf(prod: float, blocks) -> None:
        comps = _components(blocks)
        if len(comps) == 1:
            mask = comps[0][0]
            polymer_nodes.append([b for b in range(mask.bit_length()) if mask >> b & 1])
            weights.append(abs(prod) * math.exp(mask.bit_count()))
        if any(mask.bit_count() >= threshold for mask, _b in comps):
            large.append(prod)
        else:
            small.append(prod)

    recursive_walk(graph, leaf, budget, ActivityEvaluator(graph, messages))
    return _loop_sum_result(
        small, large, len(polymer_nodes), _node_load(polymer_nodes, weights)
    )


def oracle_polymer_series(
    graph: FactorGraph,
    messages: MessageSet,
    m_max: int,
    size_cutoff: int | None = None,
    polymers: list[Polymer] | None = None,
    budget: int = 10_000_000,
    z: float = 1.0,
) -> tuple[float, ...]:
    """Per-order polymer-series terms, one multiset at a time.

    The reference for `polymer_series`: the same pieces, formed one Python
    multiset after another (Ursell coefficient from the overlap pattern,
    activity product in index order, one division per run of equal indices)
    and summed per order by math.fsum.  The budget fires at the first tuple
    past it, after the work on the earlier ones.
    """
    if polymers is None:
        polymers = enumerate_polymers(graph, max_size=size_cutoff, budget=budget)
    ev = ActivityEvaluator(graph, messages)
    acts = [z * ev.value(p.edge_ids) for p in polymers]
    terms = []
    tuples_seen = 0
    for order in range(1, m_max + 1):
        pieces = []
        for combo in itertools.combinations_with_replacement(
            range(len(polymers)), order
        ):
            tuples_seen += 1
            if tuples_seen > budget:
                raise BudgetExceededError(
                    f"series enumeration exceeded budget of {budget} tuples"
                )
            u = ursell([polymers[j] for j in combo])
            if u == 0:
                continue
            weight = float(u)
            for j in combo:
                weight *= acts[j]
            for _idx, reps in itertools.groupby(combo):
                weight /= math.factorial(len(list(reps)))
            pieces.append(weight)
        terms.append(math.fsum(pieces))
    return tuple(terms)


def max_factorization_error(
    graph: FactorGraph, messages: MessageSet, cap: int = 50, size_cap: int = 8
) -> float:
    """Largest |K(union) - product of K(polymer)| over disjoint polymer unions.

    Samples up to cap unions of two or three pairwise disjoint polymers of
    size <= size_cap and evaluates each union as a single edge subset.
    """
    checked = 0
    scanned = 0
    scan_cap = 400 * cap  # disjoint combos can be rare
    ev = ActivityEvaluator(graph, messages)
    polymers = enumerate_polymers(graph, max_size=size_cap)
    acts = [ev.value(p.edge_ids) for p in polymers]
    worst = 0.0
    for k in (2, 3):
        for combo in itertools.combinations(range(len(polymers)), k):
            scanned += 1
            if checked >= cap or scanned >= scan_cap:
                return worst
            masks = [polymers[j].node_mask for j in combo]
            if any(u & v for u, v in itertools.combinations(masks, 2)):
                continue
            merged = tuple(sorted(e for j in combo for e in polymers[j].edge_ids))
            prod = 1.0
            for j in combo:
                prod *= acts[j]
            worst = max(worst, abs(ev.value(merged) - prod))
            checked += 1
    return worst


FULL_EXPANSION_MAX_EDGES = 20


@dataclass(frozen=True)
class FullExpansionReport:
    residual: float
    subset_count: int
    max_dangling_activity: float


def verify_full_expansion(
    graph: FactorGraph,
    messages: MessageSet,
) -> FullExpansionReport:
    """Check Z / exp(n f_bethe) = sum over all edge subsets of K(subset).

    Valid for completely arbitrary messages, which is the point: the subset
    expansion is an identity, not a fixed-point property.  Also reports the
    largest activity among subsets with a dangling (degree-one) node; at a BP
    fixed point that maximum collapses to zero.
    """
    E = graph.edge_count
    if E > FULL_EXPANSION_MAX_EDGES:
        raise TooLargeError(
            f"full expansion needs 2^{E} subsets; limit is 2^{FULL_EXPANSION_MAX_EDGES}"
        )
    f = bethe_free_energy(graph, messages).f_bethe
    ln_z = brute_force_log_partition(graph).log_z
    target = math.exp(ln_z - graph.n * f)
    ev = ActivityEvaluator(graph, messages)
    terms: list[float] = [1.0]
    max_dangling = 0.0
    for bits in range(1, 1 << E):
        edge_ids = tuple(e for e in range(E) if (bits >> e) & 1)
        val = ev.value(edge_ids)
        terms.append(val)
        var_deg: dict[int, int] = {}
        check_deg: dict[int, int] = {}
        for e in edge_ids:
            i, a = graph.edges[e]
            var_deg[i] = var_deg.get(i, 0) + 1
            check_deg[a] = check_deg.get(a, 0) + 1
        if any(d == 1 for d in var_deg.values()) or any(
            d == 1 for d in check_deg.values()
        ):
            max_dangling = max(max_dangling, abs(val))
    total = math.fsum(terms)
    return FullExpansionReport(
        residual=abs(total - target),
        subset_count=1 << E,
        max_dangling_activity=max_dangling,
    )


# ---------------------------------------------------------------------------
# counting oracles


def catalan(t: int) -> int:
    c = [1] * (t + 1)
    for k in range(1, t + 1):
        c[k] = sum(c[j] * c[k - 1 - j] for j in range(k))
    return c[t]


def dary_tree_dp(d: int, t: int) -> int:
    """Rooted plane trees where every node has d ordered child slots."""
    b = [1] * (t + 1)
    for k in range(1, t + 1):
        total = 0
        for parts in itertools.product(range(k), repeat=d):
            if sum(parts) == k - 1:
                prod = 1
                for x in parts:
                    prod *= b[x]
                total += prod
        b[k] = total
    return b[t]


def prufer_tree_edges(seq: tuple[int, ...], m: int) -> frozenset[tuple[int, int]]:
    """Edges of the labeled tree with the given Prufer sequence on 0..m-1."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(i for i in range(m) if degree[i] == 1)
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return frozenset(edges)


def all_labeled_trees(m: int) -> list[frozenset[tuple[int, int]]]:
    if m == 1:
        return [frozenset()]
    if m == 2:
        return [frozenset({(0, 1)})]
    return [
        prufer_tree_edges(seq, m)
        for seq in itertools.product(range(m), repeat=m - 2)
    ]


def spanning_tree_count(m: int, edges: frozenset[tuple[int, int]]) -> int:
    """Labeled spanning trees of the graph ([m], edges), by Prufer filter."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    return sum(1 for t in all_labeled_trees(m) if t <= norm)


def oracle_mayer(m: int, edges: frozenset[tuple[int, int]]) -> int:
    """Signed connected spanning subgraph count, by direct subset sweep."""
    edge_list = sorted((min(u, v), max(u, v)) for u, v in edges)
    total = 0
    for bits in range(1 << len(edge_list)):
        subset = [edge_list[k] for k in range(len(edge_list)) if bits >> k & 1]
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in subset:
            parent[find(u)] = find(v)
        if len({find(x) for x in range(m)}) == 1:
            total += (-1) ** len(subset)
    return total


def disjoint_union(graphs: list[FactorGraph], seed: int) -> FactorGraph:
    """Side-by-side copies of ldpc or ldgm graphs with the variables
    relabelled by a seeded permutation; ln Z of the union is the sum of the
    parts' ln Z."""
    kind = graphs[0].weights.kind
    n = sum(g.n for g in graphs)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges, var_fields, check_fields = [], [0.0] * n, []
    n0 = m0 = 0
    for g in graphs:
        assert g.weights.kind == kind
        edges += [(perm[n0 + i], m0 + a) for i, a in g.edges]
        if kind == "ldpc":
            for i, h in enumerate(g.weights.variable_fields):
                var_fields[perm[n0 + i]] = h
        else:
            check_fields += g.weights.check_fields
        n0 += g.n
        m0 += g.m
    weights = LdpcWeights(tuple(var_fields)) if kind == "ldpc" else LdgmWeights(tuple(check_fields))
    return build_factor_graph(n, m0, edges, weights)


def oracle_induced_type(graph: FactorGraph, edge_ids: tuple[int, ...]) -> tuple[str, str]:
    """(variable, check) degree profiles "degree:count|..." of an edge subset,
    rebuilt from the edge ids alone."""
    var_deg: dict[int, int] = {}
    check_deg: dict[int, int] = {}
    for e in edge_ids:
        i, a = graph.edges[e]
        var_deg[i] = var_deg.get(i, 0) + 1
        check_deg[a] = check_deg.get(a, 0) + 1
    var_counts: dict[int, int] = {}
    for d in var_deg.values():
        var_counts[d] = var_counts.get(d, 0) + 1
    check_counts: dict[int, int] = {}
    for d in check_deg.values():
        check_counts[d] = check_counts.get(d, 0) + 1
    fmt = lambda counts: "|".join(f"{d}:{c}" for d, c in sorted(counts.items()))
    return fmt(var_counts), fmt(check_counts)


# ---------------------------------------------------------------------------
# independent log partition function


def oracle_log_z(graph: FactorGraph) -> float:
    """ln Z by plain configuration sweep in pure Python.

    Same statistical models as the package brute force, written without
    numpy or shared helpers: spins s_i = (-1)^{x_i}, hard parities for
    ldpc, field-on-parity for ldgm, exponential couplings for general.
    """
    n = graph.n
    if n > 20:
        raise ValueError("oracle only meant for n <= 20")
    masks = []
    for a in range(graph.m):
        mask = 0
        for i in graph.check_neighbors(a):
            mask |= 1 << i
        masks.append(mask)
    w = graph.weights
    weights: list[float] = []
    for x in range(1 << n):
        if w.kind == "ldpc":
            if any(bin(x & mask).count("1") & 1 for mask in masks):
                continue
            log_w = sum(
                h * (1.0 - 2.0 * (x >> i & 1))
                for i, h in enumerate(w.variable_fields)
            )
        elif w.kind == "ldgm":
            log_w = sum(
                h * (1.0 - 2.0 * (bin(x & mask).count("1") & 1))
                for h, mask in zip(w.check_fields, masks)
            )
        else:
            log_w = 0.0
            for a in range(graph.m):
                for subset, j in w.couplings[a]:
                    sign = 1.0
                    for i in subset:
                        if x >> i & 1:
                            sign = -sign
                    log_w += w.beta * j * sign
        weights.append(log_w)
    peak = max(weights)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in weights))


def oracle_codewords(graph: FactorGraph) -> list[int]:
    """Every x with even parity on each check, as bitmasks, in increasing order.

    Meet in the middle: tabulate the check syndromes of all assignments of
    the first half of the variables and of the second half; a codeword is a
    pair with equal syndromes.  No elimination, so n up to about 30 is cheap.
    """
    n = graph.n
    syndrome = [0] * n
    for i, a in graph.edges:
        syndrome[i] ^= 1 << a

    def table(lo: int, hi: int) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for bits in range(1 << (hi - lo)):
            s = 0
            for j in range(hi - lo):
                if bits >> j & 1:
                    s ^= syndrome[lo + j]
            out.setdefault(s, []).append(bits << lo)
        return out

    left, right = table(0, n // 2), table(n // 2, n)
    return sorted(x | y for s, xs in left.items() for x in xs for y in right.get(s, ()))


def oracle_ldpc_log_z(graph: FactorGraph) -> float:
    """ln Z of an ldpc graph summed over oracle_codewords."""
    fields = graph.weights.variable_fields
    logs = [
        math.fsum(-h if x >> i & 1 else h for i, h in enumerate(fields))
        for x in oracle_codewords(graph)
    ]
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in logs))


# ---------------------------------------------------------------------------
# joint-enumeration conditional entropy oracles

LN2 = math.log(2.0)


def _xlogx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def entropy_oracle_ldgm(graph: FactorGraph, p: float) -> float:
    """H(U|Y)/n by enumerating every message and channel output jointly.

    The graph is the bare structure; only its edges matter.  Information
    bits u index the variables, each check emits the parity of its
    neighborhood, and every emitted bit crosses an independent flip-p
    channel.
    """
    n, m = graph.n, graph.m
    masks = []
    for a in range(m):
        mask = 0
        for i in graph.check_neighbors(a):
            mask |= 1 << i
        masks.append(mask)
    p_y = [0.0] * (1 << m)
    h_uy = 0.0
    for u in range(1 << n):
        code = 0
        for a in range(m):
            if bin(u & masks[a]).count("1") & 1:
                code |= 1 << a
        for y in range(1 << m):
            flips = bin(code ^ y).count("1")
            prob = (p**flips) * ((1.0 - p) ** (m - flips)) / (1 << n)
            p_y[y] += prob
            h_uy -= _xlogx(prob)
    h_y = -math.fsum(_xlogx(q) for q in p_y)
    return (h_uy - h_y) / n


def entropy_oracle_ldpc(graph: FactorGraph, p: float) -> float:
    """H(X|Y)/n by enumerating codewords and channel outputs jointly."""
    n, m = graph.n, graph.m
    masks = []
    for a in range(m):
        mask = 0
        for i in graph.check_neighbors(a):
            mask |= 1 << i
        masks.append(mask)
    codewords = [
        x
        for x in range(1 << n)
        if all(bin(x & mask).count("1") % 2 == 0 for mask in masks)
    ]
    k = len(codewords)
    p_y = [0.0] * (1 << n)
    h_xy = 0.0
    for x in codewords:
        for y in range(1 << n):
            flips = bin(x ^ y).count("1")
            prob = (p**flips) * ((1.0 - p) ** (n - flips)) / k
            p_y[y] += prob
            h_xy -= _xlogx(prob)
    h_y = -math.fsum(_xlogx(q) for q in p_y)
    return (h_xy - h_y) / n


# ---------------------------------------------------------------------------
# rate-function search, one exact objective call per sampled start


def oracle_mckay_rate_function(
    spec: RateFunctionSpec,
    starts: int = 10_000,
    seed: int = 0,
    extra_starts: tuple[tuple[float, ...], ...] = (),
    tol: float = 1e-6,
) -> RateFunctionResult:
    """Lambda(theta) with every pool point scored by the fsum objective.

    The same draws, acceptance, stable sort and refinement as the library
    search, without its numpy screen: the top REFINE_TOP come from sorting
    all exact values.
    """
    l, r, theta, lam = spec.l, spec.r, spec.theta, spec.lam
    if lam >= 1.0 / l + 1.0 / r:
        raise InfeasibleDomainError(f"size fraction {lam} admits no types")
    dim_x = l - 1
    dim_y = r - 2

    def y_last(xs, ys_head):
        wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))
        wy = math.fsum((t / r) * y for t, y in zip(range(2, r), ys_head))
        return wx - wy

    def feasible(point):
        if any(v < 0.0 for v in point):
            return False
        xs = point[:dim_x]
        ys_head = point[dim_x:]
        yr = y_last(xs, ys_head)
        if yr < 0.0:
            return False
        sx = math.fsum(xs)
        sy = math.fsum(ys_head) + yr
        if sx >= 1.0 - 1e-12 or sy >= 1.0 - 1e-12:
            return False
        return sx / l + sy / r >= lam - 1e-12

    def objective(point):
        xs = point[:dim_x]
        ys_head = point[dim_x:]
        ys = ys_head + [y_last(xs, ys_head)]
        return f_xy(l, r, xs, ys) + k_theta(l, r, theta, xs, ys, spec.alpha1, spec.alpha2)

    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < starts and attempts < 100 * starts:
        attempts += 1
        raw_x = [rng.expovariate(1.0) for _ in range(dim_x)]
        if rng.random() < 0.5:
            keep = rng.randrange(1, 1 << dim_x)
            raw_x = [v if (keep >> j) & 1 else 0.0 for j, v in enumerate(raw_x)]
        total = sum(raw_x) or 1.0
        scale = math.exp(rng.uniform(math.log(1e-4), math.log(0.999)))
        xs = [v / total * scale for v in raw_x]
        wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))
        ys_head = [0.0] * dim_y
        if dim_y and rng.random() < 0.5 and wx > 0.0:
            raw_y = [rng.expovariate(1.0) for _ in range(dim_y)]
            weight = math.fsum((t / r) * v for t, v in zip(range(2, r), raw_y))
            budget = rng.random() * wx
            if weight > 0.0:
                ys_head = [v / weight * budget for v in raw_y]
        point = xs + ys_head
        if feasible(point):
            pool.append((objective(point), point))
    carried = []
    for start in extra_starts:
        point = [max(0.0, float(v)) for v in start]
        if len(point) == dim_x + dim_y and feasible(point):
            carried.append((objective(point), point))
    if not pool and not carried:
        raise InfeasibleDomainError("no admissible types sampled")
    pool.sort(key=lambda item: -item[0])
    keep = pool[:REFINE_TOP] + carried
    value, point = max(keep, key=lambda item: item[0])
    point = list(point)
    for _cand_value, cand in keep:
        ref_value, ref = _coordinate_ascent(objective, feasible, cand, tol)
        if ref_value > value:
            value, point = ref_value, ref
    xs = point[:dim_x]
    ys_head = point[dim_x:]
    ys = ys_head + [y_last(xs, ys_head)]
    return RateFunctionResult(value=value, xs=tuple(xs), ys=tuple(ys), theta=theta)


def oracle_rate_function_profile(
    l: int,
    r: int,
    thetas,
    lam: float,
    starts: int = 10_000,
    seed: int = 0,
    tol: float = 1e-6,
) -> list[RateFunctionResult]:
    """Profile as a theta-by-theta chain of oracle searches, each sampling
    its own pool and carrying every earlier maximizer."""
    carried = []
    out = []
    for theta in thetas:
        spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=lam)
        res = oracle_mckay_rate_function(
            spec, starts=starts, seed=seed, extra_starts=tuple(carried), tol=tol
        )
        carried.append(tuple(res.xs) + tuple(res.ys[:-1]))
        out.append(res)
    return out
