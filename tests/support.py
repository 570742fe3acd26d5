"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately naive: subset filters, joint enumerations,
Prufer sequences, textbook recurrences.  The point is that none of it shares
code paths with the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import loopgas.loops
from loopgas import (
    BPResult,
    BetheBreakdown,
    ChannelAverage,
    ChannelParams,
    FactorGraph,
    GeneralWeights,
    LdgmWeights,
    LdpcWeights,
    MessageSet,
    Polymer,
    apply_channel,
    attach_random_general_weights,
    bethe_free_energy,
    build_factor_graph,
    enumerate_polymers,
    log_partition,
    sample_ldgm,
    sample_regular_bipartite,
)
from loopgas.bp import _Batch, check_forms, check_weight_range, parity_form
from loopgas.errors import (
    BudgetExceededError,
    InfeasibleDomainError,
    LogDomainError,
    SingularDenominatorError,
    TooLargeError,
)
from loopgas.exact import _reduced_rows, null_space_gf2
from loopgas.loops import _DENOMINATOR_FLOOR, LoopSumResult, _walk
from loopgas.ratefunc import (
    RateFunctionResult,
    RateFunctionSpec,
    f0_restricted,
    f_xy,
    k_theta,
)

# ---------------------------------------------------------------------------
# test doubles


def walk_with_terms(monkeypatch, terms) -> list:
    """Make every walk hand the given activities to its first loops of two
    or more polymers, which q does not read; returns the edge ids of those
    loops, filled in by each walk."""
    walk, patched_loops = loopgas.loops._walk, []

    def patched(*args, **kwargs):
        leaves = walk(*args, **kwargs)
        choices = next(leaves.loops())[0]
        at = np.flatnonzero(leaves.split(choices)[0] > 1)[: len(terms)]
        assert len(at) == len(terms)
        leaves.prod[at + 1] = terms
        patched_loops[:] = [list(loop.edge_ids) for loop in leaves.records(choices[:, at])]
        return leaves

    monkeypatch.setattr(loopgas.loops, "_walk", patched)
    return patched_loops


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


def chain(n: int, closed: bool) -> FactorGraph:
    """n parity variables joined by degree-2 checks into a path (n - 1
    checks) or, closed, a ring (n checks); fields zero."""
    m = n if closed else n - 1
    edges = [(i % n, a) for a in range(m) for i in (a, a + 1)]
    return build_factor_graph(n, m, edges, LdpcWeights(variable_fields=(0.0,) * n))


def own_fields(graph: FactorGraph) -> tuple[float, ...]:
    """The channel fields of an ldpc (variable) or ldgm (check) graph."""
    w = graph.weights
    return w.variable_fields if isinstance(w, LdpcWeights) else w.check_fields


def field_rows(graphs: list[FactorGraph]) -> np.ndarray:
    """The channel fields of graphs of one topology, one float64 row each."""
    return np.array([own_fields(g) for g in graphs], dtype=float)


def pattern_graph(graph: FactorGraph, row) -> FactorGraph:
    """graph with its channel fields replaced by one field row, built the
    way apply_channel builds a channel pattern."""
    weights = LdpcWeights if isinstance(graph.weights, LdpcWeights) else LdgmWeights
    return dataclasses.replace(graph, weights=weights(tuple(float(h) for h in row)))


def general_instance(l: int, r: int, n: int, beta: float, seed: int) -> FactorGraph:
    """Regular graph with random soft couplings of unit mass per check."""
    g = sample_regular_bipartite(l, r, n, seed=seed)
    g = build_factor_graph(
        g.n, g.m, g.edges, LdpcWeights(variable_fields=(0.0,) * g.n), meta=dict(g.meta)
    )
    return attach_random_general_weights(g, beta=beta, seed=seed)


def graph_batch(kind: str) -> list[FactorGraph]:
    """Graphs of one weight kind at mixed n and degrees, the second of them
    edgeless (m = 0): the components of one solve_graphs batch."""
    if kind == "ldpc":
        graphs = [ldpc_instance(3, 4, 8, 0.3, 0), ldpc_instance(3, 6, 12, 0.25, 1, 1),
                  ldpc_instance(2, 4, 16, 0.3, 2, 2)]
        edgeless = LdpcWeights((0.2, -0.1, 0.3))
    elif kind == "ldgm":
        mixed = apply_channel(sample_ldgm({2: 0.5, 3: 0.5}, {4: 0.5, 6: 0.5}, 24, 3), 0.2, 4)
        graphs = [ldgm_instance(2, 4, 8, 0.3, 0), mixed, ldgm_instance(3, 6, 12, 0.3, 2, 2)]
        edgeless = LdgmWeights(())
    else:
        graphs = [general_instance(3, 4, 8, 0.3, 0), general_instance(3, 6, 12, 0.2, 1),
                  general_instance(2, 4, 16, 0.3, 2)]
        edgeless = GeneralWeights(0.3, ())
    return [graphs[0], build_factor_graph(3, 0, [], edgeless), *graphs[1:]]


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


def check_tables(graph: FactorGraph) -> list[list[float]]:
    """bp.check_tables one configuration at a time: per check, psi_a over
    its 2^d local configurations, bit k set when the k-th neighbour in
    check_neighbors order has spin -1, each log weight summed term by term
    in coupling order from 0.0."""
    w = graph.weights
    assert isinstance(w, GeneralWeights)
    tables = []
    for a in range(graph.m):
        hood = graph.check_neighbors(a)
        pos = {i: k for k, i in enumerate(hood)}
        terms = [
            (sum(1 << pos[i] for i in subset), w.beta * j)
            for subset, j in w.couplings[a]
        ]
        psi = []
        for cfg in range(1 << len(hood)):
            log_psi = 0.0
            for mask, bj in terms:
                log_psi += bj * (1.0 - 2.0 * ((cfg & mask).bit_count() & 1))
            psi.append(math.exp(log_psi))
        tables.append(psi)
    return tables


def check_marginal(
    psi: list[float], w: list[tuple[float, float]], k: int
) -> tuple[float, float]:
    """(sum over x_k = +1, sum over x_k = -1) of psi(x) prod_{j != k} w_j(x_j).

    w holds one (spin +1, spin -1) weight pair per neighbour.  The table is
    folded one axis at a time: the axes above k from the top, then the ones
    below k from the bottom, so each edge costs O(2^d).
    """
    t = psi
    for j in range(len(w) - 1, k, -1):
        wp, wm = w[j]
        half = len(t) >> 1
        t = [p * wp + q * wm for p, q in zip(t[:half], t[half:])]
    for j in range(k):
        wp, wm = w[j]
        t = [p * wp + q * wm for p, q in zip(t[0::2], t[1::2])]
    return t[0], t[1]


def check_sum(psi: list[float], w: list[tuple[float, float]]) -> float:
    """sum over x of psi(x) prod_k w_k(x_k)."""
    if not w:
        return psi[0]
    plus, minus = check_marginal(psi, w, 0)
    return plus * w[0][0] + minus * w[0][1]


# ---------------------------------------------------------------------------
# scalar BP: the per-edge sweep the numpy degree buckets replaced


def _combine(x: float, y: float) -> float:
    # tanh(atanh x + atanh y) without leaving the tanh domain
    return (x + y) / (1.0 + x * y)


def _exclusive_combine(values: list[float], base: float) -> list[float]:
    # out[k] = combine of base with all values except values[k]
    d = len(values)
    prefix = [base] * (d + 1)
    for k in range(d):
        prefix[k + 1] = _combine(prefix[k], values[k])
    suffix = [0.0] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = _combine(suffix[k + 1], values[k])
    return [_combine(prefix[k], suffix[k + 1]) for k in range(d)]


def _exclusive_products(values: list[float]) -> list[float]:
    # out[k] = product of all values except values[k], no division
    d = len(values)
    prefix = [1.0] * (d + 1)
    for k in range(d):
        prefix[k + 1] = prefix[k] * values[k]
    suffix = [1.0] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = suffix[k + 1] * values[k]
    return [prefix[k] * suffix[k + 1] for k in range(d)]


def _check_update(graph: FactorGraph, t: list[float], forms: list) -> np.ndarray:
    out = np.zeros(graph.edge_count)
    if isinstance(graph.weights, GeneralWeights):
        for a, psi in enumerate(forms):
            eids = graph.check_edges[a]
            pairs = [(1.0 + t[e], 1.0 - t[e]) for e in eids]
            for k, e in enumerate(eids):
                plus, minus = check_marginal(psi, pairs, k)
                out[e] = (plus - minus) / (plus + minus)
    else:
        for a, (_c, tau) in enumerate(forms):
            eids = graph.check_edges[a]
            excl = _exclusive_products([t[e] for e in eids])
            for k, e in enumerate(eids):
                out[e] = tau * excl[k]
    return out


def _sweep(graph: FactorGraph, messages: MessageSet, forms: list) -> MessageSet:
    w = graph.weights
    new_that = _check_update(graph, messages.var_to_check.tolist(), forms)
    new_t = np.zeros(graph.edge_count)
    that_old = messages.check_to_var.tolist()
    fields = w.variable_fields if isinstance(w, LdpcWeights) else None
    for i in range(graph.n):
        eids = graph.var_edges[i]
        if not eids:
            continue
        base = math.tanh(fields[i]) if fields is not None else 0.0
        excl = _exclusive_combine([that_old[e] for e in eids], base)
        for k, e in enumerate(eids):
            new_t[e] = excl[k]
    return MessageSet(kind=w.kind, var_to_check=new_t, check_to_var=new_that)


def bp_sweep(graph: FactorGraph, messages: MessageSet) -> MessageSet:
    """One synchronous sweep of the batched kernel: both directions
    recomputed from the old iterate."""
    v, c = _Batch([graph]).sweep(
        np.asarray(messages.var_to_check, dtype=float),
        np.asarray(messages.check_to_var, dtype=float),
    )
    return MessageSet(kind=graph.weights.kind, var_to_check=v, check_to_var=c)


def scalar_sweep(graph: FactorGraph, messages: MessageSet) -> MessageSet:
    """One synchronous sweep, edge by edge in pure Python."""
    return _sweep(graph, messages, check_forms(graph))


def scalar_residual(graph: FactorGraph, messages: MessageSet) -> float:
    """Sup-norm distance between messages and one undamped sweep of them."""
    return _distance(scalar_sweep(graph, messages), messages)


def scalar_initial_messages(graph: FactorGraph) -> MessageSet:
    """Zeros, except ldpc: tanh h_i on variable messages, their products on
    check messages."""
    w = graph.weights
    if not isinstance(w, LdpcWeights):
        zeros = np.zeros(graph.edge_count)
        return MessageSet(kind=w.kind, var_to_check=zeros, check_to_var=zeros.copy())
    t = [math.tanh(w.variable_fields[i]) for i, _a in graph.edges]
    return MessageSet(
        kind=w.kind,
        var_to_check=np.array(t, dtype=float),
        check_to_var=_check_update(graph, t, parity_form(graph)),
    )


def _distance(x: MessageSet, y: MessageSet) -> float:
    return float(
        max(
            np.abs(x.var_to_check - y.var_to_check).max(initial=0.0),
            np.abs(x.check_to_var - y.check_to_var).max(initial=0.0),
        )
    )


def scalar_solve(
    graph: FactorGraph,
    init: MessageSet | None = None,
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> BPResult:
    """Damped synchronous sweeps until the sup-norm residual <= tol."""
    msgs = init.copy() if init is not None else scalar_initial_messages(graph)
    forms = check_forms(graph)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        swept = _sweep(graph, msgs, forms)
        if damping > 0.0:
            swept = MessageSet(
                kind=swept.kind,
                var_to_check=(1.0 - damping) * swept.var_to_check
                + damping * msgs.var_to_check,
                check_to_var=(1.0 - damping) * swept.check_to_var
                + damping * msgs.check_to_var,
            )
        residual = _distance(swept, msgs)
        msgs = swept
        if residual <= tol:
            break
    return BPResult(
        messages=msgs,
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )


# ---------------------------------------------------------------------------
# scalar Bethe assembly: the node-by-node loop the bucketed assembly replaced


def _safe_log(x: float, what: str) -> float:
    if x <= 0.0:
        raise LogDomainError(f"{what} produced a non-positive log argument: {x}")
    return math.log(x)


def scalar_bethe_free_energy(graph: FactorGraph, messages: MessageSet) -> BetheBreakdown:
    """f = (1/n) [sum_a F_a + sum_i F_i - sum_(ia) F_ia], node by node."""
    t = messages.var_to_check
    that = messages.check_to_var
    tv = t.tolist()
    w = graph.weights
    forms = check_forms(graph)

    check_terms = []
    if isinstance(w, GeneralWeights):
        for a, psi in enumerate(forms):
            eids = graph.check_edges[a]
            pairs = [((1.0 + tv[e]) / 2.0, (1.0 - tv[e]) / 2.0) for e in eids]
            check_terms.append(_safe_log(check_sum(psi, pairs), f"check {a}"))
    else:
        for a, (c, tau) in enumerate(forms):
            prod = math.prod(tv[e] for e in graph.check_edges[a])
            check_terms.append(_safe_log(1.0 + tau * prod, f"check {a}") + math.log(c))
    fields = w.variable_fields if isinstance(w, LdpcWeights) else (0.0,) * graph.n
    var_terms = []
    for i in range(graph.n):
        plus = math.exp(fields[i])
        minus = math.exp(-fields[i])
        for e in graph.var_edges[i]:
            plus *= 1.0 + float(that[e])
            minus *= 1.0 - float(that[e])
        var_terms.append(
            _safe_log(plus + minus, f"variable {i}") - graph.var_degree(i) * math.log(2.0)
        )
    edge_terms = [
        _safe_log(1.0 + float(t[e]) * float(that[e]), f"edge {e}") - math.log(2.0)
        for e in range(graph.edge_count)
    ]
    f = (
        math.fsum(check_terms) + math.fsum(var_terms) - math.fsum(edge_terms)
    ) / graph.n
    return BetheBreakdown(
        f_bethe=f,
        check_terms=tuple(check_terms),
        var_terms=tuple(var_terms),
        edge_terms=tuple(edge_terms),
    )


def scalar_stationarity(
    graph: FactorGraph, messages: MessageSet, fd_step: float = 1e-5
) -> float:
    """Max central difference of f over atanh of each message, one full
    scalar assembly per perturbed message set."""
    t = messages.var_to_check
    that = messages.check_to_var
    worst = 0.0
    for arr_idx in (0, 1):
        base = t if arr_idx == 0 else that
        for e in range(graph.edge_count):
            theta = math.atanh(float(base[e]))
            up = base.copy()
            dn = base.copy()
            up[e] = math.tanh(theta + fd_step)
            dn[e] = math.tanh(theta - fd_step)
            pair = [(up, that), (dn, that)] if arr_idx == 0 else [(t, up), (t, dn)]
            fp, fm = (
                scalar_bethe_free_energy(
                    graph, MessageSet(kind=messages.kind, var_to_check=v, check_to_var=c)
                ).f_bethe
                for v, c in pair
            )
            worst = max(worst, abs(fp - fm) / (2.0 * fd_step))
    return worst


# ---------------------------------------------------------------------------
# subset-filter oracles for generalized loops and polymers


class ScalarFactors:
    """Touched-node factors one (node, edge subset) at a time, by the scalar
    per-node rules: the reference for ActivityEvaluator.table."""

    def __init__(self, graph: FactorGraph, messages: MessageSet) -> None:
        check_weight_range(graph)
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


def oracle_activity(factors: ScalarFactors, edge_ids: tuple[int, ...]) -> float:
    """K(edge subset) one node at a time: 1.0 times each touched variable's
    factor in increasing order, then each touched check's.  The reference
    for ActivityEvaluator.values."""
    g_edges = set(edge_ids)
    tv = sorted({factors.graph.edges[e][0] for e in edge_ids})
    tc = sorted({factors.graph.edges[e][1] for e in edge_ids})
    out = 1.0
    for i in tv:
        out *= factors.var_factor(i, g_edges)
    for a in tc:
        out *= factors.check_factor(a, g_edges)
    return out


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
    ev = ScalarFactors(graph, messages)
    acts = [oracle_activity(ev, p.edge_ids) for p in polymers]
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
    ev = ScalarFactors(graph, messages)
    small: list[float] = []
    large: list[float] = []
    polymer_nodes: list[set[int]] = []
    weights: list[float] = []
    for s in oracle_loops(graph):
        term = oracle_activity(ev, tuple(sorted(s)))
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
    evaluator: ScalarFactors | None = None,
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


def enumerate_generalized_loops(
    graph: FactorGraph, budget: int = 10_000_000
) -> list[Polymer]:
    """All nonempty edge subsets with every touched node of induced degree
    >= 2, from the library's walk.

    Sorted by (edge count, edge ids); the budget is the walk's.
    """
    leaves = _walk(graph, budget)
    out: list[Polymer] = []
    for choices, _prod in leaves.loops():
        out += leaves.records(choices)
    return sorted(out, key=_by_edges)


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

    recursive_walk(graph, leaf, budget, ScalarFactors(graph, messages))
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

    recursive_walk(graph, leaf, budget, ScalarFactors(graph, messages))
    return _loop_sum_result(
        small, large, len(polymer_nodes), _node_load(polymer_nodes, weights)
    )


URSELL_MAX_ORDER = 7  # the most vertices connected_mayer_sum takes


def ursell(polymers: list[Polymer] | tuple[Polymer, ...]) -> int:
    """Ursell coefficient of a tuple of polymers.

    Sums, over the connected spanning subgraphs of the overlap pattern
    (vertices = tuple slots, an edge wherever two polymers share a node),
    the product of -1 per edge.  A single polymer gives 1, an overlapping
    pair -1, and any tuple whose overlap pattern is disconnected gives 0.
    """
    if len(polymers) < 1:
        raise ValueError("need at least one polymer")
    masks = [p.node_mask for p in polymers]
    return connected_mayer_sum(
        len(masks),
        frozenset((a, b) for b in range(len(masks)) for a in range(b) if masks[a] & masks[b]),
    )


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
        raise ValueError(f"order {m} exceeds the supported maximum {URSELL_MAX_ORDER}")
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


def oracle_series_exact(
    graph: FactorGraph,
    messages: MessageSet,
    m_max: int,
    size_cutoff: int | None = None,
    polymers: list[Polymer] | None = None,
    budget: int = 10_000_000,
    z: float = 1.0,
) -> tuple[Fraction, ...]:
    """Per-order polymer-series terms, exactly, one multiset at a time.

    The reference for `polymer_series`, from the definition: order M is the
    sum, over every multiset of M polymers, of the Ursell coefficient of its
    overlap pattern times the product of the (float) activities divided by
    the multiplicity factorials, in exact arithmetic.  Every finite float is
    an integer times 2**-1074, so an order's multisets add up in one integer,
    each weighted by the multinomial M! / prod mult!, over M! 2**(1074 M).
    U is computed once per overlap pattern.  The budget fires at the first
    tuple past it, after the work on the earlier ones.
    """
    if polymers is None:
        polymers = enumerate_polymers(graph, max_size=size_cutoff, budget=budget)
    ev = ScalarFactors(graph, messages)
    acts = [int(Fraction(z * oracle_activity(ev, p.edge_ids)) * 2**1074) for p in polymers]
    masks = [p.node_mask for p in polymers]
    ursells: dict[tuple[bool, ...], int] = {}
    terms = []
    tuples_seen = 0
    for order in range(1, m_max + 1):
        pairs = list(itertools.combinations(range(order), 2))
        total = 0
        for combo in itertools.combinations_with_replacement(range(len(polymers)), order):
            tuples_seen += 1
            if tuples_seen > budget:
                raise BudgetExceededError(
                    f"series enumeration exceeded budget of {budget} tuples"
                )
            pattern = tuple(bool(masks[combo[a]] & masks[combo[b]]) for a, b in pairs)
            if pattern not in ursells:
                ursells[pattern] = ursell([polymers[j] for j in combo])
            if not ursells[pattern]:
                continue
            weight = ursells[pattern] * math.factorial(order)
            for _idx, reps in itertools.groupby(combo):
                weight //= math.factorial(len(list(reps)))
            for j in combo:
                weight *= acts[j]
            total += weight
        terms.append(Fraction(total, math.factorial(order) << (1074 * order)))
    return tuple(terms)


def series_ulps(term: float, exact: Fraction) -> float:
    """|term - exact| in units of the last place of exact rounded to float."""
    return float(abs(Fraction(term) - exact) / Fraction(math.ulp(float(exact))))


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
    ev = ScalarFactors(graph, messages)
    polymers = enumerate_polymers(graph, max_size=size_cap)
    acts = [oracle_activity(ev, p.edge_ids) for p in polymers]
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
            worst = max(worst, abs(oracle_activity(ev, merged) - prod))
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
    ln_z = log_partition(graph).log_z
    target = math.exp(ln_z - graph.n * f)
    ev = ScalarFactors(graph, messages)
    terms: list[float] = [1.0]
    max_dangling = 0.0
    for bits in range(1, 1 << E):
        edge_ids = tuple(e for e in range(E) if (bits >> e) & 1)
        val = oracle_activity(ev, edge_ids)
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
    """Side-by-side copies of graphs of one weight kind with the variables
    relabelled by a seeded permutation; ln Z of the union is the sum of the
    parts' ln Z.  General parts keep their couplings as beta J under one
    beta of 1."""
    kind = graphs[0].weights.kind
    n = sum(g.n for g in graphs)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges, var_fields, check_fields, couplings = [], [0.0] * n, [], []
    n0 = m0 = 0
    for g in graphs:
        w = g.weights
        assert w.kind == kind
        edges += [(perm[n0 + i], m0 + a) for i, a in g.edges]
        if kind == "ldpc":
            for i, h in enumerate(w.variable_fields):
                var_fields[perm[n0 + i]] = h
        elif kind == "ldgm":
            check_fields += w.check_fields
        else:
            couplings += [
                tuple((tuple(sorted(perm[n0 + i] for i in subset)), w.beta * j)
                      for subset, j in check)
                for check in w.couplings
            ]
        n0 += g.n
        m0 += g.m
    if kind == "ldpc":
        weights = LdpcWeights(tuple(var_fields))
    elif kind == "ldgm":
        weights = LdgmWeights(tuple(check_fields))
    else:
        weights = GeneralWeights(1.0, tuple(couplings))
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


def oracle_gauge_flips(graph: FactorGraph) -> set[int]:
    """The channel sign flips that leave BP and the Bethe free energy as
    they are, as bitmasks over the channel slots: the codewords of an ldpc
    graph, or for ldgm the check parities of each of the 2^n sets of
    variable flips, listed one set at a time."""
    if isinstance(graph.weights, LdpcWeights):
        return set(oracle_codewords(graph))
    checks = [graph.check_neighbors(a) for a in range(graph.m)]
    return {
        sum(1 << a for a, nbrs in enumerate(checks) if sum(u >> i & 1 for i in nbrs) % 2)
        for u in range(1 << graph.n)
    }


def oracle_gauge_classes(graph: FactorGraph, fields) -> list[tuple]:
    """Per field row, a label shared exactly by the rows whose magnitudes
    agree and whose negative signs differ by an oracle_gauge_flips flip:
    the magnitudes and the least sign mask of the row's class."""
    flips = oracle_gauge_flips(graph)
    out = []
    for row in np.asarray(fields, dtype=float).tolist():
        signs = sum(1 << k for k, h in enumerate(row) if math.copysign(1.0, h) < 0)
        out.append((tuple(abs(h) for h in row), min(signs ^ x for x in flips)))
    return out


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
# per-pattern GF(2) space: one elimination and one span sum per graph, the
# route the batched log_partitions replaces


def _oracle_bits(vec: int, width: int) -> np.ndarray:
    raw = np.frombuffer(vec.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.float64)


def _oracle_sign(vec: int, neg: int) -> float:
    return -1.0 if (vec & neg).bit_count() & 1 else 1.0


def _oracle_span_rows(vectors: list[int], width: int, neg: int):
    rows = np.zeros((1, width))
    signs = np.ones(1)
    for vec in vectors:
        rows = np.concatenate([rows, np.abs(rows - _oracle_bits(vec, width))])
        signs = np.concatenate([signs, _oracle_sign(vec, neg) * signs])
    return rows, signs


def oracle_span_log_sum(
    basis: list[int], w: np.ndarray, neg: int, offset: float, span_bits: int = 9
) -> float:
    """offset + ln sum_{c in span(basis)} (-1)^{|c & neg|} exp(w . c) for one
    weight vector, in blocks of 2^span_bits x 2^span_bits points."""
    width = len(w)
    low = min(len(basis), span_bits)
    mid = min(len(basis) - low, span_bits)
    rows, row_signs = _oracle_span_rows(basis[:low], width, neg)
    cols, col_signs = _oracle_span_rows(basis[low : low + mid], width, neg)
    row_w = rows @ w
    high = basis[low + mid :]
    peaks, partials = [], []
    for t in range(1 << len(high)):
        top = 0
        for j, vec in enumerate(high):
            if t >> j & 1:
                top ^= vec
        block_cols = np.abs(cols - _oracle_bits(top, width)) if top else cols
        log_w = (
            row_w[:, None]
            + (block_cols @ w)[None, :]
            - 2.0 * (rows @ (block_cols * w).T)
        )
        peak = float(log_w.max())
        scaled = np.exp(log_w - peak)
        if neg:
            partial = _oracle_sign(top, neg) * float(row_signs @ scaled @ col_signs)
        else:
            partial = float(scaled.sum())
        peaks.append(peak)
        partials.append(partial)
    peak = max(peaks)
    total = math.fsum(s * math.exp(p - peak) for p, s in zip(peaks, partials))
    if not total > 0.0:
        raise LogDomainError(f"signed dual-code sum {total} is not positive")
    return offset + peak + math.log(total)


def _oracle_ln_cosh(h: float) -> float:
    a = abs(h)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _oracle_ln_abs_tanh(h: float) -> float:
    a = abs(h)
    return math.log(-math.expm1(-2.0 * a)) - math.log1p(math.exp(-2.0 * a))


def oracle_log_partition(graph: FactorGraph) -> tuple[str, str, int]:
    """(ln Z as float.hex, method, k) of one graph by one elimination and one
    span sum, over the route log_partition documents: the codewords for
    ldpc; for ldgm and general the smaller of the row space and the dual
    code of the live terms' incidence, the row space on a tie."""
    w = graph.weights
    if isinstance(w, LdpcWeights):
        masks = [
            sum(1 << i for i in graph.check_neighbors(a)) for a in range(graph.m)
        ]
        basis = null_space_gf2(masks, graph.n)
        weights = np.array([-2.0 * h for h in w.variable_fields])
        log_z = oracle_span_log_sum(basis, weights, 0, math.fsum(w.variable_fields))
        return log_z.hex(), "codewords", len(basis)
    if isinstance(w, LdgmWeights):
        terms = [(graph.check_neighbors(a), h) for a, h in enumerate(w.check_fields)]
    else:
        terms = [(subset, w.beta * j) for check in w.couplings for subset, j in check]
    live = [(support, c) for support, c in terms if c != 0.0]
    rows = [0] * graph.n
    for pos, (support, _c) in enumerate(live):
        for i in support:
            rows[i] |= 1 << pos
    pivots = _reduced_rows(rows)
    if len(pivots) <= len(live) - len(pivots):
        basis = list(pivots.values())
        weights = np.array([-2.0 * c for _support, c in live])
        log_z = oracle_span_log_sum(basis, weights, 0, math.fsum(c for _s, c in live))
        log_z += (graph.n - len(basis)) * math.log(2.0)
        return log_z.hex(), "row-space", len(basis)
    basis = null_space_gf2(rows, len(live))
    weights = np.array([_oracle_ln_abs_tanh(c) for _support, c in live])
    neg = sum(1 << pos for pos, (_support, c) in enumerate(live) if c < 0.0)
    offset = graph.n * math.log(2.0) + math.fsum(_oracle_ln_cosh(c) for _s, c in terms)
    return oracle_span_log_sum(basis, weights, neg, offset).hex(), "dual-code", len(basis)


# ---------------------------------------------------------------------------
# per-graph channel average


def oracle_channel_average(
    graph: FactorGraph,
    p: float,
    value,
    exhaustive_limit: int = 20,
    mc_samples: int = 2_000,
    seed: int = 0,
) -> ChannelAverage:
    """channel_average with value called on one graph at a time, in pattern
    order and without chunks; each pattern's graph is built here."""
    h = ChannelParams(p=p).h
    count = len(own_fields(graph))
    if h == 0.0:
        val = value(pattern_graph(graph, (0.0,) * count))
        return ChannelAverage(mean=val, stderr=0.0, method="degenerate", patterns=1)
    if count <= exhaustive_limit:
        contribs = []
        for pattern in range(1 << count):
            flips = pattern.bit_count()
            weight = (p**flips) * ((1.0 - p) ** (count - flips))
            fields = tuple(-h if (pattern >> k) & 1 else h for k in range(count))
            contribs.append(weight * value(pattern_graph(graph, fields)))
        return ChannelAverage(
            mean=math.fsum(contribs), stderr=0.0, method="exhaustive", patterns=1 << count
        )
    rng = random.Random(seed)
    vals = []
    for _ in range(mc_samples):
        fields = tuple(-h if rng.random() < p else h for _ in range(count))
        vals.append(value(pattern_graph(graph, fields)))
    arr = np.asarray(vals)
    return ChannelAverage(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
        method="montecarlo",
        patterns=mc_samples,
    )


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

ORACLE_TOP = 12  # best pool starts refined by the multi-start oracles


def omega_constant(r: int) -> int:
    """Edge-count margin below which the type-counting estimate applies."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return 4 * r * r - 2 * r + 2


def restricted_point(l: int, r: int, zs) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Full (xs, ys) coordinates of a point z on the even sub-lattice."""
    xs = [0.0] * (l - 1)
    for s, zv in zip(range(1, (l + 1) // 2), zs):
        xs[2 * s - 2] = zv
    ys = [0.0] * (r - 1)
    ys[-1] = math.fsum((2 * s / l) * z for s, z in zip(range(1, (l + 1) // 2), zs))
    return tuple(xs), tuple(ys)


def _oracle_ascent(objective, feasible, start, tol, step0=0.05):
    """Coordinate ascent with separate feasibility and objective calls."""
    point = list(start)
    value = objective(point)
    step = step0
    while step >= tol:
        moved = False
        for _round in range(200):
            improved = False
            for j in range(len(point)):
                for delta in (step, -step):
                    trial = point[j] + delta
                    if trial < 0.0:
                        trial = 0.0
                    if trial == point[j]:
                        continue
                    cand = list(point)
                    cand[j] = trial
                    if not feasible(cand):
                        continue
                    cand_value = objective(cand)
                    if cand_value > value:
                        value, point = cand_value, cand
                        improved = moved = True
            if not improved:
                break
        step *= 0.5
        if not moved and step < tol:
            break
    return value, point


def _oracle_y_last(l, r, xs, ys_head):
    wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))
    wy = math.fsum((t / r) * y for t, y in zip(range(2, r), ys_head))
    return wx - wy


def oracle_feasible(l: int, r: int, lam: float, point) -> bool:
    """Admissibility of free coordinates (xs, then ys without y_r), in fsums."""
    if any(v < 0.0 for v in point):
        return False
    xs = point[: l - 1]
    ys_head = point[l - 1 :]
    yr = _oracle_y_last(l, r, xs, ys_head)
    if yr < 0.0:
        return False
    sx = math.fsum(xs)
    sy = math.fsum(ys_head) + yr
    if sx >= 1.0 - 1e-12 or sy >= 1.0 - 1e-12:
        return False
    return sx / l + sy / r >= lam - 1e-12


def oracle_objective(spec: RateFunctionSpec, point) -> float:
    """f_xy + k_theta at free coordinates, y_r from the degree matching."""
    l, r = spec.l, spec.r
    xs = list(point[: l - 1])
    ys_head = list(point[l - 1 :])
    ys = ys_head + [_oracle_y_last(l, r, xs, ys_head)]
    return f_xy(l, r, xs, ys) + k_theta(l, r, spec.theta, xs, ys, spec.alpha1, spec.alpha2)


def oracle_sample_pool(l: int, r: int, lam: float, starts: int, seed: int) -> list[list[float]]:
    """The admissible starts of random.Random(seed), one draw and one
    feasibility test at a time, stopping at `starts` rows or 100 * starts
    draws."""
    dim_x = l - 1
    dim_y = r - 2
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
        if oracle_feasible(l, r, lam, point):
            pool.append(point)
    return pool


def oracle_mckay_rate_function(
    spec: RateFunctionSpec,
    starts: int = 10_000,
    seed: int = 0,
    extra_starts: tuple[tuple[float, ...], ...] = (),
    tol: float = 1e-6,
) -> RateFunctionResult:
    """Lambda(theta) by seeded multi-start: every pool point scored by the
    fsum objective, the ORACLE_TOP best and every extra start climbed by
    coordinate ascent.  Its value is a lower bound on the maximum.
    """
    l, r, theta, lam = spec.l, spec.r, spec.theta, spec.lam
    if lam >= 1.0 / l + 1.0 / r:
        raise InfeasibleDomainError(f"size fraction {lam} admits no types")
    dim_x = l - 1

    def feasible(point):
        return oracle_feasible(l, r, lam, point)

    def objective(point):
        return oracle_objective(spec, point)

    pool = [(objective(point), point) for point in oracle_sample_pool(l, r, lam, starts, seed)]
    carried = []
    for start in extra_starts:
        point = [max(0.0, float(v)) for v in start]
        if len(point) == dim_x + r - 2 and feasible(point):
            carried.append((objective(point), point))
    if not pool and not carried:
        raise InfeasibleDomainError("no admissible types sampled")
    pool.sort(key=lambda item: -item[0])
    keep = pool[:ORACLE_TOP] + carried
    value, point = max(keep, key=lambda item: item[0])
    point = list(point)
    for _cand_value, cand in keep:
        ref_value, ref = _oracle_ascent(objective, feasible, cand, tol)
        if ref_value > value:
            value, point = ref_value, ref
    xs = point[:dim_x]
    ys_head = point[dim_x:]
    ys = ys_head + [_oracle_y_last(l, r, xs, ys_head)]
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


def maximize_f0(
    l: int,
    lam: float,
    starts: int = 4096,
    seed: int = 0,
    tol: float = 1e-6,
) -> tuple[float, tuple[float, ...]]:
    """Maximize the restricted profile f0 over l*lam <= sum z_s < 1.

    Random multi-start plus coordinate ascent; no analytic hints, so the
    output is an independent check of the closed-form point z_star.
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"need l odd and >= 3, got {l}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be a finite number, got {lam}")
    if lam <= 0.0 or l * lam >= 1.0:
        raise InfeasibleDomainError(
            f"size fraction {lam} leaves no admissible restricted types for l = {l}"
        )
    dim = (l - 1) // 2
    floor = l * lam

    def feasible(point: list[float]) -> bool:
        return all(v >= 0.0 for v in point) and floor <= math.fsum(point) <= 1.0 - 1e-12

    def objective(point: list[float]) -> float:
        return f0_restricted(l, point)

    rng = random.Random(seed)
    pool: list[tuple[float, list[float]]] = []
    attempts = 0
    while len(pool) < starts and attempts < 50 * starts:
        attempts += 1
        raw = [rng.expovariate(1.0) for _ in range(dim)]
        total = sum(raw) or 1.0
        scale = math.exp(rng.uniform(math.log(max(floor, 1e-4)), math.log(0.999)))
        point = [v / total * scale for v in raw]
        if feasible(point):
            pool.append((objective(point), point))
    if not pool:
        raise InfeasibleDomainError(
            f"no admissible restricted types sampled for l = {l}, lam = {lam}"
        )
    pool.sort(key=lambda item: -item[0])
    value, point = pool[0]
    for _value, start in pool[:ORACLE_TOP]:
        ref_value, ref = _oracle_ascent(objective, feasible, start, tol)
        if ref_value > value:
            value, point = ref_value, ref
    return value, tuple(point)
