"""Belief-propagation message passing in the tanh domain.

Messages live on directed edges: var_to_check[e] stores tanh of the
variable-to-check log-likelihood message on edge e, check_to_var[e] the
check-to-variable direction.  Sweeps are fully synchronous (both directions
recomputed from the previous iterate), which keeps trajectories independent
of edge order.

Checks come in two forms, shared with the Bethe free energy and the loop
activities.  ldpc and ldgm checks have the parity form
psi_a(s) = c_a (1 + tau_a prod s), with (c, tau) = (1/2, 1) for a parity
constraint and (cosh h_a, tanh h_a) for a generator field; their local sums
close in products of tanh messages.  General checks are tabulated once, psi_a
over all 2^d local configurations, and every local sum is a contraction of
that table with one weight pair per edge (check_marginal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooLargeError
from .graphs import ChannelParams, FactorGraph, GeneralWeights, LdgmWeights, LdpcWeights

CHECK_TABLE_MAX_DEGREE = 20


@dataclass(frozen=True)
class MessageSet:
    """Tanh-domain messages for every directed edge of a graph."""

    kind: str
    var_to_check: np.ndarray
    check_to_var: np.ndarray

    def copy(self) -> "MessageSet":
        return MessageSet(
            kind=self.kind,
            var_to_check=self.var_to_check.copy(),
            check_to_var=self.check_to_var.copy(),
        )


@dataclass(frozen=True)
class BPResult:
    messages: MessageSet
    residual: float
    iterations: int
    converged: bool


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


def parity_form(graph: FactorGraph) -> list[tuple[float, float]]:
    """Per check of an ldpc or ldgm graph: (c_a, tau_a) with
    psi_a(s) = c_a (1 + tau_a prod s)."""
    w = graph.weights
    if isinstance(w, LdpcWeights):
        return [(0.5, 1.0)] * graph.m
    assert isinstance(w, LdgmWeights)
    return [(math.cosh(h), math.tanh(h)) for h in w.check_fields]


def check_tables(graph: FactorGraph) -> list[list[float]]:
    """Per check of a general-weight graph: psi_a over its 2^d local
    configurations.  Bit k of a configuration is set when the k-th neighbour
    in check_neighbors order has spin -1."""
    w = graph.weights
    assert isinstance(w, GeneralWeights)
    for a in range(graph.m):
        d = graph.check_degree(a)
        if d > CHECK_TABLE_MAX_DEGREE:
            raise DegreeTooLargeError(
                f"check {a} has degree {d} > {CHECK_TABLE_MAX_DEGREE}"
            )
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


def check_forms(graph: FactorGraph) -> list:
    """check_tables for general weights, parity_form for ldpc and ldgm."""
    if isinstance(graph.weights, GeneralWeights):
        return check_tables(graph)
    return parity_form(graph)


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
    """One synchronous sweep: both directions recomputed from the old iterate."""
    return _sweep(graph, messages, check_forms(graph))


def initial_messages(graph: FactorGraph) -> MessageSet:
    """Default starting point: zeros, except ldpc which seeds the channel
    fields on variable messages and their first-order products on check
    messages."""
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


def residual_of(graph: FactorGraph, messages: MessageSet) -> float:
    """Sup-norm distance between messages and one undamped sweep of them."""
    return _distance(bp_sweep(graph, messages), messages)


def solve_fixed_point(
    graph: FactorGraph,
    init: MessageSet | None = None,
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> BPResult:
    """Iterate damped synchronous sweeps until the sup-norm residual <= tol.

    damping d in [0, 1) mixes the old iterate back in (t <- (1-d)*sweep + d*t,
    in the tanh domain).  Non-convergence is reported, not raised.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    msgs = init.copy() if init is not None else initial_messages(graph)
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
# fixed-point verification predicates


def _within(values: np.ndarray, cap: float) -> bool:
    return values.size == 0 or float(np.abs(values).max()) <= cap + 1e-12


def verify_high_noise(messages: MessageSet, channel: ChannelParams) -> bool:
    """All variable-to-check messages within the high-noise threshold theta."""
    if messages.kind != "ldpc":
        raise ValueError("the high-noise predicate applies to ldpc messages")
    return _within(messages.var_to_check, channel.theta)


def verify_high_temperature_bounds(messages: MessageSet, graph: FactorGraph) -> bool:
    """General-weight fixed-point bounds |t| <= 2(l_max - 1)*mu, |t_hat| <= 2*mu."""
    w = graph.weights
    if not isinstance(w, GeneralWeights):
        raise ValueError("high-temperature bounds apply to general weights")
    mu = w.mu()
    if mu >= 0.5:
        raise ValueError(f"bounds require mu < 1/2, got mu = {mu}")
    return _within(messages.var_to_check, 2.0 * (graph.l_max - 1) * mu) and _within(
        messages.check_to_var, 2.0 * mu
    )


def verify_ldgm_message_bounds(messages: MessageSet, graph: FactorGraph) -> bool:
    """ldgm fixed-point bounds |t| <= 4(l_max - 1)*h, |t_hat| <= 4*h."""
    w = graph.weights
    if not isinstance(w, LdgmWeights):
        raise ValueError("these bounds apply to ldgm weights")
    h = max((abs(x) for x in w.check_fields), default=0.0)
    return _within(messages.var_to_check, 4.0 * (graph.l_max - 1) * h) and _within(
        messages.check_to_var, 4.0 * h
    )
