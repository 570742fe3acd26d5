"""Bethe free energy evaluated on a message set.

The free energy is assembled from check, variable and edge contributions;
on a tree at a BP fixed point it reproduces (1/n) ln Z exactly, and in
general it is the reference point the loop corrections attach to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooCloseError, LogDomainError
from .bp import MessageSet, check_forms, check_sum
from .graphs import FactorGraph, GeneralWeights, LdpcWeights


@dataclass(frozen=True)
class BetheBreakdown:
    """Per-node terms of the Bethe free energy, already divided by n."""

    f_bethe: float
    check_terms: tuple[float, ...]
    var_terms: tuple[float, ...]
    edge_terms: tuple[float, ...]


def _safe_log(x: float, what: str) -> float:
    if x <= 0.0:
        raise LogDomainError(f"{what} produced a non-positive log argument: {x}")
    return math.log(x)


def _var_term(graph: FactorGraph, that: np.ndarray, i: int, h_i: float) -> float:
    plus = math.exp(h_i)
    minus = math.exp(-h_i)
    for e in graph.var_edges[i]:
        plus *= 1.0 + float(that[e])
        minus *= 1.0 - float(that[e])
    return _safe_log(plus + minus, f"variable {i}") - graph.var_degree(i) * math.log(
        2.0
    )


def bethe_free_energy(graph: FactorGraph, messages: MessageSet) -> BetheBreakdown:
    """Assemble f = (1/n) [sum_a F_a + sum_i F_i - sum_(ia) F_ia].

    The messages need not be a fixed point; the value is well defined for any
    point of the message space whose log arguments stay positive
    (LogDomainError otherwise).
    """
    return _free_energy(graph, messages, check_forms(graph))


def _free_energy(
    graph: FactorGraph, messages: MessageSet, forms: list
) -> BetheBreakdown:
    t = messages.var_to_check
    that = messages.check_to_var
    tv = t.tolist()
    w = graph.weights

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
    var_terms = tuple(_var_term(graph, that, i, fields[i]) for i in range(graph.n))

    edge_terms = tuple(
        _safe_log(1.0 + float(t[e]) * float(that[e]), f"edge {e}") - math.log(2.0)
        for e in range(graph.edge_count)
    )

    # check terms carry c_a, so a parity check is already in the halved
    # normalisation the general terms get from their (1 +- t)/2 weights;
    # for the variable and edge terms that normalisation cancels between the
    # two sums except for the explicit log-2 bookkeeping carried along.
    f = (
        math.fsum(check_terms) + math.fsum(var_terms) - math.fsum(edge_terms)
    ) / graph.n
    return BetheBreakdown(
        f_bethe=f,
        check_terms=tuple(check_terms),
        var_terms=var_terms,
        edge_terms=edge_terms,
    )


def stationarity_check(
    graph: FactorGraph,
    messages: MessageSet,
    fd_step: float = 1e-5,
) -> float:
    """Max |d f / d (atanh message)| over all directed edges, by central
    finite differences.  At an interior BP fixed point this is O(fd_step^2).
    """
    t = messages.var_to_check
    that = messages.check_to_var
    biggest = max(
        float(np.abs(t).max(initial=0.0)), float(np.abs(that).max(initial=0.0))
    )
    if biggest >= 1.0 - fd_step:
        raise BoundaryTooCloseError(
            f"messages reach {biggest}, too close to the boundary for step {fd_step}"
        )

    forms = check_forms(graph)

    def value(tv: np.ndarray, hv: np.ndarray) -> float:
        return _free_energy(
            graph,
            MessageSet(kind=messages.kind, var_to_check=tv, check_to_var=hv),
            forms,
        ).f_bethe

    worst = 0.0
    for arr_idx in (0, 1):
        base = t if arr_idx == 0 else that
        for e in range(graph.edge_count):
            theta = math.atanh(float(base[e]))
            up = base.copy()
            dn = base.copy()
            up[e] = math.tanh(theta + fd_step)
            dn[e] = math.tanh(theta - fd_step)
            if arr_idx == 0:
                fp = value(up, that)
                fm = value(dn, that)
            else:
                fp = value(t, up)
                fm = value(t, dn)
            worst = max(worst, abs(fp - fm) / (2.0 * fd_step))
    return worst
