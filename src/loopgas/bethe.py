"""Bethe free energy evaluated on message sets.

The free energy is assembled from check, variable and edge contributions;
on a tree at a BP fixed point it reproduces (1/n) ln Z exactly, and in
general it is the reference point the loop corrections attach to.

The assembly runs on the batch of BP (bp._Batch): components, each a
graph under one row of fields, as their disjoint union, over the same
degree buckets and stacked check forms (a general graph's check tables are
tabulated once and shared with BP).  bethe_graphs takes distinct graphs,
say the instances of trend; bethe_free_energies copies of one graph, under
a (rows, slots) matrix of field rows, say the channel patterns of one code,
or under its own weights.  Each term is formed column by column in the
operation order of the per-node formula:

- checks: 1 + tau * prod t, the product taken in math.prod order; general
  checks fold their stacked tables with bp.table_fold, one weight pair
  ((1 + t) / 2, (1 - t) / 2) per edge;
- variables: e^{+-h} prod (1 +- t_hat);
- edges: 1 + t * t_hat.

Every logarithm is math.log of a Python float and each component's sums
are math.fsum of its own terms, so each term and each f_bethe is the float
a node-by-node loop over that graph alone gives.
bethe_free_energy is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooCloseError, LogDomainError
from .bp import MessageSet, _Batch, check_weight_range, elementwise, table_fold
from .graphs import FactorGraph, channel_fields

LN2 = math.log(2.0)
_PROBE_ENTRIES = 1 << 18  # messages per stationarity_check assembly, at most


@dataclass(frozen=True)
class BetheBreakdown:
    """Per-node terms of the Bethe free energy, already divided by n."""

    f_bethe: float
    check_terms: tuple[float, ...]
    var_terms: tuple[float, ...]
    edge_terms: tuple[float, ...]


def bethe_free_energy(graph: FactorGraph, messages: MessageSet) -> BetheBreakdown:
    """Assemble f = (1/n) [sum_a F_a + sum_i F_i - sum_(ia) F_ia].

    The messages need not be a fixed point; the value is well defined for any
    point of the message space whose log arguments stay positive
    (LogDomainError otherwise).
    """
    return bethe_free_energies(graph, None, [messages])[0]


def bethe_free_energies(
    graph: FactorGraph, fields, messages: list[MessageSet]
) -> list[BetheBreakdown]:
    """bethe_free_energy of graph under each row of fields (see
    channel_fields) with the message set of that row, as one batch whose
    components are copies of graph; with fields None every message set is a
    component under the graph's own weights.

    ValueError when the message sets do not match the rows in number or
    length.  LogDomainError names the first failing check, else variable,
    else edge of the first failing row.
    """
    check_weight_range(graph, fields)
    rows = channel_fields(graph, fields)
    if fields is not None and len(messages) != len(rows):
        raise ValueError(f"need one message set per field row, got {len(messages)}")
    batch = _Batch([graph] * len(messages), None if fields is None else rows.ravel())
    return _assemble(batch, *batch.stack(messages))


def bethe_graphs(graphs: list[FactorGraph], messages: list[MessageSet]) -> list[BetheBreakdown]:
    """bethe_free_energy of every graph, all of one weight kind, with its
    message set, as one batch; results in graph order.  ValueError and
    LogDomainError as for bethe_free_energies, per graph."""
    if len(messages) != len(graphs):
        raise ValueError(f"need one message set per graph, got {len(messages)}")
    for graph in graphs:
        check_weight_range(graph)
    batch = _Batch(list(graphs))
    return _assemble(batch, *batch.stack(messages))


def _assemble(batch, t: np.ndarray, that: np.ndarray) -> list[BetheBreakdown]:
    """BetheBreakdown per component of batch, at the union's messages."""
    kind = batch.kind
    check_args = np.empty(batch.m)
    for nodes, columns, forms in batch.check_buckets:
        x = [t[col] for col in columns]
        if kind == "general":
            pairs = [[((1.0 + xk) / 2.0, (1.0 - xk) / 2.0)] for xk in x]
            check_args[nodes] = table_fold(forms, pairs)[..., 0]
            continue
        prod = x[0] if x else np.ones(len(nodes))
        for xk in x[1:]:
            prod = prod * xk
        check_args[nodes] = 1.0 + (prod if forms is None else forms * prod)

    if kind == "ldpc":
        plus_base = elementwise(math.exp, batch.fields)
        minus_base = elementwise(math.exp, -batch.fields)
    else:
        plus_base = minus_base = np.ones(batch.n)
    one_plus, one_minus = 1.0 + that, 1.0 - that
    # each term is log(arg) + shift: ln c_a for a check, -d ln 2 for a
    # variable of degree d, -ln 2 for an edge (x - y is x + (-y) bit for
    # bit, and adding 0.0 leaves a logarithm as it is)
    var_args, var_shift = np.empty(batch.n), np.empty(batch.n)
    for nodes, columns, _base in batch.var_buckets:
        plus, minus = plus_base[nodes], minus_base[nodes]
        for col in columns:
            plus = plus * one_plus[col]
            minus = minus * one_minus[col]
        var_args[nodes] = plus + minus
        var_shift[nodes] = -(len(columns) * LN2)
    edge_args = 1.0 + t * that
    _refuse_non_positive(batch, (check_args, var_args, edge_args))

    if kind == "ldgm":
        check_shift = elementwise(math.log, elementwise(math.cosh, batch.fields))
    else:
        check_shift = math.log(0.5) if kind == "ldpc" else 0.0
    c_terms = (elementwise(math.log, check_args) + check_shift).tolist()
    v_terms = (elementwise(math.log, var_args) + var_shift).tolist()
    e_terms = (elementwise(math.log, edge_args) - LN2).tolist()

    # check terms carry c_a, so a parity check is already in the halved
    # normalisation the general terms get from their (1 +- t)/2 weights;
    # for the variable and edge terms that normalisation cancels between the
    # two sums except for the explicit log-2 bookkeeping carried along.
    out = []
    cs, vs, es = (s.tolist() for s in (batch.check_starts, batch.var_starts, batch.edge_starts))
    for k, graph in enumerate(batch.graphs):
        c_row, v_row = c_terms[cs[k] : cs[k + 1]], v_terms[vs[k] : vs[k + 1]]
        e_row = e_terms[es[k] : es[k + 1]]
        f = (math.fsum(c_row) + math.fsum(v_row) - math.fsum(e_row)) / graph.n
        out.append(BetheBreakdown(f, tuple(c_row), tuple(v_row), tuple(e_row)))
    return out


def _refuse_non_positive(batch, parts: tuple) -> None:
    """LogDomainError for the first component with a log argument <= 0,
    naming its first such check, else variable, else edge."""
    first = None
    starts = (batch.check_starts, batch.var_starts, batch.edge_starts)
    for name, args, at in zip(("check", "variable", "edge"), parts, starts):
        bad = np.flatnonzero(args <= 0.0)
        if bad.size:
            k = int(np.searchsorted(at, bad[0], side="right")) - 1
            if first is None or k < first[0]:
                first = k, f"{name} {bad[0] - at[k]}", float(args[bad[0]])
    if first is not None:
        _k, what, x = first
        raise LogDomainError(f"{what} produced a non-positive log argument: {x}")


def stationarity_check(
    graph: FactorGraph,
    messages: MessageSet,
    fd_step: float = 1e-5,
) -> float:
    """Max |d f / d (atanh message)| over all directed edges, by central
    finite differences.  At an interior BP fixed point this is O(fd_step^2).

    The 4E perturbed message sets (each direction of each edge, stepped up
    and down) are assembled as the components of batches.
    """
    base = np.concatenate([
        np.asarray(messages.var_to_check, dtype=float),
        np.asarray(messages.check_to_var, dtype=float),
    ])
    biggest = float(np.abs(base).max(initial=0.0))
    if biggest >= 1.0 - fd_step:
        raise BoundaryTooCloseError(
            f"messages reach {biggest}, too close to the boundary for step {fd_step}"
        )

    # probe 2j steps message j of (t, that) up, probe 2j + 1 down
    theta = elementwise(math.atanh, base)
    values = np.stack(
        [elementwise(math.tanh, theta + fd_step), elementwise(math.tanh, theta - fd_step)], axis=1
    ).ravel()
    e = graph.edge_count
    step = max(1, _PROBE_ENTRIES // max(1, e))
    f = []
    for start in range(0, len(values), step):
        size = len(values[start : start + step])
        probe = np.repeat(base[None, :], size, axis=0)
        probe[np.arange(size), np.arange(start, start + size) // 2] = values[start : start + size]
        batch = _Batch([graph] * size)
        f += [b.f_bethe for b in _assemble(batch, probe[:, :e].ravel(), probe[:, e:].ravel())]

    worst = 0.0
    for fp, fm in zip(f[0::2], f[1::2]):
        worst = max(worst, abs(fp - fm) / (2.0 * fd_step))
    return worst
