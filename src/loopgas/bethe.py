"""Bethe free energy evaluated on message sets.

The free energy is assembled from check, variable and edge contributions;
on a tree at a BP fixed point it reproduces (1/n) ln Z exactly, and in
general it is the reference point the loop corrections attach to.

The assembly runs on one graph under a (rows, slots) matrix of field rows,
say the channel patterns of one code, like solve_fixed_points, and over the
same degree buckets and stacked check forms (bp._Batch; a general graph's
check tables are tabulated once and shared with BP).  Without field rows
every message row shares the graph's own weights.  Each term is formed
column by column in the operation order of the per-node formula:

- checks: 1 + tau * prod t, the product taken in math.prod order; general
  checks fold their stacked tables with bp.table_fold, one weight pair
  ((1 + t) / 2, (1 - t) / 2) per edge;
- variables: e^{+-h} prod (1 +- t_hat);
- edges: 1 + t * t_hat.

Every logarithm is math.log of a Python float and every row sum math.fsum,
so each term and each f_bethe is the float a node-by-node loop gives.
bethe_free_energy is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTooCloseError, LogDomainError
from .bp import MessageSet, _Batch, check_weight_range, elementwise, table_fold
from .graphs import FactorGraph

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
    channel_fields) with the message set of that row, as one batch; with
    fields None every message set is a row under the graph's own weights.

    ValueError when the message sets do not match the rows in number or
    length.  LogDomainError names the first failing check, else variable,
    else edge of the first failing row.
    """
    check_weight_range(graph, fields)
    batch = _Batch(graph, fields)
    if fields is not None and len(messages) != batch.size:
        raise ValueError(f"need one message set per field row, got {len(messages)}")
    if not messages:
        return []
    t = np.array([m.var_to_check for m in messages], dtype=float)
    that = np.array([m.check_to_var for m in messages], dtype=float)
    if t.shape != (len(messages), batch.edge_count) or that.shape != t.shape:
        raise ValueError(
            f"need {batch.edge_count} messages per direction, got {t.shape[1:]} "
            f"and {that.shape[1:]}"
        )
    return _assemble(batch, t, that)


def _assemble(batch, t: np.ndarray, that: np.ndarray):
    """BetheBreakdown per row of (t, that), under the field rows of batch:
    one per row, or a single row that every row shares."""
    rows = len(t)
    kind = batch.kind
    m, n = batch.m, batch.n

    # one log argument per check, variable and edge, in that order
    args = np.empty((rows, m + n + batch.edge_count))
    for (nodes, columns), forms in zip(batch.check_buckets, batch.check_rows):
        x = [t[:, col] for col in columns]
        if kind == "general":
            pairs = [[((1.0 + xk) / 2.0, (1.0 - xk) / 2.0)] for xk in x]
            args[:, nodes] = table_fold(forms, pairs)[..., 0]
            continue
        prod = x[0] if x else np.ones((rows, len(nodes)))
        for xk in x[1:]:
            prod = prod * xk
        args[:, nodes] = 1.0 + (prod if forms is None else forms * prod)

    if kind == "ldpc":
        plus_base = elementwise(math.exp, batch.fields)
        minus_base = elementwise(math.exp, -batch.fields)
    else:
        plus_base = minus_base = np.ones((1, n))
    one_plus, one_minus = 1.0 + that, 1.0 - that
    # each term is log(arg) + shift: ln c_a for a check, -d ln 2 for a
    # variable of degree d, -ln 2 for an edge (x - y is x + (-y) bit for
    # bit, and adding 0.0 leaves a logarithm as it is)
    shift = np.empty((1, m + n + batch.edge_count))
    for nodes, columns in batch.var_buckets:
        plus, minus = plus_base[:, nodes], minus_base[:, nodes]
        for col in columns:
            plus = plus * one_plus[:, col]
            minus = minus * one_minus[:, col]
        args[:, m + np.asarray(nodes, dtype=np.intp)] = plus + minus
        shift[0, m + np.asarray(nodes, dtype=np.intp)] = -(len(columns) * LN2)
    args[:, m + n :] = 1.0 + t * that
    shift[0, m + n :] = -LN2
    _refuse_non_positive(args, m, n)

    if kind == "ldgm":
        log_c = elementwise(math.log, elementwise(math.cosh, batch.fields))
        shift = np.repeat(shift, len(log_c), axis=0)
        shift[:, :m] = log_c
    else:
        shift[0, :m] = math.log(0.5) if kind == "ldpc" else 0.0
    terms = (elementwise(math.log, args) + shift).tolist()

    # check terms carry c_a, so a parity check is already in the halved
    # normalisation the general terms get from their (1 +- t)/2 weights;
    # for the variable and edge terms that normalisation cancels between the
    # two sums except for the explicit log-2 bookkeeping carried along.
    out = []
    for row in terms:
        c_row, v_row, e_row = row[:m], row[m : m + n], row[m + n :]
        f = (math.fsum(c_row) + math.fsum(v_row) - math.fsum(e_row)) / n
        out.append(
            BetheBreakdown(
                f_bethe=f,
                check_terms=tuple(c_row),
                var_terms=tuple(v_row),
                edge_terms=tuple(e_row),
            )
        )
    return out


def _refuse_non_positive(args: np.ndarray, m: int, n: int) -> None:
    """LogDomainError for the first row with a log argument <= 0, naming its
    first such check, else variable, else edge (the column order of args)."""
    bad = args <= 0.0
    if not bad.any():
        return
    row = np.flatnonzero(bad.any(axis=1))[0]
    col = int(np.flatnonzero(bad[row])[0])
    if col < m:
        what = f"check {col}"
    elif col < m + n:
        what = f"variable {col - m}"
    else:
        what = f"edge {col - m - n}"
    x = float(args[row, col])
    raise LogDomainError(f"{what} produced a non-positive log argument: {x}")


def stationarity_check(
    graph: FactorGraph,
    messages: MessageSet,
    fd_step: float = 1e-5,
) -> float:
    """Max |d f / d (atanh message)| over all directed edges, by central
    finite differences.  At an interior BP fixed point this is O(fd_step^2).

    The 4E perturbed message sets (each direction of each edge, stepped up
    and down) are assembled as the rows of batches.
    """
    t = np.asarray(messages.var_to_check, dtype=float)
    that = np.asarray(messages.check_to_var, dtype=float)
    biggest = max(
        float(np.abs(t).max(initial=0.0)), float(np.abs(that).max(initial=0.0))
    )
    if biggest >= 1.0 - fd_step:
        raise BoundaryTooCloseError(
            f"messages reach {biggest}, too close to the boundary for step {fd_step}"
        )

    # probe r sets message (side, edge) of row r; rows come in (up, down) pairs
    sides, edges, values = [], [], []
    for side, base in enumerate((t, that)):
        for e, x in enumerate(base.tolist()):
            theta = math.atanh(x)
            sides += [side, side]
            edges += [e, e]
            values += [math.tanh(theta + fd_step), math.tanh(theta - fd_step)]
    sides, edges, values = np.array(sides), np.array(edges), np.array(values)

    batch = _Batch(graph)
    step = max(1, _PROBE_ENTRIES // max(1, graph.edge_count))
    f = []
    for start in range(0, len(values), step):
        part = slice(start, start + step)
        size = len(values[part])
        probe = [np.repeat(base[None, :], size, axis=0) for base in (t, that)]
        for side in (0, 1):
            mine = np.flatnonzero(sides[part] == side)
            probe[side][mine, edges[part][mine]] = values[part][mine]
        f += [b.f_bethe for b in _assemble(batch, *probe)]

    worst = 0.0
    for fp, fm in zip(f[0::2], f[1::2]):
        worst = max(worst, abs(fp - fm) / (2.0 * fd_step))
    return worst
