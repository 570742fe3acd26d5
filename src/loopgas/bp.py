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
that table with one weight pair per edge, folded one axis at a time; a table
whose largest log weight beta * sum |J| would overflow a float is refused
(WeightOverflowError) before any entry is formed.  One fold, table_fold,
serves both the Bethe check terms (one weight pair per edge) and the loop
activity tables (two pairs per edge, one table entry per choice of pairs).

A sweep runs on numpy arrays over one batch axis of components, each a
graph under one row of fields (see channel_fields), swept as their disjoint
union (_Batch): distinct graphs in solve_graphs, copies of one graph under
a (rows, slots) matrix of field rows in solve_fixed_points, one graph in
solve_fixed_point.  Each update rule runs column by column over a degree
bucket of every component at once: prefix and suffix products (parity
checks), prefix and suffix tanh-domain sums (variables), and the marginal
folds over stacked tables (general checks), in the operation order of the
scalar rules, so every message is the same float the per-edge rule gives.
Components share no edge, and each leaves the batch at the first iteration
where its own residual is <= tol, so each ends exactly where its solo solve
ends.  A sweep that divides by zero or yields a non-finite message, which
saturated messages at +-1 can do, raises SingularDenominatorError.  The
Bethe assembly runs over the same batch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooLargeError, SingularDenominatorError, WeightOverflowError
from .graphs import (
    ChannelParams,
    FactorGraph,
    GeneralWeights,
    LdgmWeights,
    LdpcWeights,
    channel_fields,
)

CHECK_TABLE_MAX_DEGREE = 20  # the largest degree d of a node tabulated over 2^d entries
_MAX_LOG_WEIGHT = math.log(sys.float_info.max)  # math.exp is finite up to here


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


def parity_form(graph: FactorGraph) -> list[tuple[float, float]]:
    """Per check of an ldpc or ldgm graph: (c_a, tau_a) with
    psi_a(s) = c_a (1 + tau_a prod s)."""
    w = graph.weights
    if isinstance(w, LdpcWeights):
        return [(0.5, 1.0)] * graph.m
    assert isinstance(w, LdgmWeights)
    return [(math.cosh(h), math.tanh(h)) for h in w.check_fields]


def check_weight_range(graph: FactorGraph, fields=None) -> None:
    """Refuse weights whose exponentials would overflow a float.

    The check tables, the Bethe terms and the loop activities exponentiate
    the log weights: a general check's reach beta * sum |J| (rounding is
    monotone, so this sum in term order bounds every log_psi of
    check_tables, which adds the same terms with signs), an ldgm check takes
    cosh h_a and an ldpc variable exp(+-h_i), each h its own or a row of
    fields (see channel_fields).  WeightOverflowError names the first check
    (general, ldgm) or variable (ldpc) whose bound exceeds _MAX_LOG_WEIGHT.
    """
    w = graph.weights
    rows = channel_fields(graph, fields)
    if rows is None:
        for a in range(graph.m):
            bound = 0.0
            for _subset, j in w.couplings[a]:
                bound += abs(w.beta * j)
            if bound > _MAX_LOG_WEIGHT:
                raise WeightOverflowError(
                    f"check {a}: beta * sum |J| = {bound} exceeds {_MAX_LOG_WEIGHT}, "
                    "the largest log weight a float holds"
                )
        return
    node = "check" if isinstance(w, LdgmWeights) else "variable"
    over = np.abs(rows) > _MAX_LOG_WEIGHT
    if over.any():
        row, k = np.argwhere(over)[0]
        raise WeightOverflowError(
            f"{node} {k}: field |h| = {abs(float(rows[row, k]))} exceeds "
            f"{_MAX_LOG_WEIGHT}, the largest log weight a float holds"
        )


def node_name(graph: FactorGraph, node: int) -> str:
    return f"variable {node}" if node < graph.n else f"check {node - graph.n}"


def table_degree(graph: FactorGraph, node: int) -> int:
    """node's degree (check a is node n + a); DegreeTooLargeError past
    CHECK_TABLE_MAX_DEGREE, before any of its 2^d entries is allocated."""
    n = graph.n
    d = len(graph.var_edges[node] if node < n else graph.check_edges[node - n])
    if d > CHECK_TABLE_MAX_DEGREE:
        raise DegreeTooLargeError(
            f"{node_name(graph, node)} has degree {d} > {CHECK_TABLE_MAX_DEGREE}"
        )
    return d


def check_tables(graph: FactorGraph) -> list[list[float]]:
    """Per check of a general-weight graph: psi_a over its 2^d local
    configurations.  Bit k of a configuration is set when the k-th neighbour
    in check_neighbors order has spin -1.

    The checks of one degree d and one term count are tabulated together:
    each term's parity over all 2^d configurations is one numpy mask, the
    log weights beta * J * (+-1) are added term by term in coupling order,
    starting from 0.0, and math.exp is taken entry by entry, so every entry
    is the float the per-configuration sum gives."""
    w = graph.weights
    assert isinstance(w, GeneralWeights)
    for a in range(graph.m):
        table_degree(graph, graph.n + a)
    check_weight_range(graph)
    groups: dict[tuple[int, int], list[int]] = {}
    masks = []
    var_of = [i for i, _a in graph.edges]
    powers = [1 << k for k in range(CHECK_TABLE_MAX_DEGREE)]
    for a, (eids, terms) in enumerate(zip(graph.check_edges, w.couplings)):
        # a check's edges are consecutive, its neighbours in increasing order
        start = eids[0] if eids else 0
        bit = dict(zip(var_of[start : start + len(eids)], powers))
        masks.append([sum(map(bit.__getitem__, subset)) for subset, _j in terms])
        groups.setdefault((len(eids), len(terms)), []).append(a)
    tables: list[list[float]] = [[] for _ in range(graph.m)]
    for (d, count), checks in groups.items():
        shape = (len(checks), count, 1)
        mask = np.array([masks[a] for a in checks], dtype=np.int32).reshape(shape)
        scaled = [[w.beta * j for _s, j in w.couplings[a]] for a in checks]
        bj = np.array(scaled, dtype=float).reshape(shape)
        odd = np.bitwise_count(np.arange(1 << d, dtype=np.int32) & mask) & 1
        log_psi = np.zeros((len(checks), 1 << d))
        for t in range(count):
            log_psi += bj[:, t] * (1.0 - 2.0 * odd[:, t])
        for a, psi in zip(checks, elementwise(math.exp, log_psi).tolist()):
            tables[a] = psi
    return tables


def check_forms(graph: FactorGraph) -> list:
    """parity_form for ldpc and ldgm; for general weights check_tables,
    tabulated once per graph and kept in graph.cache, so BP, the Bethe
    assembly and the loop activities of one graph share it."""
    if not isinstance(graph.weights, GeneralWeights):
        return parity_form(graph)
    if "check_tables" not in graph.cache:
        graph.cache["check_tables"] = check_tables(graph)
    return graph.cache["check_tables"]


# ---------------------------------------------------------------------------
# the sweep: degree buckets over the disjoint union of components


def _topology(graph: FactorGraph) -> tuple:
    """(check buckets, variable buckets) of graph, kept in its cache: per
    degree d present, in increasing d, (nodes, columns, tables), the nodes
    of that degree in increasing order, a (d, count) array whose row k holds
    the k-th edge of each node in check_edges / var_edges order, and the
    check_forms tables of general checks, stacked (count, 2^d), else None.
    Isolated nodes form a bucket with no columns: no message touches them,
    but the Bethe free energy has a term for each."""
    if "buckets" not in graph.cache:
        tables = check_forms(graph) if isinstance(graph.weights, GeneralWeights) else None
        sides = []
        for incidence, forms in ((graph.check_edges, tables), (graph.var_edges, None)):
            by_degree: dict[int, list[int]] = {}
            for node, eids in enumerate(incidence):
                by_degree.setdefault(len(eids), []).append(node)
            sides.append([
                (
                    np.array(nodes, dtype=np.intp),
                    np.array([incidence[v] for v in nodes], dtype=np.intp)
                    .reshape(len(nodes), d).T,
                    None if forms is None else np.array([forms[a] for a in nodes]),
                )
                for d, nodes in sorted(by_degree.items())
            ])
        graph.cache["buckets"] = tuple(sides)
    return graph.cache["buckets"]


def _union(groups, side: int, node_starts, edge_starts) -> list[list]:
    """[nodes, columns, forms] per degree present on one side (0 checks,
    1 variables) of the disjoint union, in increasing degree: that bucket of
    each (graph, components) group's graph, offset to each component."""
    parts: dict[int, list] = {}
    for g, ks in groups:
        node_off, edge_off = node_starts[ks, None], edge_starts[ks, None]
        for nodes, columns, tables in _topology(g)[side]:
            parts.setdefault(len(columns), []).append((
                (nodes + node_off).ravel(),
                (columns[:, None, :] + edge_off).reshape(len(columns), len(ks) * len(nodes)),
                None if tables is None else np.tile(tables, (len(ks), 1)),
            ))
    return [
        [np.concatenate(nodes), np.concatenate(columns, axis=1),
         None if tables[0] is None else np.concatenate(tables)]
        for nodes, columns, tables in (zip(*parts[d]) for d in sorted(parts))
    ]


def _combine(x, y):
    # tanh(atanh x + atanh y) without leaving the tanh domain, elementwise
    return (x + y) / (1.0 + x * y)


def _exclusive_combine(y: list, base) -> list:
    """out[k] = base combined with every y[j], j != k, folded prefix then
    suffix.  The full prefix (the belief of the node) and the full suffix
    are not returned, but they are formed all the same: a zero denominator
    there means certain messages contradict each other."""
    d = len(y)
    prefix = [base]
    for k in range(d):
        prefix.append(_combine(prefix[k], y[k]))
    suffix = [0.0] * (d + 1)
    for k in range(d - 1, -1, -1):
        suffix[k] = _combine(suffix[k + 1], y[k])
    return [_combine(prefix[k], suffix[k + 1]) for k in range(d)]


def _exclusive_products(x: list) -> list:
    """out[k] = product of every x[j], j != k, without division.  The full
    prefix and suffix products are not needed and not formed."""
    d = len(x)
    prefix = [1.0]
    for k in range(d - 1):
        prefix.append(prefix[k] * x[k])
    suffix = [1.0] * (d + 1)
    for k in range(d - 1, 0, -1):
        suffix[k] = suffix[k + 1] * x[k]
    return [prefix[k] * suffix[k + 1] for k in range(d)]


def _table_ratios(tables: np.ndarray, x: list) -> list:
    """Per slot k: (plus - minus) / (plus + minus), (plus, minus) the sums of
    psi(x) prod_{j != k} w_j(x_j) over x_k = +-1 for stacked tables (...,
    2^d) under weights (1 + x_j, 1 - x_j).  The axes above k fold from
    the top, shared between consecutive k, then those below k from the
    bottom, each as p * wp + q * wm."""
    d = len(x)
    pairs = [((1.0 + xk)[..., None], (1.0 - xk)[..., None]) for xk in x]
    out = [None] * d
    top = tables
    for k in range(d - 1, -1, -1):
        if k < d - 1:
            wp, wm = pairs[k + 1]
            half = top.shape[-1] >> 1
            top = top[..., :half] * wp + top[..., half:] * wm
        t = top
        for j in range(k):
            wp, wm = pairs[j]
            t = t[..., 0::2] * wp + t[..., 1::2] * wm
        plus, minus = t[..., 0], t[..., 1]
        out[k] = (plus - minus) / (plus + minus)
    return out


def table_fold(tables: np.ndarray, pairs: list) -> np.ndarray:
    """sum over x of psi(x) prod_k w_k(x_k) for stacked tables (..., 2^d),
    under every choice of one weight pair per axis.

    pairs[k] lists the (spin +1, spin -1) weight pairs of axis k, bit k of
    the table index, each weight broadcasting against tables[..., 0].  The
    axes fold from the top, each as p * wp + q * wm over the two halves.
    The result's last axis holds one sum per choice, the top axis's choice
    most significant: with two pairs per axis, entry mask takes pair 1 on
    exactly the axes set in mask."""
    t = tables[..., None, :]
    for k in range(len(pairs) - 1, -1, -1):
        half = t.shape[-1] >> 1
        low, high = t[..., :half], t[..., half:]
        t = np.stack(
            [low * np.asarray(wp)[..., None, None] + high * np.asarray(wm)[..., None, None]
             for wp, wm in pairs[k]],
            axis=-2,
        )
        t = t.reshape(*t.shape[:-3], -1, half)
    return t[..., 0]


def elementwise(fn, values: np.ndarray) -> np.ndarray:
    """fn (a math.* function) of every entry, as Python floats, in order."""
    flat = values.ravel().tolist()
    return np.fromiter(map(fn, flat), dtype=float, count=len(flat)).reshape(values.shape)


class _Batch:
    """Components swept as their disjoint union: graphs, of one weight kind
    (else ValueError), under fields, the channel slots of every component in
    turn, by default their own (None for general weights); tanh, if given,
    is elementwise math.tanh of fields.  Each component's variables, checks
    and edges follow those of the components before it (var_starts,
    check_starts, edge_starts).  A bucket [nodes, columns, forms] holds the
    nodes of one degree of every component with their check forms (tanh h_a
    for ldgm, tables for general checks) or fields (tanh h_i for ldpc)."""

    def __init__(self, graphs: list[FactorGraph], fields=None, tanh=None) -> None:
        kinds = sorted({g.weights.kind for g in graphs})
        if len(kinds) > 1:
            raise ValueError(f"a batch takes graphs of one weight kind, got {kinds}")
        self.kind = kinds[0] if kinds else None
        if fields is None and self.kind in ("ldpc", "ldgm"):
            fields = np.concatenate([channel_fields(g) for g in graphs], axis=None)
        self.graphs, self.fields = graphs, fields
        groups: dict[int, list] = {}  # per graph object: [graph, its components]
        for k, g in enumerate(graphs):
            groups.setdefault(id(g), [g, []])[1].append(k)
        sizes = np.array([(g.n, g.m, g.edge_count) for g in graphs], dtype=np.intp)
        starts = np.vstack([np.zeros((1, 3), dtype=np.intp), sizes.reshape(-1, 3).cumsum(axis=0)])
        self.var_starts, self.check_starts, self.edge_starts = starts.T
        self.n, self.m, self.edge_count = starts[-1].tolist()
        self.check_buckets = _union(groups.values(), 0, self.check_starts, self.edge_starts)
        self.var_buckets = _union(groups.values(), 1, self.var_starts, self.edge_starts)
        if fields is not None:
            self.tanh = elementwise(math.tanh, fields) if tanh is None else tanh
            for bucket in self.var_buckets if self.kind == "ldpc" else self.check_buckets:
                bucket[2] = self.tanh[bucket[0]]

    def keep(self, live: np.ndarray) -> "_Batch":
        """The batch of the components where live is True."""
        graphs = [g for g, alive in zip(self.graphs, live.tolist()) if alive]
        if self.fields is None:
            return _Batch(graphs)
        starts = self.var_starts if self.kind == "ldpc" else self.check_starts
        slots = np.repeat(live, np.diff(starts))
        return _Batch(graphs, self.fields[slots], self.tanh[slots])

    def stack(self, messages: list[MessageSet]) -> tuple[np.ndarray, np.ndarray]:
        """One message set per component as the union's two message vectors;
        ValueError unless each has its component's edge count per direction."""
        t = [np.asarray(x.var_to_check, dtype=float) for x in messages]
        that = [np.asarray(x.check_to_var, dtype=float) for x in messages]
        for x, y, e in zip(t, that, np.diff(self.edge_starts).tolist()):
            if x.shape != (e,) or y.shape != (e,):
                raise ValueError(f"need {e} messages per direction, got {x.shape} and {y.shape}")
        return np.concatenate([np.zeros(0), *t]), np.concatenate([np.zeros(0), *that])

    def initial(self) -> tuple[np.ndarray, np.ndarray]:
        """The default start of every component (see initial_messages)."""
        if self.kind != "ldpc":
            return np.zeros(self.edge_count), np.zeros(self.edge_count)
        v, c = np.empty(self.edge_count), np.empty(self.edge_count)
        for _nodes, columns, tanh_h in self.var_buckets:
            for col in columns:
                v[col] = tanh_h
        self.check_update(v, c)
        return v, c

    def check_update(self, v: np.ndarray, out: np.ndarray) -> None:
        for _nodes, columns, forms in self.check_buckets:
            x = [v[col] for col in columns]
            if self.kind == "general":
                values = _table_ratios(forms, x)
            else:
                values = _exclusive_products(x)
                if forms is not None:
                    values = [forms * value for value in values]
            for col, value in zip(columns, values):
                out[col] = value

    def var_update(self, c: np.ndarray, out: np.ndarray) -> None:
        for _nodes, columns, base in self.var_buckets:
            y = [c[col] for col in columns]
            values = _exclusive_combine(y, 0.0 if base is None else base)
            for col, value in zip(columns, values):
                out[col] = value

    def sweep(self, v: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous sweep of every component: (new v, new c).

        Raises SingularDenominatorError when a rule divides by zero or a
        message comes out non-finite (saturated, contradictory messages).
        """
        new_v = np.empty_like(v)
        new_c = np.empty_like(c)
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            try:
                self.check_update(v, new_c)
                self.var_update(c, new_v)
            except FloatingPointError as exc:
                raise SingularDenominatorError(
                    f"a BP update met a zero denominator ({exc}): messages "
                    "saturated at +-1 contradict each other"
                ) from exc
        if not (np.isfinite(new_v).all() and np.isfinite(new_c).all()):
            raise SingularDenominatorError("a BP sweep produced a non-finite message")
        return new_v, new_c

    def distance(self, v1, c1, v0, c0) -> np.ndarray:
        """Per component: the sup-norm distance between two message sets
        (0.0 without edges)."""
        gap = np.append(np.maximum(np.abs(v1 - v0), np.abs(c1 - c0)), 0.0)
        most = np.maximum.reduceat(gap, self.edge_starts[:-1])
        return np.where(np.diff(self.edge_starts) > 0, most, 0.0)


def initial_messages(graph: FactorGraph) -> MessageSet:
    """Default starting point: zeros, except ldpc which seeds the channel
    fields on variable messages and their first-order products on check
    messages."""
    v, c = _Batch([graph]).initial()
    return MessageSet(kind=graph.weights.kind, var_to_check=v, check_to_var=c)


def residual_of(graph: FactorGraph, messages: MessageSet) -> float:
    """Sup-norm distance between messages and one undamped sweep of them."""
    return solve_fixed_point(graph, init=messages, max_iter=1).residual


def _solve(batch: _Batch, inits, damping: float, tol: float, max_iter: int) -> list[BPResult]:
    """Sweep every component of batch from its start (inits, else the
    default start) until its own residual is <= tol, at most max_iter
    times; a component that stops leaves the batch.  Results in component
    order."""
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    size, kind = len(batch.graphs), batch.kind
    if inits is not None and len(inits) != size:
        raise ValueError(f"need one start per component, got {len(inits)} for {size}")
    v, c = batch.initial() if inits is None else batch.stack(inits)
    results: list = [None] * size
    live = np.arange(size)  # the component of each live component
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        new_v, new_c = batch.sweep(v, c)
        if damping > 0.0:
            new_v = (1.0 - damping) * new_v + damping * v
            new_c = (1.0 - damping) * new_c + damping * c
        res = batch.distance(new_v, new_c, v, c)
        v, c = new_v, new_c
        stop = (res <= tol) | (it == max_iter)
        if stop.any():
            bounds = batch.edge_starts.tolist()
            for j in np.flatnonzero(stop).tolist():
                messages = MessageSet(kind, v[bounds[j] : bounds[j + 1]].copy(),
                                      c[bounds[j] : bounds[j + 1]].copy())
                results[live[j]] = BPResult(messages, float(res[j]), it, bool(res[j] <= tol))
            moving = np.repeat(~stop, np.diff(batch.edge_starts))
            live, v, c, batch = live[~stop], v[moving], c[moving], batch.keep(~stop)
    return results


def solve_fixed_points(
    graph: FactorGraph,
    fields=None,
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    inits: list[MessageSet] | None = None,
) -> list[BPResult]:
    """solve_fixed_point of graph under every row of fields (see
    channel_fields), as one batch of copies of graph; results in row order.

    Bad field rows, and inits other than one start per row, are refused
    before any sweep.  Each row freezes at the first iteration where its
    own residual is <= tol, so every result equals the solo
    solve_fixed_point of the graph under that row, bit for bit.
    """
    if fields is None:
        return _solve(_Batch([graph]), inits, damping, tol, max_iter)
    rows = channel_fields(graph, fields)
    return _solve(_Batch([graph] * len(rows), rows.ravel()), inits, damping, tol, max_iter)


def solve_graphs(
    graphs: list[FactorGraph],
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    inits: list[MessageSet] | None = None,
) -> list[BPResult]:
    """solve_fixed_point of every graph, all of one weight kind, as one
    batch; results in graph order.  Each result equals the graph's solo
    solve, bit for bit; a failing sweep raises for the whole batch."""
    return _solve(_Batch(list(graphs)), inits, damping, tol, max_iter)


def solve_fixed_point(
    graph: FactorGraph,
    init: MessageSet | None = None,
    damping: float = 0.0,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> BPResult:
    """Iterate damped synchronous sweeps until the sup-norm residual <= tol.

    damping d in [0, 1) mixes the old iterate back in (t <- (1-d)*sweep + d*t,
    in the tanh domain).  Non-convergence is reported, not raised.  Raises
    ValueError for damping outside [0, 1), tol < 0 or NaN, or max_iter < 1,
    and SingularDenominatorError when a sweep divides by zero or yields a
    non-finite message.
    """
    inits = None if init is None else [init]
    return solve_fixed_points(
        graph, damping=damping, tol=tol, max_iter=max_iter, inits=inits
    )[0]


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
