"""Factor-graph data model, ensemble samplers and expander machinery.

A factor graph is a bipartite graph between n variable nodes and m check
nodes, together with one of three weight families on the checks:

* general : strictly positive weights exp(beta * sum_I J_I * prod_{i in I} s_i)
  on spins s_i in {-1, +1}, with one coupling list per check;
* ldgm    : a single signed field h_a per check weighting the spin product
  exp(h_a * prod_{i in da} s_i);
* ldpc    : hard parity constraints prod_{i in da} s_i = +1 on every check,
  plus a signed field h_i per variable weighting exp(h_i * s_i).

Edges are stored once, sorted by (check, variable); all message and subgraph
machinery in the sibling modules indexes edges by their position in that
canonical order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import operator
import random
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DivisibilityError,
    DuplicateEdgeError,
    InadmissibleKappaError,
    InconsistentWeightsError,
    IndexOutOfRangeError,
    InfeasibleDegreeSequenceError,
    MalformedGraphError,
    NoSignChangeError,
    RejectionBudgetError,
    WrongWeightKindError,
)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class GeneralWeights:
    """Strictly positive check weights exp(beta * sum_I J_I prod_{i in I} s_i).

    couplings[a] lists (subset, J) pairs for check a, where subset is a
    sorted tuple of variable indices contained in the neighborhood of a.
    """

    kind: ClassVar[str] = "general"
    beta: float
    couplings: tuple[tuple[tuple[tuple[int, ...], float], ...], ...]

    def coupling_l1(self) -> float:
        """max over checks of sum_I |J_I|."""
        if not self.couplings:
            return 0.0
        return max(sum(abs(j) for _, j in terms) for terms in self.couplings)

    def mu(self) -> float:
        """High-temperature parameter 2 * beta * max_a sum_I |J_I|."""
        return 2.0 * self.beta * self.coupling_l1()


@dataclass(frozen=True)
class LdgmWeights:
    """One signed field per check: psi_a = exp(h_a * prod_{i in da} s_i)."""

    kind: ClassVar[str] = "ldgm"
    check_fields: tuple[float, ...]


@dataclass(frozen=True)
class LdpcWeights:
    """Parity constraints on every check plus one signed field per variable."""

    kind: ClassVar[str] = "ldpc"
    variable_fields: tuple[float, ...]


WeightSpec = GeneralWeights | LdgmWeights | LdpcWeights


# ---------------------------------------------------------------------------
# channel and expander parameter records


@dataclass(frozen=True)
class ChannelParams:
    """Binary symmetric channel with flip probability p in (0, 1/2].

    h is the half log-likelihood ratio, theta = (1 + epsilon) * tanh(h) is
    the high-noise message threshold.
    """

    p: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 0.5:
            raise ValueError(f"p must lie in (0, 1/2], got {self.p}")
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def h(self) -> float:
        return 0.5 * math.log((1.0 - self.p) / self.p)

    @property
    def theta(self) -> float:
        return (1.0 + self.epsilon) * math.tanh(self.h)

    @classmethod
    def from_h(cls, h: float, epsilon: float = 0.0) -> "ChannelParams":
        if h < 0.0:
            raise ValueError(f"h must be >= 0, got {h}")
        return cls(p=1.0 / (1.0 + math.exp(2.0 * h)), epsilon=epsilon)


def binary_entropy(x: float) -> float:
    """Natural-log binary entropy, extended by continuity to the endpoints."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def solve_lambda0(l: int, r: int, kappa: float, tol: float = 1e-10) -> float:
    """Solve for the largest subset fraction with guaranteed expansion.

    Returns the root lambda0 of

        (l-1)/l * H(x) - (1/r) * H(x*kappa*r) - x*kappa*r * H(1/(kappa*r)) = 0

    on (0, 1/(kappa*r)), where H is the natural-log binary entropy.  Bisection
    to absolute tolerance tol.

    Raises NoSignChangeError when the bracket has no sign change.
    """
    if l < 2 or r < 2:
        raise ValueError(f"degrees must be >= 2, got l={l}, r={r}")
    if not 0.0 < kappa < 1.0 - 1.0 / l:
        raise ValueError(f"kappa must lie in (0, 1 - 1/l), got {kappa}")
    if kappa * r <= 1.0:
        raise NoSignChangeError(
            f"kappa*r = {kappa * r} <= 1 leaves no admissible interval"
        )
    edge_term = binary_entropy(1.0 / (kappa * r))

    def objective(x: float) -> float:
        return (
            (l - 1.0) / l * binary_entropy(x)
            - binary_entropy(x * kappa * r) / r
            - x * kappa * r * edge_term
        )

    lo = 1e-15
    hi = min(1.0, 1.0 / (kappa * r)) - 1e-15
    flo, fhi = objective(lo), objective(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChangeError(
            f"no sign change on ({lo}, {hi}) for l={l}, r={r}, kappa={kappa}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = objective(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def expander_exponent_c(l: int, r: int, kappa: float) -> float:
    """Subgraph-decay exponent c = r - (2+r) / (3 - l*(1-kappa)).

    Admissible kappa satisfy 3 - l*(1-kappa) > 0, c > 0 and kappa < 1 - 1/l;
    anything else raises InadmissibleKappaError.
    """
    if l < 2 or r < 2:
        raise ValueError(f"degrees must be >= 2, got l={l}, r={r}")
    if kappa >= 1.0 - 1.0 / l:
        raise InadmissibleKappaError(
            f"kappa = {kappa} >= 1 - 1/l = {1.0 - 1.0 / l}"
        )
    denom = 3.0 - l * (1.0 - kappa)
    if denom <= 0.0:
        raise InadmissibleKappaError(
            f"3 - l*(1-kappa) = {denom} <= 0 for l={l}, kappa={kappa}"
        )
    c = r - (2.0 + r) / denom
    if c <= 0.0:
        raise InadmissibleKappaError(
            f"exponent c = {c} <= 0; kappa = {kappa} is below the admissible window"
        )
    return c


@dataclass(frozen=True)
class ExpanderParams:
    """A (lam, kappa) expansion requirement plus its derived constants."""

    lam: float
    kappa: float
    lambda0: float
    c: float

    @classmethod
    def for_regular(
        cls, l: int, r: int, lam: float, kappa: float
    ) -> "ExpanderParams":
        return cls(
            lam=lam,
            kappa=kappa,
            lambda0=solve_lambda0(l, r, kappa),
            c=expander_exponent_c(l, r, kappa),
        )


# ---------------------------------------------------------------------------
# the graph itself


@dataclass(frozen=True)
class FactorGraph:
    """Immutable bipartite factor graph with one of the three weight families.

    edges are sorted by (check, variable); var_edges[i] / check_edges[a]
    list the positions of the edges incident to variable i / check a, in
    increasing edge order.
    """

    n: int
    m: int
    edges: tuple[tuple[int, int], ...]
    weights: WeightSpec
    var_edges: tuple[tuple[int, ...], ...]
    check_edges: tuple[tuple[int, ...], ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)
    # values derived from the fields above, computed once per graph by the
    # module that needs them (bp keeps its degree buckets and the general
    # check tables here); a graph built by dataclasses.replace starts with
    # an empty cache
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def var_degree(self, i: int) -> int:
        return len(self.var_edges[i])

    def check_degree(self, a: int) -> int:
        return len(self.check_edges[a])

    @property
    def l_max(self) -> int:
        return max((len(e) for e in self.var_edges), default=0)

    @property
    def r_max(self) -> int:
        return max((len(e) for e in self.check_edges), default=0)

    def var_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(self.edges[e][1] for e in self.var_edges[i])

    def check_neighbors(self, a: int) -> tuple[int, ...]:
        return tuple(self.edges[e][0] for e in self.check_edges[a])

    def is_regular(self) -> bool:
        degs_v = {len(e) for e in self.var_edges}
        degs_c = {len(e) for e in self.check_edges}
        return len(degs_v) == 1 and len(degs_c) == 1


def build_factor_graph(
    n: int,
    m: int,
    edges: Iterable[tuple[int, int]],
    weights: WeightSpec,
    meta: dict | None = None,
) -> FactorGraph:
    """Validate and assemble a FactorGraph.

    Args:
        n: number of variable nodes.
        m: number of check nodes.
        edges: iterable of (variable, check) pairs; order is irrelevant,
            storage is canonical (sorted by (check, variable)).
        weights: one of GeneralWeights, LdgmWeights, LdpcWeights.
        meta: free-form provenance dictionary carried along unvalidated.

    Raises:
        MalformedGraphError: an endpoint or a coupling-subset member is not
            an integer (a bool or 1.0 included).
        IndexOutOfRangeError: an endpoint is outside its index range.
        DuplicateEdgeError: the same pair appears twice.
        InconsistentWeightsError: weight payload does not fit the graph.
    """
    return _assemble(n, m, [(i, a) for i, a in edges], weights, meta)


def _assemble(
    n: int,
    m: int,
    edge_list: list[tuple[int, int]],
    weights: WeightSpec,
    meta: dict | None,
) -> FactorGraph:
    """build_factor_graph on edges given as (variable, check) tuples; sorts
    edge_list in place, or its int copy where it holds numpy integers.  The
    endpoints and coupling-subset members must pass _json_ints.  Each error
    names the first offending edge in the given order."""
    try:
        edge_list = _json_ints(edge_list)
        if isinstance(weights, GeneralWeights):
            _json_ints([subset for terms in weights.couplings for subset, _j in terms])
    except TypeError as exc:
        raise MalformedGraphError(f"graph has an index of the wrong type: {exc}") from exc
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if edge_list:
        var_of, check_of = zip(*edge_list)
        if min(var_of) < 0 or max(var_of) >= n or min(check_of) < 0 or max(check_of) >= m:
            for i, a in edge_list:
                if not (0 <= i < n):
                    raise IndexOutOfRangeError(f"variable index {i} outside [0, {n})")
                if not (0 <= a < m):
                    raise IndexOutOfRangeError(f"check index {a} outside [0, {m})")
    if len(set(edge_list)) != len(edge_list):
        seen: set[tuple[int, int]] = set()
        for pair in edge_list:
            if pair in seen:
                raise DuplicateEdgeError(f"edge {pair} appears more than once")
            seen.add(pair)
    edge_list.sort(key=operator.itemgetter(1, 0))
    edges_t = tuple(edge_list)

    var_edges: list[list[int]] = [[] for _ in range(n)]
    check_edges: list[list[int]] = [[] for _ in range(m)]
    for e, (i, a) in enumerate(edges_t):
        var_edges[i].append(e)
        check_edges[a].append(e)

    _validate_weights(n, m, edges_t, check_edges, weights)
    return FactorGraph(
        n=n,
        m=m,
        edges=edges_t,
        weights=weights,
        var_edges=tuple(tuple(e) for e in var_edges),
        check_edges=tuple(tuple(e) for e in check_edges),
        meta=dict(meta or {}),
    )


def _validate_weights(
    n: int,
    m: int,
    edges: tuple[tuple[int, int], ...],
    check_edges: Sequence[Sequence[int]],
    weights: WeightSpec,
) -> None:
    if isinstance(weights, LdpcWeights):
        if len(weights.variable_fields) != n:
            raise InconsistentWeightsError(
                f"ldpc needs {n} variable fields, got {len(weights.variable_fields)}"
            )
        _check_finite_fields("variable", weights.variable_fields)
    elif isinstance(weights, LdgmWeights):
        if len(weights.check_fields) != m:
            raise InconsistentWeightsError(
                f"ldgm needs {m} check fields, got {len(weights.check_fields)}"
            )
        _check_finite_fields("check", weights.check_fields)
    elif isinstance(weights, GeneralWeights):
        _check_beta(weights.beta)
        if len(weights.couplings) != m:
            raise InconsistentWeightsError(
                f"general needs {m} coupling lists, got {len(weights.couplings)}"
            )
        for a in range(m):
            hood = {edges[e][0] for e in check_edges[a]}
            for subset, j in weights.couplings[a]:
                if not math.isfinite(j):
                    raise InconsistentWeightsError(
                        f"check {a} has coupling J = {j} on {subset}, not a finite number"
                    )
                if not subset:
                    raise InconsistentWeightsError(
                        f"check {a} has an empty coupling subset"
                    )
                if len(set(subset)) != len(subset) or not set(subset) <= hood:
                    raise InconsistentWeightsError(
                        f"coupling subset {subset} of check {a} is not a subset "
                        f"of its neighborhood {sorted(hood)}"
                    )
    else:
        raise InconsistentWeightsError(f"unknown weight payload {type(weights)!r}")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise InconsistentWeightsError(f"beta must be a finite number > 0, got {beta}")


def _check_finite_fields(node: str, fields: Sequence[float]) -> None:
    for k, h in enumerate(fields):
        if not math.isfinite(h):
            raise InconsistentWeightsError(f"{node} {k} has field {h}, not a finite number")


# ---------------------------------------------------------------------------
# samplers


def regular_check_count(l: int, r: int, n: int) -> int:
    """m = n*l/r, raising DivisibilityError when this is not an integer."""
    if l < 1 or r < 1 or n < 1:
        raise ValueError(f"need l, r, n >= 1, got l={l}, r={r}, n={n}")
    if (n * l) % r != 0:
        raise DivisibilityError(f"n*l = {n * l} is not divisible by r = {r}")
    return (n * l) // r


def _pair_stubs_simple(
    var_stubs: list[int],
    check_stubs: list[int],
    rng: random.Random,
    max_restarts: int,
) -> list[tuple[int, int]]:
    # Configuration model conditioned on simplicity: shuffle one stub list,
    # pair positionally, restart from scratch on any repeated pair.  The
    # shuffle is random.Random.shuffle written out, drawing the same
    # getrandbits stream (CPython 3.10-3.13): for i from the top down, swap
    # slot i with slot j, j uniform on [0, i] by rejection on
    # (i + 1).bit_length() bits.
    getrandbits = rng.getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(len(var_stubs) - 1, 0, -1)]
    for _ in range(max_restarts):
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            var_stubs[i], var_stubs[j] = var_stubs[j], var_stubs[i]
        pairs = list(zip(var_stubs, check_stubs))
        if len(set(pairs)) == len(pairs):
            return pairs
    raise RejectionBudgetError(
        f"no simple pairing found in {max_restarts} restarts; "
        "the requested degrees are likely too dense for this size"
    )


def sample_regular_bipartite(
    l: int,
    r: int,
    n: int,
    seed: int,
    max_restarts: int = 10_000,
) -> FactorGraph:
    """Sample a simple (l, r)-regular bipartite graph on n variables.

    Configuration-model pairing with full restart on double edges, so the
    output is uniform over simple graphs up to the usual configuration
    multiplicities.  Deterministic for a fixed seed.  The result carries
    LdpcWeights with all-zero fields; rebuild or apply_channel to re-weight.

    Raises:
        DivisibilityError: n*l is not divisible by r.
        RejectionBudgetError: no simple pairing found within max_restarts.
    """
    m = regular_check_count(l, r, n)
    rng = random.Random(seed)
    var_stubs = [i for i in range(n) for _ in range(l)]
    check_stubs = [a for a in range(m) for _ in range(r)]
    pairs = _pair_stubs_simple(var_stubs, check_stubs, rng, max_restarts)
    meta = {"ensemble": "regular-bipartite", "l": l, "r": r, "n": n, "seed": seed}
    return build_factor_graph(
        n, m, pairs, LdpcWeights(variable_fields=(0.0,) * n), meta=meta
    )


def _largest_remainder_counts(
    fractions: Mapping[int, float], total: int
) -> dict[int, int]:
    # Deterministic largest-remainder rounding of fractions*total to integers
    # summing to total; ties broken toward smaller degree.
    keys = sorted(fractions)
    raw = {k: fractions[k] * total for k in keys}
    counts = {k: int(math.floor(raw[k] + 1e-12)) for k in keys}
    short = total - sum(counts.values())
    order = sorted(keys, key=lambda k: (-(raw[k] - counts[k]), k))
    for k in order[:short]:
        counts[k] += 1
    return {k: c for k, c in counts.items() if c > 0}


def sample_ldgm(
    lambda_dist: Mapping[int, float],
    p_dist: Mapping[int, float],
    n: int,
    seed: int,
    max_restarts: int = 10_000,
) -> FactorGraph:
    """Sample a simple bipartite graph with given degree distributions,
    carrying LdgmWeights with all-zero fields.

    lambda_dist maps variable degree -> fraction of variables, p_dist maps
    check degree -> fraction of checks; both must sum to 1.  Variable counts
    lambda_dist[s]*n must be integers (the distribution is a statement about
    exact fractions of the n variables); the check count m is derived from
    the edge total and p_dist by largest-remainder rounding, and individual
    check degrees are then repaired by +-1 steps (smallest degree bumped up,
    largest bumped down) until the stub totals match.  The realized degree
    sequences and the repair magnitude are recorded in meta["rounding"].

    Raises:
        InfeasibleDegreeSequenceError: fractions do not sum to 1, a variable
            count lambda_dist[s]*n is fractional, or no check sequence can
            absorb the edge total.
        RejectionBudgetError: no simple pairing found within max_restarts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for name, dist in (("lambda", lambda_dist), ("p", p_dist)):
        if not dist or any(d < 1 for d in dist):
            raise InfeasibleDegreeSequenceError(f"{name} degrees must be >= 1")
        if any(f < 0 for f in dist.values()):
            raise InfeasibleDegreeSequenceError(f"{name} fractions must be >= 0")
        if abs(sum(dist.values()) - 1.0) > 1e-9:
            raise InfeasibleDegreeSequenceError(
                f"{name} fractions must sum to 1, got {sum(dist.values())}"
            )

    var_counts: dict[int, int] = {}
    for s in sorted(lambda_dist):
        raw = lambda_dist[s] * n
        count = round(raw)
        if abs(raw - count) > 1e-9:
            raise InfeasibleDegreeSequenceError(
                f"lambda[{s}]*n = {raw} is not an integer count of variables"
            )
        if count:
            var_counts[s] = count
    edge_total = sum(s * c for s, c in var_counts.items())
    if edge_total == 0:
        raise InfeasibleDegreeSequenceError("degree distributions give no edges")

    mean_check_degree = sum(t * f for t, f in p_dist.items())
    m = max(1, math.floor(edge_total / mean_check_degree + 0.5))
    check_counts = _largest_remainder_counts(p_dist, m)
    check_degrees = sorted(
        d for d, c in check_counts.items() for _ in range(c)
    )
    repair = edge_total - sum(check_degrees)
    steps = repair
    while steps > 0:
        k = min(range(m), key=lambda j: check_degrees[j])
        check_degrees[k] += 1
        steps -= 1
    while steps < 0:
        k = max(range(m), key=lambda j: check_degrees[j])
        if check_degrees[k] <= 1:
            raise InfeasibleDegreeSequenceError(
                f"cannot shed {-steps} more edges from checks {check_degrees}"
            )
        check_degrees[k] -= 1
        steps += 1
    check_degrees.sort()

    var_degrees = sorted(d for d, c in var_counts.items() for _ in range(c))
    rng = random.Random(seed)
    var_stubs = [i for i, d in enumerate(var_degrees) for _ in range(d)]
    check_stubs = [a for a, d in enumerate(check_degrees) for _ in range(d)]
    pairs = _pair_stubs_simple(var_stubs, check_stubs, rng, max_restarts)
    meta = {
        "ensemble": "ldgm",
        "n": n,
        "seed": seed,
        "design_rate": n / m,
        "rounding": {
            "rule": "largest_remainder_plus_unit_repair",
            "variable_degrees": var_degrees,
            "check_degrees": check_degrees,
            "repair_edges": repair,
        },
    }
    return build_factor_graph(
        n, m, pairs, LdgmWeights(check_fields=(0.0,) * m), meta=meta
    )


def attach_random_general_weights(
    graph: FactorGraph,
    beta: float,
    seed: int,
    couplings_per_check: int = 2,
) -> FactorGraph:
    """Equip a graph with random general weights of unit coupling mass.

    Each check receives its full-neighborhood subset plus random nonempty
    subsets, with signed couplings normalized so sum_I |J_I| = 1; the
    high-temperature parameter of the result is therefore exactly 2*beta.
    """
    _check_beta(beta)
    rng = random.Random(seed)
    couplings: list[tuple[tuple[tuple[int, ...], float], ...]] = []
    for a in range(graph.m):
        hood = sorted(graph.check_neighbors(a))
        subsets: list[tuple[int, ...]] = [tuple(hood)]
        while len(subsets) < max(1, couplings_per_check):
            size = rng.randint(1, len(hood))
            cand = tuple(sorted(rng.sample(hood, size)))
            if cand not in subsets:
                subsets.append(cand)
        raw = []
        for _ in subsets:
            x = 0.0
            while x == 0.0:
                x = rng.uniform(-1.0, 1.0)
            raw.append(x)
        scale = sum(abs(x) for x in raw)
        couplings.append(
            tuple((s, x / scale) for s, x in zip(subsets, raw))
        )
    weights = GeneralWeights(beta=beta, couplings=tuple(couplings))
    meta = dict(graph.meta)
    meta["weights"] = {"kind": "general", "beta": beta, "seed": seed}
    return build_factor_graph(graph.n, graph.m, graph.edges, weights, meta=meta)


def channel_slots(graph: FactorGraph) -> int:
    """How many fields a channel draws: the n variable fields of an ldpc
    graph or the m check fields of an ldgm graph.  General-weight graphs
    are rejected (their couplings are not channel-generated)."""
    kind = graph.weights.kind
    if kind == "general":
        raise WrongWeightKindError("channel fields need ldpc or ldgm weights")
    return graph.n if kind == "ldpc" else graph.m


def channel_fields(graph: FactorGraph, fields=None) -> np.ndarray | None:
    """The field rows of a batch on graph's topology, float64 of shape
    (rows, channel_slots(graph)): fields, or else the graph's own fields as
    one row (None for general weights).  Refuses field rows on general
    weights (WrongWeightKindError) or of another shape (ValueError)."""
    w = graph.weights
    if fields is None:
        if isinstance(w, GeneralWeights):
            return None
        own = w.variable_fields if isinstance(w, LdpcWeights) else w.check_fields
        return np.array([own], dtype=float)
    slots = channel_slots(graph)
    rows = np.asarray(fields, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != slots:
        raise ValueError(f"need field rows of {slots} {w.kind} fields, got {rows.shape}")
    return rows


def apply_channel(graph: FactorGraph, p: float, seed: int) -> FactorGraph:
    """Draw channel sign flips and install fields of magnitude h(p).

    For ldpc graphs the n variable fields are set to +-h, for ldgm graphs
    the m check fields (see channel_slots); each sign is -h with
    probability p, independently.
    """
    h = ChannelParams(p=p).h
    rng = random.Random(seed)
    fields = tuple(-h if rng.random() < p else h for _ in range(channel_slots(graph)))
    weights_of = LdpcWeights if graph.weights.kind == "ldpc" else LdgmWeights
    meta = dict(graph.meta)
    meta["channel"] = {"p": p, "seed": seed}
    return dataclasses.replace(graph, weights=weights_of(fields), meta=meta)


# ---------------------------------------------------------------------------
# expander checks


@dataclass(frozen=True)
class ExpanderCheckResult:
    """Outcome of an expansion check; witness is a violating variable subset."""

    certified: bool
    witness: tuple[int, ...] | None
    subsets_checked: int


def _max_strict_subset_size(lam: float, n: int) -> int:
    # Largest k with k < lam*n, robust to lam*n landing on an integer.
    ln = lam * n
    nearest = round(ln)
    if abs(ln - nearest) < 1e-9:
        return int(nearest) - 1
    return math.ceil(ln) - 1


def check_expander_exhaustive(
    graph: FactorGraph,
    lam: float,
    kappa: float,
    budget: int = 10_000_000,
) -> ExpanderCheckResult:
    """Exhaustively check the (lam, kappa) expansion property.

    Every variable subset V' with |V'| < lam*n must have at least
    kappa * l * |V'| check neighbors, where l is the maximum variable
    degree.  Returns certified with the number of subsets inspected, or a
    refutation witness.  Vacuously certified when lam*n <= 1.

    Raises BudgetExceededError if more than budget subsets would be needed.
    """
    n = graph.n
    k_max = _max_strict_subset_size(lam, n)
    if k_max < 1:
        return ExpanderCheckResult(certified=True, witness=None, subsets_checked=0)
    k_max = min(k_max, n)
    total = sum(math.comb(n, k) for k in range(1, k_max + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets exceed the exhaustive budget {budget}"
        )
    l = graph.l_max
    neighbor_sets = [frozenset(graph.var_neighbors(i)) for i in range(n)]
    checked = 0
    for k in range(1, k_max + 1):
        need = kappa * l * k
        for subset in itertools.combinations(range(n), k):
            checked += 1
            boundary: set[int] = set()
            for i in subset:
                boundary |= neighbor_sets[i]
            if len(boundary) < need:
                return ExpanderCheckResult(
                    certified=False, witness=subset, subsets_checked=checked
                )
    return ExpanderCheckResult(certified=True, witness=None, subsets_checked=checked)


def check_expander_montecarlo(
    graph: FactorGraph,
    lam: float,
    kappa: float,
    trials: int,
    seed: int,
) -> ExpanderCheckResult:
    """Randomized refutation-only expansion check.

    Samples trials random subsets below the size cutoff; certified=False
    with a witness on any violation, otherwise certified=False with no
    witness (a Monte Carlo pass never certifies).  trials must be >= 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = graph.n
    k_max = min(_max_strict_subset_size(lam, n), n)
    if k_max < 1:
        return ExpanderCheckResult(certified=False, witness=None, subsets_checked=0)
    rng = random.Random(seed)
    l = graph.l_max
    neighbor_sets = [frozenset(graph.var_neighbors(i)) for i in range(n)]
    for t in range(trials):
        k = rng.randint(1, k_max)
        subset = tuple(sorted(rng.sample(range(n), k)))
        boundary: set[int] = set()
        for i in subset:
            boundary |= neighbor_sets[i]
        if len(boundary) < kappa * l * k:
            return ExpanderCheckResult(
                certified=False, witness=subset, subsets_checked=t + 1
            )
    return ExpanderCheckResult(certified=False, witness=None, subsets_checked=trials)


# ---------------------------------------------------------------------------
# canonical JSON serialization


def graph_to_json_dict(graph: FactorGraph) -> dict:
    w = graph.weights
    if isinstance(w, LdpcWeights):
        weights: dict = {"kind": "ldpc", "fields": list(w.variable_fields)}
    elif isinstance(w, LdgmWeights):
        weights = {"kind": "ldgm", "fields": list(w.check_fields)}
    else:
        weights = {
            "kind": "general",
            "beta": w.beta,
            "couplings": [
                [[list(subset), j] for subset, j in terms] for terms in w.couplings
            ],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "n": graph.n,
        "m": graph.m,
        "edges": [[i, a] for i, a in graph.edges],
        "weights": weights,
        "meta": graph.meta,
    }


def _json_ints(rows: list) -> list:
    """rows of graph indices or counts as tuples of ints.  A value that is
    not an integer, or is a bool, raises TypeError (1.0 and 1.5 too); numpy
    integers, from a dict or lists built in memory, are read as ints.  Rows
    of Python ints, all a JSON file or a sampler holds, pass one type test
    in C as given."""
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        return rows
    for value in itertools.chain.from_iterable(rows):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{value!r} is not an integer")
    return [tuple(map(int, row)) for row in rows]


def graph_from_json_dict(data: Mapping) -> FactorGraph:
    """Inverse of graph_to_json_dict.

    Raises MalformedGraphError for a missing key or a value of the wrong
    shape, and build_factor_graph's errors for data that does not fit.  n,
    m, the edges and the coupling subsets are checked by _json_ints (the
    last two in build_factor_graph's _assemble); a subset is kept as given.
    """
    if not isinstance(data, Mapping):
        raise MalformedGraphError(
            f"graph JSON must be an object, not {type(data).__name__}"
        )
    try:
        w = data["weights"]
        kind = w["kind"]
        if kind == "ldpc":
            weights: WeightSpec = LdpcWeights(tuple(map(float, w["fields"])))
        elif kind == "ldgm":
            weights = LdgmWeights(tuple(map(float, w["fields"])))
        elif kind == "general":
            couplings = tuple(
                tuple((tuple(subset), float(j)) for subset, j in terms) for terms in w["couplings"]
            )
            weights = GeneralWeights(beta=float(w["beta"]), couplings=couplings)
        else:
            raise InconsistentWeightsError(f"unknown weight kind {kind!r}")
        [(n, m)] = _json_ints([(data["n"], data["m"])])
        edges = [(i, a) for i, a in data["edges"]]
        meta = dict(data.get("meta", {}))
    except KeyError as exc:
        raise MalformedGraphError(f"graph JSON lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedGraphError(
            f"graph JSON has a value of the wrong shape: {exc}"
        ) from exc
    return _assemble(n, m, edges, weights, meta)


def save_graph(graph: FactorGraph, path: str) -> None:
    from .cli import write_json  # the one JSON writer; cli imports this module

    with open(path, "w", encoding="utf-8") as fh:
        write_json(graph_to_json_dict(graph), fh)


def load_graph(path: str) -> FactorGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))
