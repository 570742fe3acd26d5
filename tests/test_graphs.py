"""Graph construction, sampling, channels, expansion checks, serialization."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

import loopgas as lg
from loopgas.graphs import _pair_stubs_simple
from loopgas.errors import (
    DivisibilityError,
    DuplicateEdgeError,
    InadmissibleKappaError,
    InconsistentWeightsError,
    IndexOutOfRangeError,
    InfeasibleDegreeSequenceError,
    MalformedGraphError,
    RejectionBudgetError,
    WrongWeightKindError,
)

import support as sp


# ---------------------------------------------------------------------------
# construction


def test_single_check_structure():
    g = lg.build_factor_graph(
        2, 1, [(0, 0), (1, 0)], lg.LdpcWeights(variable_fields=(0.0, 0.0))
    )
    assert g.n == 2 and g.m == 1 and g.edge_count == 2
    assert g.check_neighbors(0) == (0, 1)
    assert g.var_neighbors(0) == (0,)
    assert g.var_degree(0) == 1 and g.check_degree(0) == 2
    assert g.l_max == 1 and g.r_max == 2
    assert g.is_regular()


def test_four_cycle_structure():
    g = lg.build_factor_graph(
        2,
        2,
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        lg.LdgmWeights(check_fields=(0.1, 0.2)),
    )
    assert g.edge_count == 4
    # edges come back sorted by (check, variable)
    assert g.edges == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert g.var_neighbors(0) == (0, 1)
    assert g.var_neighbors(1) == (0, 1)


def test_build_rejects_duplicate_edges():
    with pytest.raises(DuplicateEdgeError):
        lg.build_factor_graph(2, 1, [(0, 0), (0, 0)], lg.LdpcWeights((0.0, 0.0)))


def test_build_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRangeError):
        lg.build_factor_graph(2, 1, [(0, 0), (2, 0)], lg.LdpcWeights((0.0, 0.0)))
    with pytest.raises(IndexOutOfRangeError):
        lg.build_factor_graph(2, 1, [(0, 0), (1, 1)], lg.LdpcWeights((0.0, 0.0)))


@pytest.mark.parametrize(
    "edges,error,message",
    [
        ([(0, 0), (1, 3), (-1, 0), (5, 0)], IndexOutOfRangeError, "check index 3 outside [0, 2)"),
        ([(0, 1), (4, 0), (1, -2)], IndexOutOfRangeError, "variable index 4 outside [0, 4)"),
        ([(3, 1), (2, 0), (3, 1), (2, 0)], DuplicateEdgeError, "edge (3, 1) appears"),
    ],
)
def test_edge_errors_name_the_first_offender_in_input_order(edges, error, message):
    weights = lg.LdpcWeights((0.0,) * 4)
    with pytest.raises(error, match=re.escape(message)):
        lg.build_factor_graph(4, 2, edges, weights)
    data = lg.graph_to_json_dict(lg.build_factor_graph(4, 2, [], weights))
    data["edges"] = [list(e) for e in edges]
    with pytest.raises(error, match=re.escape(message)):
        lg.graph_from_json_dict(data)


def test_build_rejects_wrong_field_counts():
    with pytest.raises(InconsistentWeightsError):
        lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdpcWeights((0.0,)))
    with pytest.raises(InconsistentWeightsError):
        lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdgmWeights((0.0, 0.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_rejects_non_finite_weights(bad):
    edges = [(0, 0), (1, 0)]
    for weights in (
        lg.LdpcWeights((0.1, bad)),
        lg.LdgmWeights((bad,)),
        lg.GeneralWeights(beta=bad, couplings=((((0, 1), 1.0),),)),
        lg.GeneralWeights(beta=0.5, couplings=((((0, 1), bad),),)),
    ):
        with pytest.raises(InconsistentWeightsError, match="finite number"):
            lg.build_factor_graph(2, 1, edges, weights)
    topology = lg.sample_regular_bipartite(3, 4, 8, seed=1)
    with pytest.raises(InconsistentWeightsError, match="finite number"):
        lg.attach_random_general_weights(topology, bad, seed=1)


def test_channel_params_refuse_a_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
        lg.ChannelParams(p=0.1, epsilon=math.nan)


# ---------------------------------------------------------------------------
# regular sampler


def test_regular_sampler_shape_and_determinism():
    g = lg.sample_regular_bipartite(3, 6, 12, seed=7)
    assert g.n == 12 and g.m == 6 and g.edge_count == 36
    assert g.is_regular() and g.l_max == 3 and g.r_max == 6
    again = lg.sample_regular_bipartite(3, 6, 12, seed=7)
    assert g.edges == again.edges


@pytest.mark.parametrize("length", [0, 1, 2, 24, 9000])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_sampler_shuffle_draws_the_random_shuffle_stream(length, seed):
    # with distinct check stubs every pairing is simple, so one shuffle runs
    rng, ref = random.Random(seed), random.Random(seed)
    want = list(range(length))
    ref.shuffle(want)
    pairs = _pair_stubs_simple(list(range(length)), list(range(length)), rng, 1)
    assert [i for i, _a in pairs] == want
    assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "seed,digest",
    [
        (0, "ff75e842c7eaa63b2f6b8fc9f88d56dd7cf35e0a88f913c794a8d715f08e74dc"),
        (7, "d77327f77118b8294158cb91e4d40dba84dbd8e47890545ff6e61032e96961cb"),
    ],
)
def test_regular_sampler_edges_are_pinned(seed, digest):
    # SHA-256 of the edges as sampled through random.Random.shuffle
    g = lg.sample_regular_bipartite(3, 4, 3000, seed)
    assert hashlib.sha256(json.dumps(g.edges).encode()).hexdigest() == digest


def test_regular_sampler_divisibility():
    with pytest.raises(DivisibilityError):
        lg.sample_regular_bipartite(3, 6, 11, seed=0)


def test_regular_sampler_rejection_budget():
    # l=2, r=4, n=2 forces a double edge in every pairing
    with pytest.raises(RejectionBudgetError):
        lg.sample_regular_bipartite(2, 4, 2, seed=0, max_restarts=50)


@pytest.mark.parametrize("l,r,n", [(3, 6, 12), (3, 4, 8), (2, 4, 6)])
def test_regular_sampler_degree_exactness(l, r, n):
    for seed in range(100):
        g = lg.sample_regular_bipartite(l, r, n, seed=seed)
        assert all(g.var_degree(i) == l for i in range(g.n))
        assert all(g.check_degree(a) == r for a in range(g.m))
        assert len(set(g.edges)) == g.edge_count


# ---------------------------------------------------------------------------
# ldgm sampler


def test_ldgm_sampler_regular_case():
    g = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 12, seed=3)
    assert g.n == 12 and g.m == 6
    assert g.is_regular() and g.l_max == 3 and g.r_max == 6
    assert g.weights.kind == "ldgm"


def test_ldgm_sampler_unit_repair_rounding():
    # 27 edge stubs over mean check degree 6 rounds to 5 checks, one of
    # which sheds a stub: degrees (5, 5, 5, 6, 6) after repair
    g = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 9, seed=0)
    assert g.n == 9 and g.m == 5
    assert sorted(g.check_degree(a) for a in range(g.m)) == [5, 5, 5, 6, 6]
    assert "rounding" in g.meta


def test_ldgm_sampler_determinism_and_degrees():
    for seed in range(30):
        g = lg.sample_ldgm({2: 0.5, 4: 0.5}, {3: 1.0}, 6, seed=seed)
        degs = sorted(g.var_degree(i) for i in range(g.n))
        assert degs == [2, 2, 2, 4, 4, 4]
    a = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 12, seed=5)
    b = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 12, seed=5)
    assert a.edges == b.edges


def test_ldgm_sampler_infeasible_sequences():
    with pytest.raises(InfeasibleDegreeSequenceError):
        lg.sample_ldgm({3: 0.7}, {6: 1.0}, 10, seed=0)
    with pytest.raises(InfeasibleDegreeSequenceError):
        lg.sample_ldgm({2: 0.5, 3: 0.5}, {6: 1.0}, 5, seed=0)


# ---------------------------------------------------------------------------
# channel


def test_channel_params_algebra():
    cp = lg.ChannelParams(p=0.1)
    assert cp.h == pytest.approx(0.5 * math.log(9.0), abs=1e-15)
    assert cp.theta == pytest.approx(0.8, abs=1e-12)
    assert lg.ChannelParams(p=0.1, epsilon=0.1).theta == pytest.approx(0.88, abs=1e-12)
    assert lg.ChannelParams.from_h(cp.h).p == pytest.approx(0.1, abs=1e-12)


def test_apply_channel_ldpc_fields():
    g = lg.sample_regular_bipartite(3, 6, 12, seed=1)
    h = lg.ChannelParams(p=0.2).h
    out = lg.apply_channel(g, 0.2, seed=4)
    fields = out.weights.variable_fields
    assert len(fields) == g.n
    assert all(abs(abs(f) - h) < 1e-15 for f in fields)
    assert out.meta["channel"] == {"p": 0.2, "seed": 4}
    again = lg.apply_channel(g, 0.2, seed=4)
    assert fields == again.weights.variable_fields
    other = lg.apply_channel(g, 0.2, seed=5)
    assert fields != other.weights.variable_fields


def test_apply_channel_ldgm_fields():
    g = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 12, seed=1)
    out = lg.apply_channel(g, 0.3, seed=0)
    h = lg.ChannelParams(p=0.3).h
    assert len(out.weights.check_fields) == g.m
    assert all(abs(abs(f) - h) < 1e-15 for f in out.weights.check_fields)


def test_apply_channel_rejects_bad_inputs():
    g = lg.sample_regular_bipartite(3, 6, 6, seed=0)
    with pytest.raises(ValueError):
        lg.apply_channel(g, 0.0, seed=0)
    with pytest.raises(ValueError):
        lg.apply_channel(g, 0.6, seed=0)
    gen = sp.general_instance(3, 6, 6, beta=0.2, seed=0)
    with pytest.raises(WrongWeightKindError):
        lg.apply_channel(gen, 0.3, seed=0)


def test_general_weights_unit_mass():
    g = sp.general_instance(3, 4, 8, beta=0.25, seed=2)
    w = g.weights
    assert w.beta == 0.25
    for terms in w.couplings:
        assert abs(sum(abs(j) for _, j in terms) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# expansion checks


def test_expander_exponent_values():
    assert lg.expander_exponent_c(3, 6, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(InadmissibleKappaError):
        lg.expander_exponent_c(3, 6, 0.7)  # above 1 - 1/l
    with pytest.raises(InadmissibleKappaError):
        lg.expander_exponent_c(3, 6, 4.0 / 9.0)  # exponent hits zero


def test_expander_exponent_monotone_in_kappa():
    kappas = [0.5, 0.55, 0.6, 0.64]
    vals = [lg.expander_exponent_c(3, 6, k) for k in kappas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def _oracle_expander(g, lam, kappa):
    """Independent exhaustive expansion check."""
    k_max = -1
    for k in range(g.n + 1):
        if k < lam * g.n - 1e-9:
            k_max = k
    if k_max < 1:
        return True, None
    for k in range(1, k_max + 1):
        for subset in itertools.combinations(range(g.n), k):
            boundary = set()
            for i in subset:
                boundary.update(g.var_neighbors(i))
            if len(boundary) < kappa * g.l_max * k:
                return False, subset
    return True, None


def test_expander_exhaustive_matches_oracle():
    for seed in (0, 3, 59):
        g = lg.sample_regular_bipartite(3, 6, 24, seed=seed)
        for lam, kappa in [(5 / 24, 0.5), (0.25, 0.6), (4 / 24, 0.4)]:
            res = lg.check_expander_exhaustive(g, lam, kappa)
            cert, witness = _oracle_expander(g, lam, kappa)
            assert res.certified == cert, (seed, lam, kappa)
            if not cert:
                assert res.witness is not None
                boundary = set()
                for i in res.witness:
                    boundary.update(g.var_neighbors(i))
                assert len(boundary) < kappa * g.l_max * len(res.witness)


def test_expander_vacuous_when_cutoff_below_one():
    g = lg.sample_regular_bipartite(3, 6, 12, seed=0)
    res = lg.check_expander_exhaustive(g, 0.05, 0.99)
    assert res.certified and res.subsets_checked == 0


def test_expander_certified_fixture():
    g = lg.sample_regular_bipartite(3, 6, 24, seed=59)
    res = lg.check_expander_exhaustive(g, 5 / 24, 0.5)
    assert res.certified
    assert res.subsets_checked == 12950
    params = lg.ExpanderParams.for_regular(3, 6, 5 / 24, 0.5)
    assert params.c == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert params.lambda0 == pytest.approx(7.774647868558783e-4, rel=1e-9)


def test_expander_certification_monotone_in_lam():
    # certifying at lam also certifies at any smaller lam: fewer subsets
    g = lg.sample_regular_bipartite(3, 6, 24, seed=59)
    assert lg.check_expander_exhaustive(g, 5 / 24, 0.5).certified
    assert lg.check_expander_exhaustive(g, 4 / 24, 0.5).certified
    assert lg.check_expander_exhaustive(g, 2 / 24, 0.5).certified


def _planted_bad_pair_graph():
    # variables 0 and 1 share both of their checks, so the pair has a
    # boundary of 2, far below 0.9 * l * 2
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    return lg.build_factor_graph(4, 2, edges, lg.LdpcWeights((0.0,) * 4))


def test_expander_montecarlo_refutes_planted_pair():
    g = _planted_bad_pair_graph()
    res = lg.check_expander_montecarlo(g, 0.75, 0.9, trials=500, seed=1)
    assert not res.certified
    assert res.witness is not None
    boundary = set()
    for i in res.witness:
        boundary.update(g.var_neighbors(i))
    assert len(boundary) < 0.9 * g.l_max * len(res.witness)


def test_expander_montecarlo_never_certifies():
    g = lg.sample_regular_bipartite(3, 6, 24, seed=59)
    res = lg.check_expander_montecarlo(g, 5 / 24, 0.5, trials=200, seed=0)
    assert not res.certified and res.witness is None
    assert res.subsets_checked == 200
    with pytest.raises(ValueError):
        lg.check_expander_montecarlo(g, 5 / 24, 0.5, trials=0, seed=0)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_json_roundtrip(kind, tmp_path):
    if kind == "ldpc":
        g = sp.ldpc_instance(3, 6, 6, p=0.2, seed=0)
    elif kind == "ldgm":
        g = sp.ldgm_instance(3, 6, 6, p=0.3, seed=1)
    else:
        g = sp.general_instance(3, 4, 4, beta=0.2, seed=2)
    d = lg.graph_to_json_dict(g)
    back = lg.graph_from_json_dict(d)
    assert back.n == g.n and back.m == g.m and back.edges == g.edges
    assert back.weights == g.weights
    path = tmp_path / "g.json"
    lg.save_graph(g, str(path))
    loaded = lg.load_graph(str(path))
    assert loaded.edges == g.edges and loaded.weights == g.weights


def test_in_memory_numpy_integers_are_accepted_and_bools_are_refused():
    # a dict built in memory may hold numpy integers, which a JSON file never
    # does: n, m and the edges are read as ints, a coupling subset is kept as
    # given (as build_factor_graph keeps it), and a bool is refused like 1.0
    g = sp.general_instance(3, 4, 4, beta=0.2, seed=2)
    d = lg.graph_to_json_dict(g)
    d["n"] = np.int64(d["n"])
    d["edges"] = [[np.int64(i), np.int32(a)] for i, a in d["edges"]]
    d["weights"]["couplings"] = [
        [(tuple(np.array(subset, dtype=np.int64)), j) for subset, j in terms]
        for terms in d["weights"]["couplings"]
    ]
    back = lg.graph_from_json_dict(d)
    assert back.n == g.n and back.edges == g.edges and back.weights == g.weights
    assert {type(x) for x in [back.n, *itertools.chain.from_iterable(back.edges)]} == {int}
    assert lg.log_partition(back) == lg.log_partition(g)
    d["edges"][1][0] = True
    with pytest.raises(MalformedGraphError, match="True is not an integer"):
        lg.graph_from_json_dict(d)
    d = lg.graph_to_json_dict(g)
    d["weights"]["couplings"][0][0][0][0] = False
    with pytest.raises(MalformedGraphError, match="False is not an integer"):
        lg.graph_from_json_dict(d)


def test_build_factor_graph_refuses_non_integer_indices():
    # the library entry point reads indices by the JSON reader's rule: a float
    # endpoint is no longer truncated to an edge, and a float subset member no
    # longer passes the neighbourhood test (1.0 == 1) to fail later in exact
    weights = lg.LdpcWeights((0.1, 0.2))
    with pytest.raises(MalformedGraphError, match="1.7 is not an integer"):
        lg.build_factor_graph(2, 1, [(0, 0), (1.7, 0)], weights)
    with pytest.raises(MalformedGraphError, match="True is not an integer"):
        lg.build_factor_graph(2, 1, [(0, 0), (True, 0)], weights)
    general = lg.GeneralWeights(beta=0.5, couplings=((((0, 1.0), 0.4),),))
    with pytest.raises(MalformedGraphError, match="1.0 is not an integer"):
        lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], general)
    # numpy integers are read as ints, as from an in-memory JSON dict
    g = lg.build_factor_graph(2, 1, [(np.int64(1), np.int32(0)), (0, 0)], weights)
    assert g.edges == ((0, 0), (1, 0))
    assert {type(x) for x in itertools.chain.from_iterable(g.edges)} == {int}
