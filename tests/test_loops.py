"""Generalized loops: enumeration, activities, sums, identity, bounds."""

from __future__ import annotations

import gc
import math
import random
import weakref

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import (
    BudgetExceededError,
    HypothesisNotMetError,
    SingularDenominatorError,
    TooLargeError,
)

import support as sp
from loopgas.loops import loop_activities


def _four_cycle_ldgm(h0=0.4, h1=-0.7):
    return lg.build_factor_graph(
        2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], lg.LdgmWeights((h0, h1))
    )


def _four_cycle_ldpc(h=(0.0, 0.0)):
    return lg.build_factor_graph(
        2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], lg.LdpcWeights(h)
    )


def _complete_2_by_3():
    edges = [(i, a) for i in range(2) for a in range(3)]
    return lg.build_factor_graph(2, 3, edges, lg.LdgmWeights((0.2, -0.1, 0.3)))


def _disjoint_cycle_pair():
    edges = [
        (0, 0), (1, 0), (0, 1), (1, 1),
        (2, 2), (3, 2), (2, 3), (3, 3),
    ]
    return lg.build_factor_graph(4, 4, edges, lg.LdgmWeights((0.1, 0.2, -0.3, 0.4)))


# ---------------------------------------------------------------------------
# enumeration


def test_four_cycle_has_one_loop():
    loops = lg.enumerate_generalized_loops(_four_cycle_ldgm())
    assert len(loops) == 1
    assert loops[0].edge_ids == (0, 1, 2, 3)
    assert loops[0].size == 4


def test_complete_2_by_3_loops():
    # checks have degree 2, so a loop picks >= 2 whole checks: C(3,2)+C(3,3)
    loops = lg.enumerate_generalized_loops(_complete_2_by_3())
    assert len(loops) == 4
    polys = lg.enumerate_polymers(_complete_2_by_3())
    assert len(polys) == 4  # the shared variables connect everything


def test_disjoint_pair_loops_and_polymers():
    g = _disjoint_cycle_pair()
    loops = lg.enumerate_generalized_loops(g)
    assert len(loops) == 3  # each cycle alone plus their union
    polys = lg.enumerate_polymers(g)
    assert len(polys) == 2
    assert {p.size for p in polys} == {4}
    union = max(loops, key=lambda l: len(l.edge_ids))
    assert len(union.edge_ids) == 8 and union.size == 8


@pytest.mark.parametrize(
    "builder,args",
    [
        (sp.ldpc_instance, (2, 4, 6, 0.3, 0)),
        (sp.ldpc_instance, (3, 4, 4, 0.3, 1)),
        (sp.ldgm_instance, (2, 4, 6, 0.4, 2)),
        (sp.general_instance, (3, 4, 4, 0.2, 3)),
    ],
)
def test_enumeration_matches_subset_filter(builder, args):
    g = builder(*args)
    assert g.edge_count <= 16
    oracle = sp.oracle_loops(g)
    lib = {frozenset(l.edge_ids) for l in lg.enumerate_generalized_loops(g)}
    assert lib == oracle
    oracle_p = sp.oracle_polymers(g)
    lib_p = {frozenset(q.edge_ids) for q in lg.enumerate_polymers(g)}
    assert lib_p == oracle_p


@pytest.mark.parametrize(
    "builder,args",
    [
        (sp.ldpc_instance, (3, 6, 6, 0.42, 7)),
        (sp.ldgm_instance, (2, 4, 8, 0.4, 2)),
        (sp.general_instance, (3, 6, 6, 0.2, 3)),
    ],
)
def test_loop_activity_degree_profiles_match_edge_ids(builder, args):
    g = builder(*args)
    entries = loop_activities(g, lg.solve_fixed_point(g).messages)
    assert entries
    for loop, _activity, var_profile, check_profile in entries:
        text = tuple(
            "|".join(f"{d}:{c}" for d, c in profile)
            for profile in (var_profile, check_profile)
        )
        assert text == sp.oracle_induced_type(g, loop.edge_ids), loop.edge_ids


def test_enumeration_filters():
    # the size cap keeps exactly the connected loops touching at most k nodes
    for graph in (_disjoint_cycle_pair(), sp.ldpc_instance(3, 4, 4, 0.3, 1)):
        sizes = {
            s: sum(map(len, sp._edge_components(graph, s)))
            for s in sp.oracle_polymers(graph)
        }
        for k in range(graph.n + graph.m + 1):
            capped = lg.enumerate_polymers(graph, max_size=k)
            assert {frozenset(p.edge_ids) for p in capped} == {
                s for s, size in sizes.items() if size <= k
            }, k


def test_enumeration_respects_budget():
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)
    with pytest.raises(BudgetExceededError):
        lg.enumerate_generalized_loops(g, budget=5)
    with pytest.raises(BudgetExceededError):
        lg.enumerate_polymers(g, budget=5)


def test_polymer_size_and_span_certificates():
    g = sp.ldpc_instance(3, 4, 4, 0.3, 1)
    for poly in lg.enumerate_polymers(g):
        n_vars = sum(1 for b in range(g.n) if poly.node_mask >> b & 1)
        n_checks = sum(
            1 for b in range(g.n, g.n + g.m) if poly.node_mask >> b & 1
        )
        assert poly.size == n_vars + n_checks
        # union-find over the polymer's edges: one component, and its nodes
        # are exactly the node mask
        (nodes,) = sp._edge_components(g, frozenset(poly.edge_ids))
        assert sum(1 << v for v in nodes) == poly.node_mask
        # bipartite edge-count inequality
        assert g.r_max * n_checks >= 2 * n_vars


# ---------------------------------------------------------------------------
# activities at hand-solvable points


def test_ldpc_zero_field_activities():
    # at the all-zero fixed point a parity check contributes 1 only when
    # fully induced, and a variable kills any odd induced degree
    g = sp.ldpc_instance(3, 4, 4, 0.3, 0)
    flat = lg.build_factor_graph(g.n, g.m, g.edges, lg.LdpcWeights((0.0,) * g.n))
    zero = lg.MessageSet(
        kind="ldpc",
        var_to_check=np.zeros(flat.edge_count),
        check_to_var=np.zeros(flat.edge_count),
    )
    ev = lg.ActivityEvaluator(flat, zero)
    full_check = set(flat.check_edges[0])
    assert ev.check_factor(0, full_check) == pytest.approx(1.0, abs=1e-15)
    partial = set(list(flat.check_edges[0])[:2])
    assert ev.check_factor(0, partial) == pytest.approx(0.0, abs=1e-15)
    eids = flat.var_edges[0]
    assert ev.var_factor(0, set(eids[:2])) == pytest.approx(1.0, abs=1e-15)
    assert ev.var_factor(0, set(eids[:1])) == pytest.approx(0.0, abs=1e-15)


def test_ldgm_trivial_point_activities():
    g = sp.ldgm_instance(3, 6, 9, 0.45, 1)
    zero = lg.MessageSet(
        kind="ldgm",
        var_to_check=np.zeros(g.edge_count),
        check_to_var=np.zeros(g.edge_count),
    )
    ev = lg.ActivityEvaluator(g, zero)
    for a in range(g.m):
        eids = list(g.check_edges[a])
        assert ev.check_factor(a, set(eids)) == pytest.approx(
            math.tanh(g.weights.check_fields[a]), abs=1e-15
        )
        assert ev.check_factor(a, set(eids[:3])) == pytest.approx(0.0, abs=1e-15)
    i = 0
    eids = g.var_edges[i]
    assert ev.var_factor(i, set(eids[:2])) == pytest.approx(1.0, abs=1e-15)
    assert ev.var_factor(i, set(eids[:3])) == pytest.approx(0.0, abs=1e-15)


def test_general_check_factor_matches_spin_enumeration():
    rng = random.Random(4)
    for g in (
        sp.general_instance(3, 4, 8, beta=0.3, seed=6),
        sp.random_general_tree(9, 1, beta=0.35),
    ):
        msgs = sp.random_messages(g, seed=13)
        t, that = msgs.var_to_check, msgs.check_to_var
        ev = lg.ActivityEvaluator(g, msgs)
        for a in range(g.m):
            eids = g.check_edges[a]
            for _ in range(6):
                picked = [e for e in eids if rng.random() < 0.5] or [eids[0]]
                sub = set(picked)

                def weight(j, s):
                    e = eids[j]
                    return (s - that[e]) / 2.0 if e in sub else (1.0 + s * t[e]) / 2.0

                num = sp.oracle_check_sum(g, a, weight)
                den = sp.oracle_check_sum(
                    g, a, lambda j, s: (1.0 + s * t[eids[j]]) / 2.0
                )
                assert ev.check_factor(a, sub) == pytest.approx(
                    num / den, rel=1e-12, abs=1e-14
                )


def test_four_cycle_activity_is_field_product():
    h0, h1 = 0.4, -0.7
    g = _four_cycle_ldgm(h0, h1)
    zero = lg.MessageSet(
        kind="ldgm", var_to_check=np.zeros(4), check_to_var=np.zeros(4)
    )
    k = lg.ActivityEvaluator(g, zero).value((0, 1, 2, 3))
    assert k == pytest.approx(math.tanh(h0) * math.tanh(h1), abs=1e-15)


def test_dangling_activities_vanish_at_fixed_point():
    g = sp.ldpc_instance(3, 4, 4, 0.3, 2)
    res = lg.solve_fixed_point(g)
    assert res.converged
    ev = lg.ActivityEvaluator(g, res.messages)
    for e in range(g.edge_count):
        assert abs(ev.value((e,))) <= 1e3 * max(res.residual, 1e-15)


def test_singular_denominator_detection():
    g = _four_cycle_ldpc()
    c2v = np.zeros(4)
    c2v[0] = 1.0
    c2v[2] = -1.0  # the two messages into variable 0 cancel exactly
    msgs = lg.MessageSet(kind="ldpc", var_to_check=np.zeros(4), check_to_var=c2v)
    with pytest.raises(SingularDenominatorError):
        lg.ActivityEvaluator(g, msgs).value((0, 1, 2, 3))


# ---------------------------------------------------------------------------
# the loop sum against its oracles


def test_four_cycle_zero_field_loop_sum_is_two():
    g = _four_cycle_ldpc()
    zero = lg.MessageSet(
        kind="ldpc", var_to_check=np.zeros(4), check_to_var=np.zeros(4)
    )
    res = lg.loop_sum_direct(g, zero)
    assert res.total == pytest.approx(2.0, abs=1e-15)
    assert res.loop_count == 1 and res.polymer_count == 1
    # the one loop touches 4 nodes and carries activity 1
    assert res.q == pytest.approx(math.exp(4), rel=1e-15)


@pytest.mark.parametrize(
    "builder,args,seed",
    [
        (sp.ldpc_instance, (2, 4, 6, 0.3, 0), 10),
        (sp.ldpc_instance, (3, 4, 4, 0.3, 1), 11),
        (sp.ldgm_instance, (2, 4, 6, 0.4, 2), 12),
        (sp.general_instance, (3, 4, 4, 0.2, 3), 13),
    ],
)
def test_loop_sum_routes_agree_on_arbitrary_messages(builder, args, seed):
    g = builder(*args)
    msgs = sp.random_messages(g, seed=seed)
    for lam in (0.5, 0.9):
        direct = lg.loop_sum_direct(g, msgs, split_lambda=lam)
        composed = sp.loop_sum(g, msgs, lam)
        brute = sp.loop_sum_bruteforce(g, msgs, lam)
        for oracle in (composed, brute):
            for field in ("total", "z_small", "r_large"):
                assert getattr(direct, field) == pytest.approx(
                    getattr(oracle, field), abs=1e-12
                ), field
            assert direct.q == pytest.approx(oracle.q, rel=1e-12)
        assert direct.loop_count == composed.loop_count == brute.loop_count
        assert direct.polymer_count == composed.polymer_count == brute.polymer_count


def test_loop_sum_budget():
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)
    msgs = sp.random_messages(g, seed=1)
    with pytest.raises(BudgetExceededError):
        lg.loop_sum_direct(g, msgs, budget=10)


# ---------------------------------------------------------------------------
# the identity against brute force


def test_identity_on_trees():
    for seed in range(5):
        g = sp.random_tree(9, seed, "ldpc")
        report = lg.verify_loop_identity(g)
        assert report.loop_count == 0
        assert report.residual <= 1e-10


def test_identity_on_four_cycle():
    report = lg.verify_loop_identity(_four_cycle_ldgm())
    assert report.loop_count == 1
    assert report.residual <= 1e-12
    assert report.bp_residual <= 1e-12


def test_identity_random_battery():
    cases = []
    for seed in range(7):
        cases.append(sp.ldpc_instance(3, 4, 4, 0.35, seed, chan_seed=seed))
    for seed in range(7):
        cases.append(sp.ldgm_instance(2, 4, 6, 0.42, seed, chan_seed=seed))
    for seed in range(6):
        cases.append(sp.general_instance(3, 4, 4, 0.15, seed))
    checked = 0
    for g in cases:
        report = lg.verify_loop_identity(g)
        if report.bp_residual > 1e-12:
            continue  # a non-converged run proves nothing either way
        checked += 1
        assert report.residual <= 1e-8
        messages = lg.solve_fixed_point(g).messages
        assert sp.max_factorization_error(g, messages) <= 1e-12
        assert report.polymer_count <= report.loop_count
        assert report.ln_z_exact == pytest.approx(
            g.n * report.f_bethe + report.ln_loop_sum, abs=1e-9
        )
    assert checked >= 18


def test_walk_holds_no_leaf_arrays_after_return(monkeypatch):
    # the leaf arrays grow with the loop count; once a consumer returns,
    # nothing may keep them alive until the next cyclic collection
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    messages = lg.solve_fixed_point(g).messages
    refs = []
    walk = lg.loops._walk

    def tracked(*args, **kwargs):
        leaves = walk(*args, **kwargs)
        arrays = [leaves.prod, *(x for level in leaves.levels for x in level)]
        refs.extend(weakref.ref(x) for x in [leaves, *arrays])
        return leaves

    monkeypatch.setattr(lg.loops, "_walk", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert lg.loop_sum_direct(g, messages).loop_count
        assert lg.enumerate_polymers(g, max_size=8)
        assert lg.enumerate_generalized_loops(g)
        assert loop_activities(g, messages)
        assert len(refs) > 4 * 2
        assert all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def _long_cycle_with_chord(length: int = 36) -> lg.FactorGraph:
    # a cycle code (check a joins variables a and a + 1 mod length) plus one
    # chord check: n + m = 2 * length + 1 > 64 needs multiword node masks
    edges = [(a, a) for a in range(length)] + [((a + 1) % length, a) for a in range(length)]
    edges += [(0, length), (length // 2, length)]
    rng = random.Random(5)
    fields = tuple(rng.uniform(-1.0, 1.0) for _ in range(length))
    return lg.build_factor_graph(length, length + 1, edges, lg.LdpcWeights(fields))


def _with_edgeless_variable() -> lg.FactorGraph:
    # a (3,4) parity-check code plus a variable outside every check
    g = sp.ldpc_instance(3, 4, 4, 0.4, 1, chan_seed=1)
    fields = g.weights.variable_fields + (0.3,)
    return lg.build_factor_graph(g.n + 1, g.m, g.edges, lg.LdpcWeights(fields))


# the perfbench identity battery's families and sizes with the seeds to run
# them at; (3,6) at n = 6 is K_{6,3} whatever the seed, so one seed covers its
# walk (and its 14,016 loops make the oracle slow)
_BATTERY = [
    ("ldpc", 3, 6, 6, 0.45, (0,)),
    ("ldpc", 3, 4, 4, 0.45, (0, 1, 2)),
    ("ldgm", 3, 6, 6, 0.40, (0,)),
    ("ldgm", 2, 4, 12, 0.45, (0, 1, 2)),
    ("general", 3, 6, 6, 0.2, (0,)),
    ("general", 2, 4, 12, 0.3, (0, 1, 2)),
    ("general", 3, 4, 4, 0.3, (0, 1, 2)),
]
_BUILDERS = {
    "ldpc": lambda l, r, n, x, s: sp.ldpc_instance(l, r, n, x, s, chan_seed=s),
    "ldgm": lambda l, r, n, x, s: sp.ldgm_instance(l, r, n, x, s, chan_seed=s),
    "general": sp.general_instance,
}
_WALK_CASES = {
    f"{family}-{l}-{r}-n{n}-s{seed}": (
        lambda family=family, spec=(l, r, n, x, seed): _BUILDERS[family](*spec)
    )
    for family, l, r, n, x, seeds in _BATTERY
    for seed in seeds
}
_WALK_CASES["cycle-36-chord"] = _long_cycle_with_chord
_WALK_CASES["edgeless-variable"] = _with_edgeless_variable


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_level_walk_matches_recursive_walk(case):
    g = _WALK_CASES[case]()
    messages = lg.solve_fixed_point(g).messages
    for lam in (0.3, 0.5, 1.0):
        assert lg.loop_sum_direct(g, messages, split_lambda=lam) == sp.recursive_loop_sum(
            g, messages, split_lambda=lam
        ), lam
    for k in (0, 4, 6, 9, None):
        assert lg.enumerate_polymers(g, max_size=k) == sp.recursive_polymers(g, k), k
    assert lg.enumerate_generalized_loops(g) == sp.recursive_loops(g)
    # at a fixed point some variable factors are exactly 1; arbitrary messages
    # make every factor count, so the multiplication order shows in the bits
    arbitrary = sp.random_messages(g, seed=7)
    assert lg.loop_sum_direct(g, arbitrary) == sp.recursive_loop_sum(g, arbitrary)
    assert loop_activities(g, arbitrary) == sp.recursive_loop_activities(g, arbitrary)


def test_level_walk_chunking_does_not_change_results(monkeypatch):
    # tiny chunks split every level and the leaves several times over, so
    # the q carry, the fsums and the records cross chunk boundaries
    g = sp.ldgm_instance(2, 4, 12, 0.45, 0, chan_seed=0)
    messages = lg.solve_fixed_point(g).messages
    want = (
        lg.loop_sum_direct(g, messages),
        lg.enumerate_polymers(g, max_size=9),
        loop_activities(g, messages),
    )
    for chunk in (7, 100):
        monkeypatch.setattr(lg.loops, "_CHUNK", chunk)
        got = (
            lg.loop_sum_direct(g, messages),
            lg.enumerate_polymers(g, max_size=9),
            loop_activities(g, messages),
        )
        assert got == want, chunk
    assert want[0] == sp.recursive_loop_sum(g, messages)


@pytest.mark.parametrize(
    "graph",
    [
        sp.ldpc_instance(3, 6, 6, 0.45, 0, chan_seed=0),
        sp.ldgm_instance(2, 4, 12, 0.45, 1, chan_seed=1),
        _long_cycle_with_chord(),
    ],
    ids=["ldpc-3-6-n6", "ldgm-2-4-n12", "cycle-36-chord"],
)
def test_walk_budget_is_the_visit_count(graph):
    messages = lg.solve_fixed_point(graph).messages
    ev = lg.ActivityEvaluator(graph, messages)
    visits = sp.recursive_walk(graph, lambda *_: None, 10**9, ev)
    assert lg.loops._walk(graph, 10**9, ev).visits == visits
    lg.loop_sum_direct(graph, messages, budget=visits)
    with pytest.raises(BudgetExceededError):
        lg.loop_sum_direct(graph, messages, budget=visits - 1)
    for k in (4, 8):
        capped = sp.recursive_walk(graph, lambda *_: None, 10**9, max_nodes=k)
        assert lg.loops._walk(graph, 10**9, max_nodes=k).visits == capped
        lg.enumerate_polymers(graph, max_size=k, budget=capped)
        with pytest.raises(BudgetExceededError):
            lg.enumerate_polymers(graph, max_size=k, budget=capped - 1)


@pytest.mark.parametrize(
    "graph",
    [
        sp.ldpc_instance(3, 4, 4, 0.35, 1, chan_seed=1),
        sp.ldgm_instance(2, 4, 6, 0.42, 2, chan_seed=2),
        sp.general_instance(3, 4, 4, 0.15, 3),
        sp.random_tree(9, 4, "ldpc"),
    ],
    ids=["ldpc", "ldgm", "general", "tree"],
)
def test_one_pass_identity_matches_separate_routes(graph):
    bp = lg.solve_fixed_point(graph)
    q = lg.convergence_criterion_q(
        graph, bp.messages, polymers=lg.enumerate_polymers(graph)
    ).q
    for lam in (0.3, 0.5, 0.9, 1.5):
        report = lg.verify_loop_identity(graph, split_lambda=lam)
        direct = lg.loop_sum_direct(graph, bp.messages, split_lambda=lam)
        brute = sp.loop_sum_bruteforce(graph, bp.messages, lam)
        assert report.ln_loop_sum == math.log(direct.total)
        assert report.loop_count == direct.loop_count == brute.loop_count
        assert report.polymer_count == direct.polymer_count == brute.polymer_count
        assert report.z_small == direct.z_small
        assert report.r_large == direct.r_large
        assert report.q == direct.q
        assert report.z_small == pytest.approx(brute.z_small, abs=1e-12)
        assert report.r_large == pytest.approx(brute.r_large, abs=1e-12)
        assert report.q == pytest.approx(q, rel=1e-12, abs=0.0)
        assert report.bp_residual == bp.residual


def test_full_expansion_on_arbitrary_messages():
    for g, seed in [(_four_cycle_ldgm(), 0), (_complete_2_by_3(), 1)]:
        msgs = sp.random_messages(g, seed=seed)
        report = sp.verify_full_expansion(g, msgs)
        assert report.residual <= 1e-9
        assert report.subset_count == 1 << g.edge_count


def test_full_expansion_dangling_terms_die_at_fixed_point():
    g = sp.ldpc_instance(3, 4, 4, 0.3, 4)
    res = lg.solve_fixed_point(g)
    assert res.converged
    report = sp.verify_full_expansion(g, res.messages)
    assert report.residual <= 1e-9
    assert report.max_dangling_activity <= 1e3 * max(res.residual, 1e-15)


def test_full_expansion_size_cap():
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)  # 24 edges
    with pytest.raises(TooLargeError):
        sp.verify_full_expansion(g, sp.random_messages(g, seed=0))


# ---------------------------------------------------------------------------
# small/large split


def test_split_resummation_and_trivial_cutoffs():
    g = sp.ldpc_instance(3, 4, 4, 0.3, 1)
    msgs = sp.random_messages(g, seed=2)
    total = lg.loop_sum_direct(g, msgs).total
    # every loop is small: its polymers all have fewer than 10 n nodes
    wide = lg.loop_sum_direct(g, msgs, split_lambda=10.0)
    assert wide.r_large == 0.0 and wide.z_small == total
    # every loop is large: each has a polymer of at least 0.1 n nodes
    narrow = lg.loop_sum_direct(g, msgs, split_lambda=0.1)
    assert narrow.z_small == 1.0
    assert narrow.r_large == pytest.approx(total - 1.0, abs=1e-12)
    mid = lg.loop_sum_direct(g, msgs, split_lambda=1.5)
    assert mid.total == total
    assert mid.z_small + mid.r_large == pytest.approx(total, abs=1e-12)
    assert mid.z_small != 1.0 and mid.r_large != 0.0


def test_split_matches_component_oracle():
    g = sp.ldpc_instance(2, 4, 6, 0.3, 0)
    msgs = sp.random_messages(g, seed=3)
    for lam in (0.3, 0.6, 0.9, 1.4):
        oracle = sp.loop_sum_bruteforce(g, msgs, lam)
        res = lg.loop_sum_direct(g, msgs, split_lambda=lam)
        assert res.z_small == pytest.approx(oracle.z_small, abs=1e-12)
        assert res.r_large == pytest.approx(oracle.r_large, abs=1e-12)


# ---------------------------------------------------------------------------
# activity bounds


def test_high_temperature_bound_spot_value_and_soundness():
    beta = 0.005
    g = sp.general_instance(3, 4, 8, beta=beta, seed=1)
    mu = 2.0 * beta
    res = lg.solve_fixed_point(g)
    assert res.converged
    assert lg.verify_high_temperature_bounds(res.messages, g)
    ev = lg.ActivityEvaluator(g, res.messages)
    polys = lg.enumerate_polymers(g, max_size=6)
    assert polys
    for poly in polys:
        bound = lg.high_temperature_activity_bound(g, poly)
        expected = (6.0 * math.e * mu) ** (2.0 * poly.size / (2.0 + g.r_max))
        assert bound == pytest.approx(expected, rel=1e-12)
        assert abs(ev.value(poly.edge_ids)) <= bound


def test_high_temperature_bound_hypothesis():
    g = sp.general_instance(3, 4, 8, beta=0.2, seed=1)
    poly = lg.enumerate_polymers(g, max_size=5)[0]
    with pytest.raises(HypothesisNotMetError):
        lg.high_temperature_activity_bound(g, poly)
    gl = sp.ldgm_instance(3, 6, 9, 0.3, 0)
    poly_l = lg.enumerate_polymers(gl, max_size=8)[0]
    with pytest.raises(HypothesisNotMetError):
        lg.high_temperature_activity_bound(gl, poly_l)


def test_ldgm_bound_spot_value_and_soundness():
    g = sp.ldgm_instance(3, 6, 9, 0.498, 0)
    h = lg.ChannelParams(p=0.498).h
    assert h < 1.0 / (4.0 * 9.0 * 6.0)
    res = lg.solve_fixed_point(g)
    assert res.converged
    ev = lg.ActivityEvaluator(g, res.messages)
    polys = lg.enumerate_polymers(g, max_size=8)
    assert polys
    for poly in polys:
        bound = lg.ldgm_activity_bound(g, poly)
        expected = (12.0 * math.e * h) ** (2.0 * poly.size / (2.0 + g.r_max))
        assert bound == pytest.approx(expected, rel=1e-12)
        assert abs(ev.value(poly.edge_ids)) <= bound


def test_ldgm_bound_hypothesis():
    strong = sp.ldgm_instance(3, 6, 9, 0.3, 0)  # field far above the window
    poly = lg.enumerate_polymers(strong, max_size=8)[0]
    with pytest.raises(HypothesisNotMetError):
        lg.ldgm_activity_bound(strong, poly)


def test_ldgm_trivial_bound():
    p = 0.45
    g = sp.ldgm_instance(3, 6, 9, p, 1)
    zero = lg.MessageSet(
        kind="ldgm",
        var_to_check=np.zeros(g.edge_count),
        check_to_var=np.zeros(g.edge_count),
    )
    ev = lg.ActivityEvaluator(g, zero)
    polys = lg.enumerate_polymers(g, max_size=8)
    assert polys
    for poly in polys:
        bound = lg.ldgm_trivial_activity_bound(g, poly, p, zero)
        expected = (1.0 - 2.0 * p) ** (2.0 * poly.size / (2.0 + g.r_max))
        assert bound == pytest.approx(expected, rel=1e-12)
        assert abs(ev.value(poly.edge_ids)) <= bound
    # wrong p for the stored fields
    with pytest.raises(HypothesisNotMetError):
        lg.ldgm_trivial_activity_bound(g, polys[0], 0.3, zero)
    # non-trivial messages
    with pytest.raises(HypothesisNotMetError):
        lg.ldgm_trivial_activity_bound(g, polys[0], p, sp.random_messages(g, 5))


def test_ldpc_type_bound_spot_value_and_soundness():
    p = 0.46
    g = lg.apply_channel(_four_cycle_ldpc(), p, seed=0)
    theta = lg.ChannelParams(p=p).theta
    poly = lg.enumerate_polymers(g)[0]
    bound = lg.ldpc_type_activity_bound(g, poly, theta)
    hand = (1.0 + 1.1 * theta**2) ** 2 * (1.0 + 0.55 * 13.0 * theta**2) ** 2
    assert bound == pytest.approx(hand, rel=1e-12)
    big = sp.ldpc_instance(3, 4, 4, p, 3)
    res = lg.solve_fixed_point(big)
    assert res.converged
    ev = lg.ActivityEvaluator(big, res.messages)
    for q in lg.enumerate_polymers(big):
        assert abs(ev.value(q.edge_ids)) <= lg.ldpc_type_activity_bound(
            big, q, theta
        )


def test_ldpc_type_bound_hypothesis():
    g = sp.ldpc_instance(3, 4, 4, 0.44, 0)  # theta = 0.12 misses the window
    poly = lg.enumerate_polymers(g)[0]
    with pytest.raises(HypothesisNotMetError):
        lg.ldpc_type_activity_bound(g, poly, lg.ChannelParams(p=0.44).theta)
    gl = sp.ldgm_instance(3, 6, 9, 0.46, 0)
    poly_l = lg.enumerate_polymers(gl, max_size=8)[0]
    with pytest.raises(HypothesisNotMetError):
        lg.ldpc_type_activity_bound(gl, poly_l, 0.08)


def test_expander_bound_on_certified_instance():
    g0 = lg.sample_regular_bipartite(3, 6, 24, seed=59)
    cert = lg.check_expander_exhaustive(g0, 5 / 24, 0.5)
    assert cert.certified
    params = lg.ExpanderParams.for_regular(3, 6, 5 / 24, 0.5)
    p = 0.495
    theta = lg.ChannelParams(p=p).theta
    g = lg.apply_channel(g0, p, seed=0)
    res = lg.solve_fixed_point(g)
    assert res.converged
    ev = lg.ActivityEvaluator(g, res.messages)
    small = [q for q in lg.enumerate_polymers(g, max_size=4)]
    assert len(small) == 21
    for poly in small:
        bound = lg.expander_activity_bound(g, poly, theta, params, cert)
        assert bound == pytest.approx(theta ** (params.c / 2.0 * poly.size), rel=1e-12)
        assert abs(ev.value(poly.edge_ids)) <= bound


def test_expander_bound_hypothesis():
    g0 = lg.sample_regular_bipartite(3, 6, 24, seed=59)
    cert = lg.check_expander_exhaustive(g0, 5 / 24, 0.5)
    params = lg.ExpanderParams.for_regular(3, 6, 5 / 24, 0.5)
    p = 0.495
    theta = lg.ChannelParams(p=p).theta
    g = lg.apply_channel(g0, p, seed=0)
    big = [q for q in lg.enumerate_polymers(g, max_size=6) if q.size >= 5]
    assert big
    with pytest.raises(HypothesisNotMetError):
        lg.expander_activity_bound(g, big[0], theta, params, cert)
    small = lg.enumerate_polymers(g, max_size=4)[0]
    mc = lg.check_expander_montecarlo(g0, 5 / 24, 0.5, trials=10, seed=0)
    with pytest.raises(HypothesisNotMetError):
        lg.expander_activity_bound(g, small, theta, params, mc)
    with pytest.raises(HypothesisNotMetError):
        lg.expander_activity_bound(g, small, 0.12, params, cert)


# ---------------------------------------------------------------------------
# tree exactness report


def test_tree_exactness_report():
    # on a tree there are no loops, so f_bethe is ln Z / n exactly
    g = sp.random_tree(9, 2, "ldgm")
    assert lg.enumerate_generalized_loops(g) == []
    report = lg.verify_loop_identity(g)
    assert report.loop_count == 0 and report.ln_loop_sum == 0.0
    assert abs(report.f_bethe - report.ln_z_exact / g.n) <= 1e-10
