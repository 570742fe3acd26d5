"""Bethe free energy: tree exactness, breakdown, stationarity, soft limits."""

from __future__ import annotations

import math

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import BoundaryTooCloseError

import support as sp

LN2 = math.log(2.0)


def test_single_parity_check_half_ln_two():
    g = lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdpcWeights((0.0, 0.0)))
    res = lg.solve_fixed_point(g)
    bd = lg.bethe_free_energy(g, res.messages)
    assert bd.f_bethe == pytest.approx(LN2 / 2.0, abs=1e-14)


def test_breakdown_terms_recombine():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    res = lg.solve_fixed_point(g)
    bd = lg.bethe_free_energy(g, res.messages)
    assert len(bd.check_terms) == g.m
    assert len(bd.var_terms) == g.n
    assert len(bd.edge_terms) == g.edge_count
    recombined = (
        math.fsum(bd.check_terms) + math.fsum(bd.var_terms) - math.fsum(bd.edge_terms)
    ) / g.n
    assert recombined == pytest.approx(bd.f_bethe, abs=1e-14)


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_tree_exactness(kind):
    for seed in range(6):
        if kind == "general":
            g = sp.random_general_tree(9, seed, beta=0.35)
        else:
            g = sp.random_tree(9, seed, kind)
        res = lg.solve_fixed_point(g)
        assert res.converged
        bd = lg.bethe_free_energy(g, res.messages)
        exact = lg.brute_force_log_partition(g).log_z / g.n
        assert bd.f_bethe == pytest.approx(exact, abs=1e-10)


def test_general_check_terms_match_spin_enumeration():
    for g in (
        sp.general_instance(3, 4, 8, beta=0.3, seed=5),
        sp.random_general_tree(9, 2, beta=0.35),
    ):
        msgs = sp.random_messages(g, seed=11)
        t = msgs.var_to_check
        bd = lg.bethe_free_energy(g, msgs)
        for a in range(g.m):
            eids = g.check_edges[a]
            want = math.log(
                sp.oracle_check_sum(g, a, lambda j, s: (1.0 + s * t[eids[j]]) / 2.0)
            )
            assert bd.check_terms[a] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_four_cycle_joint_identity():
    # a single loop: ln Z = n * f_bethe + ln(1 + K) with K the loop term
    h0, h1 = 0.4, -0.7
    g = lg.build_factor_graph(
        2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], lg.LdgmWeights((h0, h1))
    )
    res = lg.solve_fixed_point(g)
    assert res.converged
    bd = lg.bethe_free_energy(g, res.messages)
    ev = lg.ActivityEvaluator(g, res.messages)
    loops = lg.enumerate_generalized_loops(g)
    assert len(loops) == 1
    k = ev.value(loops[0].edge_ids)
    exact = lg.brute_force_log_partition(g).log_z
    assert exact == pytest.approx(g.n * bd.f_bethe + math.log1p(k), abs=1e-12)


def test_stationarity_small_at_fixed_point():
    for build, args in [
        (sp.ldpc_instance, (3, 6, 12, 0.3, 0)),
        (sp.ldgm_instance, (3, 6, 12, 0.35, 1)),
        (sp.general_instance, (3, 4, 8, 0.15, 2)),
    ]:
        g = build(*args)
        res = lg.solve_fixed_point(g)
        assert res.converged
        score = lg.stationarity_check(g, res.messages)
        assert score <= 100.0 * (res.residual + 1e-5**2)


def test_stationarity_flags_perturbed_messages():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    res = lg.solve_fixed_point(g)
    pert = res.messages.copy()
    pert.var_to_check[0] += 0.05
    assert lg.stationarity_check(g, pert) > 1e-4


def test_stationarity_on_trees():
    g = sp.random_tree(9, 3, "ldpc")
    res = lg.solve_fixed_point(g)
    assert lg.stationarity_check(g, res.messages) <= 1e-8


def test_stationarity_rejects_boundary_messages():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    bad = lg.MessageSet(
        kind="ldpc",
        var_to_check=np.full(g.edge_count, 1.0 - 1e-16),
        check_to_var=np.full(g.edge_count, 1.0 - 1e-16),
    )
    with pytest.raises(BoundaryTooCloseError):
        lg.stationarity_check(g, bad)


def test_soft_coupling_ramp_approaches_parity_count():
    # a single full-neighborhood coupling per check turns into a hard parity
    # constraint as beta grows; the shifted partition function must fall
    # monotonically onto the codeword count
    g0 = lg.sample_regular_bipartite(3, 6, 12, seed=4)
    base = lg.build_factor_graph(
        g0.n, g0.m, g0.edges, lg.LdpcWeights((0.0,) * g0.n)
    )
    k = lg.codeword_count_gf2(base)
    gaps = []
    for beta in (0.5, 1.0, 2.0, 3.0, 4.0):
        couplings = tuple(
            ((tuple(sorted(g0.check_neighbors(a))), 1.0),) for a in range(g0.m)
        )
        gg = lg.build_factor_graph(
            g0.n, g0.m, g0.edges, lg.GeneralWeights(beta=beta, couplings=couplings)
        )
        log_z = lg.brute_force_log_partition(gg).log_z
        gaps.append(math.exp(log_z - beta * g0.m) - 2.0**k)
    assert all(gap > 0.0 for gap in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.15
