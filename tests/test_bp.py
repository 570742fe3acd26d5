"""Message passing: sweep rules, fixed points, norm-ball verifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest

import loopgas as lg
import loopgas.bp as bp
from loopgas.errors import DegreeTooLargeError

import support as sp


# ---------------------------------------------------------------------------
# initialization


def test_initial_messages_ldpc_warm_start():
    g = sp.ldpc_instance(3, 6, 12, 0.2, 0)
    init = lg.initial_messages(g)
    fields = np.array([g.weights.variable_fields[i] for i, _ in g.edges])
    assert np.allclose(init.var_to_check, np.tanh(fields), atol=1e-15)
    assert np.any(init.check_to_var != 0.0)


def test_initial_messages_zero_elsewhere():
    gl = sp.ldgm_instance(3, 6, 12, 0.3, 0)
    init = lg.initial_messages(gl)
    assert not init.var_to_check.any() and not init.check_to_var.any()
    gg = sp.general_instance(3, 4, 8, 0.2, 0)
    init = lg.initial_messages(gg)
    assert not init.var_to_check.any() and not init.check_to_var.any()


# ---------------------------------------------------------------------------
# one synchronous sweep against hand update rules


def test_ldpc_sweep_matches_hand_rules():
    g = sp.ldpc_instance(3, 6, 12, 0.25, 1)
    msgs = sp.random_messages(g, seed=5)
    out = bp.bp_sweep(g, msgs)
    for a in range(g.m):
        eids = g.check_edges[a]
        for e in eids:
            prod = 1.0
            for e2 in eids:
                if e2 != e:
                    prod *= msgs.var_to_check[e2]
            assert out.check_to_var[e] == pytest.approx(prod, abs=1e-14)
    for i in range(g.n):
        eids = g.var_edges[i]
        for e in eids:
            total = g.weights.variable_fields[i]
            for e2 in eids:
                if e2 != e:
                    total += math.atanh(msgs.check_to_var[e2])
            assert out.var_to_check[e] == pytest.approx(math.tanh(total), abs=1e-12)


def test_ldgm_sweep_matches_hand_rules():
    g = sp.ldgm_instance(3, 6, 12, 0.3, 2)
    msgs = sp.random_messages(g, seed=6)
    out = bp.bp_sweep(g, msgs)
    for a in range(g.m):
        eids = g.check_edges[a]
        th = math.tanh(g.weights.check_fields[a])
        for e in eids:
            prod = th
            for e2 in eids:
                if e2 != e:
                    prod *= msgs.var_to_check[e2]
            assert out.check_to_var[e] == pytest.approx(prod, abs=1e-14)
    for i in range(g.n):
        eids = g.var_edges[i]
        for e in eids:
            total = 0.0
            for e2 in eids:
                if e2 != e:
                    total += math.atanh(msgs.check_to_var[e2])
            assert out.var_to_check[e] == pytest.approx(math.tanh(total), abs=1e-12)


def test_general_sweep_matches_cavity_enumeration():
    g = sp.general_instance(3, 4, 4, beta=0.3, seed=3)
    msgs = sp.random_messages(g, seed=7)
    out = bp.bp_sweep(g, msgs)
    t = msgs.var_to_check
    for a in range(g.m):
        eids = g.check_edges[a]
        for k, e in enumerate(eids):
            num = sp.oracle_check_sum(
                g, a, lambda j, s: s if j == k else 1.0 + s * t[eids[j]]
            )
            den = sp.oracle_check_sum(
                g, a, lambda j, s: 1.0 if j == k else 1.0 + s * t[eids[j]]
            )
            assert out.check_to_var[e] == pytest.approx(num / den, abs=1e-13)


# ---------------------------------------------------------------------------
# fixed points


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_tree_convergence_is_exact(kind):
    for seed in range(5):
        if kind == "general":
            g = sp.random_general_tree(9, seed, beta=0.3)
        else:
            g = sp.random_tree(9, seed, kind)
        res = lg.solve_fixed_point(g)
        assert res.converged
        assert res.residual <= 1e-12
        assert lg.residual_of(g, res.messages) <= 1e-12


def test_fixed_point_survives_one_more_sweep():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    res = lg.solve_fixed_point(g)
    assert res.converged
    assert lg.residual_of(g, res.messages) <= 1e-12


def test_solver_determinism():
    g = sp.ldpc_instance(3, 4, 8, 0.35, 1)
    a = lg.solve_fixed_point(g)
    b = lg.solve_fixed_point(g)
    assert np.array_equal(a.messages.var_to_check, b.messages.var_to_check)
    assert np.array_equal(a.messages.check_to_var, b.messages.check_to_var)
    assert a.iterations == b.iterations


def test_high_temperature_fixed_point_is_init_independent():
    g = sp.general_instance(3, 4, 8, beta=0.1, seed=2)
    from_zero = lg.solve_fixed_point(g)
    from_random = lg.solve_fixed_point(g, init=sp.random_messages(g, seed=9, scale=0.3))
    assert from_zero.converged and from_random.converged
    assert np.allclose(
        from_zero.messages.var_to_check, from_random.messages.var_to_check, atol=1e-9
    )
    assert np.allclose(
        from_zero.messages.check_to_var, from_random.messages.check_to_var, atol=1e-9
    )


def test_damping_reaches_same_fixed_point():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 3)
    plain = lg.solve_fixed_point(g)
    damped = lg.solve_fixed_point(g, damping=0.3)
    assert damped.converged
    assert np.allclose(
        plain.messages.var_to_check, damped.messages.var_to_check, atol=1e-9
    )


def test_non_convergence_is_reported_not_raised():
    g = sp.general_instance(3, 4, 8, beta=0.2, seed=4)
    res = lg.solve_fixed_point(
        g, init=sp.random_messages(g, seed=1, scale=0.6), max_iter=1
    )
    assert not res.converged
    assert res.iterations == 1
    assert res.residual > 1e-12


def test_field_sign_flip_negates_messages():
    g = sp.ldpc_instance(3, 6, 12, 0.25, 5)
    flipped = lg.build_factor_graph(
        g.n,
        g.m,
        g.edges,
        lg.LdpcWeights(tuple(-h for h in g.weights.variable_fields)),
    )
    a = lg.solve_fixed_point(g)
    b = lg.solve_fixed_point(flipped)
    assert np.allclose(a.messages.var_to_check, -b.messages.var_to_check, atol=1e-14)
    assert np.allclose(a.messages.check_to_var, -b.messages.check_to_var, atol=1e-14)


def test_degree_cap_on_general_checks_only():
    n = 21
    edges = [(i, 0) for i in range(n)]
    base = lg.build_factor_graph(n, 1, edges, lg.LdpcWeights((0.1,) * n))
    lg.solve_fixed_point(base)  # parity rule has no table, any degree is fine
    wide = lg.attach_random_general_weights(base, beta=0.1, seed=0)
    with pytest.raises(DegreeTooLargeError):
        lg.solve_fixed_point(wide)
    zero = lg.MessageSet(
        kind="general",
        var_to_check=np.zeros(wide.edge_count),
        check_to_var=np.zeros(wide.edge_count),
    )
    with pytest.raises(DegreeTooLargeError):
        lg.bethe_free_energy(wide, zero)
    with pytest.raises(DegreeTooLargeError):
        lg.ActivityEvaluator(wide, zero).check_factor(0, {0, 1})


# ---------------------------------------------------------------------------
# norm-ball verifiers


def test_high_noise_ball_holds_at_strong_noise():
    g = sp.ldpc_instance(3, 6, 12, 0.42, 0)
    res = lg.solve_fixed_point(g)
    assert res.converged
    assert lg.verify_high_noise(res.messages, lg.ChannelParams(p=0.42, epsilon=0.1))


def test_high_noise_ball_rejects_saturated_messages():
    g = sp.ldpc_instance(3, 6, 12, 0.42, 0)
    msgs = lg.MessageSet(
        kind="ldpc",
        var_to_check=np.full(g.edge_count, 0.99),
        check_to_var=np.zeros(g.edge_count),
    )
    assert not lg.verify_high_noise(msgs, lg.ChannelParams(p=0.42, epsilon=0.1))


def test_high_noise_requires_parity_kind():
    g = sp.ldgm_instance(3, 6, 12, 0.3, 0)
    res = lg.solve_fixed_point(g)
    with pytest.raises(ValueError):
        lg.verify_high_noise(res.messages, lg.ChannelParams(p=0.3))


def test_high_temperature_ball():
    g = sp.general_instance(3, 4, 8, beta=0.1, seed=2)
    res = lg.solve_fixed_point(g)
    assert res.converged
    assert lg.verify_high_temperature_bounds(res.messages, g)
    bad = lg.MessageSet(
        kind="general",
        var_to_check=np.full(g.edge_count, 0.99),
        check_to_var=np.zeros(g.edge_count),
    )
    assert not lg.verify_high_temperature_bounds(bad, g)


def test_high_temperature_ball_needs_small_coupling():
    hot = sp.general_instance(3, 4, 8, beta=0.3, seed=2)  # norm 0.6 >= 1/2
    res = lg.solve_fixed_point(hot)
    with pytest.raises(ValueError):
        lg.verify_high_temperature_bounds(res.messages, hot)
    gl = sp.ldgm_instance(3, 6, 12, 0.3, 0)
    with pytest.raises(ValueError):
        lg.verify_high_temperature_bounds(lg.initial_messages(gl), gl)


def test_ldgm_message_ball():
    g = sp.ldgm_instance(3, 6, 12, 0.3, 0)
    res = lg.solve_fixed_point(g)
    assert lg.verify_ldgm_message_bounds(res.messages, g)
    # near p = 1/2 the field is tiny and saturated messages break the ball
    weak = sp.ldgm_instance(3, 6, 12, 0.49, 0)
    bad = lg.MessageSet(
        kind="ldgm",
        var_to_check=np.full(weak.edge_count, 0.5),
        check_to_var=np.full(weak.edge_count, 0.5),
    )
    assert not lg.verify_ldgm_message_bounds(bad, weak)
    ldpc = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    with pytest.raises(ValueError):
        lg.verify_ldgm_message_bounds(res.messages, ldpc)
