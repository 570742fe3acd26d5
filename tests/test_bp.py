"""Message passing: sweep rules, fixed points, norm-ball verifiers."""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest

import loopgas as lg
import loopgas.bp as bp
from loopgas.errors import (
    DegreeTooLargeError,
    SingularDenominatorError,
    WeightOverflowError,
    WrongWeightKindError,
)

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
    out = sp.bp_sweep(g, msgs)
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
    out = sp.bp_sweep(g, msgs)
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
    out = sp.bp_sweep(g, msgs)
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


def _mixed_general_graph(seed: int) -> lg.FactorGraph:
    """General weights on checks of degrees 0 to 6 holding 0 to d + 1 terms:
    one check of each degree has a subset of every size 1..d, and a term
    may repeat an earlier term's subset."""
    rng = random.Random(seed)
    n, degrees = 9, [0, 1, 2, 3, 4, 5, 6, 6, 4, 3, 2, 4, 5, 1]
    edges, couplings = [], []
    for a, d in enumerate(degrees):
        hood = sorted(rng.sample(range(n), d))
        edges += [(i, a) for i in hood]
        sizes = list(range(1, d + 1)) if a <= 6 else [
            rng.randint(1, d) for _ in range(rng.randint(0, d + 1))
        ]
        terms = [(tuple(sorted(rng.sample(hood, k))), rng.uniform(-1.0, 1.0)) for k in sizes]
        if terms and rng.random() < 0.5:
            terms.append((rng.choice(terms)[0], rng.uniform(-1.0, 1.0)))
        rng.shuffle(terms)
        couplings.append(tuple(terms))
    beta = rng.choice([0.05, 0.7, 3.0])
    return lg.build_factor_graph(n, len(degrees), edges, lg.GeneralWeights(beta, tuple(couplings)))


@pytest.mark.parametrize("seed", range(6))
def test_check_tables_equal_the_per_configuration_oracle_bit_for_bit(seed):
    g = _mixed_general_graph(seed)
    assert len({(len(e), len(t)) for e, t in zip(g.check_edges, g.weights.couplings)}) > 4
    assert bp.check_tables(g) == sp.check_tables(g)
    big = sp.general_instance(3, 4, 40, beta=0.4, seed=seed)
    assert bp.check_tables(big) == sp.check_tables(big)


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
        lg.ActivityEvaluator(wide, zero).table(wide.n)


def test_degree_cap_on_node_tables(monkeypatch):
    # BP runs on the degree-21 parity check, but its 2^21-entry node table is
    # refused before anything is allocated, as is a degree-21 variable's
    terms = lg.ActivityEvaluator._terms

    def small_terms(self, node):
        g = self.graph
        hood = g.var_edges[node] if node < g.n else g.check_edges[node - g.n]
        assert len(hood) <= 20, "a table was built past the degree cap"
        return terms(self, node)

    n = 21
    base = lg.build_factor_graph(n, 1, [(i, 0) for i in range(n)], lg.LdpcWeights((0.1,) * n))
    messages = lg.solve_fixed_point(base).messages
    ev = lg.ActivityEvaluator(base, messages)
    assert ev.table(0).tolist() == [1.0, ev.table(0)[1]]  # a degree-1 variable
    monkeypatch.setattr(lg.ActivityEvaluator, "_terms", small_terms)
    with pytest.raises(DegreeTooLargeError, match="check 0 has degree 21 > 20"):
        ev.values([(0, 1)])
    with pytest.raises(DegreeTooLargeError, match="check 0 has degree 21 > 20"):
        lg.loop_sum_direct(base, messages)
    star = lg.build_factor_graph(1, n, [(0, a) for a in range(n)], lg.LdgmWeights((0.1,) * n))
    messages = lg.solve_fixed_point(star).messages
    with pytest.raises(DegreeTooLargeError, match="variable 0 has degree 21 > 20"):
        lg.ActivityEvaluator(star, messages).table(0)


@pytest.mark.parametrize(
    "graph, node",
    [
        (
            lg.build_factor_graph(
                2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], lg.LdgmWeights((0.3, -800.0))
            ),
            "check 1",
        ),
        (lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdpcWeights((800.0, 0.3))), "variable 0"),
    ],
    ids=["ldgm", "ldpc"],
)
def test_fields_beyond_the_float_range_are_refused(graph, node, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the weights were checked")

    zero = lg.MessageSet(
        kind=graph.weights.kind,
        var_to_check=np.zeros(graph.edge_count),
        check_to_var=np.zeros(graph.edge_count),
    )
    # BP runs on tanh h, which rounds to +-1 without overflowing
    messages = lg.solve_fixed_point(graph).messages
    monkeypatch.setattr("loopgas.loops.log_partition", no_work)
    monkeypatch.setattr("loopgas.expansion.enumerate_polymers", no_work)
    calls = [
        lambda: lg.bethe_free_energy(graph, messages),
        lambda: lg.bethe_free_energies(graph, None, [zero, zero]),
        lambda: lg.bethe_free_energies(graph, sp.field_rows([graph, graph]), [zero, zero]),
        lambda: lg.verify_loop_identity(graph),
        lambda: lg.polymer_series(graph, zero),
        lambda: lg.ActivityEvaluator(graph, zero),
        lambda: lg.loop_sum_direct(graph, zero),
    ]
    for call in calls:
        with pytest.raises(WeightOverflowError, match=rf"^{node}: field \|h\| = 800\.0 exceeds "):
            call()


def test_weight_range_ends_at_the_largest_finite_exponential():
    top = math.log(sys.float_info.max)
    for h in (top, -top):
        g = lg.build_factor_graph(1, 1, [(0, 0)], lg.LdpcWeights((h,)))
        bp.check_weight_range(g)
        assert math.isfinite(math.exp(abs(h)))
        past = lg.build_factor_graph(1, 1, [(0, 0)], lg.LdpcWeights((math.nextafter(h, 2 * h),)))
        with pytest.raises(WeightOverflowError):
            bp.check_weight_range(past)


# ---------------------------------------------------------------------------
# bit for bit against the scalar sweep


def _patterns(family: str, count: int):
    """(graph, field rows, the graph of each row): count channel patterns of
    one topology.  General weights get no rows, only count graphs with
    their own couplings, each its own batch."""
    if family == "ldgm-mixed":
        base = lg.sample_ldgm({2: 0.5, 3: 0.5}, {4: 0.5, 6: 0.5}, 24, 3)
        assert {len(e) for e in base.var_edges} == {2, 3}
        assert {len(e) for e in base.check_edges} == {4, 6}
        p = 0.2
    else:
        kind, l, r = family.split("-")
        n = 8 if r == "4" and kind == "general" else 12
        base = lg.sample_regular_bipartite(int(l), int(r), n, seed=1)
        if kind == "general":
            graphs = [lg.attach_random_general_weights(base, 0.3, seed=s) for s in range(count)]
            return base, None, graphs
        p = 0.3
    rows = sp.field_rows([lg.apply_channel(base, p, seed=s) for s in range(count)])
    return base, rows, [sp.pattern_graph(base, row) for row in rows]


FAMILIES = ["ldpc-3-4", "ldpc-3-6", "ldgm-mixed", "general-3-4", "general-3-6"]
OPTIONS = {
    "default": {},
    "damped": {"damping": 0.3},
    "cut-off": {"max_iter": 4},
}


def _assert_same_result(got, want):
    assert np.array_equal(got.messages.var_to_check, want.messages.var_to_check)
    assert np.array_equal(got.messages.check_to_var, want.messages.check_to_var)
    assert got.iterations == want.iterations
    assert got.residual == want.residual
    assert got.converged == want.converged


@pytest.mark.parametrize("option", [*OPTIONS, "init"])
@pytest.mark.parametrize("family", FAMILIES)
def test_solves_equal_the_scalar_sweep_bit_for_bit(family, option):
    graph, rows, graphs = _patterns(family, 3)
    options = dict(OPTIONS.get(option, {}))
    inits = [None] * len(graphs)
    if option == "init":
        inits = [
            sp.random_messages(g, seed=11 + s, scale=0.4) for s, g in enumerate(graphs)
        ]
    wants = [sp.scalar_solve(g, init=x, **options) for g, x in zip(graphs, inits)]
    for g, x, want in zip(graphs, inits, wants):
        _assert_same_result(lg.solve_fixed_point(g, init=x, **options), want)
    if rows is None:  # general weights: each graph is a batch of one row
        for g, x, want in zip(graphs, inits, wants):
            (res,) = lg.solve_fixed_points(g, inits=None if x is None else [x], **options)
            _assert_same_result(res, want)
        return
    batch_inits = None if option != "init" else inits
    got = lg.solve_fixed_points(graph, rows, inits=batch_inits, **options)
    assert len(got) == len(graphs)
    for res, want in zip(got, wants):
        _assert_same_result(res, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_and_start_equal_the_scalar_sweep_bit_for_bit(family):
    g = _patterns(family, 1)[2][0]
    msgs = sp.random_messages(g, seed=5)
    swept, want = sp.bp_sweep(g, msgs), sp.scalar_sweep(g, msgs)
    assert np.array_equal(swept.var_to_check, want.var_to_check)
    assert np.array_equal(swept.check_to_var, want.check_to_var)
    start, want = lg.initial_messages(g), sp.scalar_initial_messages(g)
    assert np.array_equal(start.var_to_check, want.var_to_check)
    assert np.array_equal(start.check_to_var, want.check_to_var)
    assert lg.residual_of(g, msgs) == sp.scalar_residual(g, msgs)


def test_batch_rows_freeze_at_their_own_iteration():
    base = lg.sample_regular_bipartite(3, 4, 8, seed=2)
    rows = sp.field_rows([lg.apply_channel(base, 0.4, seed=s) for s in range(24)])
    got = lg.solve_fixed_points(base, rows)
    assert len({res.iterations for res in got}) > 1
    for row, res in zip(rows, got):
        _assert_same_result(res, sp.scalar_solve(sp.pattern_graph(base, row)))
    # on a tree the residual reaches 0.0 exactly, so tol = 0 still freezes
    tree = sp.random_tree(9, 0)
    rows = sp.field_rows([lg.apply_channel(tree, 0.3, seed=s) for s in range(4)])
    for row, res in zip(rows, lg.solve_fixed_points(tree, rows, tol=0.0, max_iter=50)):
        assert res.converged and res.residual == 0.0
        want = sp.scalar_solve(sp.pattern_graph(tree, row), tol=0.0, max_iter=50)
        _assert_same_result(res, want)
    assert lg.solve_fixed_points(base, np.empty((0, base.n))) == []


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the field rows were checked")


@pytest.mark.parametrize(
    "call",
    [
        lambda g, rows: lg.solve_fixed_points(g, rows),
        lambda g, rows: lg.bethe_free_energies(g, rows, [lg.initial_messages(g)] * 2),
        lambda g, rows: lg.log_partitions(g, rows),
    ],
    ids=["solve", "bethe", "code-space"],
)
def test_bad_field_rows_are_refused_before_any_sweep_or_elimination(call, monkeypatch):
    monkeypatch.setattr(bp._Batch, "sweep", _no_work)
    monkeypatch.setattr("loopgas.bethe._assemble", _no_work)
    monkeypatch.setattr("loopgas.exact._reduced_rows", _no_work)
    ldpc = sp.ldpc_instance(3, 4, 8, 0.3, 0)  # 8 variable fields, 6 checks
    ldgm = sp.ldgm_instance(2, 4, 12, 0.3, 0)  # 6 check fields, 12 variables
    for g, slots, other in ((ldpc, 8, 6), (ldgm, 6, 12)):
        kind = g.weights.kind
        for shape in ((2, other), (2, slots + 1), (slots,), (1, 2, slots)):
            with pytest.raises(ValueError, match=f"need field rows of {slots} {kind} fields"):
                call(g, np.zeros(shape))
    general = lg.attach_random_general_weights(ldpc, 0.2, seed=0)
    with pytest.raises(WrongWeightKindError, match="channel fields need ldpc or ldgm"):
        call(general, np.zeros((2, 8)))


def test_batch_refuses_a_start_count_other_than_the_row_count():
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)
    start = lg.initial_messages(g)
    with pytest.raises(ValueError, match="one start"):
        lg.solve_fixed_points(g, sp.field_rows([g, g]), inits=[start])
    with pytest.raises(ValueError, match="one start"):
        lg.solve_fixed_points(g, inits=[start, start])


# ---------------------------------------------------------------------------
# graph batches: distinct graphs as the components of one disjoint union


@pytest.mark.parametrize("option", [*OPTIONS, "half-damped", "init"])
@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_graph_batches_equal_solo_and_scalar_solves_bit_for_bit(kind, option):
    graphs = sp.graph_batch(kind)
    options = {"half-damped": {"damping": 0.5}}.get(option, OPTIONS.get(option, {}))
    inits = None
    if option == "init":
        inits = [sp.random_messages(g, seed=3 + s, scale=0.4) for s, g in enumerate(graphs)]
    got = lg.solve_graphs(graphs, inits=inits, **options)
    assert len(got) == len(graphs)
    for k, (g, res) in enumerate(zip(graphs, got)):
        init = None if inits is None else inits[k]
        _assert_same_result(res, sp.scalar_solve(g, init=init, **options))
        _assert_same_result(res, lg.solve_fixed_point(g, init=init, **options))
        (alone,) = lg.solve_graphs([g], inits=None if init is None else [init], **options)
        _assert_same_result(alone, res)
    # the edgeless graph converges at the first sweep with residual 0
    assert (got[1].iterations, got[1].residual, got[1].converged) == (1, 0.0, True)
    assert got[1].messages.var_to_check.shape == (0,)


def test_graph_batch_stops_each_graph_at_its_own_iteration():
    # the trees converge in 5 and 7 sweeps, the (3,4) code takes 88 alone;
    # the batch runs on for the code, which stops unconverged at max_iter
    graphs = [sp.random_tree(9, 0), sp.ldpc_instance(3, 4, 8, 0.3, 1), sp.random_tree(13, 1)]
    got = lg.solve_graphs(graphs, max_iter=12)
    assert [res.converged for res in got] == [True, False, True]
    assert got[1].iterations == 12 and got[0].iterations < 12 and got[2].iterations < 12
    for g, res in zip(graphs, got):
        _assert_same_result(res, sp.scalar_solve(g, max_iter=12))


def test_graph_batch_refusals():
    ldpc, ldgm = sp.ldpc_instance(3, 4, 8, 0.3, 0), sp.ldgm_instance(2, 4, 8, 0.3, 0)
    with pytest.raises(ValueError, match="one weight kind"):
        lg.solve_graphs([ldpc, ldgm])
    with pytest.raises(ValueError, match="one start per component"):
        lg.solve_graphs([ldpc, ldpc], inits=[lg.initial_messages(ldpc)])
    with pytest.raises(ValueError, match=f"need {ldpc.edge_count} messages per direction"):
        starts = [lg.initial_messages(ldpc), lg.initial_messages(ldgm)]
        lg.solve_graphs([ldpc, ldpc], inits=starts)
    assert lg.solve_graphs([]) == []
    # a saturating graph fails the whole batch, as its solo solve fails
    with pytest.raises(SingularDenominatorError):
        lg.solve_graphs([ldpc, _saturated_pair(), ldpc])


# ---------------------------------------------------------------------------
# refusals


def _saturated_pair():
    # tanh(+-40) rounds to +-1: the two variables are certain and contradict
    return lg.build_factor_graph(2, 1, ((0, 0), (1, 0)), lg.LdpcWeights((40.0, -40.0)))


def test_saturated_messages_raise_a_typed_error():
    g = _saturated_pair()
    with pytest.raises(SingularDenominatorError):
        lg.solve_fixed_point(g)
    with pytest.raises(SingularDenominatorError):
        lg.solve_fixed_points(g, sp.field_rows([g, g]))
    with pytest.raises(ZeroDivisionError):
        sp.scalar_solve(g)  # the scalar rule failed untyped on the same division
    bad = lg.MessageSet(
        kind="ldpc",
        var_to_check=np.array([np.nan, 0.1]),
        check_to_var=np.zeros(2),
    )
    with pytest.raises(SingularDenominatorError):
        sp.bp_sweep(g, bad)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"tol": -1.0}, "tol must be a number >= 0"),
        ({"tol": math.nan}, "tol must be a number >= 0"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"damping": 1.0}, "damping must lie in"),
    ],
)
def test_bad_parameters_are_refused_before_any_sweep(options, message, monkeypatch):
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(bp._Batch, "sweep", no_sweep)
    with pytest.raises(ValueError, match=message):
        lg.solve_fixed_point(g, **options)
    with pytest.raises(ValueError, match=message):
        lg.solve_fixed_points(g, **options)


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
