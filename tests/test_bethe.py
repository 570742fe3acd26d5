"""Bethe free energy: tree exactness, breakdown, stationarity, soft limits."""

from __future__ import annotations

import math

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import BoundaryTooCloseError, LogDomainError

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
        exact = lg.log_partition(g).log_z / g.n
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
    loops = sp.enumerate_generalized_loops(g)
    assert len(loops) == 1
    k = ev.value(loops[0].edge_ids)
    exact = lg.log_partition(g).log_z
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
        log_z = lg.log_partition(gg).log_z
        gaps.append(math.exp(log_z - beta * g0.m) - 2.0**k)
    assert all(gap > 0.0 for gap in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.15


# ---------------------------------------------------------------------------
# the bucketed assembly against the node-by-node oracle


def _same_topology(kind: str) -> list:
    """Three graphs of one topology with different weights."""
    if kind == "ldpc":
        return [sp.ldpc_instance(3, 6, 12, 0.3, 0, chan_seed=s) for s in range(3)]
    if kind == "ldgm":
        return [sp.ldgm_instance(3, 6, 12, 0.35, 1, chan_seed=s) for s in range(3)]
    base = sp.general_instance(3, 4, 8, 0.15, 2)
    return [lg.attach_random_general_weights(base, beta=0.15, seed=s) for s in range(3)]


def _message_sets(g) -> dict:
    fixed = lg.solve_fixed_point(g).messages
    perturbed = fixed.copy()
    perturbed.var_to_check[0] += 0.05
    perturbed.check_to_var[-1] -= 0.07
    damped = lg.solve_fixed_point(g, init=sp.random_messages(g, seed=5), damping=0.4)
    unconverged = lg.solve_fixed_point(g, init=sp.random_messages(g, seed=6), max_iter=2)
    assert not unconverged.converged
    return {
        "fixed point": fixed,
        "damped": damped.messages,
        "unconverged": unconverged.messages,
        "perturbed": perturbed,
        "random": sp.random_messages(g, seed=3, scale=0.9),
        "near-saturated": _near_saturated(g, seed=4),
    }


def _near_saturated(g, seed):
    # |t| in [0.9, 0.999]: check products stay O(1), so their rounding shows
    rng = np.random.default_rng(seed)
    size = (2, g.edge_count)
    t = rng.uniform(0.9, 0.999, size=size) * rng.choice([-1.0, 1.0], size=size)
    return lg.MessageSet(kind=g.weights.kind, var_to_check=t[0], check_to_var=t[1])


def _hexes(bd) -> tuple:
    return (
        bd.f_bethe.hex(),
        [x.hex() for x in bd.check_terms],
        [x.hex() for x in bd.var_terms],
        [x.hex() for x in bd.edge_terms],
    )


def _outcome(assemble):
    try:
        return "ok", _hexes(assemble())
    except LogDomainError as exc:
        return "LogDomainError", str(exc)


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_assembly_terms_equal_the_scalar_oracle_bit_for_bit(kind):
    graphs = _same_topology(kind)
    rows = []
    for g in graphs:
        for label, msgs in _message_sets(g).items():
            want = _hexes(sp.scalar_bethe_free_energy(g, msgs))
            assert _hexes(lg.bethe_free_energy(g, msgs)) == want, label
            rows.append((g, msgs, want))
    order = [7, 0, 14, 3, 11, 17, 1, 9, 4, 16, 13, 2, 8, 5, 12, 6, 15, 10]
    picked = [rows[k] for k in order]
    # without field rows, every message set is a row under the graph's own
    # weights: the one batch general weights get
    for g in graphs:
        mine = [(msgs, want) for h, msgs, want in picked if h is g]
        batch = lg.bethe_free_energies(g, None, [msgs for msgs, _want in mine])
        assert [_hexes(bd) for bd in batch] == [want for _msgs, want in mine]
    if kind == "general":
        return
    # one batch of field rows mixing every pattern and message set, shuffled
    fields = sp.field_rows([h for h, _msgs, _want in picked])
    batch = lg.bethe_free_energies(graphs[0], fields, [msgs for _h, msgs, _want in picked])
    assert [_hexes(bd) for bd in batch] == [want for _h, _msgs, want in picked]
    for row, (_h, msgs, want) in zip(fields, picked):
        assert _hexes(lg.bethe_free_energy(sp.pattern_graph(graphs[0], row), msgs)) == want


def _bad_messages(g) -> dict:
    """Message sets whose log arguments reach <= 0 at one node."""
    fixed = lg.solve_fixed_point(g).messages
    out = {}
    var_bad = fixed.copy()
    e0, e1 = g.var_edges[1][:2]
    var_bad.check_to_var[e0], var_bad.check_to_var[e1] = 1.0, -1.0
    out["variable"] = var_bad
    edge_bad = fixed.copy()
    edge_bad.var_to_check[5], edge_bad.check_to_var[5] = 1.0, -1.0
    out["edge"] = edge_bad
    # a check argument crosses zero for messages outside [-1, 1]; one of the
    # two signs drives check 2 negative whatever its weights
    for big in (50.0, -50.0):
        check_bad = fixed.copy()
        check_bad.var_to_check[list(g.check_edges[2])] = 1.0
        check_bad.var_to_check[g.check_edges[2][0]] = big
        out[f"check {big}"] = check_bad
    return out


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_assembly_log_domain_errors_name_the_oracle_node(kind):
    graphs = _same_topology(kind)
    g = graphs[0]
    bad = _bad_messages(g)
    named = set()
    for label, msgs in bad.items():
        want = _outcome(lambda: sp.scalar_bethe_free_energy(g, msgs))
        assert _outcome(lambda: lg.bethe_free_energy(g, msgs)) == want, label
        if want[0] == "LogDomainError":
            named.add(want[1].split()[0])
    assert named == {"check", "variable", "edge"}

    # inside a batch the first failing row raises, as a loop over rows would
    good = [_message_sets(h)["fixed point"] for h in graphs]
    for msgs in bad.values():
        rows = [good[0], good[1], msgs, bad["edge"]]
        # general weights get no field rows: every row is g under its own
        gs = [g] * 4 if kind == "general" else [graphs[0], graphs[1], g, g]
        fields = None if kind == "general" else sp.field_rows(gs)
        want = None
        for h, m in zip(gs, rows):
            want = _outcome(lambda: sp.scalar_bethe_free_energy(h, m))
            if want[0] != "ok":
                break
        got = _outcome(lambda: lg.bethe_free_energies(g, fields, rows)[-1])
        assert got == want


def test_stationarity_equals_the_scalar_oracle():
    graphs = [
        sp.ldpc_instance(3, 6, 12, 0.3, 0),
        sp.ldgm_instance(3, 6, 12, 0.35, 1),
        sp.general_instance(3, 4, 8, 0.15, 2),
        sp.random_tree(9, 3, "ldpc"),
    ]
    for g in graphs:
        msgs = lg.solve_fixed_point(g).messages
        assert lg.stationarity_check(g, msgs) == sp.scalar_stationarity(g, msgs)
    pert = lg.solve_fixed_point(graphs[0]).messages.copy()
    pert.var_to_check[0] += 0.05
    assert lg.stationarity_check(graphs[0], pert) == sp.scalar_stationarity(
        graphs[0], pert
    )


def test_assembly_refuses_mismatched_batches():
    g = sp.ldpc_instance(3, 6, 12, 0.3, 0)
    msgs = lg.solve_fixed_point(g).messages
    with pytest.raises(ValueError, match="one message set per field row"):
        lg.bethe_free_energies(g, sp.field_rows([g, g]), [msgs])
    short = lg.MessageSet(
        kind="ldpc", var_to_check=msgs.var_to_check[:-1], check_to_var=msgs.check_to_var[:-1]
    )
    for fields in (None, sp.field_rows([g])):
        with pytest.raises(ValueError, match="messages per direction"):
            lg.bethe_free_energies(g, fields, [short])
    assert lg.bethe_free_energies(g, None, []) == []
    assert lg.bethe_free_energies(g, np.empty((0, g.n)), []) == []


# ---------------------------------------------------------------------------
# graph batches: distinct graphs as the components of one assembly


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_graph_batch_assembly_equals_the_scalar_oracle_bit_for_bit(kind):
    graphs = sp.graph_batch(kind)
    labels = ["damped", None, "near-saturated", "random"]  # the second is edgeless
    messages = [
        lg.solve_fixed_point(g).messages if label is None else _message_sets(g)[label]
        for g, label in zip(graphs, labels)
    ]
    want = [_hexes(sp.scalar_bethe_free_energy(g, m)) for g, m in zip(graphs, messages)]
    assert [_hexes(bd) for bd in lg.bethe_graphs(graphs, messages)] == want
    for g, m, one in zip(graphs, messages, want):
        assert [_hexes(bd) for bd in lg.bethe_graphs([g], [m])] == [one]
        assert _hexes(lg.bethe_free_energy(g, m)) == one


@pytest.mark.parametrize("kind", ["ldpc", "ldgm", "general"])
def test_graph_batch_log_domain_errors_name_the_first_failing_graph(kind):
    # the first failing graph raises, naming its own node, as a loop over
    # the graphs would, even where a later graph fails at an earlier node kind
    graphs = sp.graph_batch(kind)
    good = [lg.solve_fixed_point(g).messages for g in graphs]
    seen = set()
    for bad in _bad_messages(graphs[2]).values():
        for late in _bad_messages(graphs[3]).values():
            messages = [good[0], good[1], bad, late]
            want = None
            for g, m in zip(graphs, messages):
                want = _outcome(lambda: sp.scalar_bethe_free_energy(g, m))
                if want[0] != "ok":
                    break
            assert _outcome(lambda: lg.bethe_graphs(graphs, messages)[-1]) == want
            if want[0] != "ok":
                seen.add(want[1].split()[0])
    assert seen == {"check", "variable", "edge"}


def test_graph_batch_assembly_refuses_mismatched_batches():
    g, h = sp.ldpc_instance(3, 6, 12, 0.3, 0), sp.ldgm_instance(2, 4, 8, 0.3, 0)
    msgs, other = lg.solve_fixed_point(g).messages, lg.solve_fixed_point(h).messages
    with pytest.raises(ValueError, match="one message set per graph"):
        lg.bethe_graphs([g, g], [msgs])
    with pytest.raises(ValueError, match=f"need {g.edge_count} messages per direction"):
        lg.bethe_graphs([g, g], [msgs, other])
    with pytest.raises(ValueError, match="one weight kind"):
        lg.bethe_graphs([g, h], [msgs, other])
    assert lg.bethe_graphs([], []) == []
