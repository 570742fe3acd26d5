"""Acceptance suite: one test per shipping criterion, each with a summary line.

Every test computes its verdict first, records a single human-readable
PASS/FAIL line (shown in the pytest terminal summary), and only then
asserts, so a failed run still reports the observed numbers.
"""

from __future__ import annotations

import csv
import json
import math
import time

import support as sp
import loopgas as lg
from loopgas import (
    ChannelParams,
    ExpanderParams,
    LdgmWeights,
    apply_channel,
    bethe_free_energy,
    build_factor_graph,
    cayley_tree_count,
    check_expander_exhaustive,
    convergence_criterion_q,
    count_rooted_polymers,
    enumerate_polymers,
    expander_activity_bound,
    f0_restricted,
    high_temperature_activity_bound,
    ldgm_activity_bound,
    ldgm_trivial_activity_bound,
    ldpc_type_activity_bound,
    log_partition,
    loop_sum_direct,
    mckay_rate_function,
    polymer_series,
    rate_function_profile,
    rooted_dary_tree_count,
    sample_regular_bipartite,
    solve_fixed_point,
    solve_lambda0,
    verify_high_noise,
    verify_high_temperature_bounds,
    z_star,
)
from loopgas.cli import _instance_seeds, _sample_ensemble, main
from loopgas.exact import codeword_count_gf2
from loopgas.graphs import binary_entropy
from loopgas.ratefunc import RateFunctionSpec

LN2 = math.log(2.0)

# Mathematical ties between an activity and its bound (the trivial-point
# bound is exactly sharp on full subgraphs of (2,r)-regular instances) may
# round to floats straddling each other; this relative guard absorbs only
# that, never a real violation.
TIE_EPS = 1e-12


def _finish(record, num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record(f"criterion {num:2d} ({name}): {status} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. loop-sum identity across the three weight families


def _identity_mix():
    mix = []
    mix += [("ldpc", 3, 4, 4, p, s) for s in range(5) for p in (0.42, 0.45, 0.49)]
    mix += [("ldpc", 3, 4, 8, p, s) for s in range(5) for p in (0.42, 0.49)]
    mix += [("ldpc", 3, 6, 6, p, s) for s in range(5) for p in (0.40, 0.45, 0.49)]
    mix += [("ldpc", 3, 6, 8, 0.45, s) for s in range(2)]
    mix += [("ldgm", 2, 4, 6, p, s) for s in range(3) for p in (0.40, 0.49)]
    mix += [("ldgm", 3, 6, 6, p, s) for s in range(5) for p in (0.40, 0.44)]
    mix += [("ldgm", 2, 4, 10, p, s) for s in range(5) for p in (0.42, 0.49)]
    mix += [("ldgm", 2, 4, 12, 0.45, s) for s in range(5)]
    mix += [("gen", 3, 4, 4, b, s) for s in range(5) for b in (0.1, 0.3)]
    mix += [("gen", 3, 4, 8, 0.2, s) for s in range(5)]
    mix += [("gen", 2, 4, 8, b, s) for s in range(5) for b in (0.05, 0.25)]
    mix += [("gen", 2, 4, 12, 0.3, s) for s in range(5)]
    return mix


def test_criterion_01_loop_sum_identity(record_criterion):
    t0 = time.perf_counter()
    mix = _identity_mix()
    family_counts = {"ldpc": 0, "ldgm": 0, "gen": 0}
    worst = 0.0
    failures = []
    for kind, l, r, n, x, s in mix:
        if kind == "ldpc":
            graph = sp.ldpc_instance(l, r, n, x, s)
        elif kind == "ldgm":
            graph = sp.ldgm_instance(l, r, n, x, s)
        else:
            graph = sp.general_instance(l, r, n, x, s)
        assert graph.n <= 12 and graph.edge_count <= 24
        result = solve_fixed_point(graph)
        if not (result.converged and result.residual <= 1e-12):
            failures.append((kind, l, r, n, x, s, "bp", result.residual))
            continue
        exact = log_partition(graph).log_z
        f_bethe = bethe_free_energy(graph, result.messages).f_bethe
        lsum = loop_sum_direct(graph, result.messages)
        residual = abs(exact - graph.n * f_bethe - math.log(lsum.total))
        worst = max(worst, residual)
        if residual > 1e-8:
            failures.append((kind, l, r, n, x, s, "identity", residual))
        family_counts[kind] += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and len(mix) >= 100 and elapsed < 300.0
    detail = (
        f"{len(mix) - len(failures)}/{len(mix)} instances "
        f"(ldpc {family_counts['ldpc']}, ldgm {family_counts['ldgm']}, "
        f"general {family_counts['gen']}), worst residual {worst:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (cap 300s)"
    )
    if failures:
        detail += f"; failures: {failures[:3]}"
    _finish(record_criterion, 1, "loop-sum identity", ok, detail)


# ---------------------------------------------------------------------------
# 2. full expansion holds for arbitrary messages


def test_criterion_02_full_expansion_arbitrary_messages(record_criterion):
    instances = []
    for s in range(4):
        instances.append(sp.ldpc_instance(2, 4, 6, 0.35, s))
        instances.append(sp.ldgm_instance(2, 4, 6, 0.42, s))
        instances.append(sp.general_instance(3, 4, 4, 0.2, s))
    for s in range(4):
        instances.append(sp.random_tree(6, seed=s, kind="ldpc"))
    for s in range(4):
        instances.append(sp.random_tree(5, seed=10 + s, kind="ldgm"))
    worst = 0.0
    for k, graph in enumerate(instances):
        assert graph.edge_count <= 14
        messages = sp.random_messages(graph, seed=100 + k, scale=0.6)
        report = sp.verify_full_expansion(graph, messages)
        assert report.subset_count == 2**graph.edge_count
        worst = max(worst, report.residual)
    ok = len(instances) == 20 and worst <= 1e-9
    detail = f"20 instances with random messages, worst residual {worst:.2e} (tol 1e-9)"
    _finish(record_criterion, 2, "message-independent expansion", ok, detail)


# ---------------------------------------------------------------------------
# 3. trees have no loops and an exact Bethe value


def test_criterion_03_tree_exactness(record_criterion):
    trees = []
    for s in range(7):
        trees.append(sp.random_tree(5 + s, seed=s, kind="ldpc"))
    for s in range(7):
        trees.append(sp.random_tree(5 + s, seed=20 + s, kind="ldgm"))
    for s in range(6):
        trees.append(sp.random_general_tree(5 + s, seed=40 + s, beta=0.2))
    worst = 0.0
    loops_seen = 0
    for graph in trees:
        loops_seen += len(sp.enumerate_generalized_loops(graph))
        result = solve_fixed_point(graph)
        assert result.converged
        f_bethe = bethe_free_energy(graph, result.messages).f_bethe
        f_exact = log_partition(graph).log_z / graph.n
        worst = max(worst, abs(f_exact - f_bethe))
    ok = len(trees) == 20 and loops_seen == 0 and worst <= 1e-10
    detail = (
        f"20 trees, {loops_seen} loops found, worst |f - f_bethe| {worst:.2e} (tol 1e-10)"
    )
    _finish(record_criterion, 3, "tree exactness", ok, detail)


# ---------------------------------------------------------------------------
# 4. expansion threshold for the (3,6) ensemble at kappa = 1/2


def test_criterion_04_lambda0_reproduction(record_criterion):
    t0 = time.perf_counter()
    root = solve_lambda0(3, 6, 0.5)
    elapsed = time.perf_counter() - t0
    residual = abs(
        (3 - 1) / 3 * binary_entropy(root)
        - binary_entropy(root * 0.5 * 6) / 6
        - root * 0.5 * 6 * binary_entropy(1.0 / (0.5 * 6))
    )
    rel = abs(root - 7.7e-4) / 7.7e-4
    ok = rel <= 0.05 and residual <= 1e-9 and elapsed < 1.0
    detail = (
        f"lambda0 = {root:.10e} ({rel * 100:.2f}% from 7.7e-4, cap 5%), "
        f"equation residual {residual:.2e} (tol 1e-9), {elapsed * 1e3:.0f}ms (cap 1s)"
    )
    _finish(record_criterion, 4, "lambda0 reproduction", ok, detail)


# ---------------------------------------------------------------------------
# 5. activity bounds hold on every polymer with verified hypotheses


def test_criterion_05_activity_bound_soundness(record_criterion):
    checked = {}
    violations = []

    def scan(label, graph, polymers, messages, bound_fn):
        evaluator = lg.ActivityEvaluator(graph, messages)
        for poly in polymers:
            bound = bound_fn(poly)
            activity = abs(evaluator.value(poly.edge_ids))
            checked[label] = checked.get(label, 0) + 1
            if activity > bound * (1.0 + TIE_EPS):
                violations.append((label, poly.edge_ids, activity, bound))

    # small coupling mass: mu = 0.03 < 1/(2 l_max^2 r_max) = 1/32
    for s in range(3):
        graph = sp.general_instance(2, 4, 8, 0.015, s)
        result = solve_fixed_point(graph)
        assert result.converged
        assert verify_high_temperature_bounds(result.messages, graph)
        scan(
            "high_temperature", graph, enumerate_polymers(graph), result.messages,
            lambda poly, g=graph: high_temperature_activity_bound(g, poly),
        )

    # high-noise type bound: theta = 1 - 2p inside (0, 0.1], messages in the ball
    for s in range(3):
        for p, l, r, n in ((0.455, 3, 4, 4), (0.47, 3, 6, 6)):
            graph = sp.ldpc_instance(l, r, n, p, s)
            result = solve_fixed_point(graph)
            assert result.converged
            assert verify_high_noise(result.messages, ChannelParams(p=p, epsilon=0.1))
            theta = ChannelParams(p=p).theta
            scan(
                "ldpc_type", graph, enumerate_polymers(graph), result.messages,
                lambda poly, g=graph, th=theta: ldpc_type_activity_bound(g, poly, th),
            )

    # small generator fields: h ~ 0.004 < 1/(4 l_max^2 r_max) = 1/64
    for s in range(3):
        graph = sp.ldgm_instance(2, 4, 10, 0.498, s)
        result = solve_fixed_point(graph)
        assert result.converged
        scan(
            "ldgm", graph, enumerate_polymers(graph), result.messages,
            lambda poly, g=graph: ldgm_activity_bound(g, poly),
        )

    # generator ensemble at its all-zero fixed point
    for s in range(3):
        p = 0.45
        graph = sp.ldgm_instance(2, 4, 10, p, s)
        result = solve_fixed_point(graph)
        assert result.converged
        scan(
            "ldgm_trivial", graph, enumerate_polymers(graph), result.messages,
            lambda poly, g=graph, m=result.messages: ldgm_trivial_activity_bound(
                g, poly, p, m
            ),
        )

    # certified expander at theta = 0.01
    base = sample_regular_bipartite(3, 6, 24, seed=59)
    cert = check_expander_exhaustive(base, 5 / 24, 0.5)
    params = ExpanderParams.for_regular(3, 6, 5 / 24, 0.5)
    assert cert.certified
    theta = ChannelParams(p=0.495).theta
    assert theta <= 1e-2
    for chan_seed in range(3):
        graph = apply_channel(base, 0.495, seed=chan_seed)
        result = solve_fixed_point(graph)
        assert result.converged
        scan(
            "expander", graph, enumerate_polymers(graph, max_size=4), result.messages,
            lambda poly, g=graph: expander_activity_bound(g, poly, theta, params, cert),
        )

    total = sum(checked.values())
    ok = not violations and all(count > 0 for count in checked.values())
    per_arm = ", ".join(f"{k} {v}" for k, v in sorted(checked.items()))
    detail = f"{total} polymer/bound pairs ({per_arm}), {len(violations)} violations"
    if violations:
        detail += f"; first: {violations[0]}"
    _finish(record_criterion, 5, "activity-bound soundness", ok, detail)


# ---------------------------------------------------------------------------
# 6. truncated series against the closed-form loop sum on small fixtures


def _ldgm_fixture(n, m, edges, ks):
    fields = [math.atanh(k) for k in ks]
    return build_factor_graph(n, m, edges, LdgmWeights(check_fields=fields))


def test_criterion_06_polymer_series_convergence(record_criterion):
    four_cycle = [(0, 0), (1, 0), (0, 1), (1, 1)]
    fixtures = {
        "single": _ldgm_fixture(2, 2, four_cycle, [0.09, 0.09]),
        "disjoint-pair": _ldgm_fixture(
            4, 4,
            four_cycle + [(2, 2), (3, 2), (2, 3), (3, 3)],
            [0.09] * 4,
        ),
        "shared-variable": _ldgm_fixture(
            3, 4,
            four_cycle + [(1, 2), (2, 2), (1, 3), (2, 3)],
            [0.42] * 4,
        ),
    }
    details = []
    ok = True
    for name, graph in fixtures.items():
        result = solve_fixed_point(graph)
        assert result.converged
        polymers = enumerate_polymers(graph)
        assert len(polymers) <= 3
        evaluator = lg.ActivityEvaluator(graph, result.messages)
        activities = [evaluator.value(p.edge_ids) for p in polymers]
        assert all(abs(a) <= 0.2 for a in activities)
        lsum = loop_sum_direct(graph, result.messages)
        series = polymer_series(graph, result.messages, m_max=6)
        err6 = abs(math.exp(series.partial_sums[5]) - lsum.total)
        cap = 2.0 * sum(abs(a) for a in activities) ** 7
        q = convergence_criterion_q(graph, result.messages).q
        tail_ok = err6 <= cap
        decrease_ok = True
        if q < 0.5:
            ln_total = math.log(lsum.total)
            errors = [abs(s - ln_total) for s in series.partial_sums[:4]]
            decrease_ok = all(a > b for a, b in zip(errors, errors[1:]))
        ok = ok and tail_ok and decrease_ok
        details.append(
            f"{name}: err6 {err6:.1e} <= {cap:.1e} {tail_ok}, q {q:.3f}, "
            f"decrease {'n/a' if q >= 0.5 else decrease_ok}"
        )
    _finish(record_criterion, 6, "polymer-series convergence", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. counting estimates: rooted polymers, d-ary trees, labeled trees


def test_criterion_07_counting_estimates(record_criterion):
    worst_ratio = 0.0
    pairs = 0
    for seed in range(10):
        graph = sample_regular_bipartite(3, 4, 4, seed=seed)
        degree = max(
            max(graph.var_degree(i) for i in range(graph.n)),
            max(graph.check_degree(a) for a in range(graph.m)),
        )
        for root in range(graph.n + graph.m):
            for t in range(1, 11):
                count, cap = count_rooted_polymers(graph, root, t)
                assert cap == math.exp(degree * t)
                worst_ratio = max(worst_ratio, count / cap)
                pairs += 1
    rooted_ok = worst_ratio <= 1.0

    catalan = [1]
    for t in range(1, 11):
        catalan.append(sum(catalan[i] * catalan[t - 1 - i] for i in range(t)))
    catalan_ok = all(rooted_dary_tree_count(2, t) == catalan[t] for t in range(11))

    cayley_ok = True
    for size in range(2, 8):
        total = 0
        stack = [((), 2 * (size - 1), size)]
        while stack:
            prefix, remaining, slots = stack.pop()
            if slots == 0:
                if remaining == 0:
                    total += cayley_tree_count(list(prefix))
                continue
            for d in range(1, remaining - (slots - 1) + 1):
                stack.append((prefix + (d,), remaining - d, slots - 1))
        cayley_ok = cayley_ok and total == size ** (size - 2)

    ok = rooted_ok and catalan_ok and cayley_ok
    detail = (
        f"rooted counts <= e^(dt) on {pairs} (root, t) pairs "
        f"(max ratio {worst_ratio:.3f}), binary-tree counts match Catalan to t = 10: "
        f"{catalan_ok}, labeled-tree counts sum to M^(M-2) for M <= 7: {cayley_ok}"
    )
    _finish(record_criterion, 7, "counting estimates", ok, detail)


# ---------------------------------------------------------------------------
# 8. rate function for the (3,6) ensemble


def test_criterion_08_rate_function(record_criterion):
    t0 = time.perf_counter()
    _value, zs = sp.maximize_f0(3, 1e-3, starts=4096, seed=0)
    z1_err = abs(zs[0] - 0.75)
    f0_err = abs(f0_restricted(3, z_star(3)))
    lam_mid = mckay_rate_function(RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)).value
    profile = rate_function_profile(3, 6, (1e-4, 1e-3, 1e-2), 1e-3)
    values = [res.value for res in profile]
    elapsed = time.perf_counter() - t0
    nondecreasing = values[0] <= values[1] <= values[2]
    ok = (
        z1_err <= 1e-4
        and f0_err <= 1e-8
        and lam_mid < 0.0
        and nondecreasing
        and elapsed < 60.0
    )
    detail = (
        f"z*_1 off by {z1_err:.1e} (tol 1e-4), f0(z*) = {f0_err:.1e} (tol 1e-8), "
        f"rate(1e-3) = {lam_mid:.6f} < 0, profile {[f'{v:.6f}' for v in values]} "
        f"nondecreasing: {nondecreasing}, {elapsed:.1f}s (cap 60s)"
    )
    _finish(record_criterion, 8, "rate function", ok, detail)


# ---------------------------------------------------------------------------
# 9. mean Bethe gap shrinks with size at fixed noise


def _count_inversions(values):
    return sum(1 for a, b in zip(values, values[1:]) if b > a)


def test_criterion_09_bethe_gap_trend(record_criterion, tmp_path):
    t0 = time.perf_counter()
    out_ldpc = tmp_path / "trend_ldpc.csv"
    rc = main([
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", "8,12,16,20", "--p", "0.45", "--instances", "20",
        "--seed", "0", "--threads", "4", "--out", str(out_ldpc),
    ])
    assert rc == 0
    gaps_ldpc = [float(row["mean_gap"]) for row in csv.DictReader(open(out_ldpc))]

    out_ldgm = tmp_path / "trend_ldgm.csv"
    rc = main([
        "trend", "--ensemble", "ldgm", "--l", "3", "--r", "6",
        "--n-list", "6,9,12", "--p", "0.47", "--instances", "20",
        "--seed", "0", "--threads", "4", "--out", str(out_ldgm),
    ])
    assert rc == 0
    gaps_ldgm = [float(row["mean_gap"]) for row in csv.DictReader(open(out_ldgm))]
    elapsed = time.perf_counter() - t0

    inv_ldpc = _count_inversions(gaps_ldpc)
    inv_ldgm = _count_inversions(gaps_ldgm)
    ok = inv_ldpc <= 1 and inv_ldgm <= 1 and elapsed < 900.0
    detail = (
        f"parity-check gaps {[f'{g:.2e}' for g in gaps_ldpc]} ({inv_ldpc} inversions), "
        f"generator gaps {[f'{g:.2e}' for g in gaps_ldgm]} ({inv_ldgm} inversions), "
        f"{elapsed:.1f}s (cap 900s)"
    )
    _finish(record_criterion, 9, "Bethe gap trend", ok, detail)


# ---------------------------------------------------------------------------
# 10. symmetric-channel entropy equals the code dimension


def test_criterion_10_entropy_at_symmetric_channel(record_criterion, tmp_path):
    worst = 0.0
    rows_checked = 0
    for ensemble, l, r, n in (
        ("ldpc-regular", 3, 4, 4),
        ("ldpc-regular", 3, 4, 8),
        ("ldpc-regular", 3, 6, 6),
    ):
        out = tmp_path / f"entropy_{n}.json"
        rc = main([
            "entropy", "--ensemble", ensemble, "--l", str(l), "--r", str(r),
            "--n", str(n), "--p", "0.5", "--instances", "5", "--seed", "3",
            "--threads", "1", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        for row in payload["per_instance"]:
            topo_seed, _chan = _instance_seeds(3, n, row["index"])
            graph = _sample_ensemble(ensemble, l, r, n, topo_seed)
            want = codeword_count_gf2(graph) * LN2 / graph.n
            worst = max(worst, abs(row["h_exact"] - want))
            rows_checked += 1
    ok = rows_checked == 15 and worst <= 1e-10
    detail = (
        f"{rows_checked} instances, worst |H/n - k ln2 / n| = {worst:.2e} (tol 1e-10)"
    )
    _finish(record_criterion, 10, "symmetric-channel entropy", ok, detail)
