"""End-to-end tests of the command-line interface, driven through main(argv).

The process entries (`python -m loopgas`, the `loopgas` script) are run as
subprocesses at the end of the file."""

from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import support as sp
import loopgas
from loopgas import (
    ActivityEvaluator,
    apply_channel,
    bethe_free_energy,
    brute_force_log_partition,
    code_space_log_partition,
    load_graph,
    save_graph,
    solve_fixed_point,
    verify_loop_identity,
)
from loopgas.cli import _instance_seeds, _sample_ensemble, main
from loopgas.exact import codeword_count_gf2, null_space_gf2

LN2 = math.log(2.0)


def _gen(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["gen", *args, "--out", str(path)]) == 0
    return str(path)


def _ldpc_file(tmp_path, l=3, r=4, n=4, seed=2):
    return _gen(
        tmp_path, f"ldpc_{l}_{r}_{n}_{seed}.json",
        "--ensemble", "ldpc-regular",
        "--l", str(l), "--r", str(r), "--n", str(n), "--seed", str(seed),
    )


def _sparse_file(tmp_path, seed=3):
    return _gen(
        tmp_path, f"sparse_{seed}.json",
        "--ensemble", "ldpc-regular",
        "--l", "2", "--r", "4", "--n", "6", "--seed", str(seed),
    )


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_graphs(tmp_path):
    path = _ldpc_file(tmp_path)
    doc = json.loads(open(path).read())
    assert doc["schema_version"] == "1"
    assert doc["weights"]["kind"] == "ldpc"
    assert len(doc["edges"]) == 12
    graph = load_graph(path)
    assert graph.n == 4 and graph.m == 3

    ldgm = _gen(
        tmp_path, "ldgm.json",
        "--ensemble", "ldgm", "--lambda", "3:1.0", "--p-dist", "6:1.0",
        "--n", "6", "--seed", "1",
    )
    doc = json.loads(open(ldgm).read())
    assert doc["weights"]["kind"] == "ldgm"
    assert len(doc["edges"]) == 18

    gen = _gen(
        tmp_path, "general.json",
        "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "4", "--beta", "0.2", "--seed", "5",
    )
    doc = json.loads(open(gen).read())
    assert doc["weights"]["kind"] == "general"
    assert doc["weights"]["beta"] == 0.2
    graph = load_graph(gen)
    for couplings in graph.weights.couplings:
        assert abs(math.fsum(abs(j) for _s, j in couplings) - 1.0) <= 1e-12


def test_gen_validation_exit_codes(tmp_path):
    out = str(tmp_path / "x.json")
    # ldgm without its distributions
    assert main(["gen", "--ensemble", "ldgm", "--n", "6", "--out", out]) == 2
    # general-regular without beta
    assert main([
        "gen", "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "4", "--out", out,
    ]) == 2
    # degree sequence infeasible: n*l not divisible by r
    assert main([
        "gen", "--ensemble", "ldpc-regular",
        "--l", "3", "--r", "6", "--n", "5", "--out", out,
    ]) == 2


# ---------------------------------------------------------------------------
# exact / bp / bethe


def test_exact_matches_library_and_formats(tmp_path):
    path = _sparse_file(tmp_path)
    out = str(tmp_path / "exact.json")
    assert main(["exact", "--graph", path, "--p", "0.4", "--out", out]) == 0
    payload = json.loads(open(out).read())
    graph = apply_channel(load_graph(path), 0.4, 0)
    want = brute_force_log_partition(graph).log_z
    assert abs(payload["log_z"] - want) <= 1e-12
    assert payload["method"] == "bruteforce"
    assert payload["n"] == 6
    assert payload["schema_version"] == "1"
    # at n <= 26 the payload is the brute-force one, key for key and byte for byte
    assert open(out).read() == json.dumps(
        {"log_z": want, "method": "bruteforce", "n": 6, "schema_version": "1"},
        indent=2, sort_keys=True,
    ) + "\n"

    out_csv = str(tmp_path / "exact.csv")
    assert main([
        "exact", "--graph", path, "--p", "0.4", "--format", "csv", "--out", out_csv,
    ]) == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 1
    assert abs(float(rows[0]["log_z"]) - want) <= 1e-12
    assert open(out_csv).readline() == "log_z,method,n\n"


def test_exact_past_the_brute_force_cap(tmp_path):
    ldpc = _ldpc_file(tmp_path, n=40, seed=1)
    out = str(tmp_path / "exact.json")
    assert main(["exact", "--graph", ldpc, "--p", "0.45", "--out", out]) == 0
    payload = json.loads(open(out).read())
    graph = apply_channel(load_graph(ldpc), 0.45, 0)
    assert payload["method"] == "codespace"
    assert payload["n"] == 40
    assert payload["k"] == codeword_count_gf2(graph)
    assert payload["log_z"] == code_space_log_partition(graph).log_z
    # the symmetric channel leaves the codeword count: ln Z = k ln 2
    assert main(["exact", "--graph", ldpc, "--p", "0.5", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert abs(payload["log_z"] - payload["k"] * LN2) <= 1e-12 * payload["log_z"]

    general = _gen(
        tmp_path, "general_40.json", "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "40", "--beta", "0.2",
    )
    assert main(["exact", "--graph", general, "--out", out]) == 3


def test_bp_dumps_named_fixed_point_messages(tmp_path):
    path = _sparse_file(tmp_path)
    out = str(tmp_path / "bp.json")
    assert main(["bp", "--graph", path, "--p", "0.4", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-12

    graph = apply_channel(load_graph(path), 0.4, 0)
    result = solve_fixed_point(graph)
    names = set()
    for e, (i, a) in enumerate(graph.edges):
        names.add(f"v{i}->c{a}")
        names.add(f"c{a}->v{i}")
        assert abs(payload["messages"][f"v{i}->c{a}"] - result.messages.var_to_check[e]) <= 1e-15
        assert abs(payload["messages"][f"c{a}->v{i}"] - result.messages.check_to_var[e]) <= 1e-15
    assert set(payload["messages"]) == names


def test_bethe_breakdown_payload(tmp_path):
    path = _sparse_file(tmp_path)
    out = str(tmp_path / "bethe.json")
    assert main(["bethe", "--graph", path, "--p", "0.4", "--out", out]) == 0
    payload = json.loads(open(out).read())
    graph = apply_channel(load_graph(path), 0.4, 0)
    result = solve_fixed_point(graph)
    breakdown = bethe_free_energy(graph, result.messages)
    assert abs(payload["f_bethe"] - breakdown.f_bethe) <= 1e-14
    assert len(payload["check_terms"]) == graph.m
    assert len(payload["var_terms"]) == graph.n
    assert len(payload["edge_terms"]) == graph.edge_count
    recombined = (
        math.fsum(payload["check_terms"])
        + math.fsum(payload["var_terms"])
        - math.fsum(payload["edge_terms"])
    ) / graph.n
    assert abs(recombined - payload["f_bethe"]) <= 1e-13


# ---------------------------------------------------------------------------
# verify-identity


def test_verify_identity_reports_small_residual(tmp_path):
    path = _ldpc_file(tmp_path)
    out = str(tmp_path / "vi.json")
    rc = main([
        "verify-identity", "--graph", path,
        "--p", "0.45", "--channel-seed", "1", "--out", out,
    ])
    assert rc == 0
    payload = json.loads(open(out).read())
    assert payload["residual"] <= 1e-8
    assert payload["bp_residual"] <= 1e-12
    assert payload["polymer_count"] <= payload["loop_count"]
    assert payload["schema_version"] == "1"
    # the small/large split resums to the full loop series
    total = math.exp(payload["ln_loop_sum"])
    assert abs(payload["z_small"] + payload["r_large"] - total) <= 1e-12 * abs(total)
    # single-edge subsets carry no weight at a fixed point
    assert payload["max_dangling_activity"] <= 1e3 * payload["bp_residual"]


def test_verify_identity_on_tree(tmp_path):
    graph = sp.random_tree(7, seed=11, kind="ldpc")
    path = str(tmp_path / "tree.json")
    save_graph(graph, path)
    out = str(tmp_path / "vi.json")
    rc = main([
        "verify-identity", "--graph", path,
        "--p", "0.3", "--channel-seed", "2", "--out", out,
    ])
    assert rc == 0
    payload = json.loads(open(out).read())
    assert payload["loop_count"] == 0
    assert payload["ln_loop_sum"] == 0.0
    assert payload["residual"] <= 1e-10
    assert abs(payload["f_bethe"] - payload["ln_z_exact"] / graph.n) <= 1e-10


def test_verify_identity_tolerance_exit(tmp_path):
    path = _ldpc_file(tmp_path)
    out = str(tmp_path / "vi.json")
    rc = main([
        "verify-identity", "--graph", path,
        "--p", "0.45", "--tolerance", "1e-300", "--out", out,
    ])
    assert rc == 4
    # the report is still written for inspection
    assert json.loads(open(out).read())["residual"] > 0.0


def test_verify_identity_budget_exit(tmp_path):
    path = _ldpc_file(tmp_path)
    rc = main([
        "verify-identity", "--graph", path, "--p", "0.45",
        "--budget", "5", "--out", str(tmp_path / "vi.json"),
    ])
    assert rc == 3


def test_verify_identity_payload_is_the_library_report(tmp_path):
    path = _ldpc_file(tmp_path)
    out = str(tmp_path / "vi.json")
    rc = main([
        "verify-identity", "--graph", path, "--p", "0.45", "--channel-seed", "1",
        "--split-lambda", "1.5", "--out", out,
    ])
    assert rc == 0
    report = verify_loop_identity(
        apply_channel(load_graph(path), 0.45, 1), split_lambda=1.5
    )
    want = {**dataclasses.asdict(report), "schema_version": "1"}
    assert json.loads(open(out).read()) == want


def test_verify_identity_walks_the_loops_once(tmp_path, monkeypatch):
    import loopgas.loops

    walks = []
    walk = loopgas.loops._walk

    def counted(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(loopgas.loops, "_walk", counted)
    path = _ldpc_file(tmp_path)
    argv = ["verify-identity", "--graph", path, "--p", "0.45",
            "--out", str(tmp_path / "vi.json")]
    assert main(argv) == 0
    assert len(walks) == 1
    # the per-loop CSV is the one extra walk
    assert main(argv + ["--dump-loops", str(tmp_path / "loops.csv")]) == 0
    assert len(walks) == 3


def test_dump_loops_activities_match_the_evaluator(tmp_path):
    # the CSV takes each activity from the walk; ActivityEvaluator.value
    # rebuilds it from the loop's edge list alone
    ldpc = _ldpc_file(tmp_path)
    general = _gen(
        tmp_path, "general_cold.json",
        "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "4", "--beta", "0.005", "--seed", "1",
    )
    for path, flags in [(ldpc, ["--p", "0.42", "--channel-seed", "1"]), (general, [])]:
        loops_csv = str(tmp_path / "loops.csv")
        argv = ["verify-identity", "--graph", path, *flags,
                "--out", str(tmp_path / "vi.json"), "--dump-loops", loops_csv]
        assert main(argv) == 0
        graph = load_graph(path)
        if flags:
            graph = apply_channel(graph, 0.42, 1)
        ev = ActivityEvaluator(graph, solve_fixed_point(graph).messages)
        rows = list(csv.DictReader(open(loops_csv)))
        assert rows
        for row in rows:
            edge_ids = tuple(int(tok) for tok in row["edges"].split("|"))
            want = ev.value(edge_ids)
            got = float(row["activity"])
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), row


def test_dump_loops_rows_and_type_bounds(tmp_path):
    path = _sparse_file(tmp_path)
    out = str(tmp_path / "vi.json")
    loops_csv = str(tmp_path / "loops.csv")
    # theta = 1 - 2p = 0.08 falls inside the type-bound window
    rc = main([
        "verify-identity", "--graph", path,
        "--p", "0.46", "--channel-seed", "1",
        "--out", out, "--dump-loops", loops_csv,
    ])
    assert rc == 0
    payload = json.loads(open(out).read())
    rows = list(csv.DictReader(open(loops_csv)))
    assert len(rows) == payload["loop_count"]
    graph = load_graph(path)
    for row in rows:
        edge_ids = [int(tok) for tok in row["edges"].split("|")]
        assert all(0 <= e < graph.edge_count for e in edge_ids)
        assert row["bound"] != ""
        assert abs(float(row["activity"])) <= float(row["bound"]) + 1e-12

    # theta = 0.12 leaves the window; the bound column is empty
    rc = main([
        "verify-identity", "--graph", path,
        "--p", "0.44", "--channel-seed", "1",
        "--out", out, "--dump-loops", loops_csv,
    ])
    assert rc == 0
    rows = list(csv.DictReader(open(loops_csv)))
    assert rows and all(row["bound"] == "" for row in rows)


def test_dump_loops_leaves_the_bound_empty_outside_its_hypothesis(tmp_path):
    # mu = 0.4 and h = atanh(0.4) are above the high-temperature and ldgm limits
    general = _gen(
        tmp_path, "general_3_6.json",
        "--ensemble", "general-regular",
        "--l", "3", "--r", "6", "--n", "6", "--beta", "0.2", "--seed", "1",
    )
    ldgm = _gen(
        tmp_path, "ldgm_3_6.json",
        "--ensemble", "ldgm", "--lambda", "3:1.0", "--p-dist", "6:1.0",
        "--n", "6", "--seed", "1",
    )
    for path, flags in [(general, []), (ldgm, ["--p", "0.3", "--channel-seed", "1"])]:
        out = str(tmp_path / "vi.json")
        loops_csv = tmp_path / "loops.csv"
        loops_csv.unlink(missing_ok=True)
        argv = ["verify-identity", "--graph", path, *flags,
                "--out", out, "--dump-loops", str(loops_csv)]
        assert main(argv) == 0
        rows = list(csv.DictReader(open(loops_csv)))
        assert len(rows) == json.loads(open(out).read())["loop_count"] > 0
        assert all(row["bound"] == "" for row in rows)


# ---------------------------------------------------------------------------
# series / rate-function


def test_series_csv_and_json_agree(tmp_path):
    path = _sparse_file(tmp_path)
    out_csv = str(tmp_path / "series.csv")
    assert main([
        "series", "--graph", path, "--p", "0.4", "--m-max", "3", "--out", out_csv,
    ]) == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert [row["m"] for row in rows] == ["1", "2", "3"]

    out_json = str(tmp_path / "series.json")
    assert main([
        "series", "--graph", path, "--p", "0.4", "--m-max", "3",
        "--format", "json", "--out", out_json,
    ]) == 0
    payload = json.loads(open(out_json).read())
    assert payload["schema_version"] == "1"
    assert payload["bp_residual"] <= 1e-12
    assert payload["polymer_count"] > 0
    terms = payload["terms"]
    sums = payload["partial_sums"]
    for m, row in enumerate(rows):
        assert abs(float(row["term"]) - terms[m]) <= 1e-15
        assert abs(float(row["partial_sum"]) - sums[m]) <= 1e-15
        assert abs(float(row["q"]) - payload["q"]) <= 1e-15
    running = 0.0
    for term, total in zip(terms, sums):
        running += term
        assert abs(running - total) <= 1e-12


def test_series_budget_exit(tmp_path):
    path = _ldpc_file(tmp_path)
    rc = main([
        "series", "--graph", path, "--p", "0.45", "--m-max", "4",
        "--budget", "20", "--out", str(tmp_path / "series.csv"),
    ])
    assert rc == 3


def test_rate_function_profile_csv(tmp_path):
    out = str(tmp_path / "rate.csv")
    rc = main([
        "rate-function", "--l", "3", "--r", "6",
        "--thetas", "1e-4,1e-3", "--lambda", "1e-3",
        "--starts", "800", "--seed", "0", "--out", out,
    ])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2
    assert list(rows[0]) == ["theta", "value", "x2", "x3", "y2", "y3", "y4", "y5", "y6"]
    assert [float(row["theta"]) for row in rows] == [1e-4, 1e-3]
    values = [float(row["value"]) for row in rows]
    assert values[0] <= values[1] < 0.0


# ---------------------------------------------------------------------------
# trend / entropy


def test_trend_deterministic_across_threads(tmp_path):
    args = [
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", "4,8", "--p", "0.45", "--instances", "3", "--seed", "0",
    ]
    one = tmp_path / "t1.csv"
    two = tmp_path / "t2.csv"
    assert main(args + ["--threads", "1", "--out", str(one)]) == 0
    assert main(args + ["--threads", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    rows = list(csv.DictReader(open(one)))
    assert [row["n"] for row in rows] == ["4", "8"]
    for row in rows:
        assert float(row["fraction_verified"]) == 1.0
        assert float(row["mean_bp_residual"]) <= 1e-10
        assert float(row["mean_gap"]) > 0.0


def test_trend_ldgm_row(tmp_path):
    out = str(tmp_path / "trend.csv")
    rc = main([
        "trend", "--ensemble", "ldgm", "--l", "3", "--r", "6",
        "--n-list", "6", "--p", "0.47", "--instances", "3",
        "--seed", "0", "--threads", "1", "--out", out,
    ])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1
    assert float(rows[0]["fraction_verified"]) == 1.0
    assert float(rows[0]["mean_gap"]) > 0.0


def test_exact_refuses_a_large_code_before_elimination(tmp_path, monkeypatch, capsys):
    # ldpc (3,4) at n = 3000 has k >= n - m = 750: exit 3 before any elimination
    calls = []

    def counting_null_space(*args):
        calls.append(1)
        return null_space_gf2(*args)

    monkeypatch.setattr("loopgas.exact.null_space_gf2", counting_null_space)
    path = _ldpc_file(tmp_path, n=3000, seed=2)
    capsys.readouterr()
    assert main(["exact", "--graph", path, "--p", "0.05"]) == 3
    assert "k = 750 or more" in capsys.readouterr().err
    assert calls == []


def test_rate_function_rejects_nonpositive_starts(capsys):
    for starts in ("0", "-3"):
        rc = main([
            "rate-function", "--l", "3", "--r", "6", "--thetas", "1e-3",
            "--lambda", "1e-3", "--starts", starts,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"starts must be at least 1, got {starts}" in err
        assert "no admissible types" not in err


@pytest.mark.parametrize("command", ["trend", "entropy"])
def test_trend_and_entropy_refuse_fewer_than_one_instance(command, tmp_path, capsys):
    sizes = ["--n-list", "8"] if command == "trend" else ["--n", "8"]
    out = tmp_path / f"{command}.json"
    for instances in ("0", "-2"):
        rc = main([
            command, "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", *sizes,
            "--p", "0.45", "--instances", instances, "--seed", "0", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: --instances must be at least 1, got {instances}" in err
        assert "fmean" not in err
        assert not out.exists()


def test_trend_and_entropy_refuse_an_over_cap_code_before_bp(tmp_path, monkeypatch):
    # (3,6) at n = 60 has k >= 30 > 26: exit 3 without a single BP solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve_fixed_point(*args, **kwargs)

    monkeypatch.setattr("loopgas.cli.solve_fixed_point", counting_solve)
    rc = main([
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "6",
        "--n-list", "60", "--p", "0.45", "--instances", "2", "--seed", "0",
        "--threads", "1", "--out", str(tmp_path / "trend.csv"),
    ])
    assert rc == 3
    rc = main([
        "entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "6",
        "--n", "60", "--p", "0.45", "--instances", "2", "--seed", "0",
        "--threads", "1", "--out", str(tmp_path / "entropy.json"),
    ])
    assert rc == 3
    assert calls == []


def test_trend_past_the_brute_force_cap(tmp_path, record_criterion):
    # Reports the gaps; asserts only oracle agreement and identities.
    sizes = (24, 48, 96)
    common = [
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", ",".join(map(str, sizes)), "--instances", "2", "--seed", "5",
        "--threads", "1", "--format", "json",
    ]
    runs = {}
    for p in ("0.45", "0.5"):
        out = tmp_path / f"trend_{p}.json"
        assert main(common + ["--p", p, "--out", str(out)]) == 0
        runs[p] = json.loads(out.read_text())["rows"]
    assert [row["n"] for row in runs["0.45"]] == list(sizes)

    # at n = 24 the codewords can be listed without elimination: recompute
    # each gap from that oracle
    gaps = []
    for index in range(2):
        topo, channel = _instance_seeds(5, 24, index)
        graph = apply_channel(_sample_ensemble("ldpc-regular", 3, 4, 24, topo), 0.45, channel)
        f_bethe = bethe_free_energy(graph, solve_fixed_point(graph).messages).f_bethe
        gaps.append(abs(sp.oracle_ldpc_log_z(graph) / 24 - f_bethe))
    assert runs["0.45"][0]["mean_gap"] == pytest.approx(sum(gaps) / 2, rel=1e-9, abs=1e-15)

    # p = 1/2 at every size: ln Z = k ln 2 and f_bethe = (1 - l/r) ln 2
    for n, row in zip(sizes, runs["0.5"]):
        want = []
        for index in range(2):
            topo, _channel = _instance_seeds(5, n, index)
            graph = _sample_ensemble("ldpc-regular", 3, 4, n, topo)
            want.append(abs(codeword_count_gf2(graph) / n - 0.25) * LN2)
        assert row["mean_gap"] == pytest.approx(sum(want) / 2, abs=1e-12)
    record_criterion(
        "trend past n = 26 (reported, not gated): ldpc (3,4) p = 0.45 mean gaps "
        + ", ".join(f"n={row['n']}: {row['mean_gap']:.2e}" for row in runs["0.45"])
    )


def test_entropy_refuses_bad_p_and_samples_before_any_sum(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_code_space(*args):
        calls.append(1)
        return code_space_log_partition(*args)

    monkeypatch.setattr("loopgas.cli.code_space_log_partition", counting_code_space)
    common = [
        "entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n", "8", "--instances", "2", "--seed", "0", "--threads", "1",
        "--out", str(tmp_path / "entropy.json"),
    ]
    for p in ("0", "1", "0.7"):
        capsys.readouterr()
        assert main(common + ["--p", p]) == 2
        assert f"error: p must lie in (0, 1/2], got {float(p)}" in capsys.readouterr().err
    rc = main(common + ["--p", "0.45", "--exhaustive-limit", "0", "--mc-samples", "0"])
    assert rc == 2
    assert "error: mc_samples must be at least 1, got 0" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "entropy.json").exists()


def test_entropy_symmetric_channel_matches_code_dimension(tmp_path):
    out = str(tmp_path / "entropy.json")
    rc = main([
        "entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n", "4", "--p", "0.5", "--instances", "3", "--seed", "1",
        "--threads", "1", "--out", out,
    ])
    assert rc == 0
    payload = json.loads(open(out).read())
    assert payload["schema_version"] == "1"
    assert len(payload["per_instance"]) == 3
    for row in payload["per_instance"]:
        assert row["method"] == "degenerate"
        assert row["patterns"] == 1
        topo_seed, _channel_seed = _instance_seeds(1, 4, row["index"])
        graph = _sample_ensemble("ldpc-regular", 3, 4, 4, topo_seed)
        want = codeword_count_gf2(graph) * LN2 / graph.n
        assert abs(row["h_exact"] - want) <= 1e-10


def test_instance_seed_streams_do_not_collide():
    # neighbouring base seeds, and neighbouring sizes, share no instance
    for index in range(3):
        assert set(_instance_seeds(1, 8, index)).isdisjoint(
            _instance_seeds(0, 8, index + 1)
        )
    assert set(_instance_seeds(0, 8, 131)).isdisjoint(_instance_seeds(0, 9, 0))
    topo, channel = _instance_seeds(0, 8, 0)
    assert topo != channel
    assert _instance_seeds(0, 8, 0) == (topo, channel)


def test_entropy_exhaustive_average(tmp_path):
    out = str(tmp_path / "entropy.json")
    rc = main([
        "entropy", "--ensemble", "ldgm", "--l", "2", "--r", "4",
        "--n", "4", "--p", "0.4", "--instances", "2", "--seed", "0",
        "--threads", "1", "--exhaustive-limit", "20", "--out", out,
    ])
    assert rc == 0
    payload = json.loads(open(out).read())
    for row in payload["per_instance"]:
        assert row["method"] == "exhaustive"
        assert row["patterns"] >= 2
        assert math.isfinite(row["gap"])
    assert payload["max_abs_gap"] >= payload["mean_abs_gap"] >= 0.0


# ---------------------------------------------------------------------------
# plumbing


def test_argparse_and_io_exit_codes(tmp_path):
    assert main(["bogus"]) == 2
    assert main(["exact"]) == 2
    assert main(["exact", "--graph", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]]}', "lacks the key 'weights'"),
        ("[1, 2, 3]", "must be an object, not list"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1]], "weights": {"kind": "ldpc", '
         '"fields": [0.1, 0.2]}}', "wrong shape"),
        ('{"n": 2, "m": 1, "edges": [], "weights": ["ldpc"]}', "wrong shape"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "ldpc", '
         '"fields": ["a", "b"]}}', "wrong shape"),
    ],
    ids=["no-weights", "top-level-array", "short-edge", "weights-array", "text-field"],
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["exact", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["bethe", "verify-identity", "exact"])
def test_graph_without_variables_exits_2(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(
        '{"n": 0, "m": 0, "edges": [], "weights": {"kind": "ldpc", "fields": []}}'
    )
    assert main([command, "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n >= 1" in err


def test_default_output_is_stdout(tmp_path, capsys):
    path = _sparse_file(tmp_path)
    assert main(["exact", "--graph", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6


def test_written_files_use_lf_line_endings(tmp_path):
    path = _ldpc_file(tmp_path)
    out = str(tmp_path / "vi.json")
    loops_csv = str(tmp_path / "loops.csv")
    main([
        "verify-identity", "--graph", path, "--p", "0.45",
        "--out", out, "--dump-loops", loops_csv,
    ])
    for name in (path, out, loops_csv):
        assert b"\r" not in open(name, "rb").read()


_SMOKE_GEN = [
    "gen", "--ensemble", "ldpc-regular",
    "--l", "2", "--r", "4", "--n", "6", "--seed", "3",
]


def _run_cli(command):
    """Run the CLI in a separate process, importing the loopgas under test."""
    env = dict(os.environ)
    src = str(Path(loopgas.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        command, capture_output=True, text=True, timeout=60, env=env,
    )


def _check_smoke_gen(proc):
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == "1"
    assert len(doc["edges"]) == 12


def test_console_script_smoke(tmp_path, capsys):
    proc = _run_cli([sys.executable, "-m", "loopgas", *_SMOKE_GEN])
    _check_smoke_gen(proc)
    assert main(_SMOKE_GEN) == 0
    assert proc.stdout == capsys.readouterr().out

    missing = str(tmp_path / "missing.json")
    proc = _run_cli(
        [sys.executable, "-m", "loopgas", "exact", "--graph", missing, "--p", "0.4"]
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.skipif(
    shutil.which("loopgas") is None, reason="loopgas console script not installed"
)
def test_installed_console_script_smoke():
    _check_smoke_gen(_run_cli(["loopgas", *_SMOKE_GEN]))


def test_console_script_target_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["loopgas"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert entry is importlib.import_module("loopgas.__main__").main_entry
