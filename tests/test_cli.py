"""End-to-end tests of the command-line interface, driven through main(argv).

The process entries (`python -m loopgas`, the `loopgas` script) are run as
subprocesses at the end of the file."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import importlib
import io
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import support as sp
import loopgas
from loopgas import (
    ActivityEvaluator,
    FactorGraph,
    apply_channel,
    attach_random_general_weights,
    bethe_free_energy,
    graph_to_json_dict,
    load_graph,
    log_partition,
    log_partitions,
    sample_regular_bipartite,
    save_graph,
    solve_fixed_point,
    solve_fixed_points,
    solve_graphs,
    verify_loop_identity,
)
from loopgas import ratefunc
from loopgas.cli import (
    COMMANDS,
    _instance_seeds,
    _sample_ensemble,
    build_parser,
    json_text,
    main,
)
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
    report = log_partition(graph)
    want = report.log_z
    assert abs(payload["log_z"] - want) <= 1e-12
    assert payload["method"] == "codewords"
    assert payload["n"] == 6
    assert payload["k"] == codeword_count_gf2(graph)
    assert payload["schema_version"] == "1"
    # the payload is the report, key for key and byte for byte
    assert open(out).read() == json.dumps(
        {"k": report.k, "log_z": want, "method": "codewords", "n": 6, "schema_version": "1"},
        indent=2, sort_keys=True,
    ) + "\n"

    out_csv = str(tmp_path / "exact.csv")
    assert main([
        "exact", "--graph", path, "--p", "0.4", "--format", "csv", "--out", out_csv,
    ]) == 0
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 1
    assert abs(float(rows[0]["log_z"]) - want) <= 1e-12
    assert open(out_csv).readline() == "k,log_z,method,n\n"


def test_exact_past_the_brute_force_cap(tmp_path):
    ldpc = _ldpc_file(tmp_path, n=40, seed=1)
    out = str(tmp_path / "exact.json")
    assert main(["exact", "--graph", ldpc, "--p", "0.45", "--out", out]) == 0
    payload = json.loads(open(out).read())
    graph = apply_channel(load_graph(ldpc), 0.45, 0)
    assert payload["method"] == "codewords"
    assert payload["n"] == 40
    assert payload["k"] == codeword_count_gf2(graph)
    assert payload["log_z"] == log_partition(graph).log_z
    # the symmetric channel leaves the codeword count: ln Z = k ln 2
    assert main(["exact", "--graph", ldpc, "--p", "0.5", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert abs(payload["log_z"] - payload["k"] * LN2) <= 1e-12 * payload["log_z"]

    # general (3,4) at n = 48: 72 couplings of rank 48 leave a dual code of 24
    general = _gen(
        tmp_path, "general_48.json", "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "48", "--beta", "0.2",
    )
    assert main(["exact", "--graph", general, "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert (payload["method"], payload["n"], payload["k"]) == ("dual-code", 48, 24)
    assert payload["log_z"] == log_partition(load_graph(general)).log_z
    # at n = 1000 both routes are past the cap
    general = _gen(
        tmp_path, "general_1000.json", "--ensemble", "general-regular",
        "--l", "3", "--r", "4", "--n", "1000", "--beta", "0.2",
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


def test_bethe_exits_2_on_saturated_messages(tmp_path, capsys):
    # fields of +-40 round tanh to +-1: the two variables contradict with certainty
    graph = loopgas.build_factor_graph(
        2, 1, ((0, 0), (1, 0)), loopgas.LdpcWeights((40.0, -40.0))
    )
    path = str(tmp_path / "saturated.json")
    save_graph(graph, path)
    for command in ("bp", "bethe"):
        assert main([command, "--graph", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero denominator" in err


def test_bethe_refuses_an_overflowing_general_weight(tmp_path, capsys, monkeypatch):
    path = _gen(
        tmp_path, "hot.json",
        "--ensemble", "general-regular", "--l", "3", "--r", "4", "--n", "8",
        "--beta", "1000", "--seed", "1",
    )
    monkeypatch.setattr("loopgas.bp._Batch.sweep", _no_sweep)
    out = tmp_path / "bethe.json"
    assert main(["bethe", "--graph", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check 0: beta * sum |J| = ")
    assert f"exceeds {math.log(sys.float_info.max)}" in err
    assert not out.exists()


_HOT_FIELD_GRAPHS = {
    # |h| = 800: cosh h and exp h overflow a float, tanh h rounds to 1
    "ldgm": (
        lambda: loopgas.build_factor_graph(
            2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], loopgas.LdgmWeights((800.0, 0.3))
        ),
        "check 0",
    ),
    "ldpc": (
        lambda: loopgas.build_factor_graph(
            2, 1, [(0, 0), (1, 0)], loopgas.LdpcWeights((800.0, 0.3))
        ),
        "variable 0",
    ),
}


@pytest.mark.parametrize("kind", sorted(_HOT_FIELD_GRAPHS))
def test_fields_beyond_the_float_range_are_refused_before_any_work(
    kind, tmp_path, capsys, monkeypatch
):
    build, node = _HOT_FIELD_GRAPHS[kind]
    path = str(tmp_path / "hot.json")
    save_graph(build(), path)
    out = tmp_path / "out.json"
    # the exact sum and BP stay in range on this file
    assert main(["exact", "--graph", path]) == 0
    assert main(["bp", "--graph", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr("loopgas.bp._Batch.sweep", _no_sweep)
    monkeypatch.setattr("loopgas.loops.log_partition", _no_sweep)
    for command in ("bethe", "verify-identity", "series"):
        assert main([command, "--graph", path, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {node}: field |h| = 800.0 exceeds "), err
        assert f"exceeds {math.log(sys.float_info.max)}" in err
        assert not out.exists()


def test_bethe_tabulates_each_general_check_once(tmp_path, monkeypatch):
    path = _gen(
        tmp_path, "general.json",
        "--ensemble", "general-regular", "--l", "3", "--r", "4", "--n", "8",
        "--beta", "0.3", "--seed", "1",
    )
    calls = []
    tables = loopgas.bp.check_tables

    def counting_tables(graph):
        calls.append(graph)
        return tables(graph)

    monkeypatch.setattr("loopgas.bp.check_tables", counting_tables)
    out = tmp_path / "bethe.json"
    assert main(["bethe", "--graph", path, "--out", str(out)]) == 0
    assert len(calls) == 1
    graph = load_graph(path)
    assert json.loads(out.read_text())["check_terms"] == list(
        sp.scalar_bethe_free_energy(graph, solve_fixed_point(graph).messages).check_terms
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--bp-tol", "-1"], "tol must be a number >= 0, got -1.0"),
        (["--bp-tol", "nan"], "tol must be a number >= 0, got nan"),
        (["--max-iter", "0"], "max_iter must be at least 1, got 0"),
    ],
)
def test_bethe_refuses_bad_bp_parameters(tmp_path, capsys, monkeypatch, flags, message):
    path = _sparse_file(tmp_path)
    monkeypatch.setattr("loopgas.bp._Batch.sweep", _no_sweep)
    out = tmp_path / "bethe.json"
    assert main(["bethe", "--graph", path, "--p", "0.4", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("a BP sweep ran")


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


@pytest.mark.parametrize(
    "terms, message",
    [
        ([math.inf], "has non-finite activity inf"),
        ([math.nan], "has non-finite activity nan"),
        ([1e308, 1e308], "the loop sum passes the float range"),
    ],
)
def test_verify_identity_exits_2_on_a_non_finite_loop_sum(
    tmp_path, capsys, monkeypatch, terms, message
):
    # the README demo, whose loops of two or more polymers take the terms
    path = _gen(
        tmp_path, "demo.json",
        "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "8", "--seed", "7",
    )
    sp.walk_with_terms(monkeypatch, terms)
    out = tmp_path / "vi.json"
    rc = main([
        "verify-identity", "--graph", path, "--p", "0.42", "--channel-seed", "1",
        "--out", str(out),
    ])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


# every function that does a subcommand's work, patched to fail below
_NO_WORK = [
    "loops._walk", "cli._load_graph_arg", "cli.sample_regular_bipartite", "cli.log_partition",
    "cli.solve_fixed_point", "cli.polymer_series", "cli.rate_function_profile",
    "cli._trend_instances", "cli._entropy_instance",
]
_VERIFY = ["verify-identity", "--graph", "{graph}", "--p", "0.42", "--channel-seed", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(_VERIFY, "--out", id="--out"),
        pytest.param(_VERIFY, "--dump-loops", id="--dump-loops"),
    ]
    + [
        pytest.param(argv, "--out", id=argv[0])
        for argv in [
            ["gen", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "4"],
            ["exact", "--graph", "{graph}"],
            ["bp", "--graph", "{graph}"],
            ["bethe", "--graph", "{graph}"],
            ["series", "--graph", "{graph}", "--p", "0.42"],
            ["rate-function", "--l", "3", "--r", "4", "--thetas", "1e-3", "--lambda", "0.1"],
            ["trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n-list", "8",
             "--p", "0.45", "--instances", "2", "--threads", "1"],
            ["entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "8",
             "--p", "0.1", "--instances", "2", "--threads", "1"],
        ]
    ],
)
def test_verify_identity_refuses_a_missing_directory_before_any_work(
    argv, flag, tmp_path, capsys, monkeypatch
):
    # an output path that cannot be written is refused before any work, for
    # verify-identity's --out and --dump-loops and every other subcommand's
    # --out, so no payload reaches stdout
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    path = _ldpc_file(tmp_path)
    for name in _NO_WORK:
        monkeypatch.setattr(f"loopgas.{name}", no_work)
    missing = tmp_path / "missing" / "out.txt"
    argv = [word.format(graph=path) for word in argv]
    assert main([*argv, flag, str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: directory of {missing} does not exist\n"
    assert not missing.parent.exists()


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


def test_graphs_past_709_nodes_give_finite_payloads(tmp_path):
    # e^(n + m) and the ring's e^800 are past float range; q = e^800 |K| is not
    payloads = {}
    for name, closed in (("path", False), ("ring", True)):
        path = str(tmp_path / f"{name}.json")
        save_graph(sp.chain(400, closed), path)
        out = tmp_path / f"{name}.identity.json"
        assert main([
            "verify-identity", "--graph", path, "--p", "0.3",
            "--format", "json", "--out", str(out),
        ]) == 0
        payloads[name] = json.loads(out.read_text())
        out = tmp_path / f"{name}.series.json"
        assert main([
            "series", "--graph", path, "--p", "0.3", "--m-max", "1",
            "--format", "json", "--out", str(out),
        ]) == 0
        series = json.loads(out.read_text())
        assert series["q"] == payloads[name]["q"]
    for payload in payloads.values():
        assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))
    assert payloads["path"]["loop_count"] == 0 and payloads["path"]["q"] == 0.0
    assert payloads["ring"]["loop_count"] == 1
    assert math.log(payloads["ring"]["q"]) == pytest.approx(645.79, abs=0.01)


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


ENTROPY_THREAD_CASES = {
    "ldpc exhaustive": ["--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "8"],
    "ldpc montecarlo": [
        "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "8",
        "--exhaustive-limit", "4", "--mc-samples", "40",
    ],
    "ldgm exhaustive": ["--ensemble", "ldgm", "--l", "2", "--r", "4", "--n", "12"],
    "ldgm montecarlo": [
        "--ensemble", "ldgm", "--l", "2", "--r", "4", "--n", "12",
        "--exhaustive-limit", "4", "--mc-samples", "40",
    ],
}


@pytest.mark.parametrize("case", list(ENTROPY_THREAD_CASES))
def test_entropy_deterministic_across_threads(tmp_path, case):
    args = ["entropy", *ENTROPY_THREAD_CASES[case], "--p", "0.3", "--instances", "3",
            "--seed", "2"]
    one = tmp_path / "e1.json"
    two = tmp_path / "e2.json"
    assert main(args + ["--threads", "1", "--out", str(one)]) == 0
    assert main(args + ["--threads", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    method = "montecarlo" if "montecarlo" in case else "exhaustive"
    rows = json.loads(one.read_text())["per_instance"]
    assert [row["method"] for row in rows] == [method] * 3


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


def test_rate_function_payload_ignores_seed_and_starts(tmp_path):
    # the solve is deterministic; --seed and --starts still parse, for old
    # command lines, and change nothing
    payloads = []
    for extra in (["--seed", "0"], ["--seed", "7", "--starts", "5"]):
        out = tmp_path / f"rate{len(payloads)}.json"
        rc = main([
            "rate-function", "--l", "3", "--r", "6", "--thetas", "1e-4,1e-3",
            "--lambda", "1e-3", *extra, "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def test_rate_function_unreachable_size_fraction_exits_2(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    rc = main([
        "rate-function", "--l", "11", "--r", "12", "--thetas", "0", "--lambda", "0.1725",
        "--out", str(out),
    ])
    assert rc == 2
    assert "no type of finite rate reaches size fraction 0.1725" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "nan"], "lam must be a finite number, got nan"),
        (["--alpha1", "nan"], "alpha1 must be a finite number, got nan"),
        (["--alpha2", "inf"], "alpha2 must be a finite number, got inf"),
        (["--thetas", ""], "thetas must hold at least one noise level"),
        (["--l", "4", "--thetas", ""], "thetas must hold at least one noise level"),
    ],
)
def test_rate_function_refuses_bad_parameters_before_sampling(
    tmp_path, capsys, monkeypatch, flags, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("the stationarity family was solved")

    monkeypatch.setattr(ratefunc, "_family_points", no_solve)
    out = tmp_path / "rate.json"
    rc = main([
        "rate-function", "--l", "3", "--r", "6", "--thetas", "1e-3", "--lambda", "1e-3",
        *flags, "--format", "json", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["trend", "entropy"])
def test_trend_and_entropy_refuse_fewer_than_one_thread(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("loopgas.cli.log_partition", _no_sweep)
    monkeypatch.setattr("loopgas.cli.sample_regular_bipartite", _no_sweep)
    sizes = ["--n-list", "8"] if command == "trend" else ["--n", "8"]
    out = tmp_path / f"{command}.json"
    for threads in ("0", "-3"):
        rc = main([
            command, "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", *sizes,
            "--p", "0.45", "--instances", "2", "--threads", threads, "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
        assert not out.exists()


@pytest.mark.parametrize("ensemble", ["ldpc-regular", "ldgm"])
def test_trend_payload_equals_a_per_instance_serial_oracle(ensemble, tmp_path):
    # every instance on its own: the scalar BP sweep and the node-by-node
    # Bethe assembly, then the row statistics; --threads 2 deals the 6 jobs
    # round-robin, 3 to each process, which solves them as one batch
    l, r, p, sizes, count = 3 if ensemble == "ldpc-regular" else 2, 4, 0.45, [8, 12], 3
    channel = loopgas.ChannelParams(p=p, epsilon=0.1)
    want = []
    for n in sizes:
        gaps, residuals, verified = [], [], []
        for index in range(count):
            topo, chan = _instance_seeds(5, n, index)
            g = apply_channel(_sample_ensemble(ensemble, l, r, n, topo), p, chan)
            res = sp.scalar_solve(g)
            f_bethe = sp.scalar_bethe_free_energy(g, res.messages).f_bethe
            gaps.append(abs(log_partition(g).log_z / g.n - f_bethe))
            residuals.append(res.residual)
            if ensemble == "ldpc-regular":
                verified.append(loopgas.verify_high_noise(res.messages, channel))
            else:
                verified.append(loopgas.verify_ldgm_message_bounds(res.messages, g))
        want.append({
            "n": n,
            "mean_gap": statistics.fmean(gaps),
            "std_gap": statistics.pstdev(gaps),
            "mean_bp_residual": statistics.fmean(residuals),
            "fraction_verified": statistics.fmean(1.0 if ok else 0.0 for ok in verified),
        })
    for threads in ("1", "2"):
        out = tmp_path / f"trend{threads}.json"
        assert main([
            "trend", "--ensemble", ensemble, "--l", str(l), "--r", str(r), "--n-list", "8,12",
            "--p", str(p), "--instances", str(count), "--seed", "5", "--threads", threads,
            "--format", "json", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["rows"] == want


def test_trend_and_entropy_refuse_an_over_cap_code_before_bp(tmp_path, monkeypatch):
    # (3,6) at n = 60 has k >= 30 > 26: exit 3 without a single BP solve
    calls = []

    def counting(solve):
        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        return counted

    monkeypatch.setattr("loopgas.cli.solve_fixed_point", counting(solve_fixed_point))
    monkeypatch.setattr("loopgas.cli.solve_fixed_points", counting(solve_fixed_points))
    monkeypatch.setattr("loopgas.cli.solve_graphs", counting(solve_graphs))
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


def test_trend_refuses_a_bad_epsilon_before_any_instance(tmp_path, monkeypatch, capsys):
    # n = 400 is far past the code-space cap, which an instance would hit
    # (exit 3) before it read --epsilon
    calls = []

    def no_work(*args, **kwargs):
        calls.append(1)
        raise AssertionError("an instance ran")

    monkeypatch.setattr("loopgas.cli.log_partition", no_work)
    monkeypatch.setattr("loopgas.cli.solve_fixed_point", no_work)
    out = tmp_path / "trend.csv"
    rc = main([
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", "400", "--p", "0.45", "--epsilon", "-1", "--threads", "1",
        "--out", str(out),
    ])
    assert rc == 2
    assert "error: epsilon must be >= 0, got -1.0" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["series", "--m-max", "2", "--size-cutoff", "6", "--z", "nan"],
         "z must be a finite number, got nan"),
        (["series", "--m-max", "2", "--size-cutoff", "6", "--z", "inf"],
         "z must be a finite number, got inf"),
        (["series", "--m-max", "2", "--size-cutoff", "-1"], "size_cutoff must be >= 0, got -1"),
        (["verify-identity", "--split-lambda", "nan"],
         "split_lambda must be a finite number, got nan"),
        (["verify-identity", "--tolerance", "nan"], "--tolerance must be a number, got nan"),
        (["trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n-list", "8",
          "--epsilon", "nan", "--threads", "1"], "epsilon must be >= 0, got nan"),
        (["gen", "--ensemble", "general-regular", "--l", "3", "--r", "4", "--n", "8",
          "--beta", "nan"], "beta must be a finite number > 0, got nan"),
        (["gen", "--ensemble", "general-regular", "--l", "3", "--r", "4", "--n", "8",
          "--beta", "inf"], "beta must be a finite number > 0, got inf"),
    ],
)
def test_bad_numeric_flags_exit_2_before_any_loop_or_exact_sum(
    tmp_path, capsys, monkeypatch, argv, message
):
    # a NaN or infinite flag used to run to exit 0 with NaN in the payload,
    # or to fail deep inside a sum with a message that named no flag
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr("loopgas.loops._walk", no_work)
    monkeypatch.setattr("loopgas.cli.log_partition", no_work)
    if argv[0] == "series":
        monkeypatch.setattr("loopgas.cli._run_bp", no_work)
    source = [] if argv[0] in ("trend", "gen") else ["--graph", _sparse_file(tmp_path)]
    out = tmp_path / "out.json"
    assert main([*argv, *source, "--p", "0.45", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [",", "", " , "])
def test_trend_refuses_an_empty_size_list(sizes, tmp_path, capsys):
    out = tmp_path / "trend.csv"
    rc = main([
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", sizes, "--p", "0.45", "--threads", "1", "--out", str(out),
    ])
    assert rc == 2
    assert f"error: --n-list names no size, got {sizes!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n-list", "8,x",
          "--p", "0.45", "--threads", "1"], "error: --n-list: cannot read 'x' as int"),
        (["trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n-list", "8, 1.5",
          "--p", "0.45", "--threads", "1"], "error: --n-list: cannot read ' 1.5' as int"),
        (["rate-function", "--l", "3", "--r", "6", "--thetas", "1e-3,x", "--lambda", "1e-3"],
         "error: --thetas: cannot read 'x' as float"),
    ],
)
def test_comma_list_errors_name_the_flag_and_the_piece(argv, message, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were read")

    monkeypatch.setattr("loopgas.cli.log_partition", no_work)
    monkeypatch.setattr("loopgas.cli.rate_function_profile", no_work)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_trend_maps_every_size_through_one_pool(monkeypatch, tmp_path):
    # one executor for all (n, index) jobs, dealt round-robin over its
    # processes; the rows regroup by size, as the in-process run orders them
    pools, dealt = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            dealt.extend(chunks)
            return map(fn, dealt)

    args = [
        "trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
        "--n-list", "4,8,4", "--p", "0.45", "--instances", "2", "--seed", "3",
        "--format", "json",
    ]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(args + ["--threads", "1", "--out", str(one)]) == 0
    assert pools == []
    monkeypatch.setattr("loopgas.cli.ProcessPoolExecutor", InlinePool)
    assert main(args + ["--threads", "2", "--out", str(two)]) == 0
    assert pools == [2]
    assert dealt == [[(4, 0), (8, 0), (4, 0)], [(4, 1), (8, 1), (4, 1)]]
    assert one.read_bytes() == two.read_bytes()
    rows = json.loads(one.read_text())["rows"]
    for k, size in enumerate(["4", "8", "4"]):  # each row is its size run alone
        alone = tmp_path / f"alone{k}.json"
        flags = args[:args.index("--n-list") + 1] + [size] + args[args.index("--p"):]
        assert main(flags + ["--threads", "1", "--out", str(alone)]) == 0
        assert json.loads(alone.read_text())["rows"] == [rows[k]]


def _parse_outcome(run) -> tuple:
    """(exit code, stdout, stderr) of run(), which may exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


_TOP_LEVEL_ARGV = [[], ["-h"], ["--help"], ["nosuch"], ["--bogus"], ["nosuch", "--help"]]


@pytest.mark.parametrize(
    "argv",
    [[name, *rest] for name, *_ in COMMANDS
     for rest in (["--help"], ["--bogus"], [], ["--seed", "x"], ["-h", "--bogus"])]
    + _TOP_LEVEL_ARGV,
)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    # main builds only the named command's parser; help and every error must
    # read as from the parser with all nine (a bad flag's message quotes the
    # top-level usage, which lists every subcommand)
    built = []
    monkeypatch.setattr(
        "loopgas.cli.build_parser",
        lambda command=None: built.append(command) or build_parser(command),
    )
    want = _parse_outcome(lambda: build_parser().parse_args(argv))
    assert want[0] in (0, 2)
    assert _parse_outcome(lambda: main(argv)) == want
    if argv and argv[0] in {name for name, *_ in COMMANDS}:
        assert built[0] == argv[0]
    else:
        assert built == [None]


def test_a_valid_command_line_builds_one_subparser(monkeypatch, tmp_path):
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser",
        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw),
    )
    _ldpc_file(tmp_path)
    assert added == ["gen"]


def test_entropy_builds_no_graph_per_pattern(tmp_path, monkeypatch):
    built = []
    init = FactorGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FactorGraph, "__init__", counting)
    counts = {}
    # 3 and 1,500 Monte Carlo patterns, and all 256 patterns of n = 8
    for patterns, flags in (
        (3, ["--exhaustive-limit", "0", "--mc-samples", "3"]),
        (1500, ["--exhaustive-limit", "0", "--mc-samples", "1500"]),
        (256, []),
    ):
        built.clear()
        out = tmp_path / f"entropy_{patterns}.json"
        rc = main([
            "entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
            "--n", "8", "--p", "0.45", "--instances", "1", "--seed", "0",
            "--threads", "1", "--out", str(out), *flags,
        ])
        assert rc == 0
        assert json.loads(out.read_text())["per_instance"][0]["patterns"] == patterns
        counts[patterns] = len(built)
    assert counts[3] == counts[1500] == counts[256] <= 2, counts


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

    def counting_exact(*args):
        calls.append(1)
        return log_partition(*args)

    def counting_exacts(*args):
        calls.append(1)
        return log_partitions(*args)

    monkeypatch.setattr("loopgas.cli.log_partition", counting_exact)
    monkeypatch.setattr("loopgas.cli.log_partitions", counting_exacts)
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


@pytest.mark.parametrize(
    "seed, message",
    [
        ("0", "a BP update met a zero denominator"),
        ("8", "check 0 produced a non-positive log argument"),
    ],
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_entropy_names_the_instance_a_saturating_pattern_stops(
    tmp_path, capsys, seed, message, threads
):
    # instance 2 of 3 at n = 12 holds a channel pattern whose BP or Bethe
    # step fails; the exit code stays 2, and the error says what to re-run
    out = tmp_path / "entropy.json"
    rc = main([
        "entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4", "--n", "12",
        "--p", "0.3", "--instances", "3", "--seed", seed, "--threads", threads,
        "--out", str(out),
    ])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: instance 2 (n = 12): {message}")


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


_LDPC_3_4 = ["--ensemble", "ldpc-regular", "--l", "3", "--r", "4"]
_SAMPLED = ["--exhaustive-limit", "4"]
# (flags, CHANNEL_CHUNK): a small chunk makes a class recur across chunks
ENTROPY_GAUGE_CASES = {
    "ldpc-3-4-n8 exhaustive": ([*_LDPC_3_4, "--n", "8"], 37),
    "ldpc-3-4-n8 exhaustive max-iter 60": ([*_LDPC_3_4, "--n", "8", "--max-iter", "60"], None),
    "ldpc-3-4-n8 montecarlo max-iter 60": (
        [*_LDPC_3_4, "--n", "8", *_SAMPLED, "--mc-samples", "90", "--max-iter", "60"], 37
    ),
    "ldpc-3-4-n12 montecarlo": ([*_LDPC_3_4, "--n", "12", *_SAMPLED, "--mc-samples", "60"], None),
    "ldgm-2-4-n12 exhaustive": (["--ensemble", "ldgm", "--l", "2", "--r", "4", "--n", "12"], 5),
    "ldgm-2-4-n12 montecarlo": (
        ["--ensemble", "ldgm", "--l", "2", "--r", "4", "--n", "12", *_SAMPLED, "--mc-samples", "30"],
        None,
    ),
    "ldgm-3-6-n6 exhaustive": (["--ensemble", "ldgm", "--l", "3", "--r", "6", "--n", "6"], None),
}


def _entropy_row(tmp_path, flags: list[str]) -> dict:
    out = tmp_path / "entropy.json"
    assert main([
        "entropy", *flags, "--p", "0.3", "--instances", "1", "--seed", "5", "--threads", "1",
        "--out", str(out),
    ]) == 0
    (row,) = json.loads(out.read_text())["per_instance"]
    return row


def _entropy_graph(flags: list[str]):
    """The parsed flags, the channel seed and the graph of instance 0 at seed 5."""
    args = build_parser("entropy").parse_args(["entropy", *flags, "--p", "0.3"])
    topo, channel = _instance_seeds(5, args.n, 0)
    return args, channel, _sample_ensemble(args.ensemble, args.l, args.r, args.n, topo)


@pytest.mark.parametrize("case", list(ENTROPY_GAUGE_CASES))
def test_entropy_bethe_side_equals_the_per_pattern_scalar_oracle(case, tmp_path, monkeypatch):
    # one solve per gauge class gives every pattern the float that its own
    # scalar BP and node-by-node Bethe assembly give, and bp_unconverged
    # counts patterns, not classes
    flags, chunk = ENTROPY_GAUGE_CASES[case]
    if chunk is not None:
        monkeypatch.setattr("loopgas.exact.CHANNEL_CHUNK", chunk)
    row = _entropy_row(tmp_path, flags)
    args, channel, graph = _entropy_graph(flags)
    unconverged = []

    def scalar_f_bethe(g):
        result = sp.scalar_solve(g, max_iter=args.max_iter)
        unconverged.append(not result.converged)
        return sp.scalar_bethe_free_energy(g, result.messages).f_bethe

    avg = sp.oracle_channel_average(
        graph, 0.3, scalar_f_bethe, exhaustive_limit=args.exhaustive_limit,
        mc_samples=args.mc_samples, seed=channel,
    )
    if graph.weights.kind == "ldpc":
        want = loopgas.conditional_entropy_ldpc(avg.mean, 0.3)
    else:
        want = loopgas.conditional_entropy_ldgm(avg.mean, 0.3, graph.m / graph.n)
    assert row["h_bethe"] == want
    assert row["patterns"] == len(unconverged)
    assert row["bp_unconverged"] == sum(unconverged)
    if "max-iter" in case:
        assert 0 < row["bp_unconverged"] < row["patterns"]


@pytest.mark.parametrize(
    "flags, chunks",
    [
        ([*_LDPC_3_4, "--n", "12"], 4),
        ([*_LDPC_3_4, "--n", "12", *_SAMPLED, "--mc-samples", "1500"], 2),
        (["--ensemble", "ldgm", "--l", "2", "--r", "4", "--n", "12"], 1),
        (["--ensemble", "ldgm", "--l", "3", "--r", "6", "--n", "6"], 1),
    ],
)
def test_entropy_solves_bp_once_per_gauge_class(flags, chunks, tmp_path, monkeypatch):
    solved, seen = [], []

    def counting_solve(graph, fields, **kwargs):
        solved.append(len(fields))
        return solve_fixed_points(graph, fields, **kwargs)

    def recording_keys(graph, fields):
        seen.append(fields.tolist())
        return loopgas.exact.gauge_keys(graph, fields)

    monkeypatch.setattr("loopgas.cli.solve_fixed_points", counting_solve)
    monkeypatch.setattr("loopgas.cli.gauge_keys", recording_keys)
    row = _entropy_row(tmp_path, flags)
    _args, _channel, graph = _entropy_graph(flags)
    patterns = [fields for chunk in seen for fields in chunk]
    classes = set(sp.oracle_gauge_classes(graph, patterns))
    assert len(seen) == chunks and len(patterns) == row["patterns"]
    assert sum(solved) == len(classes) < row["patterns"]
    if row["method"] == "exhaustive":
        assert len(classes) == row["patterns"] // len(sp.oracle_gauge_flips(graph))


def test_entropy_refuses_a_runaway_enumeration_before_any_solve(tmp_path, monkeypatch, capsys):
    # (3,4) at n = 40 passes the codeword cap (k >= 10), but 2^40 patterns
    # are refused with exit 3 before any ln Z or BP
    def no_work(*args, **kwargs):
        raise AssertionError("a pattern was evaluated")

    monkeypatch.setattr("loopgas.cli.log_partitions", no_work)
    monkeypatch.setattr("loopgas.cli.solve_fixed_points", no_work)
    out = tmp_path / "entropy.json"
    rc = main([
        "entropy", *_LDPC_3_4, "--n", "40", "--p", "0.45", "--instances", "1",
        "--exhaustive-limit", "40", "--threads", "1", "--out", str(out),
    ])
    assert rc == 3
    assert "2^40 sign patterns exceeds the cap 2^26" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plumbing


_WRITER_CASES = {
    "special-floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1],
    "ints-bools-none": {"big": 10**40, "neg": -(2**70), "flags": [True, False, None, 0, 1]},
    "empty": {"list": [], "dict": {}, "tuple": (), "both": [[], {}, ()], "deep": [[[]], [[], [1]]]},
    "strings": {"sep": ", ", "list": ["x, y", "[1, 2]", 'say "hi"'], "text": "é, ☃ \u2028"},
    "numpy-floats": {"one": np.float64(0.1), "list": [np.float64(-0.0), np.float64(1e300)]},
    "number-lists": {
        "pairs": [[0, 1], [2, 3]],
        "terms": [[[[0, 1, 2], 0.5], [[3], -1.5]], [[[1], 2.0]]],
        "ragged": [[1], [2, [3, [4]]], 5, []],
        "tuples": ((1, 2.5), (3, None)),
    },
    "rows": {"rows": [{"n": 8, "gap": 0.25, "ok": [True]}, {"n": 12, "gap": -0.0}]},
    "int-keys": {10: "ten", 2: [2.0], -1: {}},
    "float-keys": {1.5: 1, -0.0: 2, math.inf: 3},
    "bool-none-keys": {True: 1, False: 2},
    "null-key": {None: [1]},
    "scalar": 2.5,
    "string": "top, level",
    # longer than the writer's slices, with a string and a dict in late ones
    "long-mixed": list(range(5000)) + ["x, y", {"k": [1]}] + [[i, -i] for i in range(3000)],
    "deep": functools.reduce(lambda inner, k: [k, inner, []], range(45), [0.5]),
}


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_json_text_is_the_indenting_encoders_text(case):
    obj = _WRITER_CASES[case]
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("kind", ["ldpc", "general"])
def test_saved_graph_files_are_the_indenting_encoders_text(tmp_path, kind):
    if kind == "ldpc":
        g = apply_channel(sample_regular_bipartite(3, 4, 3000, 5), 0.05, 3)
    else:
        g = attach_random_general_weights(sample_regular_bipartite(3, 4, 1000, 5), 0.3, 6)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    want = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == want


def test_readme_cli_payloads_are_the_indenting_encoders_text(tmp_path, monkeypatch, capsys):
    # every JSON the README's CLI tour prints or writes (the lines run in one
    # process here, --threads 1, which yields the same payloads)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick tour (CLI)", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    checked = 0
    for line in block.replace("\\\n", " ").splitlines():
        if not line.strip().startswith("loopgas "):
            continue
        words = shlex.split(line)[1:]
        if "--threads" in words:
            words[words.index("--threads") + 1] = "1"
        code = main(words)
        texts = [capsys.readouterr().out]
        if "--out" in words and code == 0:
            texts.append(Path(words[words.index("--out") + 1]).read_text(encoding="utf-8"))
        for text in texts:
            if text.startswith("{"):
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
                checked += 1
    assert checked >= 7


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
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "ldpc", '
         '"fields": [0.1, NaN]}}', "variable 1 has field nan, not a finite number"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "ldgm", '
         '"fields": [-Infinity]}}', "check 0 has field -inf, not a finite number"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "general", '
         '"beta": NaN, "couplings": [[[[0, 1], 1.0]]]}}', "beta must be a finite number > 0"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "general", '
         '"beta": 0.5, "couplings": [[[[0, 1], NaN]]]}}',
         "check 0 has coupling J = nan on (0, 1), not a finite number"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "general", '
         '"beta": 0.5, "couplings": [[[[[0], 1], 1.0]]]}}', "[0] is not an integer"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1, 0]], "weights": {"kind": "general", '
         '"beta": 0.5, "couplings": [[[[1.0, 0], 1.0]]]}}', "1.0 is not an integer"),
        ('{"n": 2, "m": 1, "edges": [[0, 0], [1.5, 0]], "weights": {"kind": "ldpc", '
         '"fields": [0.1, 0.2]}}', "1.5 is not an integer"),
    ],
    ids=["no-weights", "top-level-array", "short-edge", "weights-array", "text-field",
         "nan-ldpc-field", "infinite-ldgm-field", "nan-beta", "nan-coupling",
         "list-in-coupling-subset", "float-coupling-index", "float-edge-index"],
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
