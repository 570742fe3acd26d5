"""The benchmark's own test: smoke battery, checks and seeding, no timings.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402


def _run(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *flags],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _registered(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_battery_reports_every_registered_metric(trace):
    proc = _run("--workload", "all", "--smoke", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = _registered("per_layer" if trace == "1" else "end_to_end")
    expected = {f"{w}.{name}" for w in workloads.WORKLOADS for name in names}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace == "1":
        for w in workloads.WORKLOADS:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            parts = sum(v for k, v in metrics.items()
                        if k.startswith(w + ".") and k.endswith("self_s"))
            assert parts == pytest.approx(metrics[f"{w}.trace.pass_s"], rel=1e-9)
            assert metrics[f"{w}.cli.calls"] >= 1


def test_registered_workloads_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _run("--workload", "identity", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _build(workload: str, seed: int, path: Path) -> dict[str, bytes]:
    path.mkdir()
    ops = workloads.build(workload, seed, path)
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    files["argv"] = repr([op.argv for op in ops]).replace(str(path), "<dir>").encode()
    return files


def test_same_seed_same_inputs(tmp_path):
    first = _build("identity", 3, tmp_path / "a")
    assert first == _build("identity", 3, tmp_path / "b")
    assert first != _build("identity", 4, tmp_path / "c")


def test_default_seed_is_the_readme_demo(tmp_path):
    from loopgas.graphs import graph_to_json_dict, load_graph, sample_regular_bipartite

    ops = workloads.build("identity", workloads.DEFAULT_SEED, tmp_path)
    argv = list(ops[0].argv)
    graph = load_graph(argv[argv.index("--graph") + 1])
    assert graph_to_json_dict(graph) == graph_to_json_dict(sample_regular_bipartite(3, 4, 8, 7))
    assert argv[argv.index("--p") + 1] == "0.42"
    assert argv[argv.index("--channel-seed") + 1] == "1"


@pytest.mark.parametrize(
    "check, payload",
    [
        (workloads.check_identity, {"residual": 1e-6, "loop_count": 5, "polymer_count": 4}),
        (workloads.check_identity, {"residual": 0.0, "loop_count": 3, "polymer_count": 4}),
        (workloads.check_series, {"terms": [1.0, 2.0], "partial_sums": [1.0, 2.0], "q": 0.1}),
        (workloads.check_series, {"terms": [1.0], "partial_sums": [1.0], "q": float("nan")}),
        (workloads.check_bethe, {"converged": False, "f_bethe": 0.1}),
        (workloads.check_trend, {"rows": [{"n": 8, "mean_gap": float("inf")}]}),
        (workloads.check_entropy, {"per_instance": [{"index": 0, "h_exact": 0.8}]}),
        (workloads.check_rate_function,
         {"points": [{"theta": 1e-3, "value": -0.1}, {"theta": 1e-2, "value": -0.2}]}),
        (workloads.check_rate_function, {"points": [{"theta": 1e-3, "value": 0.1}]}),
    ],
)
def test_checks_reject_wrong_payloads(check, payload):
    assert check(payload) is not None


def test_check_payload_fails_nonzero_exit_and_bad_json():
    op = workloads.Op("x", (), workloads.check_bethe)
    assert workloads.check_payload(op, 3, "", "error: budget") is not None
    assert workloads.check_payload(op, 0, "not json", "") is not None
    assert workloads.check_payload(op, 0, '{"converged": true}', "") is not None
    assert workloads.check_payload(op, 0, '{"converged": true, "f_bethe": -1.5}', "") is None


def test_speed_probe_samples_during_an_operation_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        mark = probe.open()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        ref_s = probe.close(mark, time.perf_counter() - start)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.factors) > 2  # before, after, and timer probes in between
    assert math.isfinite(ref_s) and ref_s > 0.0
