"""loopgas benchmark: time the CLI end to end and, traced, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1   # tiny battery

Each workload runs in fresh processes started from here: first a few that only
set up (import ``loopgas``, sample the instances, write them), then one that
sets up and runs passes over the workload's operations. ``setup_s`` is the
median of those set-ups and ``wall_ref_s`` the median untraced pass, both at
reference machine speed (see perfbench/speed.py); ``peak_rss_mb`` is the peak
resident memory of the process that ran the passes.
With ``--trace 1`` the per-layer metrics are reported instead (see
perfbench/README.md). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SKIPPED, WORKLOADS, derive_seed  # noqa: E402

# Set-up-only processes per run, besides the measuring one. Each samples its
# instances from its own seed derived from --seed: the pairing sampler's
# restarts make one draw's sampling cost 0.02-0.4 s at n = 3000, so the median
# over nine draws is what tracks the code.
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # one workload's run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

LAYERS = ("cli", "graphs", "bp", "bethe", "exact", "loops", "expansion", "ratefunc")
# (metric, unit, count key, layer whose self time is divided, scale)
RATES = (
    ("loops.us_per_loop", "us", "loops.loop_count", "loops", 1e6),
    ("exact.ns_per_config", "ns", "exact.configs", "exact", 1e9),
    ("bp.us_per_edge_sweep", "us", "bp.edge_sweeps", "bp", 1e6),
)
COUNTS = (
    "loops.loop_count", "loops.polymers", "expansion.polymer_count",
    "expansion.series_orders", "exact.configs", "bp.sweeps", "bp.unconverged",
)


class BenchError(Exception):
    pass


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(args, workload: str, workdir: Path, seed: int, setup_only: bool,
               deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    env = dict(os.environ, **THREAD_ENV)
    proc = subprocess.Popen(
        cmd + ["--started", repr(time.monotonic())],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish within the run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{err.strip()}")
    if err.strip():
        print(err.strip(), file=sys.stderr)
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        setups = [
            run_worker(args, workload, workdir / f"probe{k}",
                       derive_seed(args.seed, f"setup-probe-{k}"), True, deadline)
            for k in range(SETUP_PROBES)
        ]
        result = run_worker(args, workload, workdir / "run", args.seed, False, deadline)
        setups.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    result["setups_s"] = [setup["setup_s"] for setup in setups]
    result["setups_wall_s"] = [setup["setup_wall_s"] for setup in setups]
    return result


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "quartiles n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f} s"


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (statistics.median(result["setups_s"]), "s"),
        "wall_ref_s": (statistics.median(result["ref_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict) -> dict:
    self_s, counts = result["layers"]["self_s"], result["layers"]["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (counts.get(f"{layer}.calls", 0), "count")
        metrics[f"{layer}.errors"] = (counts.get(f"{layer}.errors", 0), "count")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    for name, unit, count, layer, scale in RATES:
        total = counts.get(count, 0)
        metrics[name] = (self_s.get(layer, 0.0) * scale / total if total else 0.0, unit)
    metrics["bench.self_s"] = (self_s["bench"], "s")
    other = sum(v for k, v in self_s.items() if k not in LAYERS and k != "bench")
    metrics["trace.other_self_s"] = (other, "s")
    metrics["trace.pass_s"] = (statistics.fmean(result["traced_s"]), "s")
    overhead = statistics.median(result["traced_s"]) / statistics.median(result["untraced_s"])
    metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
    return metrics


def report(args, workload: str, result: dict) -> dict:
    attempted = sum(op["attempted"] for op in result["ops"])
    failed = sum(op["failed"] for op in result["ops"])
    untraced, ref = result["untraced_s"], result["ref_s"]
    print(f"== {workload}  seed {args.seed}{'  (smoke battery)' if args.smoke else ''}")
    print(f"   setup_s      {statistics.median(result['setups_s']):10.4f} s   "
          f"median of {len(result['setups_s'])} set-ups at reference speed")
    print(f"   (setup wall  {statistics.median(result['setups_wall_s']):10.4f} s   "
          f"the same set-ups as timed)")
    print(f"   wall_ref_s   {statistics.median(ref):10.4f} s   "
          f"median of {len(ref)} untraced passes at reference speed, {quartiles(ref)}")
    print(f"   (wall_s      {statistics.median(untraced):10.4f} s   "
          f"the same passes as timed, {quartiles(untraced)})")
    print(f"   failed_frac  {failed / attempted:10.4f}     {failed} of {attempted} operations")
    print(f"   peak_rss_mb  {result['peak_rss_kb'] / 1024.0:10.4f} MB")
    print("   operations, at reference speed, each untraced pass:")
    for op in result["ops"]:
        times = " ".join(f"{t:.3f}" for t in op["seconds"])
        print(f"   op {op['label']:34s} {statistics.median(op['seconds']):9.4f} s   [{times}]")
        for problem in dict.fromkeys(op.get("problems", [])):
            print(f"   FAILED {op['label']}: {problem}")
    metrics = per_layer(result) if args.trace else end_to_end(result)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"   {name:26s} {value:14.6g} {unit}")
        for layer, value in result["layers"]["self_s"].items():
            if layer not in LAYERS and layer != "bench":
                print(f"   (in trace.other_self_s) {layer}.self_s {value:.6g} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measure whole passes for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, same code path and checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "loopgas" / "__init__.py").is_file():
        print(f"error: no loopgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for workload in names:
            results[workload] = run_workload(args, workload, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = dict(next(iter(results.values()))["env"], git=git_revision(), seed=args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"not run: {SKIPPED}")
    summary = {name: report(args, name, res) for name, res in results.items()}
    prefix = len(names) > 1
    line = {
        "correct": all(s["failed"] == 0 for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, s in summary.items()
            for metric, (value, unit) in s["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
