"""One workload in one fresh process: set up, run passes, report as JSON.

Started by run.py, never by hand. The process imports ``loopgas`` from the
checkout's ``src/``, samples and writes the workload's instances (the timed
set-up), and then, unless ``--setup-only``, runs whole passes over the
workload's operations through ``loopgas.cli.main`` in-process until the next
pass would end after ``--seconds``. Untraced passes run under a `SpeedProbe`,
which also gives each operation's time at reference machine speed. With
``--trace 1`` untraced and traced passes alternate. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy

from spans import Tracer
from speed import SpeedProbe
from workloads import build, check_payload

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBE_INTERVAL_S = 0.05  # a set-up takes 0.2-0.6 s, so probe it more often


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import loopgas.cli

    if not Path(loopgas.__file__).resolve().is_relative_to(src):
        raise ImportError(f"loopgas imported from {loopgas.__file__}, not {src}")
    return loopgas.cli


def run_pass(ops, main, checks: list[dict], speed: SpeedProbe | None = None) -> tuple:
    """Run every operation once; record exit code, check result and payload hash.

    Returns the pass's wall time and, when speed is given, its time at
    reference speed (the sum of the operations' rescaled times).
    """
    start = time.perf_counter()
    ref_s = 0.0
    for op, record in zip(ops, checks):
        out, err = io.StringIO(), io.StringIO()
        mark = speed.open() if speed is not None else None
        op_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except Exception as exc:  # an escaped exception fails the operation
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        if speed is not None:
            op_s = speed.close(mark, time.perf_counter() - op_start)
            record["seconds"].append(op_s)
            ref_s += op_s
        if problem is None:
            problem = check_payload(op, code, out.getvalue(), err.getvalue())
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        record["attempted"] += 1
        if problem is None and record.setdefault("sha256", digest) != digest:
            problem = "payload differs from the first pass"
        if problem is not None:
            record["failed"] += 1
            record.setdefault("problems", []).append(problem)
    return time.perf_counter() - start, ref_s if speed is not None else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() in the parent just before this process was started",
    )
    args = parser.parse_args(argv)

    # Set-up is rescaled to reference speed like the operations; its probes
    # start once numpy is imported, and the first one also covers the
    # interpreter start and imports before it.
    with SpeedProbe(interval=SETUP_PROBE_INTERVAL_S) as speed:
        mark = speed.open()
        cli = _import_package()
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        ops = build(args.workload, args.seed, workdir, smoke=args.smoke)
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading is comparable.
        setup_wall_s = time.monotonic() - args.started
        setup_s = speed.close(mark, setup_wall_s)
    report: dict = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if not args.setup_only:
        report.update(_measure(ops, cli.main, args.seconds, bool(args.trace)))
        report["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        }
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


def _measure(ops, main, seconds: float, trace: bool) -> dict:
    checks = [{"label": op.label, "attempted": 0, "failed": 0, "seconds": []} for op in ops]
    untraced: list[float] = []
    ref: list[float] = []
    traced: list[float] = []
    tracer = layers = None
    if trace:
        tracer = Tracer()
        traced_main = tracer.wrap(main)
        layers = {"self_s": {}, "counts": {}}
    start = time.perf_counter()
    while True:
        with SpeedProbe() as speed:
            wall_s, ref_s = run_pass(ops, main, checks, speed)
        untraced.append(wall_s)
        ref.append(ref_s)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, traced_main, checks)[0])
            finally:
                tracer.uninstall()
            _accumulate(layers, tracer, traced[-1])
        cycle = untraced[-1] + (traced[-1] if traced else 0.0)
        if time.perf_counter() - start + cycle > seconds:
            break
    result = {"untraced_s": untraced, "ref_s": ref, "traced_s": traced, "ops": checks}
    if layers is not None:
        result["layers"] = {
            kind: {k: v / len(traced) for k, v in totals.items()}
            for kind, totals in layers.items()
        }
    return result


def _accumulate(layers: dict, tracer, pass_s: float) -> None:
    """Add one traced pass's layer totals; time outside every span is the benchmark's."""
    self_s = dict(tracer.self_s)
    self_s["bench"] = pass_s - sum(self_s.values())
    for name, value in self_s.items():
        layers["self_s"][name] = layers["self_s"].get(name, 0.0) + value
    for name, value in tracer.counts.items():
        layers["counts"][name] = layers["counts"].get(name, 0) + value


if __name__ == "__main__":
    sys.exit(main())
