"""Workload definitions: seeded instances, CLI operations and output checks.

Each workload is a fixed, ordered list of ``loopgas`` CLI invocations. The
graphs they read are sampled here from the benchmark seed with the package's
own samplers and written as JSON, which is the set-up the benchmark times.
At the default seed (0) the ``verify-identity`` and ``series`` operations read
the README demo instance (``gen --seed 7``, ``--p 0.42 --channel-seed 1``),
and ``trend``, ``entropy`` and ``rate-function`` run with ``--seed 0`` as in
the README.

Every operation carries a check that holds for any seed, so a failed check
means a wrong answer, not an unlucky draw.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("identity", "bethe-gap", "truncation")
DEFAULT_SEED = 0

# The README line `series --m-max 6` (no size cutoff) is refused with exit 3
# after about a minute of work; timing it would make every pass a minute long.
SKIPPED = (
    "truncation: README `series --m-max 6` without --size-cutoff is not run; "
    "it is refused with exit 3 after ~60 s (ROADMAP items 4-5)"
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its JSON payload must pass."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]


def derive_seed(seed: int, tag: str) -> int:
    """Independent 32-bit seed for one named instance stream."""
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(state.generate_state(1)[0])


# ---------------------------------------------------------------------------
# output checks: each returns None when the payload is right, else a reason


def check_payload(op: Op, code: int, stdout: str, stderr: str) -> str | None:
    """Exit code 0, a JSON payload, and the operation's own check."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    try:
        return op.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"


def check_identity(payload: dict) -> str | None:
    if not payload["residual"] <= 1e-8:
        return f"identity residual {payload['residual']!r} > 1e-8"
    if payload["loop_count"] < payload["polymer_count"]:
        return "loop_count < polymer_count"
    return None


def check_series(payload: dict) -> str | None:
    running, total = [], 0.0
    for term in payload["terms"]:
        total += term
        running.append(total)
    if len(running) != len(payload["partial_sums"]) or not all(
        math.isclose(a, b, rel_tol=1e-12) for a, b in zip(running, payload["partial_sums"])
    ):
        return "partial_sums are not the running sums of terms"
    if not math.isfinite(payload["q"]):
        return f"q is not finite: {payload['q']!r}"
    return None


def check_bethe(payload: dict) -> str | None:
    if payload["converged"] is not True:
        return "BP did not converge"
    if not math.isfinite(payload["f_bethe"]):
        return f"f_bethe is not finite: {payload['f_bethe']!r}"
    return None


def check_trend(payload: dict) -> str | None:
    if not payload["rows"]:
        return "no rows"
    for row in payload["rows"]:
        if not all(math.isfinite(v) for v in row.values()):
            return f"non-finite value in row {row}"
    return None


# Tolerance for rounding in the entropy formula; the bounds themselves are exact.
ENTROPY_SLACK = 1e-12


def check_entropy(payload: dict) -> str | None:
    for row in payload["per_instance"]:
        h = row["h_exact"]
        if not -ENTROPY_SLACK <= h <= math.log(2.0) + ENTROPY_SLACK:
            return f"h_exact {h!r} outside [0, ln 2] (instance {row['index']})"
    return None


def check_rate_function(payload: dict) -> str | None:
    points = sorted(payload["points"], key=lambda row: row["theta"])
    values = [row["value"] for row in points]
    if not all(v < 0.0 for v in values):
        return f"rate-function values not all negative: {values}"
    if any(b < a for a, b in zip(values, values[1:])):
        return f"rate-function values decrease in theta: {values}"
    return None


# ---------------------------------------------------------------------------
# instances


class _Builder:
    """Samples instance files into one directory and assembles operations."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    def graph(self, tag: str, family: str, l: int, r: int, n: int,
              param: float) -> list[str]:
        """Write one instance; return the flags that select it.

        param is the channel flip probability p for ldpc and ldgm, which the
        CLI applies, and the inverse temperature beta for general weights,
        which are written into the file.
        """
        from loopgas.graphs import (
            attach_random_general_weights,
            sample_ldgm,
            sample_regular_bipartite,
            save_graph,
        )

        topo_seed = derive_seed(self.seed, tag + "/topology")
        weight_seed = derive_seed(self.seed, tag + "/channel")
        if family == "ldgm":
            graph = sample_ldgm({l: 1.0}, {r: 1.0}, n, topo_seed)
        else:
            graph = sample_regular_bipartite(l, r, n, topo_seed)
        path = self.workdir / f"{tag}.json"
        flags = ["--graph", str(path)]
        if family == "general":
            graph = attach_random_general_weights(graph, param, weight_seed)
        else:
            flags += ["--p", repr(param), "--channel-seed", str(weight_seed)]
        save_graph(graph, str(path))
        return flags

    def demo(self) -> list[str]:
        """The README demo: `gen --seed 7`, `--p 0.42 --channel-seed 1` at seed 0."""
        from loopgas.graphs import sample_regular_bipartite, save_graph

        path = self.workdir / "demo.json"
        save_graph(sample_regular_bipartite(3, 4, 8, self.seed + 7), str(path))
        return ["--graph", str(path), "--p", "0.42", "--channel-seed", str(self.seed + 1)]

    def add(self, label: str, argv: list[str], check) -> None:
        self.ops.append(Op(label, tuple(argv), check))


IDENTITY_BATTERY = (
    # tag, family, l, r, n, p or beta
    ("ldpc-3-6-n6", "ldpc", 3, 6, 6, 0.45),
    ("ldpc-3-4-n4", "ldpc", 3, 4, 4, 0.45),
    ("ldgm-3-6-n6", "ldgm", 3, 6, 6, 0.40),
    ("ldgm-2-4-n12", "ldgm", 2, 4, 12, 0.45),
    ("general-3-6-n6", "general", 3, 6, 6, 0.2),
    ("general-2-4-n12", "general", 2, 4, 12, 0.3),
    ("general-3-4-n4", "general", 3, 4, 4, 0.3),
)
SMOKE_IDENTITY_BATTERY = (
    ("ldpc-3-4-n4", "ldpc", 3, 4, 4, 0.45),
    ("general-3-4-n4", "general", 3, 4, 4, 0.3),
)


def _identity(b: _Builder, smoke: bool) -> None:
    verify = ["verify-identity", "--tolerance", "1e-8"]
    if not smoke:
        b.add("verify-identity demo", verify + b.demo(), check_identity)
    for tag, *spec in SMOKE_IDENTITY_BATTERY if smoke else IDENTITY_BATTERY:
        b.add(f"verify-identity {tag}", verify + b.graph(tag, *spec), check_identity)


def _bethe_gap(b: _Builder, smoke: bool) -> None:
    seed = str(b.seed)
    n_list, instances, entropy_n, big_ldpc, big_general = (
        ("8", "1", "4", 60, 40) if smoke else ("8,12,16,20", "3", "8", 3000, 1000)
    )
    b.add("trend", ["trend", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
                    "--n-list", n_list, "--p", "0.45", "--instances", instances,
                    "--seed", seed, "--threads", "1", "--format", "json"], check_trend)
    b.add("entropy", ["entropy", "--ensemble", "ldpc-regular", "--l", "3", "--r", "4",
                      "--n", entropy_n, "--p", "0.45", "--instances", "1" if smoke else "5",
                      "--seed", seed, "--threads", "1"], check_entropy)
    # (3,4) rather than (3,6): the same 9,000 edges at n = 3000, but the sampler's
    # restarts until the pairing is simple cost 0.02-4 s by seed at (3,6), which
    # would make setup_s depend on the seed more than on the code.
    tag = f"ldpc-3-4-n{big_ldpc}"
    b.add(f"bethe {tag}", ["bethe"] + b.graph(tag, "ldpc", 3, 4, big_ldpc, 0.05),
          check_bethe)
    tag = f"general-3-4-n{big_general}"
    b.add(f"bethe {tag}", ["bethe"] + b.graph(tag, "general", 3, 4, big_general, 0.3),
          check_bethe)


def _truncation(b: _Builder, smoke: bool) -> None:
    series = ["series", "--format", "json"]
    if smoke:
        flags = b.graph("ldpc-3-4-n4", "ldpc", 3, 4, 4, 0.45)
        b.add("series m2 c4", series + flags + ["--m-max", "2", "--size-cutoff", "4"],
              check_series)
    else:
        # (3,6) at n = 6 is the complete bipartite graph K_{6,3}, so the polymer
        # count, and with it the number of multisets, is the same for every
        # seed; only the couplings change. At beta = 0.1 q is far below 1.
        flags = b.graph("general-3-6-n6", "general", 3, 6, 6, 0.1)
        b.add("series m4 c4 general-3-6-n6",
              series + flags + ["--m-max", "4", "--size-cutoff", "4"], check_series)
        b.add("series m3 c5 general-3-6-n6",
              series + flags + ["--m-max", "3", "--size-cutoff", "5"], check_series)
        demo = b.demo()
        b.add("series m3 c6 demo", series + demo + ["--m-max", "3", "--size-cutoff", "6"],
              check_series)
        b.add("series m2 c8 demo", series + demo + ["--m-max", "2", "--size-cutoff", "8"],
              check_series)
    starts = ["--starts", "200"] if smoke else []
    for r in ("6", "4"):
        b.add(f"rate-function (3,{r})",
              ["rate-function", "--l", "3", "--r", r, "--thetas", "1e-4,1e-3,1e-2",
               "--lambda", "1e-3", "--seed", str(b.seed), "--format", "json"] + starts,
              check_rate_function)


_BUILDERS = {"identity": _identity, "bethe-gap": _bethe_gap, "truncation": _truncation}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Sample the workload's instances into workdir and return its operations."""
    builder = _Builder(seed, workdir)
    _BUILDERS[workload](builder, smoke)
    return builder.ops
