"""Command-line front end: generate instances, run pipelines, emit reports.

Subcommands
    gen              sample a factor graph and write it as JSON
    exact            exact log partition function of a graph file
    bp               run message passing and dump the fixed-point messages
    bethe            Bethe free energy breakdown at the fixed point
    verify-identity  check ln Z = n f_bethe + ln(loop sum) on one instance
    series           truncated polymer series at the fixed point
    rate-function    maximized growth-vs-decay rate over a theta grid
    trend            ensemble mean |f - f_bethe| across sizes (CSV)
    entropy          exact vs Bethe conditional entropy per instance

Exit codes: 0 success, 2 validation error, 3 enumeration or size budget
exceeded, 4 tolerance failure.  Every subcommand is deterministic given
its full flag set, --threads included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import statistics
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bethe import bethe_free_energy
from .bp import (
    solve_fixed_point,
    verify_high_noise,
    verify_ldgm_message_bounds,
)
from .errors import (
    BudgetExceededError,
    DegreeTooLargeError,
    HypothesisNotMetError,
    LoopGasError,
    TooLargeError,
)
from .exact import (
    EXACT_MAX_BITS,
    brute_force_log_partition,
    channel_average,
    code_space_log_partition,
    conditional_entropy_ldgm,
    conditional_entropy_ldpc,
)
from .expansion import polymer_series
from .graphs import (
    SCHEMA_VERSION,
    ChannelParams,
    FactorGraph,
    apply_channel,
    attach_random_general_weights,
    graph_to_json_dict,
    load_graph,
    sample_ldgm,
    sample_regular_bipartite,
)
from .loops import (
    high_temperature_activity_bound,
    ldgm_activity_bound,
    ldpc_type_activity_bound,
    loop_activities,
    verify_loop_identity,
)
from .ratefunc import rate_function_profile

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_TOLERANCE = 4


# ---------------------------------------------------------------------------
# shared plumbing


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(
    args, payload: dict, fieldnames: Sequence[str] = (), rows: Sequence[dict] = ()
) -> None:
    """Write rows as CSV under --format csv, else payload plus schema_version
    as JSON; commands without --format always write JSON."""
    if getattr(args, "format", "json") == "csv":
        _write_text(args.out, _csv_text(fieldnames, rows))
    else:
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        _write_text(args.out, _json_text(payload))


def _parse_dist(text: str) -> dict[int, float]:
    """Parse a degree distribution such as "3:0.5,4:0.5"."""
    out: dict[int, float] = {}
    for piece in text.split(","):
        deg, _, frac = piece.partition(":")
        if not frac:
            raise ValueError(f"bad distribution entry {piece!r}; want degree:fraction")
        out[int(deg)] = float(frac)
    return out


def _parse_float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece.strip()]


def _parse_int_list(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",") if piece.strip()]


def _load_graph_arg(args) -> FactorGraph:
    graph = load_graph(args.graph)
    if getattr(args, "p", None) is not None:
        graph = apply_channel(graph, args.p, args.channel_seed)
    return graph


def _run_bp(graph: FactorGraph, args):
    return solve_fixed_point(
        graph,
        damping=args.damping,
        tol=args.bp_tol,
        max_iter=args.max_iter,
    )


def _sample_ensemble(ensemble: str, l: int, r: int, n: int, seed: int) -> FactorGraph:
    if ensemble == "ldpc-regular":
        return sample_regular_bipartite(l, r, n, seed)
    if ensemble == "ldgm":
        return sample_ldgm({l: 1.0}, {r: 1.0}, n, seed)
    raise ValueError(f"unsupported ensemble {ensemble!r} here")


def _instance_seeds(seed: int, n: int, index: int) -> tuple[int, int]:
    """(topology seed, channel seed) for one sampled instance.

    Both are drawn from one SeedSequence keyed on the whole (seed, n, index)
    triple, so distinct triples give unrelated streams.
    """
    topo, channel = np.random.SeedSequence((seed, n, index)).generate_state(2)
    return int(topo), int(channel)


# ---------------------------------------------------------------------------
# gen / exact / bp / bethe


def cmd_gen(args) -> int:
    if args.ensemble == "ldpc-regular":
        if args.l is None or args.r is None:
            raise ValueError("ldpc-regular needs --l and --r")
        graph = sample_regular_bipartite(args.l, args.r, args.n, args.seed)
    elif args.ensemble == "ldgm":
        if args.lambda_dist is None or args.p_dist is None:
            raise ValueError("ldgm needs --lambda and --p-dist")
        graph = sample_ldgm(
            _parse_dist(args.lambda_dist), _parse_dist(args.p_dist), args.n, args.seed
        )
    else:  # general-regular
        if args.l is None or args.r is None or args.beta is None:
            raise ValueError("general-regular needs --l, --r and --beta")
        graph = sample_regular_bipartite(args.l, args.r, args.n, args.seed)
        graph = attach_random_general_weights(graph, args.beta, args.seed + 1)
    _emit(args, graph_to_json_dict(graph))
    return EXIT_OK


def cmd_exact(args) -> int:
    graph = _load_graph_arg(args)
    if graph.n <= EXACT_MAX_BITS or graph.weights.kind == "general":
        report = brute_force_log_partition(graph)
        row = {"log_z": report.log_z, "method": "bruteforce", "n": report.n}
    else:
        space = code_space_log_partition(graph)
        row = {"k": space.k, "log_z": space.log_z, "method": "codespace", "n": graph.n}
    _emit(args, row, list(row), [row])
    return EXIT_OK


def cmd_bp(args) -> int:
    graph = _load_graph_arg(args)
    result = _run_bp(graph, args)
    messages = {}
    for e, (i, a) in enumerate(graph.edges):
        messages[f"v{i}->c{a}"] = result.messages.var_to_check[e]
        messages[f"c{a}->v{i}"] = result.messages.check_to_var[e]
    payload = {
        "messages": messages,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_bethe(args) -> int:
    graph = _load_graph_arg(args)
    result = _run_bp(graph, args)
    breakdown = bethe_free_energy(graph, result.messages)
    payload = {
        "f_bethe": breakdown.f_bethe,
        "check_terms": list(breakdown.check_terms),
        "var_terms": list(breakdown.var_terms),
        "edge_terms": list(breakdown.edge_terms),
        "bp_residual": result.residual,
        "converged": result.converged,
    }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-identity


def _dump_loops(args, graph: FactorGraph) -> None:
    messages = _run_bp(graph, args).messages
    kind = graph.weights.kind
    theta = ChannelParams(p=args.p).theta if args.p is not None else None
    if theta is not None and not 0.0 < theta <= 0.1:
        theta = None  # type bound does not apply; leave the column empty
    rows = []
    texts: dict[tuple, str] = {}
    for loop, activity, var_profile, check_profile in loop_activities(
        graph, messages, budget=args.budget
    ):
        for profile in (var_profile, check_profile):
            if profile not in texts:
                texts[profile] = "|".join(f"{d}:{c}" for d, c in profile)
        bound: float | str = ""
        try:
            if kind == "general":
                bound = high_temperature_activity_bound(graph, loop)
            elif kind == "ldgm":
                bound = ldgm_activity_bound(graph, loop)
            elif theta is not None:
                bound = ldpc_type_activity_bound(graph, loop, theta)
        except HypothesisNotMetError:
            pass  # the coupling or field is too strong for the bound; leave it empty
        rows.append(
            {
                "edges": "|".join(map(str, loop.edge_ids)),
                "var_type": texts[var_profile],
                "check_type": texts[check_profile],
                "activity": activity,
                "bound": bound,
            }
        )
    _write_text(
        args.dump_loops,
        _csv_text(["edges", "var_type", "check_type", "activity", "bound"], rows),
    )


def cmd_verify_identity(args) -> int:
    graph = _load_graph_arg(args)
    report = verify_loop_identity(
        graph,
        damping=args.damping,
        tol=args.bp_tol,
        max_iter=args.max_iter,
        budget=args.budget,
        split_lambda=args.split_lambda,
    )
    payload = dataclasses.asdict(report)
    _emit(args, payload, sorted(payload), [payload])
    if args.dump_loops is not None:
        _dump_loops(args, graph)
    if report.residual > args.tolerance:
        print(
            f"identity residual {report.residual:.3e} exceeds tolerance {args.tolerance:.3e}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# series / rate-function


def cmd_series(args) -> int:
    graph = _load_graph_arg(args)
    result = _run_bp(graph, args)
    series = polymer_series(
        graph,
        result.messages,
        m_max=args.m_max,
        size_cutoff=args.size_cutoff,
        budget=args.budget,
        z=args.z,
    )
    rows = [
        {
            "m": m + 1,
            "term": series.terms[m],
            "partial_sum": series.partial_sums[m],
            "q": series.q,
        }
        for m in range(len(series.terms))
    ]
    payload = {
        "terms": list(series.terms),
        "partial_sums": list(series.partial_sums),
        "q": series.q,
        "polymer_count": series.polymer_count,
        "bp_residual": result.residual,
    }
    _emit(args, payload, ["m", "term", "partial_sum", "q"], rows)
    return EXIT_OK


def cmd_rate_function(args) -> int:
    thetas = _parse_float_list(args.thetas)
    profile = rate_function_profile(
        args.l,
        args.r,
        thetas,
        args.lam,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        starts=args.starts,
        seed=args.seed,
    )
    x_names = [f"x{s}" for s in range(2, args.l + 1)]
    y_names = [f"y{t}" for t in range(2, args.r + 1)]
    rows = []
    for res in profile:
        row = {"theta": res.theta, "value": res.value}
        row.update({name: v for name, v in zip(x_names, res.xs)})
        row.update({name: v for name, v in zip(y_names, res.ys)})
        rows.append(row)
    payload = {
        "points": rows,
        "l": args.l,
        "r": args.r,
        "lam": args.lam,
        "alpha1": args.alpha1,
        "alpha2": args.alpha2,
    }
    _emit(args, payload, ["theta", "value"] + x_names + y_names, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trend / entropy (instance-parallel)


def _trend_instance(args, job: tuple[int, int]) -> tuple[float, float, bool]:
    n, index = job
    topo_seed, channel_seed = _instance_seeds(args.seed, n, index)
    graph = _sample_ensemble(args.ensemble, args.l, args.r, n, topo_seed)
    graph = apply_channel(graph, args.p, channel_seed)
    # exact first: an over-cap code space is refused before any BP work
    f_exact = code_space_log_partition(graph).log_z / graph.n
    result = _run_bp(graph, args)
    f_bethe = bethe_free_energy(graph, result.messages).f_bethe
    channel = ChannelParams(p=args.p, epsilon=args.epsilon)
    if graph.weights.kind == "ldpc":
        verified = verify_high_noise(result.messages, channel)
    else:
        verified = verify_ldgm_message_bounds(result.messages, graph)
    return abs(f_exact - f_bethe), result.residual, verified


def _map_instances(worker, args, n: int) -> list:
    """worker(args, (n, index)) for every instance index, in index order,
    on args.threads processes; refuses fewer than one instance up front."""
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    jobs = [(n, index) for index in range(args.instances)]
    if args.threads <= 1 or len(jobs) <= 1:
        return [worker(args, job) for job in jobs]
    with ProcessPoolExecutor(max_workers=args.threads) as pool:
        return list(pool.map(functools.partial(worker, args), jobs))


def cmd_trend(args) -> int:
    rows = []
    for n in _parse_int_list(args.n_list):
        results = _map_instances(_trend_instance, args, n)
        gaps = [gap for gap, _res, _ok in results]
        rows.append(
            {
                "n": n,
                "mean_gap": statistics.fmean(gaps),
                "std_gap": statistics.pstdev(gaps) if len(gaps) > 1 else 0.0,
                "mean_bp_residual": statistics.fmean(res for _g, res, _ok in results),
                "fraction_verified": statistics.fmean(
                    1.0 if ok else 0.0 for _g, _res, ok in results
                ),
            }
        )
    fieldnames = ["n", "mean_gap", "std_gap", "mean_bp_residual", "fraction_verified"]
    _emit(args, {"rows": rows}, fieldnames, rows)
    return EXIT_OK


def _entropy_instance(args, job: tuple[int, int]) -> dict:
    n, index = job
    p = args.p
    topo_seed, channel_seed = _instance_seeds(args.seed, n, index)
    graph = _sample_ensemble(args.ensemble, args.l, args.r, n, topo_seed)

    def f_exact(g: FactorGraph) -> float:
        return code_space_log_partition(g).log_z / g.n

    def f_bethe(g: FactorGraph) -> float:
        return bethe_free_energy(g, _run_bp(g, args).messages).f_bethe

    kwargs = dict(
        exhaustive_limit=args.exhaustive_limit,
        mc_samples=args.mc_samples,
        seed=channel_seed,
    )
    avg_exact = channel_average(graph, p, f_exact, **kwargs)
    avg_bethe = channel_average(graph, p, f_bethe, **kwargs)
    if graph.weights.kind == "ldpc":
        h_exact = conditional_entropy_ldpc(avg_exact.mean, p)
        h_bethe = conditional_entropy_ldpc(avg_bethe.mean, p)
    else:
        ratio = graph.m / graph.n
        h_exact = conditional_entropy_ldgm(avg_exact.mean, p, ratio)
        h_bethe = conditional_entropy_ldgm(avg_bethe.mean, p, ratio)
    return {
        "index": index,
        "h_exact": h_exact,
        "h_bethe": h_bethe,
        "gap": h_bethe - h_exact,
        "method": avg_exact.method,
        "patterns": avg_exact.patterns,
    }


def cmd_entropy(args) -> int:
    per_instance = _map_instances(_entropy_instance, args, args.n)
    gaps = [row["gap"] for row in per_instance]
    payload = {
        "per_instance": per_instance,
        "mean_h_exact": statistics.fmean(row["h_exact"] for row in per_instance),
        "mean_h_bethe": statistics.fmean(row["h_bethe"] for row in per_instance),
        "mean_abs_gap": statistics.fmean(abs(g) for g in gaps),
        "max_abs_gap": max(abs(g) for g in gaps),
    }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sub, default_format: str | None = "json") -> None:
    """--out, and --format unless default_format is None (JSON only)."""
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if default_format is not None:
        sub.add_argument(
            "--format", choices=["json", "csv"], default=default_format,
            help=f"output format (default: {default_format})",
        )


def _add_graph_flags(sub) -> None:
    sub.add_argument("--graph", required=True, help="graph JSON file")
    sub.add_argument(
        "--p", type=float, default=None,
        help="apply a channel with this flip probability before running",
    )
    sub.add_argument(
        "--channel-seed", type=int, default=0, help="seed for the channel signs"
    )


def _add_bp_flags(sub) -> None:
    sub.add_argument("--bp-tol", type=float, default=1e-12)
    sub.add_argument("--damping", type=float, default=0.0)
    sub.add_argument("--max-iter", type=int, default=10_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopgas",
        description="Loop-sum and polymer-expansion toolkit for binary factor graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen", help="sample a factor graph, write JSON")
    sub.add_argument(
        "--ensemble",
        required=True,
        choices=["ldpc-regular", "ldgm", "general-regular"],
    )
    sub.add_argument("--l", type=int, default=None, help="variable degree")
    sub.add_argument("--r", type=int, default=None, help="check degree")
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--lambda", dest="lambda_dist", default=None,
        help='ldgm variable-degree distribution, e.g. "3:1.0"',
    )
    sub.add_argument(
        "--p-dist", dest="p_dist", default=None,
        help='ldgm check-degree distribution, e.g. "6:1.0"',
    )
    sub.add_argument(
        "--beta", type=float, default=None,
        help="inverse temperature for general-regular weights",
    )
    _add_output_flags(sub, default_format=None)
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser(
        "exact", help="exact log partition function (brute force or code space)"
    )
    _add_graph_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_exact)

    sub = subs.add_parser("bp", help="run message passing, dump messages")
    _add_graph_flags(sub)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format=None)
    sub.set_defaults(func=cmd_bp)

    sub = subs.add_parser("bethe", help="Bethe free energy breakdown")
    _add_graph_flags(sub)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format=None)
    sub.set_defaults(func=cmd_bethe)

    sub = subs.add_parser(
        "verify-identity", help="check the loop-sum identity on one instance"
    )
    _add_graph_flags(sub)
    _add_bp_flags(sub)
    _add_output_flags(sub)
    sub.add_argument("--budget", type=int, default=10_000_000)
    sub.add_argument(
        "--tolerance", type=float, default=1e-8,
        help="exit 4 when the identity residual exceeds this",
    )
    sub.add_argument(
        "--split-lambda", dest="split_lambda", type=float, default=0.5,
        help="size fraction separating small from large terms",
    )
    sub.add_argument(
        "--dump-loops", default=None,
        help="also write a per-loop CSV (edges, type, activity, bound) here",
    )
    sub.set_defaults(func=cmd_verify_identity)

    sub = subs.add_parser("series", help="truncated polymer series")
    _add_graph_flags(sub)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format="csv")
    sub.add_argument("--m-max", type=int, default=4)
    sub.add_argument("--size-cutoff", type=int, default=None)
    sub.add_argument("--budget", type=int, default=10_000_000)
    sub.add_argument(
        "--z", type=float, default=1.0, help="activity scaling diagnostic"
    )
    sub.set_defaults(func=cmd_series)

    sub = subs.add_parser(
        "rate-function", help="maximized growth-vs-decay rate over a theta grid"
    )
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument(
        "--thetas", required=True, help='comma list, e.g. "1e-4,1e-3,1e-2"'
    )
    sub.add_argument(
        "--lambda", dest="lam", type=float, required=True,
        help="polymer size fraction of n",
    )
    sub.add_argument("--alpha1", type=float, default=1.1)
    sub.add_argument("--alpha2", type=float, default=1.1)
    sub.add_argument("--starts", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_flags(sub, default_format="csv")
    sub.set_defaults(func=cmd_rate_function)

    sub = subs.add_parser(
        "trend", help="ensemble mean |f - f_bethe| across sizes (CSV)"
    )
    sub.add_argument(
        "--ensemble", required=True, choices=["ldpc-regular", "ldgm"]
    )
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--n-list", required=True, help='comma list, e.g. "8,12,16"')
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        help="slack in the message-norm threshold (1+epsilon)*tanh(h)",
    )
    sub.add_argument("--instances", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format="csv")
    sub.set_defaults(func=cmd_trend)

    sub = subs.add_parser(
        "entropy", help="exact vs Bethe conditional entropy per instance"
    )
    sub.add_argument(
        "--ensemble", required=True, choices=["ldpc-regular", "ldgm"]
    )
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--instances", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sub.add_argument("--exhaustive-limit", type=int, default=20)
    sub.add_argument("--mc-samples", type=int, default=2_000)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format=None)
    sub.set_defaults(func=cmd_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, TooLargeError, DegreeTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LoopGasError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
