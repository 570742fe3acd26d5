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
import math
import os
import statistics
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bethe import bethe_free_energies, bethe_free_energy, bethe_graphs
from .bp import (
    check_weight_range,
    solve_fixed_point,
    solve_fixed_points,
    solve_graphs,
    verify_high_noise,
    verify_ldgm_message_bounds,
)
from .errors import (
    BudgetExceededError,
    DegreeTooLargeError,
    HypothesisNotMetError,
    LogDomainError,
    LoopGasError,
    SingularDenominatorError,
    TooLargeError,
)
from .exact import (
    channel_average,
    conditional_entropy_ldgm,
    conditional_entropy_ldpc,
    gauge_keys,
    log_partition,
    log_partitions,
)
from .expansion import check_series_options, polymer_series
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


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # the C encoder: no indent
_OPEN, _CLOSE, _COMMA = b"[],"
_MAX_NESTING = 42  # three kinds of tag byte per depth fit in 0x80..0xff
_SLICE = 2048  # list items per C encoder call, which bounds each call's temporaries


def write_json(obj, fh) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) + "\n" to the text
    file fh, byte for byte, piece by piece.

    The indenting encoder is pure Python, so lists go to the C encoder
    instead, _SLICE items per call.  A slice that holds only numbers,
    booleans, nulls and such lists is then indented (see _indent_lists); a
    slice that holds a string or a dict, and every dict, is laid out here
    one entry at a time.
    """
    _write_json(obj, 0, fh.write)
    fh.write("\n")


def json_text(obj) -> str:
    """The text write_json writes."""
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


def _write_json(obj, level: int, write) -> None:
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(sep + _json_key(key) + ": ")
            _write_json(value, level + 1, write)
            sep = "," + inner
        write(inner[:-2] + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for k in range(0, len(obj), _SLICE):
            items = obj[k : k + _SLICE]
            text = _COMPACT.encode(items)
            laid = None if '"' in text or "{" in text else _indent_lists(text, level)
            if laid is not None:
                # the slice laid out as a list of its own, less its brackets
                write(sep + laid[len(sep) : 1 - len(inner)])
                sep = "," + inner
                continue
            for item in items:
                write(sep)
                _write_json(item, level + 1, write)
                sep = "," + inner
        write(inner[:-2] + "]")
    else:
        write(_COMPACT.encode(obj))


def _json_key(key) -> str:
    # json writes a number, boolean or null key as the quoted text of its value
    if isinstance(key, str):
        return _COMPACT.encode(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _COMPACT.encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _indent_lists(text: str, level: int) -> str | None:
    """text, the compact JSON of a nonempty list of numbers, booleans, nulls
    and such lists, laid out as the indenting encoder lays it out at depth level;
    None past _MAX_NESTING levels of lists.

    A nonempty list's "[" and each "," end a line; its "]" starts one,
    indented to the list's own depth, and each line inside is indented to
    the depth of the items.  An empty list stays "[]".  Each bracket and
    comma that starts or ends a line is swapped for a byte above 0x7f that
    names its kind and depth, which the ASCII text never holds, and each
    such byte is then replaced by its text, one bytes.replace per byte.
    """
    if text.count("[") == 1:  # a flat list: every comma ends a line
        newline = "\n" + "  " * level
        return "[" + newline + "  " + text[1:-1].replace(",", "," + newline + "  ") + newline + "]"
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    at = np.flatnonzero((raw == _OPEN) | (raw == _CLOSE) | (raw == _COMMA))
    char = raw[at]
    opens, closes = char == _OPEN, char == _CLOSE
    # the depth below this list of the items each bracket or comma borders
    depth = np.cumsum(opens, dtype=np.intp) - np.cumsum(closes, dtype=np.intp) + closes
    if depth.max() > _MAX_NESTING:
        return None
    empty = np.zeros(at.size, dtype=bool)
    empty[:-1] = opens[:-1] & closes[1:] & (np.diff(at) == 1)
    empty[1:] |= empty[:-1].copy()
    kind = np.where(opens, 0, np.where(closes, 2, 1))
    tags = (0x80 + _MAX_NESTING * kind + depth - 1)[~empty]
    marked = raw.copy()
    marked[at[~empty]] = tags
    out = marked.tobytes()
    for tag in np.flatnonzero(np.bincount(tags)).tolist():
        which, below = divmod(tag - 0x80, _MAX_NESTING)
        line = b"\n" + b"  " * (level + below + 1)
        out = out.replace(bytes((tag,)), (b"[" + line, b"," + line, line[:-2] + b"]")[which])
    return out.decode("ascii")


def _csv_text(header: Sequence[str], rows) -> str:
    """CSV of the header line and one line per row, each a sequence of
    values in header order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(
    args, payload: dict, fieldnames: Sequence[str] = (), rows: Sequence[dict] = ()
) -> None:
    """Write each row's values under fieldnames as CSV under --format csv,
    else payload plus schema_version as JSON; commands without --format
    always write JSON."""
    if getattr(args, "format", "json") == "csv":
        table = ([row[name] for name in fieldnames] for row in rows)
        _write_text(args.out, _csv_text(fieldnames, table))
    else:
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        _write_text(args.out, json_text(payload))


def _parse_dist(text: str) -> dict[int, float]:
    """Parse a degree distribution such as "3:0.5,4:0.5"."""
    out: dict[int, float] = {}
    for piece in text.split(","):
        deg, _, frac = piece.partition(":")
        if not frac:
            raise ValueError(f"bad distribution entry {piece!r}; want degree:fraction")
        out[int(deg)] = float(frac)
    return out


def _parse_list(flag: str, kind, text: str) -> list:
    """The nonblank comma-separated pieces of `flag`'s value, each read by kind."""
    out = []
    for piece in filter(str.strip, text.split(",")):
        try:
            out.append(kind(piece))
        except ValueError:
            raise ValueError(f"{flag}: cannot read {piece!r} as {kind.__name__}") from None
    return out


def _load_graph_arg(args) -> FactorGraph:
    graph = load_graph(args.graph)
    if getattr(args, "p", None) is not None:
        graph = apply_channel(graph, args.p, args.channel_seed)
    return graph


def _bp_options(args) -> dict:
    return dict(damping=args.damping, tol=args.bp_tol, max_iter=args.max_iter)


def _run_bp(graph: FactorGraph, args):
    return solve_fixed_point(graph, **_bp_options(args))


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
    row = dataclasses.asdict(log_partition(_load_graph_arg(args)))
    _emit(args, row, sorted(row), [row])
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
    check_weight_range(graph)
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
        edges = "|".join(map(str, loop.edge_ids))
        rows.append((edges, texts[var_profile], texts[check_profile], activity, bound))
    _write_text(
        args.dump_loops,
        _csv_text(["edges", "var_type", "check_type", "activity", "bound"], rows),
    )


def cmd_verify_identity(args) -> int:
    if math.isnan(args.tolerance):
        raise ValueError(f"--tolerance must be a number, got {args.tolerance}")
    graph = _load_graph_arg(args)
    report = verify_loop_identity(
        graph,
        **_bp_options(args),
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
    check_series_options(args.m_max, args.size_cutoff, args.z)
    graph = _load_graph_arg(args)
    check_weight_range(graph)
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
    thetas = _parse_list("--thetas", float, args.thetas)
    profile = rate_function_profile(
        args.l,
        args.r,
        thetas,
        args.lam,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
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


def _trend_instances(channel, args, jobs: list[tuple[int, int]]) -> list[tuple]:
    """(gap, BP residual, verified) per job (n, index).  Every instance is
    sampled and its exact ln Z taken first, so an over-cap space is refused
    before any BP work; then one BP batch and one Bethe batch take them all
    (solve_graphs, bethe_graphs)."""
    graphs, f_exact = [], []
    for n, index in jobs:
        topo_seed, channel_seed = _instance_seeds(args.seed, n, index)
        graph = _sample_ensemble(args.ensemble, args.l, args.r, n, topo_seed)
        graphs.append(apply_channel(graph, channel.p, channel_seed))
        f_exact.append(log_partition(graphs[-1]).log_z / n)
    results = solve_graphs(graphs, **_bp_options(args))
    breakdowns = bethe_graphs(graphs, [result.messages for result in results])
    out = []
    for graph, exact, result, breakdown in zip(graphs, f_exact, results, breakdowns):
        if graph.weights.kind == "ldpc":
            verified = verify_high_noise(result.messages, channel)
        else:
            verified = verify_ldgm_message_bounds(result.messages, graph)
        out.append((abs(exact - breakdown.f_bethe), result.residual, verified))
    return out


def _map_instances(worker, args, sizes: list[int]) -> list[list]:
    """worker(args, chunk) on the jobs (n, index), every size n and instance
    index in order: all of them at --threads 1, else dealt round-robin over
    a pool of procs = min(args.threads, jobs) processes, process k taking
    jobs[k::procs], so every process gets small and large sizes alike;
    worker returns one result per job.  One list per size, in index order.
    Refuses fewer than one instance or thread up front."""
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    jobs = [(n, index) for n in sizes for index in range(args.instances)]
    procs = min(args.threads, len(jobs))
    if procs == 1:
        results = worker(args, jobs)
    else:
        results = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            dealt = [jobs[k::procs] for k in range(procs)]
            for k, chunk in enumerate(pool.map(functools.partial(worker, args), dealt)):
                results[k::procs] = chunk
    return [results[k : k + args.instances] for k in range(0, len(jobs), args.instances)]


def cmd_trend(args) -> int:
    # the channel and the sizes are checked once, before any instance
    channel = ChannelParams(p=args.p, epsilon=args.epsilon)
    worker = functools.partial(_trend_instances, channel)
    sizes = _parse_list("--n-list", int, args.n_list)
    if not sizes:
        raise ValueError(f"--n-list names no size, got {args.n_list!r}")
    rows = []
    for n, results in zip(sizes, _map_instances(worker, args, sizes)):
        gaps, residuals, verified = zip(*results)
        rows.append({
            "n": n,
            "mean_gap": statistics.fmean(gaps),
            "std_gap": statistics.pstdev(gaps) if len(gaps) > 1 else 0.0,
            "mean_bp_residual": statistics.fmean(residuals),
            "fraction_verified": statistics.fmean(1.0 if ok else 0.0 for ok in verified),
        })
    fieldnames = ["n", "mean_gap", "std_gap", "mean_bp_residual", "fraction_verified"]
    _emit(args, {"rows": rows}, fieldnames, rows)
    return EXIT_OK


def _entropy_instance(args, job: tuple[int, int]) -> dict:
    n, index = job
    p = args.p
    topo_seed, channel_seed = _instance_seeds(args.seed, n, index)
    graph = _sample_ensemble(args.ensemble, args.l, args.r, n, topo_seed)

    def f_exact(fields: np.ndarray) -> list[float]:
        reports = log_partitions(graph, fields)
        return [report.log_z / graph.n for report in reports]

    # BP and the Bethe assembly run once per gauge class (gauge_keys), kept
    # across chunks; the exact side stays per pattern, as its span sums add
    # a class's terms in another order
    solved: dict[bytes, tuple[float, bool]] = {}  # key: (f_bethe, converged)
    unconverged = 0

    def f_bethe(fields: np.ndarray) -> list[float]:
        nonlocal unconverged
        keys = gauge_keys(graph, fields)
        new: dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key not in solved:
                new.setdefault(key, row)
        if new:
            rows = fields[list(new.values())]
            results = solve_fixed_points(graph, rows, **_bp_options(args))
            breakdowns = bethe_free_energies(graph, rows, [res.messages for res in results])
            for key, res, breakdown in zip(new, results, breakdowns):
                solved[key] = breakdown.f_bethe, res.converged
        values = [solved[key] for key in keys]
        unconverged += sum(not converged for _f, converged in values)
        return [f for f, _converged in values]

    kwargs = dict(
        exhaustive_limit=args.exhaustive_limit,
        mc_samples=args.mc_samples,
        seed=channel_seed,
    )
    avg_exact = channel_average(graph, p, f_exact, **kwargs)
    try:
        avg_bethe = channel_average(graph, p, f_bethe, **kwargs)
    except (LogDomainError, SingularDenominatorError) as exc:
        # a saturating pattern stops the run: say which instance to re-run
        raise type(exc)(f"instance {index} (n = {n}): {exc}") from exc
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
        "bp_unconverged": unconverged,
    }


def _entropy_instances(args, jobs: list[tuple[int, int]]) -> list[dict]:
    return [_entropy_instance(args, job) for job in jobs]


def cmd_entropy(args) -> int:
    (per_instance,) = _map_instances(_entropy_instances, args, [args.n])
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


def _gen_flags(sub) -> None:
    sub.add_argument("--ensemble", required=True,
                     choices=["ldpc-regular", "ldgm", "general-regular"])
    sub.add_argument("--l", type=int, default=None, help="variable degree")
    sub.add_argument("--r", type=int, default=None, help="check degree")
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--lambda", dest="lambda_dist", default=None,
                     help='ldgm variable-degree distribution, e.g. "3:1.0"')
    sub.add_argument("--p-dist", dest="p_dist", default=None,
                     help='ldgm check-degree distribution, e.g. "6:1.0"')
    sub.add_argument("--beta", type=float, default=None,
                     help="inverse temperature for general-regular weights")
    _add_output_flags(sub, default_format=None)


def _exact_flags(sub) -> None:
    _add_graph_flags(sub)
    _add_output_flags(sub)


def _fixed_point_flags(sub, default_format: str | None = None) -> None:
    _add_graph_flags(sub)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format)


def _verify_flags(sub) -> None:
    _fixed_point_flags(sub, "json")
    sub.add_argument("--budget", type=int, default=10_000_000)
    sub.add_argument("--tolerance", type=float, default=1e-8,
                     help="exit 4 when the identity residual exceeds this")
    sub.add_argument("--split-lambda", dest="split_lambda", type=float, default=0.5,
                     help="size fraction separating small from large terms")
    sub.add_argument("--dump-loops", default=None,
                     help="also write a per-loop CSV (edges, type, activity, bound) here")


def _series_flags(sub) -> None:
    _fixed_point_flags(sub, "csv")
    sub.add_argument("--m-max", type=int, default=4)
    sub.add_argument("--size-cutoff", type=int, default=None)
    sub.add_argument("--budget", type=int, default=10_000_000)
    sub.add_argument("--z", type=float, default=1.0, help="activity scaling diagnostic")


def _rate_function_flags(sub) -> None:
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--thetas", required=True, help='comma list, e.g. "1e-4,1e-3,1e-2"')
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="polymer size fraction of n")
    sub.add_argument("--alpha1", type=float, default=1.1)
    sub.add_argument("--alpha2", type=float, default=1.1)
    for flag in ("--starts", "--seed"):
        sub.add_argument(flag, type=int, default=0,
                         help="accepted for old command lines; has no effect")
    _add_output_flags(sub, default_format="csv")


def _trend_flags(sub) -> None:
    sub.add_argument("--ensemble", required=True, choices=["ldpc-regular", "ldgm"])
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--n-list", required=True, help='comma list, e.g. "8,12,16"')
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.1,
                     help="slack in the message-norm threshold (1+epsilon)*tanh(h)")
    sub.add_argument("--instances", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format="csv")


def _entropy_flags(sub) -> None:
    sub.add_argument("--ensemble", required=True, choices=["ldpc-regular", "ldgm"])
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--instances", type=int, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sub.add_argument("--exhaustive-limit", type=int, default=20,
                     help="enumerate every pattern of at most this many fields, else "
                          "sample; past 26 fields an enumeration exits 3")
    sub.add_argument("--mc-samples", type=int, default=2_000)
    _add_bp_flags(sub)
    _add_output_flags(sub, default_format=None)


# (name, help, flag adder, handler) of every subcommand, in help order
COMMANDS = (
    ("gen", "sample a factor graph, write JSON", _gen_flags, cmd_gen),
    ("exact", "exact log partition function over the smallest GF(2) space",
     _exact_flags, cmd_exact),
    ("bp", "run message passing, dump messages", _fixed_point_flags, cmd_bp),
    ("bethe", "Bethe free energy breakdown", _fixed_point_flags, cmd_bethe),
    ("verify-identity", "check the loop-sum identity on one instance",
     _verify_flags, cmd_verify_identity),
    ("series", "truncated polymer series", _series_flags, cmd_series),
    ("rate-function", "maximized growth-vs-decay rate over a theta grid",
     _rate_function_flags, cmd_rate_function),
    ("trend", "ensemble mean |f - f_bethe| across sizes (CSV)", _trend_flags, cmd_trend),
    ("entropy", "exact vs Bethe conditional entropy per instance",
     _entropy_flags, cmd_entropy),
)


class _OneCommandParser(argparse.ArgumentParser):
    """Raises ArgumentError where a parser would print an error and exit."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command` alone.  A
    one-command parser prints the full one's help but raises ArgumentError
    on an error, which main reports through the full parser, whose
    messages list every subcommand."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="loopgas",
        description="Loop-sum and polymer-expansion toolkit for binary factor graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, handler in COMMANDS:
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            add_flags(sub)
            sub.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    try:
        try:
            args = build_parser(command).parse_args(argv)
        except argparse.ArgumentError:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an output path that cannot be written is refused before any work
        for path in (args.out, getattr(args, "dump_loops", None)):
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"directory of {path} does not exist")
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
