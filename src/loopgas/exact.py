"""Exact references: log partition functions, GF(2) code spaces, and the
conditional-entropy formulas they plug into.

Both exact routes to ln Z are one sum over a GF(2) linear space, taken by
_span_log_sums:

- brute force, for every weight family while n <= EXACT_MAX_BITS, sums over
  the parity image of the 2^n spin configurations (the codewords for ldpc);
- the code-space route, for ldpc and ldgm weights at any n while the
  dimension k stays at most EXACT_MAX_BITS.  For ldpc it is the brute-force
  sum itself; for ldgm the high-temperature expansion gives
  Z = 2^n prod_a cosh h_a * sum_S prod_{a in S} tanh h_a over the check
  sets S whose variable masks XOR to zero (the dual code).

Both refuse before any work.  Brute force is the oracle for the
approximate machinery in the sibling modules.

The code-space route runs on one graph under rows of fields, say the
channel patterns of one code (code_space_log_partitions): the GF(2)
elimination and the span rows are built once per call, and every row's
weight vector is scored against them as one item of stacked matrix
products, the same BLAS call per item that a lone graph makes, so each
ln Z is the float the graph under that row gets on its own.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LogDomainError, TooLargeError, WrongWeightKindError
from .graphs import (
    ChannelParams,
    FactorGraph,
    LdgmWeights,
    LdpcWeights,
    channel_fields,
    channel_slots,
)

EXACT_MAX_BITS = 26  # brute force takes n <= 26, the code-space route k <= 26
_SPAN_BITS = 9  # span sums run in blocks of 2^9 x 2^9 points
CHANNEL_CHUNK = 1024  # channel_average hands value_fn this many patterns at most


@dataclass(frozen=True)
class PartitionReport:
    """log Z and the largest log weight of one configuration (overflow checks)."""

    log_z: float
    n: int
    max_log_weight: float


def _check_masks(graph: FactorGraph) -> list[int]:
    masks = []
    for a in range(graph.m):
        mask = 0
        for i in graph.check_neighbors(a):
            mask |= 1 << i
        masks.append(mask)
    return masks


def _live_terms(graph: FactorGraph) -> list[tuple[tuple[int, ...], float]]:
    """(variables, coefficient) of the weight terms with coef_t != 0, where
    log w(s) = sum_t coef_t prod_{i in t} s_i: the ldgm checks with their
    fields, or the general coupling subsets with beta J."""
    w = graph.weights
    if isinstance(w, LdgmWeights):
        terms = [(graph.check_neighbors(a), h) for a, h in enumerate(w.check_fields)]
    else:
        terms = [(subset, w.beta * j) for check in w.couplings for subset, j in check]
    return [(support, coef) for support, coef in terms if coef != 0.0]


def _term_rows(n: int, terms: list[tuple[tuple[int, ...], float]]) -> list[int]:
    """Row i: the terms (by position) whose variables include i."""
    rows = [0] * n
    for pos, (support, _coef) in enumerate(terms):
        for i in support:
            rows[i] |= 1 << pos
    return rows


def brute_force_log_partition(graph: FactorGraph) -> PartitionReport:
    """ln Z over all 2^n spin configurations, summed over their parity image.

    With s_i = (-1)^{x_i}, a weight term prod_{i in t} s_i is (-1)^{y_t} for
    the parity y_t of x on t, so log w(x) = sum_t coef_t (1 - 2 y_t)
    depends on x only through y = xM, M the variable-by-term incidence.
    ldpc: the terms are the variable fields and only codewords have weight,
    so y runs over the codewords.  ldgm and general: y runs over the row
    space of M, and each y stands for 2^(n - rank M) configurations.

    Raises TooLargeError for n > EXACT_MAX_BITS.
    """
    n = graph.n
    if n > EXACT_MAX_BITS:
        raise TooLargeError(f"n = {n} exceeds the exhaustive cap {EXACT_MAX_BITS}")
    if isinstance(graph.weights, LdpcWeights):
        ((_members, basis, w, _negs, (offset,)),) = _code_spaces(graph)
        free = 0  # one configuration per codeword
    else:
        terms = _live_terms(graph)
        basis = list(_reduced_rows(_term_rows(n, terms)).values())
        w = np.array([[-2.0 * coef for _support, coef in terms]])
        offset = math.fsum(coef for _support, coef in terms)
        free = n - len(basis)
    ((peak, total),) = _span_log_sums(basis, w, [0])
    ln_sum, top = _log_sum(offset, peak, total)
    return PartitionReport(log_z=ln_sum + free * math.log(2.0), n=n, max_log_weight=top)


def _reduced_rows(rows: list[int]) -> dict[int, int]:
    """Reduced row echelon form over GF(2) of bitmask rows.

    Maps each pivot bit (the lowest set bit of its row) to its row; every
    pivot bit is clear in all the other rows.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        for bit, prow in pivots.items():
            if row >> bit & 1:
                row ^= prow
        if row:
            bit = (row & -row).bit_length() - 1
            for b, prow in pivots.items():
                if prow >> bit & 1:
                    pivots[b] = prow ^ row
            pivots[bit] = row
    return pivots


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows."""
    return len(_reduced_rows(rows))


def null_space_gf2(rows: list[int], width: int) -> list[int]:
    """Basis of {x < 2^width : x & row has even parity for every row}.

    One basis vector per free column f, in increasing f: bit f plus the
    pivot bits of the reduced rows that contain f.
    """
    pivots = _reduced_rows(rows)
    basis = []
    for f in range(width):
        if f not in pivots:
            vec = 1 << f
            for bit, prow in pivots.items():
                if prow >> f & 1:
                    vec |= 1 << bit
            basis.append(vec)
    return basis


def codeword_count_gf2(graph: FactorGraph) -> int:
    """log2 of the number of parity-check solutions: k = n - rank(H).

    Only meaningful for ldpc graphs; anything else raises
    WrongWeightKindError.
    """
    if graph.weights.kind != "ldpc":
        raise WrongWeightKindError("codeword counting needs ldpc weights")
    return len(null_space_gf2(_check_masks(graph), graph.n))


# ---------------------------------------------------------------------------
# code-space log partition function


@dataclass(frozen=True)
class CodeSpaceReport:
    """ln Z from the code-space route and the dimension k it summed over."""

    log_z: float
    k: int


def _ln_cosh(h: float) -> float:
    a = abs(h)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _ln_abs_tanh(h: float) -> float:
    a = abs(h)
    return math.log(-math.expm1(-2.0 * a)) - math.log1p(math.exp(-2.0 * a))


def _capped_null_space(rows: list[int], width: int) -> list[int]:
    """null_space_gf2, refused before elimination when the rank bound
    rank <= len(rows) already puts the dimension above EXACT_MAX_BITS,
    and after it when the dimension itself exceeds the cap."""
    bound = width - len(rows)
    if bound > EXACT_MAX_BITS:
        raise TooLargeError(
            f"code-space dimension k = {bound} or more exceeds the exhaustive cap "
            f"{EXACT_MAX_BITS} ({width} columns, {len(rows)} rows)"
        )
    basis = null_space_gf2(rows, width)
    if len(basis) > EXACT_MAX_BITS:
        raise TooLargeError(
            f"code-space dimension k = {len(basis)} exceeds the exhaustive cap "
            f"{EXACT_MAX_BITS}"
        )
    return basis


def _code_spaces(
    graph: FactorGraph, fields=None
) -> list[tuple[list[int], list[int], np.ndarray, list[int], list[float]]]:
    """Groups (members, basis, weights w, sign masks neg, offsets) with
    ln Z = offset + ln sum_{c in span(basis)} (-1)^{|c & neg|} exp(w . c)
    for graph under each member row of fields (see channel_fields), one row
    of w per member.

    ldpc: one group; c runs over the codewords, w_i = -2 h_i, offset
    sum_i h_i.  ldgm: one group per set of checks with h_a != 0 (a zero
    field has tanh h_a = 0 and kills every set holding a), in order of first
    member; c runs over the dual code restricted to those checks,
    w_a = ln|tanh h_a|, neg marks h_a < 0, and the offset is
    n ln 2 + sum_a ln cosh h_a.  Every basis is eliminated, and refused over
    the cap, before any group is returned.
    """
    rows = channel_fields(graph, fields)
    if rows is None:
        raise WrongWeightKindError("the code-space route needs ldpc or ldgm weights")
    table = rows.tolist()
    if graph.weights.kind == "ldpc":
        basis = _capped_null_space(_check_masks(graph), graph.n)  # k >= n - m
        offsets = [math.fsum(f) for f in table]
        return [(list(range(len(table))), basis, -2.0 * rows, [0] * len(table), offsets)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, row in enumerate(table):
        live = tuple(a for a, h in enumerate(row) if h != 0.0)
        groups.setdefault(live, []).append(pos)
    supports = [graph.check_neighbors(a) for a in range(graph.m)]
    bases = [  # k >= live - n
        _capped_null_space(
            _term_rows(graph.n, [(supports[a], 1.0) for a in live]), len(live)
        )
        for live in groups
    ]
    values = set(rows.ravel().tolist())
    ln_cosh = {h: _ln_cosh(h) for h in values}
    ln_abs_tanh = {h: _ln_abs_tanh(h) for h in values if h != 0.0}
    n_ln2 = graph.n * math.log(2.0)
    out = []
    for (live, members), basis in zip(groups.items(), bases):
        fields = [[table[pos][a] for a in live] for pos in members]
        out.append(
            (
                members,
                basis,
                np.array([[ln_abs_tanh[h] for h in f] for f in fields], dtype=float),
                [sum(1 << k for k, h in enumerate(f) if h < 0.0) for f in fields],
                [n_ln2 + math.fsum(ln_cosh[h] for h in table[pos]) for pos in members],
            )
        )
    return out


def _bits(vec: int, width: int) -> np.ndarray:
    """The low width bits of vec as a 0/1 float vector, bit 0 first."""
    raw = np.frombuffer(vec.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.float64)


def _sign(vec: int, neg: int) -> float:
    return -1.0 if (vec & neg).bit_count() & 1 else 1.0


def _span_rows(vectors: list[int], width: int) -> np.ndarray:
    """Every XOR combination of vectors as a 0/1 float row; row r combines
    the vectors whose bit is set in r."""
    rows = np.zeros((1, width))
    for vec in vectors:
        rows = np.concatenate([rows, np.abs(rows - _bits(vec, width))])
    return rows


def _span_signs(vectors: list[int], negs: list[int]) -> np.ndarray:
    """Per sign mask neg (one row each), the sign (-1)^{|row & neg|} of every
    row of _span_rows(vectors); it is linear over GF(2) like the row."""
    signs = np.ones((len(negs), 1))
    for vec in vectors:
        flips = np.array([_sign(vec, neg) for neg in negs])[:, None]
        signs = np.concatenate([signs, flips * signs], axis=1)
    return signs


def _span_log_sums(
    basis: list[int], w: np.ndarray, negs: list[int]
) -> list[tuple[float, float]]:
    """Per row w of the weights and its sign mask neg: (peak, total) with
    ln sum_{c in span(basis)} (-1)^{|c & neg|} exp(w . c) = peak + ln total
    and peak = max_c w . c.

    The low basis vectors index the rows and the middle ones the columns of
    blocks of at most 2^_SPAN_BITS x 2^_SPAN_BITS points; the high ones
    run in an outer loop.  With c = r xor s,
    w . c = w . r + w . s - 2 w . (r and s), so a block is one matrix
    product per weight row: the rows share the span rows and run as the
    items of stacked products, each one the BLAS call a lone row makes, in
    slices of at most 2^(2 _SPAN_BITS) points.  Each block is scaled by its
    own peak, and the scaled block sums are combined by math.fsum in block
    order.  total is not positive when a signed sum cancels.
    """
    width = w.shape[1]
    low = min(len(basis), _SPAN_BITS)
    mid = min(len(basis) - low, _SPAN_BITS)
    rows = _span_rows(basis[:low], width)
    cols = _span_rows(basis[low : low + mid], width)
    high = basis[low + mid :]
    tops = []
    for t in range(1 << len(high)):
        top = 0
        for j, vec in enumerate(high):
            if t >> j & 1:
                top ^= vec
        tops.append(top)
    step = max(1, (1 << 2 * _SPAN_BITS) // (len(rows) * len(cols)))
    out: list[tuple[float, float]] = [(0.0, 0.0)] * len(w)
    unsigned = [pos for pos, neg in enumerate(negs) if not neg]
    signed = [pos for pos, neg in enumerate(negs) if neg]
    for members, is_signed in ((unsigned, False), (signed, True)):
        for start in range(0, len(members), step):
            part = members[start : start + step]
            part_negs = [negs[pos] for pos in part]
            wb = w[part]
            size = len(part)
            row_w = np.matmul(rows, wb[:, :, None])
            if is_signed:
                row_signs = _span_signs(basis[:low], part_negs)[:, None, :]
                col_signs = _span_signs(basis[low : low + mid], part_negs)[:, :, None]
            peaks, partials = [], []
            for top in tops:
                block_cols = np.abs(cols - _bits(top, width)) if top else cols
                log_w = (
                    row_w
                    + np.matmul(block_cols, wb[:, :, None]).transpose(0, 2, 1)
                    - 2.0
                    * np.matmul(rows, (block_cols * wb[:, None, :]).transpose(0, 2, 1))
                )
                peak = log_w.reshape(size, -1).max(axis=1)
                scaled = np.exp(log_w - peak[:, None, None])
                if is_signed:
                    top_signs = np.array([_sign(top, neg) for neg in part_negs])
                    partial = top_signs * np.matmul(
                        np.matmul(row_signs, scaled), col_signs
                    ).reshape(size)
                else:
                    partial = scaled.reshape(size, -1).sum(axis=1)
                peaks.append(peak.tolist())
                partials.append(partial.tolist())
            for k, pos in enumerate(part):
                block_peaks = [p[k] for p in peaks]
                peak = max(block_peaks)
                total = math.fsum(
                    s[k] * math.exp(p - peak) for p, s in zip(block_peaks, partials)
                )
                out[pos] = (peak, total)
    return out


def _log_sum(offset: float, peak: float, total: float) -> tuple[float, float]:
    """(offset + ln of the span sum, offset + its largest log term), or
    LogDomainError when the signed sum is not positive."""
    if not total > 0.0:
        raise LogDomainError(f"signed code-space sum {total} is not positive")
    return offset + peak + math.log(total), offset + peak


def code_space_log_partition(graph: FactorGraph) -> CodeSpaceReport:
    """ln Z of an ldpc or ldgm graph as a sum over its code space.

    Raises TooLargeError when the space has dimension k > EXACT_MAX_BITS,
    before any term is summed, and before the GF(2) elimination when the
    rank bound (k >= n - m for ldpc, k >= live checks - n for ldgm) already
    exceeds the cap; WrongWeightKindError for general weights; and
    LogDomainError when the signed ldgm sum cancels to a non-positive value.

    The ldgm sum is signed, so it loses precision as |tanh h_a| -> 1: on
    two checks sharing one variable with fields +-h(p) the error against
    brute force is 4.6e-12 at p = 1e-6 and 4.7e-10 at p = 1e-9, and fields
    of +-40 round both tanh to 1 and raise LogDomainError.
    """
    return code_space_log_partitions(graph)[0]


def code_space_log_partitions(graph: FactorGraph, fields=None) -> list[CodeSpaceReport]:
    """code_space_log_partition of graph under every row of fields (see
    channel_fields), in row order, as one batch.

    The GF(2) elimination and the span rows are built once (once per set of
    nonzero-field checks for ldgm) and every row's weights are scored
    against them; each log_z is the float the graph under that row gets on
    its own.  Every space is checked against the cap before any term is
    summed; then the first row whose signed sum cancels raises
    LogDomainError.
    """
    sums = {}  # row: (offset, peak, total, k)
    for members, basis, w, negs, offsets in _code_spaces(graph, fields):
        span_sums = _span_log_sums(basis, w, negs)
        for pos, offset, (peak, total) in zip(members, offsets, span_sums):
            sums[pos] = (offset, peak, total, len(basis))
    return [
        CodeSpaceReport(log_z=_log_sum(offset, peak, total)[0], k=k)
        for _pos, (offset, peak, total, k) in sorted(sums.items())
    ]


# ---------------------------------------------------------------------------
# conditional entropy formulas and channel averages


def channel_shift(p: float) -> float:
    """(1-2p)/2 * ln((1-p)/p), the per-field entropy correction."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"p must lie in (0, 1/2], got {p}")
    return 0.5 * (1.0 - 2.0 * p) * math.log((1.0 - p) / p)


def conditional_entropy_ldpc(avg_free_energy: float, p: float) -> float:
    """H(X|Y)/n for an ldpc instance from its channel-averaged free energy."""
    return avg_free_energy - channel_shift(p)


def conditional_entropy_ldgm(
    avg_free_energy: float, p: float, edge_ratio: float
) -> float:
    """H(U|Y)/n for an ldgm instance; edge_ratio is m/n (checks per variable)."""
    return avg_free_energy - edge_ratio * channel_shift(p)


@dataclass(frozen=True)
class ChannelAverage:
    """Mean of a per-instance functional over channel sign patterns."""

    mean: float
    stderr: float
    method: str
    patterns: int


def channel_average(
    graph: FactorGraph,
    p: float,
    value_fn: Callable[[np.ndarray], Sequence[float]],
    exhaustive_limit: int = 20,
    mc_samples: int = 2_000,
    seed: int = 0,
) -> ChannelAverage:
    """Average a per-instance value over channel realizations of the field signs.

    The graph supplies the topology; fields are redrawn as +-h(p) on the
    n variables (ldpc) or m checks (ldgm).  All 2^k sign patterns are
    enumerated exactly when k <= exhaustive_limit, otherwise a seeded Monte
    Carlo estimate with its standard error is returned.  At p = 1/2 the
    fields vanish and a single evaluation suffices.

    value_fn takes a float64 array of field rows, shape (rows, slots), one
    row per pattern, and returns their values in order; no graph is built
    per pattern.  It sees the patterns in chunks of at most CHANNEL_CHUNK
    rows, in pattern order, so 2^20 patterns are never held at once.

    Raises ValueError for p outside (0, 1/2] or mc_samples < 1, and
    WrongWeightKindError for general weights, before value_fn is called;
    ValueError when value_fn returns the wrong number of values.
    """
    h = ChannelParams(p=p).h
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
    count = channel_slots(graph)

    def values(fields: np.ndarray) -> list[float]:
        out = list(value_fn(fields))
        if len(out) != len(fields):
            raise ValueError(f"value_fn returned {len(out)} values for {len(fields)} rows")
        return out

    if h == 0.0:
        (val,) = values(np.zeros((1, count)))
        return ChannelAverage(mean=val, stderr=0.0, method="degenerate", patterns=1)

    if count <= exhaustive_limit:
        slots = np.arange(count)
        contribs = []
        for start in range(0, 1 << count, CHANNEL_CHUNK):
            patterns = np.arange(start, min(start + CHANNEL_CHUNK, 1 << count))
            fields = np.where((patterns[:, None] >> slots) & 1, -h, h)
            for pattern, val in zip(patterns.tolist(), values(fields)):
                flips = pattern.bit_count()
                weight = (p**flips) * ((1.0 - p) ** (count - flips))
                contribs.append(weight * val)
        return ChannelAverage(
            mean=math.fsum(contribs),
            stderr=0.0,
            method="exhaustive",
            patterns=1 << count,
        )

    rng = random.Random(seed)
    vals = []
    for start in range(0, mc_samples, CHANNEL_CHUNK):
        rows = min(CHANNEL_CHUNK, mc_samples - start)
        draws = np.array([rng.random() for _ in range(rows * count)])
        vals.extend(values(np.where(draws.reshape(rows, count) < p, -h, h)))
    arr = np.asarray(vals)
    return ChannelAverage(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
        method="montecarlo",
        patterns=mc_samples,
    )
