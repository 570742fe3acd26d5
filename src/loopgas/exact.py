"""Exact references: ln Z as one sum over a GF(2) linear space, GF(2)
counting, and the conditional-entropy formulas the sums plug into.

log_partition is the one exact route, and the input alone picks the space
it sums over (_span_log_sums):

- ldpc: the codewords.  With s_i = (-1)^{x_i}, a codeword x has
  log w = sum_i h_i (1 - 2 x_i), and every other x has weight 0.
- ldgm and general: log w(s) = sum_t c_t prod_{i in t} s_i over the live
  weight terms t (c_t != 0: the check fields, or beta J per coupling
  subset).  Let M be their variable-by-term incidence over GF(2).
  "row-space": the term parities y = xM run over the row space of M, and
  log w = sum_t c_t (1 - 2 y_t) depends on x through y alone, each y
  standing for 2^(n - rank M) configurations; a positive sum.
  "dual-code": exp(c s) = cosh c (1 + s tanh c) gives
  Z = 2^n prod_t cosh c_t * sum_S prod_{t in S} tanh c_t over the term sets
  S that hold every variable an even number of times, the null space of M;
  a signed sum, which loses precision as |tanh c_t| -> 1.
  One elimination of M gives both; the smaller dimension is summed, the
  row space on a tie.

One cap, EXACT_MAX_BITS, bounds the dimension k of the chosen space, and
every refusal comes before any term is summed: for ldpc before the
elimination, when the rank bound k >= n - m already exceeds it; for ldgm
and general as soon as the elimination's pivots put the row space over it
while live - n already puts the dual over it.

log_partitions runs one graph under rows of fields, say the channel
patterns of one code: the elimination and the span rows are built once per
set of live terms, and every row's weight vector is scored against them as
one item of stacked matrix products, the same BLAS call per item that a
lone graph makes, so each ln Z is the float the graph under that row gets
on its own.
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
    GeneralWeights,
    channel_fields,
    channel_slots,
)

EXACT_MAX_BITS = 26  # the largest dimension k of a summed GF(2) space
_SPAN_BITS = 9  # span sums run in blocks of 2^9 x 2^9 points
CHANNEL_CHUNK = 1024  # channel_average hands value_fn this many patterns at most


@dataclass(frozen=True)
class PartitionReport:
    """ln Z of a graph on n variables, the route that summed it
    ("codewords", "row-space" or "dual-code") and that space's dimension k."""

    log_z: float
    n: int
    method: str
    k: int


def _term_rows(n: int, supports: list[tuple[int, ...]]) -> list[int]:
    """Row i: the terms (by position) whose variables include i."""
    rows = [0] * n
    for pos, support in enumerate(supports):
        for i in support:
            rows[i] |= 1 << pos
    return rows


def _reduced_rows(rows: list[int], max_rank: int | None = None) -> dict[int, int]:
    """Reduced row echelon form over GF(2) of bitmask rows.

    Maps each pivot bit (the lowest set bit of its row) to its row; every
    pivot bit is clear in all the other rows.  With max_rank, stops at the
    first pivot past it, so more than max_rank pivots mean rank > max_rank.
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
            if max_rank is not None and len(pivots) > max_rank:
                break
    return pivots


def _null_basis(pivots: dict[int, int], width: int) -> list[int]:
    """One basis vector of the null space per free column f, in increasing
    f: bit f plus the pivot bits of the reduced rows that contain f."""
    basis = []
    for f in range(width):
        if f not in pivots:
            vec = 1 << f
            for bit, prow in pivots.items():
                if prow >> f & 1:
                    vec |= 1 << bit
            basis.append(vec)
    return basis


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows."""
    return len(_reduced_rows(rows))


def null_space_gf2(rows: list[int], width: int) -> list[int]:
    """Basis of {x < 2^width : x & row has even parity for every row}."""
    return _null_basis(_reduced_rows(rows), width)


def codeword_count_gf2(graph: FactorGraph) -> int:
    """log2 of the number of parity-check solutions: k = n - rank(H).

    Only meaningful for ldpc graphs; anything else raises
    WrongWeightKindError.
    """
    if graph.weights.kind != "ldpc":
        raise WrongWeightKindError("codeword counting needs ldpc weights")
    checks = _term_rows(graph.m, [graph.var_neighbors(i) for i in range(graph.n)])
    return len(null_space_gf2(checks, graph.n))


# ---------------------------------------------------------------------------
# the GF(2) space of a graph


def _ln_cosh(h: float) -> float:
    a = abs(h)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _ln_abs_tanh(h: float) -> float:
    a = abs(h)
    return math.log(-math.expm1(-2.0 * a)) - math.log1p(math.exp(-2.0 * a))


def _term_space(n: int, supports: list[tuple[int, ...]]) -> tuple[str, list[int]]:
    """(method, basis) of the smaller of the row space and the null space
    of the terms' incidence, the row space on a tie; TooLargeError when
    both exceed EXACT_MAX_BITS, with the elimination stopped past the cap
    pivots when live - n already puts the dual over it."""
    live = len(supports)
    dual_over = live - n > EXACT_MAX_BITS
    pivots = _reduced_rows(_term_rows(n, supports), EXACT_MAX_BITS if dual_over else None)
    rank = len(pivots)
    if min(rank, live - rank) > EXACT_MAX_BITS:
        more = " or more" if dual_over else ""
        raise TooLargeError(
            f"row-space dimension k = {rank}{more} and dual-code dimension "
            f"k = {live - n if dual_over else live - rank}{more} both exceed the "
            f"exhaustive cap {EXACT_MAX_BITS} ({n} variables, {live} live terms)"
        )
    if rank <= live - rank:
        return "row-space", list(pivots.values())
    return "dual-code", _null_basis(pivots, live)


def _spaces(
    graph: FactorGraph, fields=None
) -> list[tuple[list[int], str, list[int], np.ndarray, list[int], list[float], int]]:
    """Groups (members, method, basis, weights w, sign masks neg, offsets,
    free) with ln Z = offset + ln sum_{c in span(basis)} (-1)^{|c & neg|}
    exp(w . c) + free ln 2 for graph under each member row of fields (see
    channel_fields; general weights have their own terms as one row), one
    row of w per member.

    ldpc: one group; c runs over the codewords, w_i = -2 h_i, offset
    sum_i h_i.  ldgm and general: one group per set of live terms (a zero
    coefficient adds nothing to log w and kills every dual set holding its
    term), in order of first member, over the space _term_space picks.  The
    row space has w_t = -2 c_t, offset sum_t c_t and free = n - rank; the
    dual code w_t = ln|tanh c_t|, neg marking c_t < 0, and offset
    n ln 2 + sum_t ln cosh c_t.  Every basis is eliminated, and refused
    over the cap, before any group is returned.
    """
    n, w = graph.n, graph.weights
    rows = channel_fields(graph, fields)  # refuses bad field rows first
    if w.kind == "ldpc":
        bound = n - graph.m  # k >= n - rank >= n - m
        if bound > EXACT_MAX_BITS:
            raise TooLargeError(
                f"codeword dimension k = {bound} or more exceeds the exhaustive cap "
                f"{EXACT_MAX_BITS} ({n} variables, {graph.m} checks)"
            )
        checks = _term_rows(graph.m, [graph.var_neighbors(i) for i in range(n)])
        basis = null_space_gf2(checks, n)
        if len(basis) > EXACT_MAX_BITS:
            raise TooLargeError(
                f"codeword dimension k = {len(basis)} exceeds the exhaustive cap "
                f"{EXACT_MAX_BITS}"
            )
        members = list(range(len(rows)))
        offsets = [math.fsum(f) for f in rows.tolist()]
        return [(members, "codewords", basis, -2.0 * rows, [0] * len(rows), offsets, 0)]
    if isinstance(w, GeneralWeights):
        supports = [subset for check in w.couplings for subset, _j in check]
        table = [[w.beta * j for check in w.couplings for _subset, j in check]]
    else:
        supports = [graph.check_neighbors(a) for a in range(graph.m)]
        table = rows.tolist()
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, row in enumerate(table):
        live = tuple(t for t, c in enumerate(row) if c != 0.0)
        groups.setdefault(live, []).append(pos)
    routes = [_term_space(n, [supports[t] for t in live]) for live in groups]
    values = {c for row in table for c in row}
    ln_cosh = {c: _ln_cosh(c) for c in values}
    ln_abs_tanh = {c: _ln_abs_tanh(c) for c in values if c != 0.0}
    out = []
    for (live, members), (method, basis) in zip(groups.items(), routes):
        coefs = [[table[pos][t] for t in live] for pos in members]
        if method == "row-space":
            w_rows = [[-2.0 * c for c in row] for row in coefs]
            negs = [0] * len(members)
            offsets = [math.fsum(row) for row in coefs]
            free = n - len(basis)
        else:
            w_rows = [[ln_abs_tanh[c] for c in row] for row in coefs]
            negs = [sum(1 << k for k, c in enumerate(row) if c < 0.0) for row in coefs]
            offsets = [
                n * math.log(2.0) + math.fsum(ln_cosh[c] for c in table[pos]) for pos in members
            ]
            free = 0
        out.append((members, method, basis, np.array(w_rows, dtype=float), negs, offsets, free))
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


def _span_signs(rows: np.ndarray, negs: list[int]) -> np.ndarray:
    """Per sign mask neg (one row each), the sign (-1)^{|row & neg|} of every
    0/1 row of rows; the shared-bit counts are exact in float64."""
    neg_bits = np.array([_bits(neg, rows.shape[1]) for neg in negs])
    return 1.0 - 2.0 * ((neg_bits @ rows.T) % 2.0)


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
                row_signs = _span_signs(rows, part_negs)[:, None, :]
                col_signs = _span_signs(cols, part_negs)[:, :, None]
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


def _log_sum(offset: float, peak: float, total: float) -> float:
    """offset + ln of the span sum, or LogDomainError when the signed sum is
    not positive."""
    if not total > 0.0:
        raise LogDomainError(f"signed dual-code sum {total} is not positive")
    return offset + peak + math.log(total)


def log_partition(graph: FactorGraph) -> PartitionReport:
    """ln Z of graph over its smallest GF(2) space (see the module notes).

    Raises TooLargeError when that space has dimension k > EXACT_MAX_BITS,
    before any term is summed; LogDomainError when a signed dual-code sum
    cancels to a non-positive value.
    """
    return log_partitions(graph)[0]


def log_partitions(graph: FactorGraph, fields=None) -> list[PartitionReport]:
    """log_partition of graph under every row of fields (see
    channel_fields), in row order, as one batch.

    The elimination and the span rows are built once per set of live terms
    (once for ldpc) and every row's weights are scored against them; each
    log_z is the float the graph under that row gets on its own.  Every
    space is checked against the cap before any term is summed; then the
    first row whose signed sum cancels raises LogDomainError.
    """
    sums = {}  # row: (offset, peak, total, free, method, k)
    for members, method, basis, w, negs, offsets, free in _spaces(graph, fields):
        span_sums = _span_log_sums(basis, w, negs)
        for pos, offset, (peak, total) in zip(members, offsets, span_sums):
            sums[pos] = (offset, peak, total, free, method, len(basis))
    return [
        PartitionReport(
            log_z=_log_sum(offset, peak, total) + free * math.log(2.0),
            n=graph.n,
            method=method,
            k=k,
        )
        for _pos, (offset, peak, total, free, method, k) in sorted(sums.items())
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


def gauge_keys(graph: FactorGraph, fields) -> list[bytes]:
    """One key per row of fields (see channel_fields): two rows share a key
    exactly when their magnitudes agree and their sign bits differ by a
    gauge flip, a codeword for ldpc or the check parities of a set of
    variable flips for ldgm.

    Across such a flip BP's messages change sign on the flipped variables'
    edges, and each Bethe term is kept or has two summands swapped, exactly
    in floating point, so the rows of one key share BP's convergence and
    f_bethe bit for bit.  A key is the parities of the row's sign bits
    against a basis of the flips' orthogonal complement (the row space of H
    for ldpc, the null space of the variable-by-check incidence for ldgm),
    then the bytes of the row's magnitudes.  Refuses general weights.
    """
    slots = channel_slots(graph)
    rows = channel_fields(graph, fields)
    if graph.weights.kind == "ldpc":
        checks = _term_rows(graph.m, [graph.var_neighbors(i) for i in range(graph.n)])
        complement = list(_reduced_rows(checks).values())
    else:
        incidence = _term_rows(graph.n, [graph.check_neighbors(a) for a in range(graph.m)])
        complement = null_space_gf2(incidence, slots)
    masks = np.array([_bits(vec, slots) for vec in complement])
    parities = (np.signbit(rows) @ masks.reshape(-1, slots).T % 2.0).astype(np.uint8)
    return [
        bits.tobytes() + size.tobytes()
        for bits, size in zip(np.packbits(parities, axis=1), np.abs(rows))
    ]


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

    Raises ValueError for p outside (0, 1/2] or mc_samples < 1,
    WrongWeightKindError for general weights, and TooLargeError for an
    enumeration of more than 2^EXACT_MAX_BITS patterns, before value_fn is
    called; ValueError when value_fn returns the wrong number of values.
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
        if count > EXACT_MAX_BITS:
            raise TooLargeError(
                f"exhaustive channel average over 2^{count} sign patterns exceeds the "
                f"cap 2^{EXACT_MAX_BITS}; an exhaustive limit below {count} samples them"
            )
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
