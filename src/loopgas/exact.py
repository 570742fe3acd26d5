"""Exact references: log partition functions, GF(2) code spaces, and the
conditional-entropy formulas they plug into.

Two exact routes compute ln Z:

- brute force sums over all 2^n spin configurations, for every weight
  family;
- the code-space route sums over a GF(2) linear space of dimension k.  For
  ldpc weights Z is a sum over the 2^k codewords, k = n - rank H.  For ldgm
  weights the high-temperature expansion gives
  Z = 2^n prod_a cosh h_a * sum_S prod_{a in S} tanh h_a over the check
  sets S whose variable masks XOR to zero (the dual code).

Both refuse a sum of more than 2^EXACT_MAX_BITS terms before any work.
Brute force is the oracle: for the code-space route, and for the
approximate machinery in the sibling modules.  The code-space route gives
exact values far beyond n = 26 while k stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LogDomainError, TooLargeError, WrongWeightKindError
from .graphs import FactorGraph, GeneralWeights, LdgmWeights, LdpcWeights

EXACT_MAX_BITS = 26  # both exact routes sum at most 2^26 terms
_BLOCK_BITS = 18
_SPAN_BITS = 9  # code-space blocks are 2^9 x 2^9 codewords


@dataclass(frozen=True)
class PartitionReport:
    """log Z together with the peak log-weight seen (overflow diagnostics)."""

    log_z: float
    n: int
    max_log_weight: float


def _parity(x: np.ndarray, mask: int) -> np.ndarray:
    """Parity of the bits of x & mask, as uint8 in {0, 1}."""
    return (np.bitwise_count(x & np.uint64(mask)) & np.uint8(1)).astype(np.uint8)


def _check_masks(graph: FactorGraph) -> list[int]:
    masks = []
    for a in range(graph.m):
        mask = 0
        for i in graph.check_neighbors(a):
            mask |= 1 << i
        masks.append(mask)
    return masks


def _block_log_weights(
    graph: FactorGraph, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Log weights of configurations lo..hi-1 and their validity mask.

    Configurations are bit patterns x over variables with spin
    s_i = (-1)^{x_i}; invalid rows (violated ldpc parity) are flagged False
    and their log weight is meaningless.
    """
    x = np.arange(lo, hi, dtype=np.uint64)
    w = graph.weights
    valid = np.ones(hi - lo, dtype=bool)
    if isinstance(w, LdpcWeights):
        logw = np.full(hi - lo, math.fsum(w.variable_fields))
        for a, mask in enumerate(_check_masks(graph)):
            valid &= _parity(x, mask) == 0
        for i, h in enumerate(w.variable_fields):
            if h != 0.0:
                logw -= (2.0 * h) * ((x >> np.uint64(i)) & np.uint64(1)).astype(
                    np.float64
                )
    elif isinstance(w, LdgmWeights):
        logw = np.zeros(hi - lo)
        for a, mask in enumerate(_check_masks(graph)):
            h = w.check_fields[a]
            if h != 0.0:
                logw += h * (1.0 - 2.0 * _parity(x, mask).astype(np.float64))
    else:
        assert isinstance(w, GeneralWeights)
        logw = np.zeros(hi - lo)
        for terms in w.couplings:
            for subset, j in terms:
                if j == 0.0:
                    continue
                mask = 0
                for i in subset:
                    mask |= 1 << i
                logw += (w.beta * j) * (
                    1.0 - 2.0 * _parity(x, mask).astype(np.float64)
                )
    return logw, valid


def brute_force_log_partition(graph: FactorGraph) -> PartitionReport:
    """ln Z by exhaustive enumeration of all 2^n spin configurations.

    Uses a two-pass max-shifted log-sum-exp with block partial sums combined
    by exact summation in a fixed block order, so the result is deterministic
    and insensitive to block size.

    Raises TooLargeError for n > EXACT_MAX_BITS.
    """
    n = graph.n
    if n > EXACT_MAX_BITS:
        raise TooLargeError(f"n = {n} exceeds the exhaustive cap {EXACT_MAX_BITS}")
    total = 1 << n
    block = 1 << _BLOCK_BITS

    peak = -math.inf
    for lo in range(0, total, block):
        logw, valid = _block_log_weights(graph, lo, min(lo + block, total))
        if valid.any():
            peak = max(peak, float(logw[valid].max()))
    if peak == -math.inf:
        raise WrongWeightKindError("no configuration has positive weight")

    partials = []
    for lo in range(0, total, block):
        logw, valid = _block_log_weights(graph, lo, min(lo + block, total))
        partials.append(float(np.exp(logw[valid] - peak).sum()))
    return PartitionReport(
        log_z=peak + math.log(math.fsum(partials)), n=n, max_log_weight=peak
    )


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
    rank <= len(rows) already puts the dimension above EXACT_MAX_BITS."""
    bound = width - len(rows)
    if bound > EXACT_MAX_BITS:
        raise TooLargeError(
            f"code-space dimension k = {bound} or more exceeds the exhaustive cap "
            f"{EXACT_MAX_BITS} ({width} columns, {len(rows)} rows)"
        )
    return null_space_gf2(rows, width)


def _code_space(graph: FactorGraph) -> tuple[list[int], np.ndarray, int, float]:
    """(basis, weights w, sign mask neg, offset) with
    ln Z = offset + ln sum_{c in span(basis)} (-1)^{|c & neg|} exp(w . c).

    ldpc: c runs over the codewords, w_i = -2 h_i, offset sum_i h_i.
    ldgm: c runs over the dual code restricted to the checks with h_a != 0
    (a zero field has tanh h_a = 0 and kills every set holding a);
    w_a = ln|tanh h_a|, neg marks h_a < 0, and the offset is
    n ln 2 + sum_a ln cosh h_a.
    """
    w = graph.weights
    if isinstance(w, LdpcWeights):
        basis = _capped_null_space(_check_masks(graph), graph.n)  # k >= n - m
        weights = np.array([-2.0 * h for h in w.variable_fields])
        return basis, weights, 0, math.fsum(w.variable_fields)
    if not isinstance(w, LdgmWeights):
        raise WrongWeightKindError("the code-space route needs ldpc or ldgm weights")
    live = [a for a, h in enumerate(w.check_fields) if h != 0.0]
    # row i: the live checks (by position in live) that variable i feeds
    rows = [0] * graph.n
    for pos, a in enumerate(live):
        for i in graph.check_neighbors(a):
            rows[i] |= 1 << pos
    basis = _capped_null_space(rows, len(live))  # k >= live checks - n
    fields = [w.check_fields[a] for a in live]
    weights = np.array([_ln_abs_tanh(h) for h in fields])
    neg = sum(1 << pos for pos, h in enumerate(fields) if h < 0.0)
    offset = graph.n * math.log(2.0) + math.fsum(_ln_cosh(h) for h in w.check_fields)
    return basis, weights, neg, offset


def _bits(vec: int, width: int) -> np.ndarray:
    """The low width bits of vec as a 0/1 float vector, bit 0 first."""
    raw = np.frombuffer(vec.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.float64)


def _sign(vec: int, neg: int) -> float:
    return -1.0 if (vec & neg).bit_count() & 1 else 1.0


def _span_rows(
    vectors: list[int], width: int, neg: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every XOR combination of vectors as a 0/1 float row, with its sign.

    Row r combines the vectors whose bit is set in r; its sign is
    (-1)^{|row & neg|}, which is linear over GF(2) like the row itself.
    """
    rows = np.zeros((1, width))
    signs = np.ones(1)
    for vec in vectors:
        rows = np.concatenate([rows, np.abs(rows - _bits(vec, width))])
        signs = np.concatenate([signs, _sign(vec, neg) * signs])
    return rows, signs


def _span_log_sum(basis: list[int], w: np.ndarray, neg: int, offset: float) -> float:
    """offset + ln sum_{c in span(basis)} (-1)^{|c & neg|} exp(w . c).

    The low basis vectors index the rows and the middle ones the columns of
    blocks of at most 2^_SPAN_BITS x 2^_SPAN_BITS codewords; the high ones
    run in an outer loop.  With c = r xor s,
    w . c = w . r + w . s - 2 w . (r and s), so a block is one matrix
    product.  Each block is scaled by its own peak, and the scaled block
    sums are combined by math.fsum in block order.  Raises LogDomainError
    when the signed sum is not positive.
    """
    width = len(w)
    low = min(len(basis), _SPAN_BITS)
    mid = min(len(basis) - low, _SPAN_BITS)
    rows, row_signs = _span_rows(basis[:low], width, neg)
    cols, col_signs = _span_rows(basis[low : low + mid], width, neg)
    row_w = rows @ w
    high = basis[low + mid :]
    peaks, partials = [], []
    for t in range(1 << len(high)):
        top = 0
        for j, vec in enumerate(high):
            if t >> j & 1:
                top ^= vec
        block_cols = np.abs(cols - _bits(top, width)) if top else cols
        log_w = (
            row_w[:, None]
            + (block_cols @ w)[None, :]
            - 2.0 * (rows @ (block_cols * w).T)
        )
        peak = float(log_w.max())
        scaled = np.exp(log_w - peak)
        if neg:
            partial = _sign(top, neg) * float(row_signs @ scaled @ col_signs)
        else:
            partial = float(scaled.sum())
        peaks.append(peak)
        partials.append(partial)
    peak = max(peaks)
    total = math.fsum(s * math.exp(p - peak) for p, s in zip(peaks, partials))
    if not total > 0.0:
        raise LogDomainError(f"signed code-space sum {total} is not positive")
    return offset + peak + math.log(total)


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
    basis, w, neg, offset = _code_space(graph)
    k = len(basis)
    if k > EXACT_MAX_BITS:
        raise TooLargeError(
            f"code-space dimension k = {k} exceeds the exhaustive cap {EXACT_MAX_BITS}"
        )
    return CodeSpaceReport(log_z=_span_log_sum(basis, w, neg, offset), k=k)


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
    value_fn: Callable[[FactorGraph], float],
    exhaustive_limit: int = 20,
    mc_samples: int = 2_000,
    seed: int = 0,
) -> ChannelAverage:
    """Average value_fn over channel realizations of the field signs.

    The graph supplies the topology; fields are redrawn as +-h(p) on the
    n variables (ldpc) or m checks (ldgm).  All 2^k sign patterns are
    enumerated exactly when k <= exhaustive_limit, otherwise a seeded Monte
    Carlo estimate with its standard error is returned.  At p = 1/2 the
    fields vanish and a single evaluation suffices.
    """
    kind = graph.weights.kind
    if kind == "ldpc":
        count = graph.n
    elif kind == "ldgm":
        count = graph.m
    else:
        raise WrongWeightKindError("channel averaging needs ldpc or ldgm weights")
    h = 0.5 * math.log((1.0 - p) / p)

    def with_fields(fields: tuple[float, ...]) -> FactorGraph:
        import dataclasses

        if kind == "ldpc":
            return dataclasses.replace(
                graph, weights=LdpcWeights(variable_fields=fields)
            )
        return dataclasses.replace(graph, weights=LdgmWeights(check_fields=fields))

    if h == 0.0:
        val = value_fn(with_fields((0.0,) * count))
        return ChannelAverage(mean=val, stderr=0.0, method="degenerate", patterns=1)

    if count <= exhaustive_limit:
        contribs = []
        for pattern in range(1 << count):
            flips = pattern.bit_count()
            weight = (p**flips) * ((1.0 - p) ** (count - flips))
            fields = tuple(
                -h if (pattern >> k) & 1 else h for k in range(count)
            )
            contribs.append(weight * value_fn(with_fields(fields)))
        return ChannelAverage(
            mean=math.fsum(contribs),
            stderr=0.0,
            method="exhaustive",
            patterns=1 << count,
        )

    rng = random.Random(seed)
    vals = []
    for _ in range(mc_samples):
        fields = tuple(-h if rng.random() < p else h for _ in range(count))
        vals.append(value_fn(with_fields(fields)))
    arr = np.asarray(vals)
    return ChannelAverage(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
        method="montecarlo",
        patterns=mc_samples,
    )
