"""Growth-versus-decay rate functions for large-subgraph types.

In a regular two-sided degree ensemble, subgraphs of a prescribed type
(counts of touched variables by induced degree s and touched checks by
induced degree t) proliferate like exp(n l f(x, y)) while the uniform
activity bound decays like exp(n l k_theta(x, y)).  The sign of

    Lambda(theta) = max over the admissible type region of f + k_theta

decides whether subgraphs containing a large connected piece can carry
any weight.  This module evaluates f, k_theta, the restriction f0 of f
to the even sub-lattice, and Lambda(theta) by seeded multi-start search
with coordinate refinement.

The search samples one pool of admissible starts, which does not depend
on theta; a profile over a theta grid samples it once.  The uniforms come
from random.Random(seed) in the order a draw-by-draw sampler takes them,
the rows are built in numpy with that sampler's float operations, and
admissibility is decided in numpy and, within a rounding margin of a
constraint, by the scalar fsum test, so the pool is that sampler's, bit
for bit.  Every start is screened in numpy
(f once per pool, k_theta as one matrix-vector product per theta).  The
screen only ranks: the starts within a rounding margin of the
REFINE_TOP-th best are rescored exactly, so the starts handed to
refinement, and hence the results, are the same as scoring every start
exactly.

Exact scoring is one fused closure per theta: score(point) is None off
the admissible region and f + k_theta on it, equal bit for bit to f_xy
plus k_theta (same fsum terms, same float operation order, coefficients
computed once).  Coordinate refinement calls it once per distinct trial
point of a climb.

Coordinates: xs = (x_2..x_l) are variable-type fractions, ys = (y_2..y_r)
check-type fractions rescaled by r/l, so the admissible region is

    lam <= (1/l) sum x_s + (1/r) sum y_t,
    sum (s/l) x_s = sum (t/r) y_t,
    sum x_s < 1,  sum y_t < 1,

with all coordinates nonnegative.  The equality eliminates y_r.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from operator import mul

import numpy as np

from .errors import InfeasibleDomainError
from .graphs import binary_entropy

REFINE_TOP = 12


def omega_constant(r: int) -> int:
    """Edge-count margin below which the type-counting estimate applies."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return 4 * r * r - 2 * r + 2


def _xlogx(v: float) -> float:
    return v * math.log(v) if v > 0.0 else 0.0


def _ln(v: float) -> float:
    return math.log(v) if v > 0.0 else float("-inf")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")


@dataclass(frozen=True)
class RateFunctionSpec:
    """Ensemble degrees, noise level, bound constants, and size fraction."""

    l: int
    r: int
    theta: float
    lam: float
    alpha1: float = 1.1
    alpha2: float = 1.1

    def __post_init__(self) -> None:
        if self.l % 2 == 0 or not 3 <= self.l < self.r:
            raise ValueError(
                f"need l odd with 3 <= l < r, got l = {self.l}, r = {self.r}"
            )
        if not 0.0 <= self.theta < 0.5:
            raise ValueError(f"theta must lie in [0, 0.5), got {self.theta}")
        for name in ("lam", "alpha1", "alpha2"):
            _check_finite(name, getattr(self, name))
        if self.lam <= 0.0:
            raise ValueError(f"size fraction must be positive, got {self.lam}")
        if self.alpha1 <= 1.0 or self.alpha2 <= 1.0:
            raise ValueError("bound constants alpha1, alpha2 must exceed 1")


@dataclass(frozen=True)
class RateFunctionResult:
    """Maximized rate and the type coordinates achieving it."""

    value: float
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    theta: float


def _check_coords(l: int, r: int, xs, ys) -> None:
    if len(xs) != l - 1:
        raise ValueError(f"expected {l - 1} variable coordinates, got {len(xs)}")
    if len(ys) != r - 1:
        raise ValueError(f"expected {r - 1} check coordinates, got {len(ys)}")
    if any(v < 0.0 for v in xs) or any(v < 0.0 for v in ys):
        raise ValueError("type coordinates must be nonnegative")
    if sum(xs) >= 1.0 or sum(ys) >= 1.0:
        raise ValueError("coordinate sums must stay below 1")


def f_xy(l: int, r: int, xs, ys) -> float:
    """Exponential growth rate of the number of subgraphs of type (xs, ys).

    xs runs over induced variable degrees s = 2..l, ys over induced check
    degrees t = 2..r.  Entropy-like terms extend by continuity to zero
    coordinates.
    """
    _check_coords(l, r, xs, ys)
    sx = math.fsum(xs)
    sy = math.fsum(ys)
    wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))
    val = _xlogx(1.0 - wx) + _xlogx(wx)
    val += math.fsum(
        x * math.log(math.comb(l, s)) for s, x in zip(range(2, l + 1), xs)
    ) / l
    val += math.fsum(
        y * math.log(math.comb(r, t)) for t, y in zip(range(2, r + 1), ys)
    ) / r
    val -= (_xlogx(1.0 - sy) + math.fsum(_xlogx(y) for y in ys)) / r
    val -= (_xlogx(1.0 - sx) + math.fsum(_xlogx(x) for x in xs)) / l
    return val


def k_theta(
    l: int,
    r: int,
    theta: float,
    xs,
    ys,
    alpha1: float = 1.1,
    alpha2: float = 1.1,
) -> float:
    """Exponential decay rate of the uniform activity bound for type (xs, ys).

    Zero coordinates contribute nothing even where the underlying log
    diverges (theta = 0 on a plain-theta term); positive coordinates on
    such terms give -inf.
    """
    _check_coords(l, r, xs, ys)
    val = 0.0
    if ys[-1]:
        val += (ys[-1] / r) * math.log1p(alpha1 * theta**r)
    for t, y in zip(range(2, r), ys[:-1]):
        if y:
            val += (y / r) * _ln(alpha1 * theta ** (r - t))
    for s, x in zip(range(2, l + 1), xs):
        if not x:
            continue
        if s % 2 == 0:
            val += (x / l) * math.log1p(
                0.5 * alpha2 * (1 + 4 * s + s * s) * theta * theta
            )
        else:
            val += (x / l) * _ln(alpha2 * (1 + s) * theta)
    return val


# ---------------------------------------------------------------------------
# restriction to the even sub-lattice (odd xs and all ys below y_r zero)


def z_star(l: int) -> tuple[float, ...]:
    """Maximizer of the restricted profile: z_s = C(l, 2s) / 2^(l-1)."""
    if l % 2 == 0 or l < 3:
        raise ValueError(f"need l odd and >= 3, got {l}")
    return tuple(math.comb(l, 2 * s) / 2 ** (l - 1) for s in range(1, (l + 1) // 2))


def f0_restricted(l: int, zs) -> float:
    """Profile of l*f on the even sub-lattice, minus its channel-free part.

    With z_s = x_{2s} and all other coordinates eliminated,
    l*f = f0(z) - (1 - l/r) * h2(sum (2s/l) z_s); this returns f0, which
    vanishes at z_star and is negative elsewhere.
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"need l odd and >= 3, got {l}")
    if len(zs) != (l - 1) // 2:
        raise ValueError(f"expected {(l - 1) // 2} coordinates, got {len(zs)}")
    if any(v < 0.0 for v in zs):
        raise ValueError("coordinates must be nonnegative")
    sz = math.fsum(zs)
    if sz >= 1.0:
        raise ValueError("coordinate sum must stay below 1")
    wz = math.fsum((2 * s / l) * z for s, z in zip(range(1, (l + 1) // 2), zs))
    val = -(l - 1) * binary_entropy(wz)
    val += math.fsum(
        z * math.log(math.comb(l, 2 * s)) for s, z in zip(range(1, (l + 1) // 2), zs)
    )
    val -= _xlogx(1.0 - sz) + math.fsum(_xlogx(z) for z in zs)
    return val


def restricted_point(l: int, r: int, zs) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Full (xs, ys) coordinates of a point z on the even sub-lattice."""
    xs = [0.0] * (l - 1)
    for s, zv in zip(range(1, (l + 1) // 2), zs):
        xs[2 * s - 2] = zv
    ys = [0.0] * (r - 1)
    ys[-1] = math.fsum((2 * s / l) * z for s, z in zip(range(1, (l + 1) // 2), zs))
    return tuple(xs), tuple(ys)


def maximize_f0(
    l: int,
    lam: float,
    starts: int = 4096,
    seed: int = 0,
    tol: float = 1e-6,
) -> tuple[float, tuple[float, ...]]:
    """Maximize the restricted profile over l*lam <= sum z_s < 1.

    Random multi-start plus coordinate refinement; no analytic hints, so
    the output doubles as an independent check of the closed-form point.
    """
    if l % 2 == 0 or l < 3:
        raise ValueError(f"need l odd and >= 3, got {l}")
    _check_starts(starts)
    _check_finite("lam", lam)
    if lam <= 0.0 or l * lam >= 1.0:
        raise InfeasibleDomainError(
            f"size fraction {lam} leaves no admissible restricted types for l = {l}"
        )
    dim = (l - 1) // 2
    floor = l * lam

    def feasible(point: list[float]) -> bool:
        if any(v < 0.0 for v in point):
            return False
        total = math.fsum(point)
        return floor <= total <= 1.0 - 1e-12

    def objective(point: list[float]) -> float:
        return f0_restricted(l, point)

    rng = random.Random(seed)
    best_pool: list[tuple[float, list[float]]] = []
    attempts = 0
    while len(best_pool) < starts and attempts < 50 * starts:
        attempts += 1
        raw = [rng.expovariate(1.0) for _ in range(dim)]
        total = sum(raw) or 1.0
        scale = math.exp(rng.uniform(math.log(max(floor, 1e-4)), math.log(0.999)))
        point = [v / total * scale for v in raw]
        if feasible(point):
            best_pool.append((objective(point), point))
    if not best_pool:
        raise InfeasibleDomainError(
            f"no admissible restricted types sampled for l = {l}, lam = {lam}"
        )
    best_pool.sort(key=lambda item: -item[0])
    value, point = best_pool[0][0], best_pool[0][1]

    def score(point: list[float]) -> float | None:
        return objective(point) if feasible(point) else None

    for cand_value, cand in best_pool[:REFINE_TOP]:
        ref_value, ref = _coordinate_ascent(score, cand, tol)
        if ref_value > value:
            value, point = ref_value, ref
    return value, tuple(point)


# ---------------------------------------------------------------------------
# full maximization


def _coordinate_ascent(score, start, tol, step0=0.05):
    """Climb from a feasible start; score(point) is None off the region.
    The value only grows, so a point scored once is never scored again."""
    point = list(start)
    value = score(point)
    seen = {tuple(point)}
    step = step0
    while step >= tol:
        moved = False
        for _round in range(200):
            improved = False
            for j in range(len(point)):
                for delta in (step, -step):
                    trial = point[j] + delta
                    if trial < 0.0:
                        trial = 0.0
                    if trial == point[j]:
                        continue
                    cand = list(point)
                    cand[j] = trial
                    if (key := tuple(cand)) in seen:
                        continue
                    seen.add(key)
                    cand_value = score(cand)
                    if cand_value is not None and cand_value > value:
                        value, point = cand_value, cand
                        improved = moved = True
            if not improved:
                break
        step *= 0.5
        if not moved and step < tol:
            break
    return value, point


def _check_starts(starts: int) -> None:
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")


def _region(l: int, r: int, lam: float):
    """admit(point) on free coordinates (xs, then ys without y_r).

    None off the admissible region; on it, (wx, y_r, sx) with the fsums
    wx = sum (s/l) x_s and sx = sum x_s, and y_r = wx - sum (t/r) y_t
    from the degree-matching equality.
    """
    dim_x = l - 1
    wx_coef = [s / l for s in range(2, l + 1)]
    wy_coef = [t / r for t in range(2, r)]
    floor = lam - 1e-12

    def admit(point: list[float]) -> tuple[float, float, float] | None:
        if min(point) < 0.0:
            return None
        xs = point[:dim_x]
        ys_head = point[dim_x:]
        wx = math.fsum(map(mul, wx_coef, xs))
        yr = wx - math.fsum(map(mul, wy_coef, ys_head))
        if yr < 0.0:
            return None
        sx = math.fsum(xs)
        sy = math.fsum(ys_head) + yr
        if sx >= 1.0 - 1e-12 or sy >= 1.0 - 1e-12 or not sx / l + sy / r >= floor:
            return None
        return wx, yr, sx

    return admit


def _decay_coefficients(spec: RateFunctionSpec):
    """k_theta = sum (x_s/l) kx_s + sum_{t<r} (y_t/r) ky_t + (y_r/r) k_last.

    A coefficient is -inf where its log diverges (theta = 0 on a
    plain-theta term).
    """
    l, r, theta = spec.l, spec.r, spec.theta
    kx = [
        math.log1p(0.5 * spec.alpha2 * (1 + 4 * s + s * s) * theta * theta)
        if s % 2 == 0
        else _ln(spec.alpha2 * (1 + s) * theta)
        for s in range(2, l + 1)
    ]
    ky = [_ln(spec.alpha1 * theta ** (r - t)) for t in range(2, r)]
    return kx, ky, math.log1p(spec.alpha1 * theta**r)


def _scorer(spec: RateFunctionSpec, admit):
    """score(point) = f_xy + k_theta on free coordinates, None where
    admit(point) is None.

    One pass over precomputed coefficients.  Every fsum holds the same
    terms and every float operation comes in the same order as in f_xy and
    k_theta, so a score equals their sum bit for bit.
    """
    l, r = spec.l, spec.r
    dim_x = l - 1
    comb_x = [math.log(math.comb(l, s)) for s in range(2, l + 1)]
    comb_y = [math.log(math.comb(r, t)) for t in range(2, r + 1)]
    kx, ky, k_last = _decay_coefficients(spec)

    def score(point: list[float]) -> float | None:
        region = admit(point)
        if region is None:
            return None
        wx, yr, sx = region
        xs = point[:dim_x]
        ys = point[dim_x:]
        ys.append(yr)
        sy = math.fsum(ys)
        val = _xlogx(1.0 - wx) + _xlogx(wx)
        val += math.fsum(map(mul, xs, comb_x)) / l
        val += math.fsum(map(mul, ys, comb_y)) / r
        val -= (_xlogx(1.0 - sy) + math.fsum(map(_xlogx, ys))) / r
        val -= (_xlogx(1.0 - sx) + math.fsum(map(_xlogx, xs))) / l
        decay = 0.0
        if yr:
            decay += (yr / r) * k_last
        for y, c in zip(ys, ky):  # ky stops before y_r
            if y:
                decay += (y / r) * c
        for x, c in zip(xs, kx):
            if x:
                decay += (x / l) * c
        return val + decay

    return score


# The pool's numpy admissibility test differs from admit's fsums only in
# rounding.  A numpy sum of n nonnegative terms is within n * 2^-52 of the
# fsum relative to the sum itself, so a comparison can only come out the
# other way where the compared value is about that close to its threshold.
# There every sum involved is below 2: wx < 1 is the sampler's own fsum,
# the check sum sum (t/r) y_t is at most wx, and the coordinate sums are
# near 1 or near lam.  So y_r, sx, sy and sx/l + sy/r are off by less than
# 4 (l + r) * 2^-52 there, under 1e-12 for l + r <= 1000; measured, at
# most 4.5e-16 over 20,000 draws each from (3,4) to (9,40).  Rows within
# _ADMIT_MARGIN of any threshold are decided by admit itself.
_ADMIT_MARGIN = 1e-11
_SAMPLE_BATCH = 1024


def _admissible_rows(
    admit, l: int, r: int, lam: float, rows: np.ndarray, wx: np.ndarray
) -> np.ndarray:
    """Mask of the rows admit accepts, with wx the rows' exact fsums."""
    xs, ys_head = rows[:, : l - 1], rows[:, l - 1 :]
    yr = wx - ys_head @ (np.arange(2, r) / r)
    sx = xs.sum(axis=1)
    sy = ys_head.sum(axis=1) + yr
    size = sx / l + sy / r
    edge, floor = 1.0 - 1e-12, lam - 1e-12
    ok = (rows.min(axis=1) >= 0.0) & (yr >= 0.0) & (sx < edge) & (sy < edge)
    ok &= size >= floor
    near = np.abs(yr) <= _ADMIT_MARGIN
    for value, threshold in ((sx, edge), (sy, edge), (size, floor)):
        near |= np.abs(value - threshold) <= _ADMIT_MARGIN
    for i in np.flatnonzero(near).tolist():
        ok[i] = admit(rows[i].tolist()) is not None
    return ok


def _each(fn, values: np.ndarray) -> np.ndarray:
    """fn(entry) for each entry of a 1-d array, or each row of a 2-d one."""
    return np.array(list(map(fn, values.tolist())))


def _sample_pool(l: int, r: int, lam: float, starts: int, seed: int) -> np.ndarray:
    """The first `starts` admissible rows among the first 100 * starts
    draws of random.Random(seed), in draw order.

    Log-uniform scales and randomly sparsified faces, in batches of at most
    _SAMPLE_BATCH draws.  A batch first calls random() and getrandbits() as
    expovariate, randrange and uniform would, keeping the uniforms; a draw
    takes ys only if a kept uniform is positive, which is wx > 0 since no
    coordinate underflows.  It then builds its rows in numpy with the same
    float operations, leaving logs, exps, sums and fsums to Python calls,
    and decides admissibility in numpy, or by admit within _ADMIT_MARGIN.
    """
    admit = _region(l, r, lam)
    dim_x = l - 1
    dim_y = r - 2  # y_r eliminated
    full = (1 << dim_x) - 1  # randrange(1, 1 << dim_x) retries getrandbits >= full
    shifts = np.arange(dim_x, dtype=np.int64 if dim_x < 63 else object)
    wx_coef = np.arange(2, l + 1) / l
    wy_coef = np.arange(2, r) / r
    log_lo, log_hi = math.log(1e-4), math.log(0.999)
    rng = random.Random(seed)
    unit, bits = rng.random, rng.getrandbits
    draws = iter(unit, None)  # endless random() calls, for islice
    pool = np.empty((starts, dim_x + dim_y))
    count = 0
    attempts = 0
    while count < starts and attempts < 100 * starts:
        batch = min(_SAMPLE_BATCH, 100 * starts - attempts, 2 * (starts - count))
        attempts += batch
        # per draw: dim_x uniforms, kept-coordinate bits, a scale uniform;
        # per draw k in y_rows: dim_y uniforms and a budget uniform
        ux, keeps, scales, uy, budgets, y_rows = [], [], [], [], [], []
        for k in range(batch):
            zero = False
            for _ in range(dim_x):
                ux.append(u := unit())
                zero |= not u
            keep = full
            if unit() < 0.5:
                keep = bits(dim_x)
                while keep >= full:
                    keep = bits(dim_x)
                keep += 1
            keeps.append(keep)
            scales.append(unit())
            if dim_y and unit() < 0.5:
                if not zero or any(ux[j - dim_x] for j in range(dim_x) if keep >> j & 1):
                    uy += islice(draws, dim_y)
                    budgets.append(unit())
                    y_rows.append(k)
        raw_x = -_each(math.log, 1.0 - np.array(ux)).reshape(batch, dim_x)
        raw_x[(np.array(keeps, dtype=shifts.dtype)[:, None] >> shifts) & 1 == 0] = 0.0
        total = _each(sum, raw_x)
        total[total == 0.0] = 1.0  # sum(raw_x) or 1.0
        scale = _each(math.exp, log_lo + (log_hi - log_lo) * np.array(scales))
        rows = np.zeros((batch, dim_x + dim_y))
        rows[:, :dim_x] = raw_x / total[:, None] * scale[:, None]
        wx = _each(math.fsum, rows[:, :dim_x] * wx_coef)
        if y_rows:
            raw_y = -_each(math.log, 1.0 - np.array(uy)).reshape(len(y_rows), dim_y)
            weight = _each(math.fsum, raw_y * wy_coef)
            budget = np.array(budgets) * wx[y_rows]
            y_rows, some = np.array(y_rows), weight > 0.0
            rows[y_rows[some], dim_x:] = raw_y[some] / weight[some, None] * budget[some, None]
        ok = _admissible_rows(admit, l, r, lam, rows, wx)
        take = np.flatnonzero(ok)[: starts - count]
        pool[count : count + len(take)] = rows[take]
        count += len(take)
    return pool[:count]


def _xlogx_rows(v: np.ndarray) -> np.ndarray:
    """v ln v elementwise, 0 at v <= 0 (continuity at 0, like _xlogx)."""
    pos = v > 0.0
    return np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)


def _growth_screen(l: int, r: int, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_xy, y_r) for every pool row, in numpy sums instead of fsum."""
    dim_x = l - 1
    xs, ys_head = pool[:, :dim_x], pool[:, dim_x:]
    s = np.arange(2, l + 1)
    t = np.arange(2, r)
    wx = xs @ (s / l)
    yr = np.maximum(wx - ys_head @ (t / r), 0.0)
    sx = xs.sum(axis=1)
    sy = ys_head.sum(axis=1) + yr
    comb_x = np.log([math.comb(l, int(v)) for v in s])
    comb_y = np.log([math.comb(r, int(v)) for v in t])  # C(r, r) = 1 drops y_r
    val = _xlogx_rows(1.0 - wx) + _xlogx_rows(wx)
    val += (xs @ comb_x) / l
    val += (ys_head @ comb_y) / r
    val -= (
        _xlogx_rows(1.0 - sy) + _xlogx_rows(ys_head).sum(axis=1) + _xlogx_rows(yr)
    ) / r
    val -= (_xlogx_rows(1.0 - sx) + _xlogx_rows(xs).sum(axis=1)) / l
    return val, yr


def _decay_screen(
    spec: RateFunctionSpec, pool: np.ndarray, yr: np.ndarray
) -> np.ndarray:
    """k_theta for every pool row: one coefficient vector, one product.

    A zero coordinate on a -inf coefficient contributes 0 and a positive
    one makes the row -inf, as in the scalar k_theta.
    """
    kx, ky, k_last = _decay_coefficients(spec)
    coef = [c / spec.l for c in kx] + [c / spec.r for c in ky]
    coef = np.array(coef)
    finite = np.isfinite(coef)
    val = pool[:, finite] @ coef[finite] + yr * (k_last / spec.r)
    val[(pool[:, ~finite] > 0.0).any(axis=1)] = -math.inf
    return val


# The screen differs from the fsum objective only in summation order and
# in one rounding per log.  The objective is a sum of fewer than l + r + 8
# terms, each a coordinate below 1 times a log of magnitude at most about
# 745 (the log of the smallest double), so the gap is below
# (l + r + 8) * 745 * 2^-52, about 1e-11 for r <= 50; measured, it is at
# most 1.8e-15 on pools from (3,4) to (9,40) at theta in {0, 1e-4, 1e-2,
# 0.3}.  With every screen value within half the margin of the exact one,
# each row of the exact top REFINE_TOP (ties included) scores at least the
# REFINE_TOP-th best screen value minus the margin, so none is lost.
_SCREEN_MARGIN = 1e-9


def _top_starts(score, pool: np.ndarray, screen: np.ndarray):
    """The REFINE_TOP best pool rows as (value, point), exactly as a stable
    sort of all rows by descending score would order them.

    Rows within _SCREEN_MARGIN of the REFINE_TOP-th best screen value are
    rescored with the exact score and ordered by (-value, pool index).
    """
    if len(pool) > REFINE_TOP:
        cut = np.partition(screen, len(pool) - REFINE_TOP)[len(pool) - REFINE_TOP]
        rows = np.flatnonzero(screen >= cut - _SCREEN_MARGIN)
    else:
        rows = np.arange(len(pool))
    scored = []
    for i in rows.tolist():
        point = pool[i].tolist()
        scored.append((score(point), i, point))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(value, point) for value, _i, point in scored[:REFINE_TOP]]


def _maximize(
    spec: RateFunctionSpec,
    pool: np.ndarray,
    growth: tuple[np.ndarray, np.ndarray],
    extra_starts: tuple[tuple[float, ...], ...],
    tol: float,
) -> RateFunctionResult:
    l, r, theta = spec.l, spec.r, spec.theta
    dim_x = l - 1
    admit = _region(l, r, spec.lam)
    score = _scorer(spec, admit)
    f_screen, yr = growth
    top = _top_starts(score, pool, f_screen + _decay_screen(spec, pool, yr))
    carried: list[tuple[float, list[float]]] = []
    for start in extra_starts:
        point = [max(0.0, float(v)) for v in start]
        value = score(point) if len(point) == pool.shape[1] else None
        if value is not None:
            carried.append((value, point))
    if not top and not carried:
        raise InfeasibleDomainError(
            f"no admissible types sampled for l = {l}, r = {r}, lam = {spec.lam}"
        )
    keep = top + carried
    value, point = max(keep, key=lambda item: item[0])
    point = list(point)
    for _cand_value, cand in keep:
        ref_value, ref = _coordinate_ascent(score, cand, tol)
        if ref_value > value:
            value, point = ref_value, ref
    ys = point[dim_x:] + [admit(point)[1]]
    return RateFunctionResult(
        value=value, xs=tuple(point[:dim_x]), ys=tuple(ys), theta=theta
    )


def _screened_pool(
    spec: RateFunctionSpec, starts: int, seed: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The seeded start pool and its growth screen; neither depends on theta."""
    _check_starts(starts)
    l, r, lam = spec.l, spec.r, spec.lam
    if lam >= 1.0 / l + 1.0 / r:
        raise InfeasibleDomainError(
            f"size fraction {lam} >= 1/{l} + 1/{r}; no admissible types exist"
        )
    pool = _sample_pool(l, r, lam, starts, seed)
    return pool, _growth_screen(l, r, pool)


def mckay_rate_function(
    spec: RateFunctionSpec,
    starts: int = 10_000,
    seed: int = 0,
    extra_starts: tuple[tuple[float, ...], ...] = (),
    tol: float = 1e-6,
) -> RateFunctionResult:
    """Maximize f + k_theta over the admissible type region.

    The degree-matching equality eliminates y_r; the remaining free
    coordinates are searched by seeded random multi-start (log-uniform
    scales, sparsified faces) plus coordinate refinement of the best
    REFINE_TOP starts.  `extra_starts` accepts free-coordinate vectors (xs
    then ys without y_r) from earlier runs; re-offering a maximizer found
    at a smaller theta makes profiles over increasing theta provably
    nondecreasing, since k_theta is pointwise nondecreasing in theta.
    """
    pool, growth = _screened_pool(spec, starts, seed)
    return _maximize(spec, pool, growth, extra_starts, tol)


def rate_function_profile(
    l: int,
    r: int,
    thetas,
    lam: float,
    alpha1: float = 1.1,
    alpha2: float = 1.1,
    starts: int = 10_000,
    seed: int = 0,
    tol: float = 1e-6,
) -> list[RateFunctionResult]:
    """Lambda(theta) over a grid, re-offering each maximizer downstream.

    The start pool does not depend on theta, so it is sampled once and
    its growth rates f are screened once in numpy; each theta adds one
    matrix-vector product for k_theta and rescores only the rows near its
    REFINE_TOP best with the exact score.  The result equals a chain
    of mckay_rate_function calls at the same seed, value for value.

    With thetas in increasing order the returned values are nondecreasing:
    k_theta is pointwise nondecreasing in theta, every maximizer is handed
    to the next run as a start, and refinement never returns less than its
    start value.  An empty grid raises ValueError.
    """
    thetas = tuple(thetas)
    if not thetas:
        raise ValueError("thetas must hold at least one noise level")
    carried: list[tuple[float, ...]] = []
    out: list[RateFunctionResult] = []
    pool = growth = None
    for theta in thetas:
        spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=lam, alpha1=alpha1, alpha2=alpha2)
        if pool is None:
            pool, growth = _screened_pool(spec, starts, seed)
        res = _maximize(spec, pool, growth, tuple(carried), tol)
        carried.append(tuple(res.xs) + tuple(res.ys[:-1]))
        out.append(res)
    return out
