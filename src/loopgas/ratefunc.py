"""Growth-versus-decay rate functions for large-subgraph types.

In a regular two-sided degree ensemble, subgraphs of a prescribed type
(counts of touched variables by induced degree s and touched checks by
induced degree t) proliferate like exp(n l f(x, y)) while the uniform
activity bound decays like exp(n l k_theta(x, y)).  The sign of

    Lambda(theta) = max over the admissible type region of f + k_theta

decides whether subgraphs containing a large connected piece can carry
any weight.  This module evaluates f, k_theta, the restriction f0 of f
to the even sub-lattice, and Lambda(theta) from its stationarity
equations.

Coordinates: xs = (x_2..x_l) are variable-type fractions, ys = (y_2..y_r)
check-type fractions rescaled by r/l, so the admissible region is

    lam <= (1/l) sum x_s + (1/r) sum y_t,
    sum (s/l) x_s = sum (t/r) y_t,
    sum x_s < 1,  sum y_t < 1,

with all coordinates nonnegative.  The equality eliminates y_r.

Stationarity.  Only the entropy terms of f are nonlinear; k_theta is
linear, with per-coordinate coefficients b_s and a_t (e^-inf = 0 where
the log diverges).  Every stationary point is a member of the family

    x_s = (1 - sx) C(l, s) e^(b_s + eta + alpha_x s),
    y_t = (1 - sy) C(r, t) e^(a_t + eta + alpha_y t),

sx = sum x_s, sy = sum y_t, with wx = wy = w, alpha_x + alpha_y = logit(w)
and a size multiplier eta >= 0 that is 0 unless sx/l + sy/r = lam.  At a
fixed w the problem is concave in (x, y); its dual

    psi = ln(1 + Zx)/l + ln(1 + Zy)/r - (alpha_x + alpha_y) w - eta lam,

Zx = sum_s C(l, s) e^(b_s + eta + alpha_x s), is convex, the minimizing
eta solves a quadratic, and Newton steps in (alpha_x, alpha_y) find its
minimum, exact also where a side holds a single type of positive weight
and across eta = 0 (see _Dual).  V(w) = -h(w) + min psi is not concave:
it is evaluated on a fixed grid of w, and every grid peak is refined by
Newton steps on V'(w) = logit(w) - alpha_x - alpha_y, each row stopping
once its step moves w by at most 1e-13 w.  All thetas of a profile are
solved together in numpy.  The admissible family points are then scored
with f_xy + k_theta (y_r from the degree matching), so a value is always
the objective at an admissible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import InfeasibleDomainError
from .graphs import binary_entropy


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
            raise ValueError(f"need l odd with 3 <= l < r, got l = {self.l}, r = {self.r}")
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
    val += math.fsum(x * math.log(math.comb(l, s)) for s, x in zip(range(2, l + 1), xs)) / l
    val += math.fsum(y * math.log(math.comb(r, t)) for t, y in zip(range(2, r + 1), ys)) / r
    val -= (_xlogx(1.0 - sy) + math.fsum(_xlogx(y) for y in ys)) / r
    val -= (_xlogx(1.0 - sx) + math.fsum(_xlogx(x) for x in xs)) / l
    return val


def k_theta(
    l: int, r: int, theta: float, xs, ys, alpha1: float = 1.1, alpha2: float = 1.1
) -> float:
    """Exponential decay rate of the uniform activity bound for type (xs, ys).

    Zero coordinates contribute nothing even where the underlying log
    diverges (theta = 0 on a plain-theta term); positive coordinates on
    such terms give -inf.
    """
    _check_coords(l, r, xs, ys)
    kx, ky, k_last = _decay_coefficients(l, r, theta, alpha1, alpha2)
    val = 0.0
    if ys[-1]:
        val += (ys[-1] / r) * k_last
    for y, c in zip(ys[:-1], ky):
        if y:
            val += (y / r) * c
    for x, c in zip(xs, kx):
        if x:
            val += (x / l) * c
    return val


def _decay_coefficients(l: int, r: int, theta: float, alpha1: float, alpha2: float):
    """k_theta = sum (x_s/l) kx_s + sum_{t<r} (y_t/r) ky_t + (y_r/r) k_last.

    A coefficient is -inf where its log diverges (theta = 0 on a
    plain-theta term).
    """
    kx = [
        math.log1p(0.5 * alpha2 * (1 + 4 * s + s * s) * theta * theta)
        if s % 2 == 0
        else _ln(alpha2 * (1 + s) * theta)
        for s in range(2, l + 1)
    ]
    ky = [_ln(alpha1 * theta ** (r - t)) for t in range(2, r)]
    return kx, ky, math.log1p(alpha1 * theta**r)


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


# ---------------------------------------------------------------------------
# Lambda(theta) from the stationarity family


def _region(l: int, r: int, lam: float):
    """admit(point) on free coordinates (xs, then ys without y_r).

    None off the admissible region; on it, y_r = wx - sum (t/r) y_t from
    the degree-matching equality, with the fsum wx = sum (s/l) x_s.
    """
    dim_x = l - 1
    wx_coef = [s / l for s in range(2, l + 1)]
    wy_coef = [t / r for t in range(2, r)]
    floor = lam - 1e-12

    def admit(point: list[float]) -> float | None:
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
        return yr

    return admit


_GRID = 64  # w grid points per theta
_GRID_REACH = 12.0  # logistic coordinates of the grid span [-12, 12]
_MAX_STEP = 16.0  # largest Newton move of alpha_x or alpha_y
_INNER_ITERS = 80
_INNER_DECREMENT = 1e-24  # decrement at which the dual counts as solved (see _Dual.floor)
_OUTER_ITERS = 40
_STOP = 1e-13  # a row whose Newton step on V' moves w by at most this, relative, ends
# a family point with sx or sy above this is scaled down to it, inside
# admit's sx, sy < 1 - 1e-12; scaling keeps wx = wy, and the size floor's
# 1e-12 slack absorbs the cut, at most 1.5e-12 (1/l + 1/r)
_OCCUPIED_CAP = 1.0 - 1.5e-12


def _family_logits(spec: RateFunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    """ln C(l, s) + b_s for s = 2..l and ln C(r, t) + a_t for t = 2..r;
    -inf where the decay coefficient is."""
    kx, ky, k_last = _decay_coefficients(
        spec.l, spec.r, spec.theta, spec.alpha1, spec.alpha2
    )
    cx = [math.log(math.comb(spec.l, s)) + c for s, c in zip(range(2, spec.l + 1), kx)]
    cy = [math.log(math.comb(spec.r, t)) + c for t, c in zip(range(2, spec.r), ky)]
    return np.array(cx), np.array(cy + [k_last])


def _w_grid(l: int, r: int, lam: float, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """The ends w_lo, w_hi of the range of w = wx = wy that admits a size
    sx/l + sy/r >= lam, with _GRID points strictly between them, crowded
    toward both ends.

    With t0 the smallest check degree of positive weight, the size at w
    is below min(w/2, 1/l) + min(w/t0, 1/r), so lam needs w above w_lo;
    with s1 the largest variable degree of positive weight, wx stays
    below s1/l.
    """
    t0 = 2 + int(np.flatnonzero(np.isfinite(cy))[0])
    s1 = 2 + int(np.flatnonzero(np.isfinite(cx))[-1])
    w_lo = max(lam / (0.5 + 1.0 / t0), 2.0 * (lam - 1.0 / r), t0 * (lam - 1.0 / l))
    w_hi = s1 / l
    if w_lo >= w_hi:
        raise InfeasibleDomainError(
            f"no type of finite rate reaches size fraction {lam} for l = {l}, r = {r}"
        )
    z = np.linspace(-_GRID_REACH, _GRID_REACH, _GRID)
    inner = w_lo + (w_hi - w_lo) / (1.0 + np.exp(-z))
    return np.concatenate([[w_lo], inner, [w_hi]])


def _side(c: np.ndarray, k: np.ndarray, alpha: np.ndarray):
    """ln Z with Z = sum_k e^(c_k + alpha k), and the weights normalized
    by Z, for each row."""
    z = c + alpha[:, None] * k
    top = z.max(axis=1)
    weights = np.exp(z - top[:, None])
    total = weights.sum(axis=1)
    return top + np.log(total), weights / total[:, None]


def _size_multiplier(lx, ly, l: int, r: int, lam: float) -> np.ndarray:
    """The eta >= 0 minimizing psi at given ln Zx, ln Zy (eta excluded).

    The size sig(eta + lx)/l + sig(eta + ly)/r rises with eta; with
    m = max(lx, ly), px = e^(lx - m), py = e^(ly - m) and u = e^(eta + m)
    it equals lam where c px py u^2 + b u - lam = 0, c = 1/l + 1/r - lam,
    b = px (1/l - lam) + py (1/r - lam).  eta is 0 where the size is above
    lam there.
    """
    m = np.maximum(lx, ly)
    px, py = np.exp(lx - m), np.exp(ly - m)
    c = 1.0 / l + 1.0 / r - lam
    b = px * (1.0 / l - lam) + py * (1.0 / r - lam)
    d = np.sqrt(b * b + 4.0 * c * lam * px * py)
    # ln of the positive root, in whichever form neither cancels nor overflows
    with np.errstate(divide="ignore"):
        ln_u = np.where(
            b >= 0.0,
            math.log(2.0 * lam) - np.log(b + d),
            np.log(d - b) - math.log(2.0 * c) - (lx - m) - (ly - m),
        )
    return np.maximum(ln_u - m, 0.0)


class _Dual:
    """psi and its Newton step in (alpha_x, alpha_y), eta eliminated, at
    one (ax, ay) per row for the row's w; the family point (xs, ys) there,
    and V(w) with its first two derivatives if (ax, ay) minimizes psi.

    At fixed eta the Hessian holds the covariances of (s, occupied) under
    the x law over {empty} + types, and likewise for y; where eta > 0 it is
    their Schur complement of the eta entry, written without cancellation.
    With a single type of positive weight on each side that is singular:
    psi is linear along its null direction until eta = 0.  A step that
    would take eta below 0 follows the eliminated step to eta = 0 and the
    fixed-eta step for the rest, the minimizer of the two quadratic pieces.
    """

    def __init__(self, cx, cy, l: int, r: int, lam: float, w, ax, ay):
        kx, ky = np.arange(2.0, l + 1), np.arange(2.0, r + 1)
        (lx, qx), (ly, qy) = _side(cx, kx, ax), _side(cy, ky, ay)
        eta = _size_multiplier(lx, ly, l, r, lam)
        ex, ey = np.logaddexp(0.0, eta + lx), np.logaddexp(0.0, eta + ly)
        sx = np.exp(-np.logaddexp(0.0, -eta - lx))  # occupied fractions, to an ulp
        sy = np.exp(-np.logaddexp(0.0, -eta - ly))
        self.ax, self.ay = ax, ay
        terms = (ex / l, ey / r, (ax + ay) * w, eta * lam)
        self.psi = terms[0] + terms[1] - terms[2] - terms[3]
        self.noise = 1e-14 * sum(np.abs(term) for term in terms)  # psi's rounding error
        shrink = np.minimum(1.0, _OCCUPIED_CAP / np.maximum(sx, sy))
        self.xs, self.ys = (shrink * sx)[:, None] * qx, (shrink * sy)[:, None] * qy
        mux, muy = qx @ kx, qy @ ky
        g1, g2 = sx * mux / l - w, sy * muy / r - w
        # per side, the variance of s given occupied and d size / d eta
        vx = sx * (qx * (kx - mux[:, None]) ** 2).sum(axis=1) / l
        vy = sy * (qy * (ky - muy[:, None]) ** 2).sum(axis=1) / r
        bx, by = sx * np.exp(-ex) / l, sy * np.exp(-ey) / r
        with np.errstate(divide="ignore", invalid="ignore"):
            f11, f22 = vx + bx * mux * mux, vy + by * muy * muy  # eta fixed
            c = bx * by / (bx + by)
            s11, s22, s12 = vx + c * mux * mux, vy + c * muy * muy, -c * mux * muy
            det = vx * s22 + c * mux * mux * vy
            # det times the eliminated Newton step, and -det times its move of eta
            n1, n2 = s12 * g2 - s22 * g1, s12 * g1 - s11 * g2
            dn = (bx * mux * n1 + by * muy * n2) / (bx + by)
            cross = (eta > 0.0) & (eta * det < dn)
            whole = (eta > 0.0) & ~cross & (det > 0.0)
            edge = np.where(cross, eta / dn, 0.0)
            self.d1 = np.where(whole, n1 / det, edge * n1 - (1.0 - edge * det) * g1 / f11)
            self.d2 = np.where(whole, n2 / det, edge * n2 - (1.0 - edge * det) * g2 / f22)
            self.decrement = -(g1 * self.d1 + g2 * self.d2)
            # H^-1 (1, 1), the move of (alpha_x, alpha_y) per unit of w, and V''
            tilt = np.where(whole, [s22 - s12, s11 - s12] / det, [1.0 / f11, 1.0 / f22])
        self.tilt = np.where(np.isfinite(tilt), tilt, 0.0)
        self.curvature = 1.0 / (w * (1.0 - w)) - self.tilt[0] - self.tilt[1]
        # solved at a decrement of 1e-24, or of a gradient error of 4 ulp of w
        self.floor = np.maximum(_INNER_DECREMENT, (4e-16 * w) ** 2 * self.tilt.sum(axis=0))
        self.solved = (self.decrement >= 0.0) & (self.decrement <= self.floor)
        self.value = w * np.log(w) + (1.0 - w) * np.log1p(-w) + self.psi
        self.slope = np.log(w) - np.log1p(-w) - ax - ay


def _dual_min(cx, cy, l: int, r: int, lam: float, w, ax, ay) -> _Dual:
    """Minimize psi over (alpha_x, alpha_y) at each row's w by the Newton
    steps of _Dual from (ax, ay).

    A step moves neither coordinate by more than _MAX_STEP and is halved
    until psi falls by a tenth of the decrease the step predicts, or by
    its rounding error; with the steps exact on both sides of eta = 0,
    most need no halving.  V is -inf on rows whose decrement is still
    above their floor after _INNER_ITERS steps.
    """
    at = _Dual(cx, cy, l, r, lam, w, ax, ay)
    for _ in range(_INNER_ITERS):
        moving = np.isfinite(at.decrement) & (at.decrement > at.floor)
        if not moving.any():
            break
        d1, d2 = np.where(moving, at.d1, 0.0), np.where(moving, at.d2, 0.0)
        gain = np.where(moving, at.decrement, 0.0)
        t = _MAX_STEP / np.maximum(np.maximum(np.abs(d1), np.abs(d2)), _MAX_STEP)
        for _halving in range(60):
            trial = _Dual(cx, cy, l, r, lam, w, at.ax + t * d1, at.ay + t * d2)
            short = trial.psi > at.psi - 0.1 * t * gain + at.noise
            if not short.any():
                break
            t = np.where(short, 0.5 * t, t)
        at = trial
    # one more full step: where psi is nearly flat along some direction, a small
    # decrement leaves alpha off by up to its square root; Newton ends that
    d1, d2 = np.where(at.solved, at.d1, 0.0), np.where(at.solved, at.d2, 0.0)
    at = _Dual(cx, cy, l, r, lam, w, at.ax + d1, at.ay + d2)
    at.value = np.where(at.solved, at.value, -np.inf)
    return at


def _family_points(specs: list[RateFunctionSpec]) -> list[list[list[float]]]:
    """Per spec, free coordinates of the best grid point of V and of every
    grid peak refined, all specs solved as rows of one array.

    A peak is a grid point whose V is at least its neighbours'; a narrow
    peak next to the size floor can beat a broad one elsewhere.  Each
    refinement keeps a bracket of the peak's neighbours (w_lo or w_hi at
    the ends), narrowed by the sign of V'.  Where V is concave it takes
    the Newton step on V' in -ln(distance to the bracket end it heads for),
    which never leaves the bracket and is Newton's to second order (V' at a
    peak on the size floor goes like that log); elsewhere it bisects.  The
    dual at the new w starts from alpha + H^-1 (1, 1) dw.  A step of at
    most _STOP w (4e-16 w for a bisection) is a row's last: w stays there.
    """
    l, r, lam = specs[0].l, specs[0].r, specs[0].lam
    cx, cy = (np.array(side) for side in zip(*map(_family_logits, specs)))
    grid = np.array([_w_grid(l, r, lam, c, d) for c, d in zip(cx, cy)])
    zero = np.zeros(len(specs) * _GRID)
    on_grid = _dual_min(np.repeat(cx, _GRID, axis=0), np.repeat(cy, _GRID, axis=0),
                        l, r, lam, grid[:, 1:-1].ravel(), zero, zero)
    value = on_grid.value.reshape(len(specs), _GRID)
    edged = np.pad(value, ((0, 0), (1, 1)), constant_values=-np.inf)
    peak = (value > -np.inf) & (value >= edged[:, :-2]) & (value >= edged[:, 2:])
    row, at = np.nonzero(peak)
    lo, w, hi = grid[row, at], grid[row, at + 1], grid[row, at + 2]
    cx, cy = cx[row], cy[row]
    ax, ay = on_grid.ax[row * _GRID + at], on_grid.ay[row * _GRID + at]
    (done, last), found = np.zeros((2, len(w)), dtype=bool), np.zeros((len(w), l + r - 3))
    for _ in range(_OUTER_ITERS):
        point = _dual_min(cx, cy, l, r, lam, w, ax, ay)
        found[~done] = np.hstack([point.xs, point.ys[:, :-1]])[~done]
        done |= last
        if done.all():
            break
        rising = point.slope > 0.0
        lo, hi = np.where(rising, w, lo), np.where(rising, hi, w)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            move = -point.slope / point.curvature
            room = np.maximum(np.where(move > 0.0, hi - w, w - lo), 1e-300)
            move = np.copysign(room * -np.expm1(-np.abs(move) / room), move)
        newton = (point.curvature < 0.0) & np.isfinite(move)
        step = np.where(newton, w + move, 0.5 * (lo + hi))
        last = np.abs(step - w) <= np.where(newton, _STOP, 4e-16) * w
        step = np.where(done, w, step)
        ax, ay = point.ax + point.tilt[0] * (step - w), point.ay + point.tilt[1] * (step - w)
        w = step
    best = np.arange(len(specs)) * _GRID + value.argmax(axis=1)
    out = [[on_grid.xs[k].tolist() + on_grid.ys[k, :-1].tolist()] for k in best]
    for spec_row, refined in zip(row.tolist(), found.tolist()):
        out[spec_row].append(refined)
    return out


def _profile(specs: list[RateFunctionSpec]) -> list[RateFunctionResult]:
    l, r, lam = specs[0].l, specs[0].r, specs[0].lam
    if lam >= 1.0 / l + 1.0 / r:
        raise InfeasibleDomainError(
            f"size fraction {lam} >= 1/{l} + 1/{r}; no admissible types exist"
        )
    admit = _region(l, r, lam)
    out: list[RateFunctionResult] = []
    carried: list[tuple[tuple, tuple]] = []
    for spec, points in zip(specs, _family_points(specs)):
        types = [
            (tuple(p[: l - 1]), tuple(p[l - 1 :]) + (yr,))
            for p in points
            if (yr := admit(p)) is not None
        ] + carried
        if not types:
            raise InfeasibleDomainError(
                f"no admissible family point for l = {l}, r = {r}, lam = {lam}"
            )
        scored = [
            (f_xy(l, r, *t) + k_theta(l, r, spec.theta, *t, spec.alpha1, spec.alpha2), t)
            for t in types
        ]
        value, (xs, ys) = max(scored, key=lambda item: item[0])
        carried = [(xs, ys)]
        out.append(RateFunctionResult(value=value, xs=xs, ys=ys, theta=spec.theta))
    return out


def mckay_rate_function(spec: RateFunctionSpec) -> RateFunctionResult:
    """Maximize f + k_theta over the admissible type region.

    The maximizer is the best stationary point of the family in the
    module docstring, found by one deterministic solve and scored with
    f_xy + k_theta; the result is the objective at an admissible point.
    """
    return _profile([spec])[0]


def rate_function_profile(
    l: int,
    r: int,
    thetas,
    lam: float,
    alpha1: float = 1.1,
    alpha2: float = 1.1,
) -> list[RateFunctionResult]:
    """Lambda(theta) over a grid, all thetas solved together.

    Each theta also rescores the previous theta's maximizer and keeps the
    larger value, so with thetas in increasing order the returned values
    are nondecreasing: k_theta is pointwise nondecreasing in theta.  An
    empty grid raises ValueError.
    """
    specs = [
        RateFunctionSpec(l=l, r=r, theta=theta, lam=lam, alpha1=alpha1, alpha2=alpha2)
        for theta in thetas
    ]
    if not specs:
        raise ValueError("thetas must hold at least one noise level")
    return _profile(specs)
