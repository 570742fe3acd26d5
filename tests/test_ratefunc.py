"""Tests for growth-versus-decay rate functions and the expansion threshold solver."""

from __future__ import annotations

import math
import random

import pytest
import support as sp

from loopgas import (
    RateFunctionSpec,
    f0_restricted,
    mckay_rate_function,
    rate_function_profile,
    solve_lambda0,
    z_star,
)
from loopgas import ratefunc
from loopgas.errors import InfeasibleDomainError, LoopGasError, NoSignChangeError
from loopgas.graphs import binary_entropy
from loopgas.ratefunc import f_xy, k_theta


def _weighted_sum(l, zs):
    return math.fsum((2 * s / l) * z for s, z in zip(range(1, (l + 1) // 2), zs))


# ---------------------------------------------------------------------------
# closed-form maximizer of the restricted profile


def test_z_star_closed_form():
    assert z_star(3) == (0.75,)
    assert z_star(5) == (10 / 16, 5 / 16)
    assert z_star(7) == (21 / 64, 35 / 64, 7 / 64)
    for l in (3, 5, 7, 9):
        zs = z_star(l)
        assert len(zs) == (l - 1) // 2
        assert all(z > 0.0 for z in zs)
        # sum C(l, 2s) over s >= 1 equals 2^(l-1) - 1, so the sum stays below 1
        assert math.fsum(zs) == (2 ** (l - 1) - 1) / 2 ** (l - 1)


def test_z_star_rejects_even_or_small_degree():
    with pytest.raises(ValueError):
        z_star(4)
    with pytest.raises(ValueError):
        z_star(1)


def test_f0_vanishes_at_z_star():
    for l in (3, 5, 7):
        assert abs(f0_restricted(l, z_star(l))) <= 1e-12


def test_f0_negative_away_from_maximizer():
    rng = random.Random(2)
    for l in (3, 5):
        star = z_star(l)
        dim = (l - 1) // 2
        for _ in range(200):
            raw = [rng.expovariate(1.0) for _ in range(dim)]
            tot = sum(raw)
            scale = rng.uniform(0.05, 0.98)
            zs = [v / tot * scale for v in raw]
            if max(abs(a - b) for a, b in zip(zs, star)) < 1e-3:
                continue
            assert f0_restricted(l, zs) < 0.0


def test_f0_input_validation():
    with pytest.raises(ValueError):
        f0_restricted(4, (0.5,))
    with pytest.raises(ValueError):
        f0_restricted(3, (0.2, 0.2))
    with pytest.raises(ValueError):
        f0_restricted(3, (-0.1,))
    with pytest.raises(ValueError):
        f0_restricted(5, (0.6, 0.5))


# ---------------------------------------------------------------------------
# full growth rate and its restriction


def test_fxy_matches_restricted_profile():
    # On the even sub-lattice, l*f equals f0(z) - (1 - l/r) * h2(sum (2s/l) z_s).
    rng = random.Random(1)
    for l, r in ((3, 6), (5, 6), (3, 4), (5, 8)):
        dim = (l - 1) // 2
        for _ in range(5):
            zs = [rng.uniform(0.0, 0.9 / dim) for _ in range(dim)]
            xs, ys = sp.restricted_point(l, r, zs)
            lhs = l * f_xy(l, r, xs, ys)
            rhs = f0_restricted(l, zs) - (1 - l / r) * binary_entropy(_weighted_sum(l, zs))
            assert abs(lhs - rhs) <= 1e-12


def test_fxy_value_at_embedded_maximizer():
    # At z* the restricted profile vanishes and the weighted sum is 1/2,
    # so f = -(1 - l/r) * ln(2) / l; for (3, 6) that is -ln(2)/6.
    xs, ys = sp.restricted_point(3, 6, z_star(3))
    assert xs == (0.75, 0.0)
    assert ys == (0.0, 0.0, 0.0, 0.0, 0.5)
    assert abs(f_xy(3, 6, xs, ys) + math.log(2.0) / 6.0) <= 1e-14


def test_fxy_coordinate_validation():
    with pytest.raises(ValueError):
        f_xy(3, 6, (0.1,), (0.0, 0.0, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        f_xy(3, 6, (0.1, 0.0), (0.0, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        f_xy(3, 6, (-0.1, 0.0), (0.0, 0.0, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        f_xy(3, 6, (0.6, 0.5), (0.0, 0.0, 0.0, 0.0, 0.1))


# ---------------------------------------------------------------------------
# decay rate of the uniform activity bound


def test_k_theta_even_sublattice_hand_value():
    # Only the full-check and even-variable terms contribute, both via log1p.
    xs = (0.3, 0.0)
    ys = (0.0, 0.0, 0.0, 0.0, 0.2)
    theta = 0.1
    hand = (0.2 / 6) * math.log1p(1.1 * theta**6)
    hand += (0.3 / 3) * math.log1p(0.5 * 1.1 * (1 + 4 * 2 + 4) * theta * theta)
    assert abs(k_theta(3, 6, theta, xs, ys) - hand) <= 1e-15
    assert k_theta(3, 6, 0.0, xs, ys) == 0.0


def test_k_theta_plain_terms_closed_form():
    # Odd-variable and partial-check terms are affine in ln(theta).
    xs = (0.0, 0.2)
    ys = (0.15, 0.0, 0.0, 0.0, 0.0)
    for theta in (1e-1, 1e-3, 1e-6):
        hand = (0.2 / 3) * math.log(1.1 * 4 * theta)
        hand += (0.15 / 6) * math.log(1.1 * theta**4)
        assert abs(k_theta(3, 6, theta, xs, ys) - hand) <= 1e-13
    assert k_theta(3, 6, 0.0, xs, ys) == float("-inf")


def test_k_theta_nondecreasing_in_theta():
    rng = random.Random(6)
    for _ in range(20):
        xs = [rng.uniform(0.0, 0.3) for _ in range(2)]
        ys = [rng.uniform(0.0, 0.12) for _ in range(5)]
        values = [k_theta(3, 6, th, xs, ys) for th in (0.02, 0.1, 0.3, 0.45)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_k_theta_zero_coordinates_contribute_nothing():
    # A zero coordinate on a divergent term must not poison the total.
    xs = (0.0, 0.0)
    ys = (0.0, 0.0, 0.0, 0.0, 0.1)
    value = k_theta(3, 6, 0.0, xs, ys)
    assert value == 0.0 and math.isfinite(value)


# ---------------------------------------------------------------------------
# numerical maximization of the restricted profile


def test_maximize_f0_recovers_closed_form_point():
    value, zs = sp.maximize_f0(3, 1e-3, starts=2048, seed=0)
    assert abs(value) <= 1e-8
    assert abs(zs[0] - 0.75) <= 1e-4
    value5, zs5 = sp.maximize_f0(5, 1e-3, starts=2048, seed=0)
    assert abs(value5) <= 1e-8
    assert abs(zs5[0] - 0.625) <= 1e-3
    assert abs(zs5[1] - 0.3125) <= 1e-3


def test_maximize_f0_active_size_floor():
    # With l*lam above the unconstrained maximizer the floor binds.
    value, zs = sp.maximize_f0(3, 0.3, starts=1024, seed=1)
    assert math.fsum(zs) >= 0.9 - 1e-9
    assert value < -1e-3
    assert abs(value - f0_restricted(3, list(zs))) <= 1e-12


def test_maximize_f0_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sp.maximize_f0(4, 1e-3)
    with pytest.raises(InfeasibleDomainError):
        sp.maximize_f0(3, 0.4)


# ---------------------------------------------------------------------------
# full maximization of growth plus decay


def test_spec_validation():
    good = RateFunctionSpec(l=3, r=6, theta=0.1, lam=1e-3)
    assert good.alpha1 == good.alpha2 == 1.1
    with pytest.raises(ValueError):
        RateFunctionSpec(l=4, r=6, theta=0.1, lam=1e-3)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=5, r=3, theta=0.1, lam=1e-3)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=3, r=6, theta=0.5, lam=1e-3)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=3, r=6, theta=-0.01, lam=1e-3)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=3, r=6, theta=0.1, lam=0.0)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=3, r=6, theta=0.1, lam=1e-3, alpha1=1.0)
    with pytest.raises(ValueError):
        RateFunctionSpec(l=3, r=6, theta=0.1, lam=1e-3, alpha2=0.9)


def test_rate_function_infeasible_size_fraction():
    with pytest.raises(InfeasibleDomainError):
        mckay_rate_function(RateFunctionSpec(l=3, r=6, theta=0.1, lam=0.5))
    # below 1/l + 1/r, but at theta = 0 only even variable degrees and y_r
    # have finite rate, and no type of those reaches the size fraction
    with pytest.raises(InfeasibleDomainError, match="no type of finite rate reaches"):
        mckay_rate_function(RateFunctionSpec(l=11, r=12, theta=0.0, lam=0.1725))


def test_rate_function_negative_and_self_consistent():
    spec = RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)
    res = mckay_rate_function(spec)
    assert res.theta == 1e-3
    assert res.value < 0.0
    assert abs(res.value - (-0.003224)) <= 5e-5
    # reported value is the objective at the reported point
    obj = f_xy(3, 6, res.xs, res.ys) + k_theta(3, 6, 1e-3, res.xs, res.ys, 1.1, 1.1)
    assert abs(obj - res.value) <= 1e-15
    # reported point is admissible: nonnegative, proper sums, degree matching,
    # and at least the requested size fraction
    assert all(v >= 0.0 for v in res.xs) and all(v >= 0.0 for v in res.ys)
    assert math.fsum(res.xs) < 1.0 and math.fsum(res.ys) < 1.0
    wx = math.fsum((s / 3) * x for s, x in zip(range(2, 4), res.xs))
    wy = math.fsum((t / 6) * y for t, y in zip(range(2, 7), res.ys))
    assert abs(wx - wy) <= 1e-12
    assert math.fsum(res.xs) / 3 + math.fsum(res.ys) / 6 >= 1e-3 - 1e-12


def test_rate_function_deterministic():
    spec = RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)
    assert mckay_rate_function(spec) == mckay_rate_function(spec)


def test_rate_function_carried_starts_dominate():
    # each theta of a profile rescores the previous maximizer and keeps the
    # larger value, so no value falls below the carried point's objective
    thetas = (0.0, 1e-4, 1e-2, 0.3)
    for l, r, lam in ((3, 6, 1e-3), (5, 8, 0.05), (3, 4, 0.1)):
        profile = rate_function_profile(l, r, thetas, lam)
        for prev, res in zip(profile, profile[1:]):
            carried = f_xy(l, r, prev.xs, prev.ys) + k_theta(l, r, res.theta, prev.xs, prev.ys)
            assert res.value >= carried
            assert res.value >= prev.value


# Lambda(theta) of the benchmark's two rate-function operations (theta in
# 1e-4, 1e-3, 1e-2 at lam = 1e-3), to 12 digits
_PINNED = {
    6: (-0.003230421677, -0.003223492150, -0.003153692322),
    4: (-0.002076738548, -0.002066043764, -0.001959250686),
}


def test_profile_nondecreasing_with_frozen_values():
    for r, pinned in _PINNED.items():
        profile = rate_function_profile(3, r, (1e-4, 1e-3, 1e-2), 1e-3)
        values = [res.value for res in profile]
        assert values[0] <= values[1] <= values[2] < 0.0
        for got, frozen in zip(values, pinned):
            assert abs(got - frozen) <= 1e-10
        solo = mckay_rate_function(RateFunctionSpec(l=3, r=r, theta=1e-2, lam=1e-3))
        assert profile[-1].value >= solo.value


_PAIRS = [(3, 4), (3, 6), (5, 8), (7, 8), (9, 40)]
_GRID_THETAS = (0.0, 1e-4, 1e-2, 0.3, 0.45)
_GRID_LAMS = (1e-3, 0.05, 0.1)


@pytest.mark.parametrize("l, r", _PAIRS)
def test_value_at_least_the_multistart_oracle(l, r):
    # the multi-start oracle only ever reaches a lower bound on the maximum;
    # few starts and a coarse tol keep it fast and change nothing in that
    for lam in _GRID_LAMS:
        profile = rate_function_profile(l, r, _GRID_THETAS, lam)
        values = [res.value for res in profile]
        assert values == sorted(values)
        for res in profile:
            spec = RateFunctionSpec(l=l, r=r, theta=res.theta, lam=lam)
            oracle = sp.oracle_mckay_rate_function(spec, starts=20, seed=0, tol=1e-2)
            assert res.value >= oracle.value - 1e-12, (res.theta, lam)


def _family_line(coeffs, counts, fractions, n):
    """The slope of ln(v_k / (1 - sum v)) - ln C(n, k) - coeff_k over the
    types k of positive weight, its value at the first of them, and the
    largest misfit of a straight line."""
    occupied = math.fsum(fractions)
    points = [
        (k, math.log(v / (1.0 - occupied)) - math.log(math.comb(n, k)) - c)
        for k, v, c in zip(counts, fractions, coeffs)
        if c > -math.inf
    ]
    (k0, v0), (k1, v1) = points[0], points[-1]
    slope = (v1 - v0) / (k1 - k0)
    misfit = max(abs(v - v0 - slope * (k - k0)) for k, v in points)
    return slope, points[0], misfit


@pytest.mark.parametrize("l, r", _PAIRS)
def test_returned_points_solve_the_stationarity_family(l, r):
    # x_s / (1 - sx) = C(l, s) e^(b_s + eta + alpha_x s), the y side likewise
    # with the same eta, alpha_x + alpha_y = logit(wx), and eta > 0 only
    # where the size sits on lam.  At theta = 0 only y_r has positive
    # weight, which leaves alpha_y to the stationarity equation; with l = 3
    # x_2 is alone as well, every w fixes the point, and the maximum sits
    # on w's lower end, off the family's stationary points.
    for theta in _GRID_THETAS[1:]:
        for lam in _GRID_LAMS:
            spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=lam)
            res = mckay_rate_function(spec)
            kx, ky, k_last = ratefunc._decay_coefficients(l, r, theta, 1.1, 1.1)
            ax, (s0, u0), misfit_x = _family_line(kx, range(2, l + 1), res.xs, l)
            ay, (t0, v0), misfit_y = _family_line(ky + [k_last], range(2, r + 1), res.ys, r)
            assert misfit_x <= 1e-10 and misfit_y <= 1e-10
            wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), res.xs))
            logit = math.log(wx / (1.0 - wx))
            assert abs(ax + ay - logit) <= 1e-10, (theta, lam)
            eta = u0 - ax * s0
            sx, sy = math.fsum(res.xs), math.fsum(res.ys)
            # ln(1 - s) carries the rounding of 1 - s, large as s nears 1
            tol = 1e-9 + 1e-14 / (1.0 - max(sx, sy))
            assert abs(v0 - ay * t0 - eta) <= tol, (theta, lam)
            size = sx / l + sy / r
            assert eta >= -tol and size >= lam - 1e-12
            if eta > tol:
                assert abs(size - lam) <= 1e-12, (theta, lam)


@pytest.mark.parametrize("l, r", [(3, 6), (3, 4), (5, 8)])
def test_rate_function_equals_exact_scoring_oracle(l, r):
    # the returned value is the fsum objective at the returned point, bit
    # for bit, and the point (xs, then ys without y_r) is admissible
    for theta in (0.0, 1e-4, 1e-2, 0.3):
        spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=1e-3)
        res = mckay_rate_function(spec)
        point = list(res.xs) + list(res.ys[:-1])
        assert sp.oracle_feasible(l, r, 1e-3, point)
        assert res.value.hex() == sp.oracle_objective(spec, point).hex(), theta
        assert res.ys[-1] == sp._oracle_y_last(l, r, res.xs, res.ys[:-1])


@pytest.mark.parametrize(
    "l, r, seed, tol", [(3, 6, 0, 1e-6), (3, 4, 1, 1e-6), (5, 8, 2, 1e-3)]
)
def test_profile_equals_oracle_chain(l, r, seed, tol):
    # the solved profile is at least the oracle's chain of multi-starts,
    # which carries every maximizer to the next theta, value for value
    thetas = (0.0, 1e-4, 1e-3, 1e-2, 0.3)
    got = rate_function_profile(l, r, thetas, 1e-3)
    want = sp.oracle_rate_function_profile(l, r, thetas, 1e-3, starts=200, seed=seed, tol=tol)
    for res, oracle in zip(got, want):
        assert res.theta == oracle.theta
        assert res.value >= oracle.value - 1e-12


# ---------------------------------------------------------------------------
# peak refinement: stopping, cost, and the edges of the parameter range

# the README's rate-function call, and the benchmark's two
_README_CALLS = [(3, 6, (1e-4, 1e-3, 1e-2), 1e-3), (3, 4, (1e-4, 1e-3, 1e-2), 1e-3)]


def test_refinement_rows_stop_once_their_newton_step_is_tiny(monkeypatch):
    # every _dual_min call after the grid's holds the refinement rows in a
    # fixed order; once a row's Newton step on V' is within the stopping
    # tolerance, the row takes that step and its w never moves again (it
    # once bisected away from a converged peak when the step rounded onto
    # the bracket end)
    calls = []
    solve = ratefunc._dual_min

    def recording(cx, cy, l, r, lam, w, ax, ay):
        point = solve(cx, cy, l, r, lam, w, ax, ay)
        calls.append((w.copy(), point.slope / point.curvature, point.curvature))
        return point

    monkeypatch.setattr(ratefunc, "_dual_min", recording)
    rate_function_profile(*_README_CALLS[0])
    refinement = calls[1:]
    rows = len(refinement[0][0])
    assert rows >= 2
    for k in range(rows):
        tiny = [
            i for i, (w, step, curvature) in enumerate(refinement)
            if curvature[k] < 0.0 and abs(step[k]) <= ratefunc._STOP * w[k]
        ]
        assert tiny, k
        i = tiny[0]
        assert i + 1 < len(refinement), k
        stop = refinement[i + 1][0][k]
        assert abs(stop - refinement[i][0][k]) <= ratefunc._STOP * refinement[i][0][k]
        assert all(later[k] == stop for later, _, _ in refinement[i + 1 :]), k


@pytest.mark.parametrize("l, r, thetas, lam", _README_CALLS)
def test_readme_calls_need_few_dual_evaluations(monkeypatch, l, r, thetas, lam):
    # a deterministic cost bound: each evaluation of psi and its Newton step
    # is one _Dual; the README-line profile solves its 3 x 64 grid rows and
    # refines its peaks in at most 150 of them
    count = [0]

    class Counted(ratefunc._Dual):
        def __init__(self, *args):
            count[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(ratefunc, "_Dual", Counted)
    rate_function_profile(l, r, thetas, lam)
    assert 0 < count[0] <= 150


def test_small_theta_small_lam_reaches_the_fine_grid_value(monkeypatch):
    # the maximizer of (5, 40) at theta = 1e-6, lam = 1e-4 sits where
    # alpha_x jumps between two grid points; the default grid's refinement
    # reaches the value of a 1001-point grid reaching e^-25 of w's ends
    spec = RateFunctionSpec(l=5, r=40, theta=1e-6, lam=1e-4, alpha1=2.0, alpha2=3.0)
    value = mckay_rate_function(spec).value
    monkeypatch.setattr(ratefunc, "_GRID", 1001)
    monkeypatch.setattr(ratefunc, "_GRID_REACH", 25.0)
    fine = mckay_rate_function(spec).value
    assert value >= fine - 1e-13


@pytest.mark.parametrize("r", [4, 6, 8])
@pytest.mark.parametrize("lam", [1e-3, 0.1, 0.3])
def test_one_type_on_each_side_gives_the_closed_form(r, lam):
    # at theta = 0 with l = 3 only x_2 and y_r have finite rate, so w fixes
    # the point (x_2 = 3w/2, y_r = w) and the size multiplier and the tilts
    # move each side's law alike; the maximum is the better of w's lower end
    # and z_star at w = 1/2, where f = -(1 - 3/r) ln 2 / 3
    w = lam / (0.5 + 1.0 / r)
    end = f_xy(3, r, (1.5 * w, 0.0), (0.0,) * (r - 2) + (w,))
    inner = -(1.0 - 3.0 / r) * math.log(2.0) / 3.0 if w <= 0.5 else -math.inf
    res = mckay_rate_function(RateFunctionSpec(l=3, r=r, theta=0.0, lam=lam))
    assert abs(res.value - max(end, inner)) <= 1e-14


def _size_limit(l, r, theta):
    """The supremum of the sizes sx/l + sy/r of types of finite rate: at
    theta = 0 only even variable degrees (at most l - 1) and y_r have it."""
    if theta > 0.0:
        return 1.0 / l + 1.0 / r
    return min((l - 1) / (2 * l), 1.0 / l) + min((l - 1) / (l * r), 1.0 / r)


@pytest.mark.parametrize("l, r", [(3, 4), (3, 6), (5, 8), (9, 40)])
@pytest.mark.parametrize("theta", [0.0, 1e-6, 0.45])
@pytest.mark.parametrize("near_limit", [False, True])
@pytest.mark.parametrize("alpha1, alpha2", [(1.1, 1.1), (10.0, 10.0), (1.1, 10.0)])
def test_rate_function_edges_give_finite_values(l, r, theta, near_limit, alpha1, alpha2):
    # a tiny size fraction, or one just below the largest size of finite
    # rate (sx and sy near 1), at theta = 0, tiny and large, and bound
    # constants up to 10: a finite value at an admissible point, or a typed
    # error, never NaN (a RuntimeWarning fails the test)
    lam = _size_limit(l, r, theta) * (1.0 - 1e-9) if near_limit else 1e-4
    spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=lam, alpha1=alpha1, alpha2=alpha2)
    try:
        res = mckay_rate_function(spec)
    except LoopGasError:
        return
    assert math.isfinite(res.value)
    assert all(math.isfinite(v) for v in res.xs + res.ys)
    assert sp.oracle_feasible(l, r, lam, list(res.xs) + list(res.ys[:-1]))
    assert res.value == f_xy(l, r, res.xs, res.ys) + k_theta(
        l, r, theta, res.xs, res.ys, alpha1, alpha2
    )


# ---------------------------------------------------------------------------
# admissibility against the scalar oracle


_FILL_SIZES = tuple(0.01 + 0.003 * k for k in range(10))


def _flip_pair(make, lam, l, r, inside, outside):
    """make(v) at the two adjacent floats v between `inside` (admissible)
    and `outside` (not) where the oracle's admissibility flips."""

    def ok(v):
        return sp.oracle_feasible(l, r, lam, make(v))

    assert ok(inside) and not ok(outside)
    while math.nextafter(inside, outside) != outside:
        mid = inside + (outside - inside) / 2
        if mid in (inside, outside):
            mid = math.nextafter(inside, outside)
        if ok(mid):
            inside = mid
        else:
            outside = mid
    return make(inside), make(outside)


def _threshold_points(l, r, lam, size):
    """Points one ulp on either side of y_r = 0, sx and sy at 1 - 1e-12,
    and the size floor lam - 1e-12.  Filler coordinates of about `size`
    make the sums long enough for numpy and fsum to round them apart."""
    dim_x, dim_y = l - 1, r - 2

    def fill(count):
        return [size / (k + 2.3) for k in range(count)]

    def point(xs, ys_head):
        return xs + fill(dim_x - len(xs)) + ys_head + fill(dim_y - len(ys_head))

    def wx_of(xs):
        xs = point(xs, [])[:dim_x]
        return math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))

    # y_r = 0: the last free check coordinate eats the variable weight
    wx = wx_of([0.3, 0.1])
    pairs = [_flip_pair(
        lambda v: point([0.3, 0.1], fill(dim_y - 1) + [v]), lam, l, r,
        0.0, 2.0 * wx * r / (r - 1),
    )]
    # sx at 1 - 1e-12
    pairs.append(_flip_pair(lambda v: point([v, 0.1], []), lam, l, r, 0.5, 0.95))
    # sy at 1 - 1e-12, with y_r still well above 0
    wx = wx_of([0.3, 0.6])
    pairs.append(_flip_pair(
        lambda v: point([0.3, 0.6], [v]), lam, l, r, 0.0, 1.001 * (1.0 - wx) / (1.0 - 2.0 / r),
    ))
    # the size floor, along a ray through the origin
    base = point([1.0, 0.1], [])
    pairs.append(_flip_pair(lambda v: [v * c for c in base], lam, l, r, 0.5, 1e-9))
    return [p for pair in pairs for p in pair]


def _random_points(l, r, rng, count):
    """Free-coordinate points around the admissible region: sparse faces,
    y_r and the sums on both sides of their bounds, and now and then a
    negative coordinate."""
    out = []
    for _ in range(count):
        xs = [rng.expovariate(1.0) if rng.random() < 0.7 else 0.0 for _ in range(l - 1)]
        total = sum(xs) or 1.0
        scale = rng.choice((1e-4, 1e-2, 0.3, 0.9, 1.2)) * rng.random()
        xs = [v / total * scale for v in xs]
        wx = math.fsum((s / l) * x for s, x in zip(range(2, l + 1), xs))
        ys = [rng.expovariate(1.0) if rng.random() < 0.4 else 0.0 for _ in range(r - 2)]
        weight = math.fsum((t / r) * v for t, v in zip(range(2, r), ys)) or 1.0
        budget = rng.uniform(0.0, 1.2) * wx
        point = xs + [v / weight * budget for v in ys]
        if rng.random() < 0.05:
            point[rng.randrange(len(point))] = -1e-3
        out.append(point)
    return out


@pytest.mark.parametrize("l, r", [(3, 4), (3, 6), (5, 8), (9, 40)])
def test_threshold_points_straddle_each_constraint(l, r):
    # each pair is admissible on one side only, and admit agrees with the
    # oracle on both sides and on random points around the region
    lam = 1e-3
    points = [p for size in _FILL_SIZES for p in _threshold_points(l, r, lam, size)]
    straddle = [True, False] * (4 * len(_FILL_SIZES))
    assert [sp.oracle_feasible(l, r, lam, p) for p in points] == straddle
    points += _random_points(l, r, random.Random(7), 300)
    admit = ratefunc._region(l, r, lam)
    assert [admit(p) is not None for p in points] == [
        sp.oracle_feasible(l, r, lam, p) for p in points
    ]


@pytest.mark.parametrize("name", ["lam", "alpha1", "alpha2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_parameters(name, bad):
    kwargs = dict(l=3, r=6, theta=1e-3, lam=1e-3)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        RateFunctionSpec(**kwargs)
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        rate_function_profile(3, 6, (1e-3,), **{"lam": 1e-3, name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_maximize_f0_refuses_non_finite_lam(bad):
    with pytest.raises(ValueError, match="lam must be a finite number"):
        sp.maximize_f0(3, bad, starts=10)


@pytest.mark.parametrize("l", [3, 4])
def test_profile_refuses_an_empty_theta_grid(l):
    with pytest.raises(ValueError, match="at least one noise level"):
        rate_function_profile(l, 6, (), 1e-3)
    with pytest.raises(ValueError, match="at least one noise level"):
        rate_function_profile(l, 6, iter(()), 1e-3)


def test_starts_must_be_positive():
    # the restricted-profile oracle is the one multi-start left
    for starts in (0, -3):
        with pytest.raises(ValueError, match="starts"):
            sp.maximize_f0(3, 1e-3, starts=starts)


def test_growth_beaten_by_entropy_cap_on_even_sublattice():
    # On the even sub-lattice with at least an lam-fraction of variables,
    # l*f stays below -(1 - l/r) * min(h2(2 lam), h2(1/l)).
    rng = random.Random(5)
    lam = 1e-3
    for l, r in ((3, 6), (5, 8)):
        cap = -(1 - l / r) * min(binary_entropy(2 * lam), binary_entropy(1.0 / l))
        dim = (l - 1) // 2
        for _ in range(1500):
            raw = [rng.expovariate(1.0) for _ in range(dim)]
            tot = sum(raw)
            scale = rng.uniform(l * lam, 0.999)
            zs = [v / tot * scale for v in raw]
            xs, ys = sp.restricted_point(l, r, zs)
            assert l * f_xy(l, r, xs, ys) < cap


# ---------------------------------------------------------------------------
# expansion threshold solver


def _lambda0_objective(x, l, r, kappa):
    return (
        (l - 1.0) / l * binary_entropy(x)
        - binary_entropy(x * kappa * r) / r
        - x * kappa * r * binary_entropy(1.0 / (kappa * r))
    )


def test_solve_lambda0_reference_value():
    root = solve_lambda0(3, 6, 0.5)
    assert abs(root - 7.774647868558783e-4) <= 1e-9
    assert abs(_lambda0_objective(root, 3, 6, 0.5)) <= 1e-9


def test_solve_lambda0_residual_other_degrees():
    for l, r, kappa in ((3, 4, 0.6), (5, 8, 0.5), (3, 8, 0.4)):
        root = solve_lambda0(l, r, kappa)
        assert 0.0 < root < 1.0 / (kappa * r)
        assert abs(_lambda0_objective(root, l, r, kappa)) <= 1e-9


def test_solve_lambda0_tolerance_parameter():
    fine = solve_lambda0(3, 6, 0.5, tol=1e-12)
    coarse = solve_lambda0(3, 6, 0.5, tol=1e-4)
    assert abs(fine - coarse) <= 1e-4


def test_solve_lambda0_guards():
    with pytest.raises(ValueError):
        solve_lambda0(1, 6, 0.5)
    with pytest.raises(ValueError):
        solve_lambda0(3, 6, 0.9)
    with pytest.raises(NoSignChangeError):
        solve_lambda0(3, 2, 0.45)
