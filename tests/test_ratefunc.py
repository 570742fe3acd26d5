"""Tests for growth-versus-decay rate functions and the expansion threshold solver."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import support as sp

from loopgas import (
    RateFunctionSpec,
    f0_restricted,
    maximize_f0,
    mckay_rate_function,
    rate_function_profile,
    solve_lambda0,
    z_star,
)
from loopgas import ratefunc
from loopgas.errors import InfeasibleDomainError, NoSignChangeError
from loopgas.graphs import binary_entropy
from loopgas.ratefunc import f_xy, k_theta, restricted_point


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
            xs, ys = restricted_point(l, r, zs)
            lhs = l * f_xy(l, r, xs, ys)
            rhs = f0_restricted(l, zs) - (1 - l / r) * binary_entropy(_weighted_sum(l, zs))
            assert abs(lhs - rhs) <= 1e-12


def test_fxy_value_at_embedded_maximizer():
    # At z* the restricted profile vanishes and the weighted sum is 1/2,
    # so f = -(1 - l/r) * ln(2) / l; for (3, 6) that is -ln(2)/6.
    xs, ys = restricted_point(3, 6, z_star(3))
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
    value, zs = maximize_f0(3, 1e-3, starts=2048, seed=0)
    assert abs(value) <= 1e-8
    assert abs(zs[0] - 0.75) <= 1e-4
    value5, zs5 = maximize_f0(5, 1e-3, starts=2048, seed=0)
    assert abs(value5) <= 1e-8
    assert abs(zs5[0] - 0.625) <= 1e-3
    assert abs(zs5[1] - 0.3125) <= 1e-3


def test_maximize_f0_active_size_floor():
    # With l*lam above the unconstrained maximizer the floor binds.
    value, zs = maximize_f0(3, 0.3, starts=1024, seed=1)
    assert math.fsum(zs) >= 0.9 - 1e-9
    assert value < -1e-3
    assert abs(value - f0_restricted(3, list(zs))) <= 1e-12


def test_maximize_f0_rejects_bad_inputs():
    with pytest.raises(ValueError):
        maximize_f0(4, 1e-3)
    with pytest.raises(InfeasibleDomainError):
        maximize_f0(3, 0.4)


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
        mckay_rate_function(RateFunctionSpec(l=3, r=6, theta=0.1, lam=0.5), starts=100)


def test_rate_function_negative_and_self_consistent():
    spec = RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)
    res = mckay_rate_function(spec, starts=2000, seed=0)
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
    a = mckay_rate_function(spec, starts=800, seed=3)
    b = mckay_rate_function(spec, starts=800, seed=3)
    assert a == b


def test_rate_function_carried_starts_dominate():
    # Handing a strong maximizer to a weak search floors the result.
    spec = RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)
    strong = mckay_rate_function(spec, starts=4000, seed=0)
    carry = tuple(strong.xs) + tuple(strong.ys[:-1])
    weak = mckay_rate_function(spec, starts=40, seed=11)
    boosted = mckay_rate_function(spec, starts=40, seed=11, extra_starts=(carry,))
    assert boosted.value >= strong.value - 1e-12
    assert boosted.value >= weak.value - 1e-12


def test_profile_nondecreasing_with_frozen_values():
    profile = rate_function_profile(3, 6, (1e-4, 1e-3, 1e-2), 1e-3, starts=1500, seed=0)
    values = [res.value for res in profile]
    assert values[0] <= values[1] <= values[2]
    assert all(v < 0.0 for v in values)
    for got, frozen in zip(values, (-0.003231, -0.003224, -0.003159)):
        assert abs(got - frozen) <= 5e-5
    # the carry mechanism can only improve on an isolated run at the same seed
    solo = mckay_rate_function(
        RateFunctionSpec(l=3, r=6, theta=1e-2, lam=1e-3), starts=1500, seed=0
    )
    assert profile[-1].value >= solo.value - 1e-12


def _embedded_start(l, r):
    # free coordinates (xs, then ys without y_r) of half the even-lattice maximizer
    xs, ys = restricted_point(l, r, [0.5 * z for z in z_star(l)])
    return tuple(xs) + tuple(ys[:-1])


@pytest.mark.parametrize("l, r", [(3, 6), (3, 4), (5, 8)])
def test_rate_function_equals_exact_scoring_oracle(l, r):
    # The numpy screen plus exact rescoring must hand refinement the same
    # starts as scoring every pool point exactly, so the results are equal
    # bit for bit; starts = 5 leaves the pool below REFINE_TOP.  The coarse
    # tol only shortens the climbs at theta = 0.3 (about 40 s at 1e-6 on
    # (5,8)); the starts are chosen before refinement.
    assert 5 < ratefunc.REFINE_TOP
    carry = (_embedded_start(l, r), (0.1,))  # the second has the wrong length
    for theta in (0.0, 1e-4, 1e-2, 0.3):
        spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=1e-3)
        for starts in (5, 1500):
            for extra in ((), carry):
                kwargs = dict(starts=starts, seed=4, extra_starts=extra, tol=1e-3)
                got = mckay_rate_function(spec, **kwargs)
                want = sp.oracle_mckay_rate_function(spec, **kwargs)
                assert got == want, (theta, starts, extra)


@pytest.mark.parametrize(
    "l, r, seed, tol", [(3, 6, 0, 1e-6), (3, 4, 1, 1e-6), (5, 8, 2, 1e-3)]
)
def test_profile_equals_oracle_chain(l, r, seed, tol):
    thetas = (0.0, 1e-4, 1e-3, 1e-2, 0.3)
    kwargs = dict(starts=1200, seed=seed, tol=tol)
    got = rate_function_profile(l, r, thetas, 1e-3, **kwargs)
    assert got == sp.oracle_rate_function_profile(l, r, thetas, 1e-3, **kwargs)


def test_profile_samples_the_pool_once(monkeypatch):
    seeded = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            seeded.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ratefunc.random, "Random", CountingRandom)
    profile = rate_function_profile(3, 6, (1e-4, 1e-3, 1e-2), 1e-3, starts=300, seed=5)
    assert len(profile) == 3
    assert seeded == [(5,)]


# ---------------------------------------------------------------------------
# fused score and batched start sampler against the scalar oracle


_THETAS = (0.0, 1e-4, 0.3)
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
def test_score_equals_oracle_objective_bit_for_bit(l, r):
    # score is f_xy + k_theta to the last bit, and None exactly off the
    # region; at theta = 0 odd-variable and partial-check coefficients
    # are -inf, so positive coordinates there score -inf.
    lam = 1e-3
    points = [p for size in _FILL_SIZES for p in _threshold_points(l, r, lam, size)]
    points += _random_points(l, r, random.Random(l * r), 400)
    admit = ratefunc._region(l, r, lam)
    for theta in _THETAS:
        spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=lam)
        score = ratefunc._scorer(spec, admit)
        admitted = 0
        for point in points:
            before = list(point)
            got = score(point)
            assert point == before
            if not sp.oracle_feasible(l, r, lam, point):
                assert got is None, point
                continue
            admitted += 1
            assert got.hex() == sp.oracle_objective(spec, point).hex(), (theta, point)
        assert 100 < admitted < len(points)


@pytest.mark.parametrize("l, r", [(3, 4), (3, 6), (5, 8), (9, 40)])
def test_threshold_points_straddle_each_constraint(l, r):
    # each pair is admissible on one side only, and admit and the numpy
    # batch test agree with the oracle on both sides
    lam = 1e-3
    points = [p for size in _FILL_SIZES for p in _threshold_points(l, r, lam, size)]
    straddle = [True, False] * (4 * len(_FILL_SIZES))
    assert [sp.oracle_feasible(l, r, lam, p) for p in points] == straddle
    admit = ratefunc._region(l, r, lam)
    assert [admit(p) is not None for p in points] == straddle
    points += _random_points(l, r, random.Random(7), 300)
    rows = np.array(points)
    wx = np.array([math.fsum((s / l) * x for s, x in zip(range(2, l + 1), p)) for p in points])
    mask = ratefunc._admissible_rows(admit, l, r, lam, rows, wx)
    assert mask.tolist() == [sp.oracle_feasible(l, r, lam, p) for p in points]


@pytest.mark.parametrize("l, r", [(3, 4), (3, 6), (5, 8), (9, 40)])
def test_pool_equals_oracle_sampler(l, r):
    # the batched sampler keeps the first `starts` admissible draws, as the
    # one-draw-at-a-time oracle does; near the top size fraction 1/l + 1/r
    # few draws are admissible and the 100 * starts draw cap binds
    top = 0.9 * (1.0 / l + 1.0 / r)
    cases = [(1e-3, starts, seed) for starts in (1, 5, 1500) for seed in (0, 1)]
    cases += [(top, starts, seed) for starts in (1, 5) for seed in (0, 1, 2)]
    if r <= 6:
        cases.append((top, 1500, 0))
    for lam, starts, seed in cases:
        pool = ratefunc._sample_pool(l, r, lam, starts, seed)
        want = sp.oracle_sample_pool(l, r, lam, starts, seed)
        assert pool.shape == (len(want), l + r - 3)
        assert pool.tolist() == want, (lam, starts, seed)
        if lam == top and starts == 1500:
            assert 0 < len(want) < starts


@pytest.mark.parametrize("l, r, theta", [(3, 6, 1e-3), (3, 4, 0.0), (5, 8, 0.3)])
def test_coordinate_ascent_scores_each_point_once(l, r, theta):
    # a climb revisits points (a step up and back down); none is rescored,
    # and the climb ends where the oracle's, which rescores them, ends
    spec = RateFunctionSpec(l=l, r=r, theta=theta, lam=1e-3)
    score = ratefunc._scorer(spec, ratefunc._region(l, r, 1e-3))
    scored, feasible = [], []

    def counting(point):
        scored.append(tuple(point))
        return score(point)

    def oracle_feasible(point):
        feasible.append(tuple(point))
        return sp.oracle_feasible(l, r, 1e-3, point)

    skipped = 0
    for start in ratefunc._sample_pool(l, r, 1e-3, 3, 2).tolist():
        scored.clear()
        feasible.clear()
        got = ratefunc._coordinate_ascent(counting, start, 1e-4)
        want = sp._oracle_ascent(
            lambda p: sp.oracle_objective(spec, p), oracle_feasible, start, 1e-4
        )
        assert got == want
        assert len(scored) == len(set(scored)) == len(set(feasible) | {tuple(start)})
        skipped += len(feasible) + 1 - len(scored)
    assert skipped > 0


def _scripted_random(uniforms: list[float], words: list[int], used: list):
    """random.Random whose first random() and getrandbits() results are the
    scripted ones; both methods are overridden, so randrange keeps drawing
    through getrandbits as in random.Random itself."""

    class Scripted(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.uniforms, self.words = list(uniforms), list(words)
            used.append(self)

        def random(self):
            value = super().random()
            return self.uniforms.pop(0) if self.uniforms else value

        def getrandbits(self, k):
            value = super().getrandbits(k)
            return self.words.pop(0) if self.words else value

    return Scripted


@pytest.mark.parametrize("l, r", [(3, 4), (5, 8)])
def test_pool_equals_oracle_sampler_on_rare_draws(monkeypatch, l, r):
    # three scripted draws open the stream, in the oracle's call order:
    # a zero uniform on a kept x coordinate (a -0.0 coordinate in the row),
    # a draw whose only kept uniform is zero after one randrange rejection
    # (wx = 0, so it takes no ys although its y coin says yes), and a draw
    # whose y uniforms are all zero (weight 0, so its ys stay zero)
    dim_x, dim_y = l - 1, r - 2
    uniforms = [0.0] + [0.7] * (dim_x - 1) + [0.9, 0.99, 0.9]
    uniforms += [0.0] + [0.6] * (dim_x - 1) + [0.1, 0.5, 0.2]
    uniforms += [0.5] * dim_x + [0.9, 0.5, 0.1] + [0.0] * dim_y + [0.3]
    words = [(1 << dim_x) - 1, 0]  # rejected, then keep = 1: coordinate 0 alone
    used: list = []
    monkeypatch.setattr(random, "Random", _scripted_random(uniforms, words, used))
    for starts in (2, 300):
        used.clear()
        pool = ratefunc._sample_pool(l, r, 1e-3, starts, 4)
        want = sp.oracle_sample_pool(l, r, 1e-3, starts, 4)
        assert [rng.uniforms + rng.words for rng in used] == [[], []]
        assert [[v.hex() for v in row] for row in pool.tolist()] == [
            [v.hex() for v in row] for row in want
        ]
        assert [math.copysign(1.0, v) for v in want[0][:dim_x]] == [-1.0] + [1.0] * (dim_x - 1)
        assert want[1][dim_x:] == [0.0] * dim_y  # the weight-0 draw


@pytest.mark.parametrize("name", ["lam", "alpha1", "alpha2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_parameters(name, bad):
    kwargs = dict(l=3, r=6, theta=1e-3, lam=1e-3)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        RateFunctionSpec(**kwargs)
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        rate_function_profile(3, 6, (1e-3,), **{"lam": 1e-3, name: bad, "starts": 10})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_maximize_f0_refuses_non_finite_lam(bad):
    with pytest.raises(ValueError, match="lam must be a finite number"):
        maximize_f0(3, bad, starts=10)


@pytest.mark.parametrize("l", [3, 4])
def test_profile_refuses_an_empty_theta_grid(l):
    with pytest.raises(ValueError, match="at least one noise level"):
        rate_function_profile(l, 6, (), 1e-3, starts=10)
    with pytest.raises(ValueError, match="at least one noise level"):
        rate_function_profile(l, 6, iter(()), 1e-3, starts=10)


def test_starts_must_be_positive():
    spec = RateFunctionSpec(l=3, r=6, theta=1e-3, lam=1e-3)
    for starts in (0, -3):
        with pytest.raises(ValueError, match="starts"):
            mckay_rate_function(spec, starts=starts)
        with pytest.raises(ValueError, match="starts"):
            rate_function_profile(3, 6, (1e-3,), 1e-3, starts=starts)
        with pytest.raises(ValueError, match="starts"):
            maximize_f0(3, 1e-3, starts=starts)


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
            xs, ys = restricted_point(l, r, zs)
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
