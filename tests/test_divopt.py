import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqgame import (
    Distribution,
    DistortionBall,
    DistortionMeasure,
    DomainError,
    InfeasibleError,
    ResourceError,
    ShapeError,
    channel_from_output,
    kl_divergence,
    min_divergence_over_common_channels,
    min_divergence_to_ball,
    min_max_divergence_over_channel,
    pairwise_min_divergence,
)
from seqgame.divopt import _clamp_divergence, _lambertw_exp
from seqgame.prob import _binary_kl

from oracles import (
    ball_lattice,
    binary_kl,
    contains,
    grid_oracle_min,
    grid_oracle_min_channels,
    refine_simplex_min,
    simplex_lattice,
)

E_01 = binary_kl(0.405, 0.475)  # hypothesis-0 exponent of the Bernoulli instance
E_10 = binary_kl(0.475, 0.405)


def _ulps(x: float, k: int) -> float:
    """x moved k floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _clamps(draw):
    """An interval of a binary ball, TV or KL, and points to clamp onto it:
    free points in [0, 1] and points a few ulps from either end, or from 0
    and 1."""
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    floor = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    c = draw(st.floats(0.002, 0.998))
    radius = draw(st.sampled_from([0.0, 1e-12]) | st.floats(1e-9, 0.5))
    lo, hi = DistortionBall(Distribution([c, 1.0 - c]), radius, measure, floor).interval
    near = draw(st.lists(st.tuples(st.sampled_from([lo, hi, 0.0, 1.0]), st.integers(-4, 4)),
                         max_size=8))
    free = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return lo, hi, [min(max(_ulps(e, k), 0.0), 1.0) for e, k in near] + free


@settings(max_examples=300, deadline=None)
@given(_clamps())
def test_clamp_divergence_is_binary_kl_bit_for_bit(case):
    """The vector clamp divergence and the scalar one both take their logs
    from np.log, one on arrays and the other on single values. The vector
    form also takes scalar points."""
    lo, hi, points = case
    want = np.array([_binary_kl(t, min(max(t, lo), hi)) for t in points])
    for got in (_clamp_divergence(np.array(points), lo, hi),
                np.array([_clamp_divergence(t, lo, hi) for t in points])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


def test_lambertw_exp_within_4_ulps():
    """W(e^y) against 40-digit mpmath on y in [-745, 1e4]: within 4 ulps,
    exactly 0 at y = -inf, and with no numpy warning on the way."""
    y = np.concatenate([np.linspace(-745.0, 1e4, 401), np.linspace(-50.0, 10.0, 301),
                        -np.geomspace(1e-12, 745.0, 61), np.geomspace(1e-12, 1e4, 61),
                        [-745.0, -40.0, 0.0, 1.0, 700.0, math.nextafter(700.0, math.inf)]])
    with mpmath.workdps(40):
        want = np.array([float(mpmath.lambertw(mpmath.exp(mpmath.mpf(v)))) for v in y])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lambertw_exp(y.reshape(-1, 1))[:, 0]
        at_minus_inf = _lambertw_exp(np.array([[-math.inf, 0.0, -math.inf]]))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), np.max(np.abs(got - want) / np.spacing(want))
    assert at_minus_inf[0, 0] == 0.0 and at_minus_inf[0, 2] == 0.0


class TestDistortionBall:
    def test_tv_interval(self):
        ball = DistortionBall(Distribution([0.38, 0.62]), 0.05, DistortionMeasure.TV_L1)
        lo, hi = ball.interval
        assert lo == pytest.approx(0.355, abs=1e-15)
        assert hi == pytest.approx(0.405, abs=1e-15)

    def test_kl_interval_edges_sit_on_budget(self):
        ball = DistortionBall(Distribution([0.8481, 0.1519]), 0.001, DistortionMeasure.KL)
        lo, hi = ball.interval
        assert binary_kl(0.8481, lo) == pytest.approx(0.001, abs=1e-10)
        assert binary_kl(0.8481, hi) == pytest.approx(0.001, abs=1e-10)
        assert lo < 0.8481 < hi

    def test_interval_clipped_by_floor(self):
        ball = DistortionBall(Distribution([0.01, 0.99]), 0.5, DistortionMeasure.TV_L1,
                              floor=1e-3)
        lo, hi = ball.interval
        assert lo == pytest.approx(1e-3)
        assert hi == pytest.approx(0.26)

    def test_contains(self):
        ball = DistortionBall(Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)
        assert contains(ball, np.array([0.475, 0.525]))
        assert not contains(ball, np.array([0.4, 0.6]))
        # the default slack admits rounding past the boundary; slack 0 does not
        edge = np.array([0.475 - 1e-10, 0.525 + 1e-10])
        assert contains(ball, edge) and not contains(ball, edge, slack=0.0)
        kl = DistortionBall(Distribution([0.5, 0.5]), 0.01, DistortionMeasure.KL)
        assert contains(kl, np.array([0.55, 0.45])) and not contains(kl, np.array([0.6, 0.4]))
        with pytest.raises(ShapeError):
            contains(ball, np.array([0.2, 0.3, 0.5]))

    def test_zero_radius(self):
        ball = DistortionBall(Distribution([0.3, 0.7]), 0.0, DistortionMeasure.TV_L1)
        lo, hi = ball.interval
        assert lo == hi == pytest.approx(0.3)

    def test_rejects_bad_construction(self):
        with pytest.raises(DomainError):
            DistortionBall(Distribution([0.5, 0.5]), -0.1, DistortionMeasure.TV_L1)
        with pytest.raises(InfeasibleError):
            DistortionBall(Distribution([1.0, 0.0]), 0.1, DistortionMeasure.TV_L1)
        with pytest.raises(DomainError):
            DistortionBall(Distribution([0.5, 0.5]), 0.1, DistortionMeasure.TV_L1, floor=0.6)

    def test_interval_requires_binary(self):
        ball = DistortionBall(Distribution([0.2, 0.3, 0.5]), 0.1, DistortionMeasure.TV_L1)
        with pytest.raises(ShapeError):
            ball.interval


class TestMinDivergenceToBall:
    def test_bernoulli_outside(self):
        ball = DistortionBall(Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)
        res = min_divergence_to_ball(Distribution([0.405, 0.595]), ball)
        assert res.value == pytest.approx(E_01, rel=1e-12)
        assert res.argmin.probs[0] == pytest.approx(0.475, abs=1e-12)
        assert res.converged

    def test_zero_inside(self):
        ball = DistortionBall(Distribution([0.38, 0.62]), 0.05, DistortionMeasure.TV_L1)
        res = min_divergence_to_ball(Distribution([0.4, 0.6]), ball)
        assert res.value == 0.0

    def test_degenerate_qhat_allowed(self):
        # a pure type (all samples one symbol) still has a finite distance
        ball = DistortionBall(Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)
        res = min_divergence_to_ball(np.array([1.0, 0.0]), ball)
        assert res.value == pytest.approx(math.log(1.0 / 0.525), rel=1e-12)

    def test_ternary_matches_grid(self):
        # lattice error is linear in the pitch at the ball boundary, so the
        # grid only brackets the solver from above
        ball = DistortionBall(Distribution([0.2, 0.4, 0.4]), 0.15, DistortionMeasure.TV_L1)
        qhat = Distribution([0.6, 0.3, 0.1])
        res = min_divergence_to_ball(qhat, ball)

        def objective(pts):
            with np.errstate(divide="ignore"):
                return xlogy(qhat.probs, qhat.probs / pts).sum(axis=1)

        step = 0.005
        grid_val, _ = grid_oracle_min(objective, ball, step=step)
        assert res.value <= grid_val + 1e-8
        assert grid_val - res.value <= 3.0 * step
        assert ball.measure.evaluate(ball.center, res.argmin.probs) <= ball.radius + 1e-9
        assert res.value == pytest.approx(0.26392501315999956, rel=1e-9)

    def test_ternary_kl_ball_matches_grid(self):
        ball = DistortionBall(Distribution([0.3, 0.45, 0.25]), 0.004, DistortionMeasure.KL)
        qhat = Distribution([0.55, 0.25, 0.2])
        res = min_divergence_to_ball(qhat, ball)

        def objective(pts):
            with np.errstate(divide="ignore"):
                return xlogy(qhat.probs, qhat.probs / pts).sum(axis=1)

        step = 0.0025
        grid_val, _ = grid_oracle_min(objective, ball, step=step)
        assert res.value <= grid_val + 1e-8
        assert grid_val - res.value <= 3.0 * step
        assert ball.measure.evaluate(ball.center, res.argmin.probs) <= ball.radius + 1e-9
        # independently confirmed by a constrained solver from several starts
        assert res.value == pytest.approx(0.09675344574687796, rel=1e-9)

    def test_shape_mismatch(self):
        ball = DistortionBall(Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)
        with pytest.raises(ShapeError):
            min_divergence_to_ball(Distribution([0.2, 0.3, 0.5]), ball)


class TestPairwiseMinDivergence:
    def test_bernoulli_closed_form(self):
        b0 = DistortionBall(Distribution([0.38, 0.62]), 0.05, DistortionMeasure.TV_L1)
        b1 = DistortionBall(Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)
        res01 = pairwise_min_divergence(b0, b1)
        res10 = pairwise_min_divergence(b1, b0)
        assert res01.value == pytest.approx(E_01, rel=1e-12)
        assert res10.value == pytest.approx(E_10, rel=1e-12)
        assert res01.argmin_first.probs[0] == pytest.approx(0.405, abs=1e-12)
        assert res01.argmin_second.probs[0] == pytest.approx(0.475, abs=1e-12)

    def test_overlapping_balls_touch(self):
        b0 = DistortionBall(Distribution([0.45, 0.55]), 0.2, DistortionMeasure.TV_L1)
        b1 = DistortionBall(Distribution([0.5, 0.5]), 0.2, DistortionMeasure.TV_L1)
        res = pairwise_min_divergence(b0, b1)
        assert res.value == 0.0
        assert np.allclose(res.argmin_first.probs, res.argmin_second.probs, rtol=0.0, atol=1e-9)

    def test_ternary_matches_grid(self):
        b0 = DistortionBall(Distribution([0.5, 0.3, 0.2]), 0.1, DistortionMeasure.TV_L1)
        b1 = DistortionBall(Distribution([0.2, 0.3, 0.5]), 0.1, DistortionMeasure.TV_L1)
        res = pairwise_min_divergence(b0, b1)

        step = 0.01
        pts0 = ball_lattice(b0, step)
        pts1 = ball_lattice(b1, step)
        with np.errstate(divide="ignore"):
            vals = xlogy(pts0[:, None, :], pts0[:, None, :] / pts1[None, :, :]).sum(axis=2)
        grid_val = float(vals.min())
        assert res.value <= grid_val + 1e-9
        assert grid_val - res.value <= 3.0 * step
        assert res.value == pytest.approx(0.11755733298040674, rel=1e-9)
        assert res.converged


    @pytest.mark.parametrize("draw", [67, 130])
    def test_overlapping_balls_stop_on_running_minimum(self, draw):
        """Two of 200 random overlapping TV pairs once cycled at rounding
        level, around zero, until the round cap."""
        rng = np.random.default_rng(7)
        for _ in range(draw + 1):
            k = int(rng.integers(3, 7))
            first, second = rng.uniform(0.2, 1, k), rng.uniform(0.2, 1, k)
            radius = rng.uniform(0.002, 0.3)
        balls = [DistortionBall(Distribution(c / c.sum()), radius, DistortionMeasure.TV_L1)
                 for c in (first, second)]
        got = pairwise_min_divergence(*balls)
        assert got.converged
        assert got.value == 0.0


class TestChannelMinMax:
    def test_zero_budget_reduces_to_plain_divergence(self):
        q = Distribution([0.3, 0.7])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        res = min_max_divergence_over_channel(q, p0, p1, 0.0, DistortionMeasure.TV_L1)
        expect = max(kl_divergence(q, p0), kl_divergence(q, p1))
        assert res.value == pytest.approx(expect, rel=1e-9)

    def test_matches_channel_grid(self):
        q = Distribution([0.42, 0.58])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        delta = 0.05
        res = min_max_divergence_over_channel(q, p0, p1, delta, DistortionMeasure.TV_L1)

        def outputs(a, b, p):
            return p.probs[0] * a + p.probs[1] * (1.0 - b)

        def feasible(a, b):
            t0 = outputs(a, b, p0)
            t1 = outputs(a, b, p1)
            return (2.0 * np.abs(t0 - p0.probs[0]) <= delta) & (
                2.0 * np.abs(t1 - p1.probs[0]) <= delta)

        def objective(a, b):
            t0 = np.clip(outputs(a, b, p0), 1e-12, 1 - 1e-12)
            t1 = np.clip(outputs(a, b, p1), 1e-12, 1 - 1e-12)
            qa = q.probs[0]
            d0 = xlogy(qa, qa / t0) + xlogy(1 - qa, (1 - qa) / (1 - t0))
            d1 = xlogy(qa, qa / t1) + xlogy(1 - qa, (1 - qa) / (1 - t1))
            return np.maximum(d0, d1)

        grid_val, _ = grid_oracle_min_channels(objective, feasible, step=1e-3)
        assert res.value == pytest.approx(grid_val, abs=5e-5)

    def test_single_branch_equals_ball_reduction(self, rng):
        # channel-space and output-space formulations of one adversary's reach
        for _ in range(5):
            p = Distribution(rng.dirichlet([5, 5]))
            q = Distribution(rng.dirichlet([2, 2]))
            ball = DistortionBall(p, 0.04, DistortionMeasure.TV_L1)
            out_space = min_divergence_to_ball(q, ball).value
            chan_space = min_divergence_over_common_channels(
                q, 0, p, p, 0.04, DistortionMeasure.TV_L1).value
            assert chan_space == pytest.approx(out_space, abs=1e-6)

    def test_returns_feasible_channel(self):
        q = Distribution([0.405, 0.595])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        res = min_max_divergence_over_channel(q, p0, p1, 0.05, DistortionMeasure.TV_L1)
        for p in (p0, p1):
            out = p.probs @ res.channel.rows
            assert np.abs(out - p.probs).sum() <= 0.05 + 1e-8

    def test_requires_full_support(self):
        with pytest.raises(DomainError):
            min_max_divergence_over_channel(
                Distribution([0.5, 0.5]), Distribution([1.0, 0.0]),
                Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)

    def test_common_channel_min_at_least_minmax_lower_branch(self):
        q = Distribution([0.44, 0.56])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        both = min_max_divergence_over_channel(q, p0, p1, 0.05, DistortionMeasure.TV_L1).value
        only0 = min_divergence_over_common_channels(q, 0, p0, p1, 0.05,
                                                    DistortionMeasure.TV_L1).value
        only1 = min_divergence_over_common_channels(q, 1, p0, p1, 0.05,
                                                    DistortionMeasure.TV_L1).value
        assert both >= only0 - 1e-8
        assert both >= only1 - 1e-8

    def test_common_channel_reach_is_smaller_than_own_ball(self):
        # the common-feasibility constraint can only shrink one branch's reach
        q = Distribution([0.3, 0.7])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        ball0 = DistortionBall(p0, 0.05, DistortionMeasure.TV_L1)
        own = min_divergence_to_ball(q, ball0).value
        common = min_divergence_over_common_channels(q, 0, p0, p1, 0.05,
                                                     DistortionMeasure.TV_L1).value
        assert common >= own - 1e-8

    def test_common_channel_target_validation(self):
        q = Distribution([0.5, 0.5])
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.45, 0.55])
        with pytest.raises(DomainError):
            min_divergence_over_common_channels(q, 2, p0, p1, 0.05,
                                                DistortionMeasure.TV_L1)


def test_channel_from_output():
    src = Distribution([0.38, 0.62])
    out = Distribution([0.405, 0.595])
    ch = channel_from_output(src, out)
    assert np.allclose(src.probs @ ch.rows, out.probs)
    assert np.allclose(Distribution([0.9, 0.1]).probs @ ch.rows, out.probs)


class TestOracles:
    def test_simplex_lattice_count(self):
        pts = simplex_lattice(3, 10)
        assert pts.shape == (math.comb(12, 2), 3)
        assert np.all(pts.sum(axis=1) == 10)

    def test_ball_lattice_filters(self):
        ball = DistortionBall(Distribution([0.5, 0.5]), 0.1, DistortionMeasure.TV_L1)
        pts = ball_lattice(ball, 0.01)
        assert np.all(np.abs(pts - 0.5).sum(axis=1) <= 0.1 + 1e-12)
        # interval is [0.45, 0.55] at pitch 0.01: eleven points
        assert pts.shape[0] == 11

    def test_grid_oracle_rejects_large_alphabets(self):
        ball = DistortionBall(Distribution([0.25] * 4), 0.1, DistortionMeasure.TV_L1)
        with pytest.raises(ResourceError):
            grid_oracle_min(lambda pts: pts[:, 0], ball, step=0.01)

    def test_lattice_budget_guard(self):
        ball = DistortionBall(Distribution([0.2, 0.3, 0.5]), 0.1, DistortionMeasure.TV_L1)
        with pytest.raises(ResourceError):
            ball_lattice(ball, step=1e-5)

    def test_refine_simplex_min_quadratic(self):
        target = np.array([0.2, 0.3, 0.5])

        def objective(pts):
            return ((pts - target) ** 2).sum(axis=1)

        val, x = refine_simplex_min(objective, np.array([1.0, 0.0, 0.0]))
        assert val < 1e-8
        assert np.allclose(x, target, atol=1e-4)
