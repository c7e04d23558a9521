"""Property checks of the exact ball solvers against brute-force oracles.

Over alphabets of 3 to 6 symbols and both measures, the reach argmin of
D(qhat || q) and the argmin of D(x || w) must lie in the ball, clear the
floor, and reach a value no higher than a lattice search (K = 3) or a
pattern descent from a feasible start (any K). Just outside a KL ball the
reach value is checked against a 40-digit solve.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqgame import (
    Distribution,
    DistortionBall,
    DistortionMeasure,
    GameSpec,
    InfeasibleError,
    min_divergence_to_ball,
)
from seqgame.divopt import _first_block_argmin

from oracles import contains, grid_oracle_min, refine_simplex_min

# Oracle points are feasible to within 1e-12, so they may undercut the true
# minimum by that much times a multiplier; allow a little more.
ORACLE_SLACK = 1e-9

RADII = st.one_of(
    st.sampled_from([0.0, 1e-12]),
    st.floats(min_value=1e-6, max_value=0.6),
)


@st.composite
def weights(draw, size, zeros):
    """A probability vector; with `zeros`, some entries may be exactly 0."""
    raw = draw(st.lists(st.floats(min_value=0.02, max_value=1.0), min_size=size, max_size=size))
    arr = np.array(raw)
    if zeros:
        mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        arr[np.array(mask)] = 0.0
        if arr.sum() == 0.0:
            arr[0] = 1.0
    return arr / arr.sum()


@st.composite
def instances(draw, zeros):
    size = draw(st.integers(min_value=3, max_value=6))
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    ball = DistortionBall(Distribution(draw(weights(size, False))), draw(RADII), measure)
    return ball, draw(weights(size, zeros))


def _feasible(ball):
    c = ball.center.probs

    def check(pts):
        if ball.measure is DistortionMeasure.TV_L1:
            dist = np.abs(pts - c).sum(axis=1)
        else:
            with np.errstate(divide="ignore"):
                dist = xlogy(c, c / pts).sum(axis=1)
        return np.all(pts >= ball.floor, axis=1) & (dist <= ball.radius)

    return check


def _assert_at_most_oracles(value, objective, ball):
    if ball.size == 3:
        try:
            grid_val, _ = grid_oracle_min(objective, ball, step=0.02)
        except InfeasibleError:  # no lattice point inside a tiny ball
            pass
        else:
            assert value <= grid_val + ORACLE_SLACK
    refined, _ = refine_simplex_min(objective, ball.center.probs, initial_step=0.05,
                                    final_step=1e-4, feasible=_feasible(ball))
    assert value <= refined + ORACLE_SLACK


def _assert_in_ball(point, ball):
    assert contains(ball, point)
    assert np.all(point >= ball.floor)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(instances(zeros=True))
# the argmin sums to an ulp above one, and rescaling it once put the floored entry below f
@example((DistortionBall(Distribution([0.2, 0.2, 0.1, 0.1, 0.2, 0.2]), 0.5,
                         DistortionMeasure.TV_L1),
          np.array([2.0, 2.0, 2.0, 2.0, 1.0, 0.0]) / 9.0))
# half the radius vanishes against the center's entries, and the water-fill
# level search once found no ratio above its level
@example((DistortionBall(Distribution([0.41, 0.39, 0.2]), 1e-17, DistortionMeasure.TV_L1),
          np.array([0.34, 0.33, 0.33])))
def test_reach_is_feasible_and_beats_oracles(instance):
    ball, qhat = instance
    res = min_divergence_to_ball(qhat, ball)
    assert res.converged
    _assert_in_ball(res.argmin.probs, ball)

    def objective(pts):
        with np.errstate(divide="ignore"):
            return xlogy(qhat, qhat / pts).sum(axis=1)

    assert res.value == pytest.approx(float(objective(res.argmin.probs[None, :])[0]),
                                      rel=1e-12, abs=1e-15)
    _assert_at_most_oracles(res.value, objective, ball)


@PROPERTY_SETTINGS
@given(instances(zeros=False))
def test_first_block_is_feasible_and_beats_oracles(instance):
    ball, w = instance
    rows, converged, _ = _first_block_argmin(w[None, :], ball.center.probs[None, :], ball)
    x = rows[0]
    assert converged[0]
    _assert_in_ball(x, ball)

    def objective(pts):
        with np.errstate(divide="ignore", invalid="ignore"):
            return xlogy(pts, pts / w).sum(axis=1)

    _assert_at_most_oracles(float(objective(x[None, :])[0]), objective, ball)


def test_ternary_kl_game_pairwise_minima_pinned():
    # values of the projected-gradient solver this one replaced
    hyps = tuple(Distribution(h) for h in ((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)))
    spec = GameSpec(hyps, 0.01, DistortionMeasure.KL)
    pinned = (0.17579742724, 0.266934071149, 0.165768283939,
              0.210397007349, 0.288799340902, 0.210397007349)
    results = list(spec.pairwise_minima.values())
    assert [r.value for r in results] == pytest.approx(pinned, rel=1e-9)
    assert all(r.converged for r in results)


def _mp_kl(a, b):
    return mpmath.fsum(x * mpmath.log(x / y) for x, y in zip(a, b) if x > 0)


def _mp_kl_reach(w: np.ndarray, p: np.ndarray, radius: float):
    """min D(w || q) over the KL ball of radius r about p, for w outside
    it: D(w || q(t)) at the mixture q(t) = (1 - t) w + t p on the
    boundary, D(p || q(t)) = r, with t bisected at 40 digits."""
    with mpmath.workdps(40):
        w_mp, p_mp = [mpmath.mpf(float(x)) for x in w], [mpmath.mpf(float(x)) for x in p]

        def mix(t):
            return [(1 - t) * a + t * b for a, b in zip(w_mp, p_mp)]

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _mp_kl(p_mp, mix(mid)) > radius else (lo, mid)
        return float(_mp_kl(w_mp, mix(hi)))


@settings(max_examples=40, deadline=None)
@given(size=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       log_gap=st.floats(-9.0, -2.0))
def test_kl_reach_near_the_boundary_matches_mpmath(size, seed, log_gap):
    """w lies just outside the ball, so the weight on the center ranges
    over about 1e-10 to 1e-2 and the value down to 1e-18. The value is a
    sum of log differences of nearly equal laws, which floats carry to a
    few 1e-16 absolute; it must match to 1e-15 plus 1e-12 relative."""
    rng = np.random.default_rng(seed)
    p, w = rng.dirichlet(np.full(size, 3.0)), rng.dirichlet(np.full(size, 3.0))
    radius = float(np.dot(p, np.log(p / w))) * (1.0 - 10.0**log_gap)
    ball = DistortionBall(Distribution(p), radius, DistortionMeasure.KL, floor=0.0)
    res = min_divergence_to_ball(Distribution(w), ball)
    assert res.converged and res.iterations > 0
    assert res.value == pytest.approx(_mp_kl_reach(w, ball.center.probs, radius),
                                      rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       log_gap=st.floats(-9.0, -1.0))
@example(size=3, seed=0, log_gap=-9.0)
@example(size=5, seed=1, log_gap=-7.0)
def test_kl_reach_keeps_relative_precision_near_the_boundary(size, seed, log_gap):
    """The value, down to about 1e-18, to 1e-9 relative beyond what the
    rounding of the ball's boundary allows: the value grows as the square
    of g = D(p || w) - r, so the level's float rounding, a few 1e-15,
    moves it by twice that over g, relative."""
    rng = np.random.default_rng(seed)
    p, w = rng.dirichlet(np.full(size, 3.0)), rng.dirichlet(np.full(size, 3.0))
    outside = float(np.dot(p, np.log(p / w)))
    radius = outside * (1.0 - 10.0**log_gap)
    ball = DistortionBall(Distribution(p), radius, DistortionMeasure.KL, floor=0.0)
    res = min_divergence_to_ball(Distribution(w), ball)
    ref = _mp_kl_reach(w, ball.center.probs, radius)
    assert res.converged
    assert abs(res.value - ref) <= ref * (1e-9 + 1e-13 / (outside - radius))
