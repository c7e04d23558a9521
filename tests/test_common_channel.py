"""The binary common-channel min-max, its callers, and their caps.

The exact output-coordinate solve is checked against a brute-force grid
over binary channels [[a, 1-a], [1-b, b]] on random games, and pinned on
the benchmark's game, where the earlier barrier solver overstated it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqgame import divopt, equilibrium
from seqgame.divopt import (
    _FEASIBILITY_SLACK,
    DistortionBall,
    _CommonChannelSet,
    min_divergence_over_common_channels,
    min_max_divergence_over_channel,
)
from seqgame.equilibrium import nonaware_achievable, solve_nonaware_adversary
from seqgame.errors import DomainError, ResourceError, ShapeError
from seqgame.prob import Channel, Distribution, DistortionMeasure
from seqgame.seqtest import NonAwareTestState, ThresholdSchedule, run_nonaware, step_nonaware

from oracles import grid_oracle_min_channels

P0 = Distribution([0.38, 0.62])
P1 = Distribution([0.5, 0.5])
FLOOR = 1e-9
GRID_STEP = 1.0 / 200


class TestBenchGame:
    """The game of the common-channel benchmark: TV budget 0.05."""

    def test_value_at_044(self):
        res = min_max_divergence_over_channel(
            Distribution([0.44, 0.56]), P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert res.converged
        # a channel grid at pitch 2.5e-4 reaches 0.0025222; the barrier gave 0.0064630
        assert res.value <= 0.0025222
        assert res.value == pytest.approx(0.0025208, abs=1e-6)

    def test_value_at_045(self):
        res = min_max_divergence_over_channel(
            Distribution([0.45, 0.55]), P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert res.converged
        # the barrier gave 0.0047970
        assert res.value == pytest.approx(0.0041585, abs=1e-6)


def _outputs(a, b, p: Distribution):
    return p.probs[0] * a + p.probs[1] * (1.0 - b)


def _binary_kl(t, s):
    return xlogy(t, t / s) + xlogy(1.0 - t, (1.0 - t) / (1.0 - s))


def _distortion(measure: DistortionMeasure, center: float, t):
    if measure is DistortionMeasure.TV_L1:
        return 2.0 * np.abs(t - center)
    with np.errstate(divide="ignore"):
        return _binary_kl(center, t)


_laws = st.floats(0.05, 0.95)


@st.composite
def _games(draw):
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    p0 = draw(_laws)
    p1 = p0 if draw(st.booleans()) else draw(_laws)
    top = 0.2 if measure is DistortionMeasure.TV_L1 else 0.02
    delta = draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-4, top)))
    q0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    branches = draw(st.sampled_from([(0, 1), (0,), (1,)]))
    return measure, p0, p1, delta, q0, branches


@settings(max_examples=80, deadline=None)
@given(_games())
def test_matches_channel_grid_oracle(game):
    measure, p0, p1, delta, q0, branches = game
    laws = (Distribution([p0, 1.0 - p0]), Distribution([p1, 1.0 - p1]))
    res = min_max_divergence_over_channel(
        Distribution([q0, 1.0 - q0]), *laws, delta, measure, floor=FLOOR, branches=branches)
    assert res.converged

    def feasible(a, b):
        # the solver keeps every output law at least FLOOR entrywise
        return np.all([(_distortion(measure, p.probs[0], t) <= delta)
                       & (t >= FLOOR) & (t <= 1.0 - FLOOR)
                       for p in laws for t in [_outputs(a, b, p)]], axis=0)

    def objective(a, b):
        with np.errstate(divide="ignore"):
            return np.max([_binary_kl(q0, _outputs(a, b, laws[i])) for i in branches], axis=0)

    oracle, _ = grid_oracle_min_channels(objective, feasible, step=GRID_STEP)
    assert res.value <= oracle + 1e-9

    # the returned channel keeps both output laws on the floor and in budget,
    # and attains the reported value
    reached = []
    for p in laws:
        out = p.probs @ res.channel.rows
        assert np.all(out >= FLOOR - _FEASIBILITY_SLACK)
        assert measure.evaluate(p.probs, out) <= delta + _FEASIBILITY_SLACK
        reached.append(float(_binary_kl(q0, out[0])))
    assert max(reached[i] for i in branches) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


def test_zero_budget_range_keeps_identity():
    # eliminating s rounds this range to [w + 8e-16, w]; the identity
    # channel, at x = w, is feasible for every budget
    w, v = 0.1560670629032983, 0.955668389100141
    balls = [DistortionBall(Distribution([t, 1.0 - t]), 0.0, DistortionMeasure.TV_L1)
             for t in (w, v)]
    region = _CommonChannelSet(w, v - w, balls[0].interval, balls[1].interval)
    assert region.x_lo <= w <= region.x_hi


def test_larger_alphabets_are_rejected():
    law = Distribution([0.2, 0.3, 0.5])
    with pytest.raises(ShapeError):
        min_max_divergence_over_channel(law, law, Distribution([0.4, 0.3, 0.3]), 0.05,
                                        DistortionMeasure.TV_L1)


def test_nan_budget_is_rejected():
    with pytest.raises(DomainError):
        min_max_divergence_over_channel(P0, P0, P1, float("nan"), DistortionMeasure.TV_L1)


class TestIterationCaps:
    """A min-max search that hits its cap reports it, and no caller turns
    the unconverged value into a decision or a bound."""

    @pytest.fixture
    def capped(self, monkeypatch):
        monkeypatch.setattr(divopt, "_BISECTION_CAP", 1)

    def test_solve_reports_cap(self, capped):
        res = min_max_divergence_over_channel(
            Distribution([0.44, 0.56]), P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert not res.converged
        assert res.iterations == 1

    def test_single_branch_needs_no_search(self, capped):
        res = min_divergence_over_common_channels(
            Distribution([0.44, 0.56]), 0, P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert res.converged

    def test_run_nonaware_raises(self, capped):
        sched = ThresholdSchedule(alpha=0.1, num_hypotheses=2, alphabet_size=2)
        with pytest.raises(ResourceError):
            run_nonaware(iter([0, 1] * 10), sched, P0, P1, 0.05, DistortionMeasure.TV_L1)

    def test_step_nonaware_raises(self, capped):
        sched = ThresholdSchedule(alpha=0.1, num_hypotheses=2, alphabet_size=2)
        with pytest.raises(ResourceError):
            step_nonaware(NonAwareTestState.fresh(), 0, sched, P0, P1, 0.05,
                          DistortionMeasure.TV_L1)

    def test_achievable_bound_raises(self, capped):
        with pytest.raises(ResourceError):
            nonaware_achievable(P0, P1, Channel.identity(2), 0.05, DistortionMeasure.TV_L1)

    def test_pattern_search_sweep_cap(self, monkeypatch):
        # from the identity, the first sweep at the widest step improves
        monkeypatch.setattr(equilibrium, "_PATTERN_SWEEP_CAP", 1)
        with pytest.raises(ResourceError):
            solve_nonaware_adversary(P0, P1, 0.05, DistortionMeasure.TV_L1, num_starts=1)

