"""The binary common-channel min-max, its callers, and their caps.

The exact output-coordinate solve is checked against a brute-force grid
over binary channels [[a, 1-a], [1-b, b]] on random games, and pinned on
the benchmark's game, where the earlier barrier solver overstated it.
`run_nonaware`, which reads its stream a stride at a time and runs the
min-max search only where the duality bounds cannot decide, is checked
against the per-symbol loop with the full solve in `oracles.py`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqgame import divopt, equilibrium
from seqgame.divopt import (
    _FEASIBILITY_SLACK,
    DistortionBall,
    _ChannelGame,
    _CommonChannelSet,
    min_divergence_over_common_channels,
    min_max_divergence_over_channel,
)
from seqgame.equilibrium import nonaware_achievable, solve_nonaware_adversary
from seqgame.errors import DomainError, ResourceError, ShapeError, StreamExhaustedError
from seqgame.prob import Channel, Distribution, DistortionMeasure, empirical_distribution
from seqgame.seqtest import (
    _BOUND_MARGIN,
    NonAwareTestState,
    ThresholdSchedule,
    _first_share,
    run_nonaware,
    step_nonaware,
)

from oracles import grid_oracle_min_channels, run_nonaware_stepwise

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


def _alpha_at(gamma: float, n: int) -> float:
    """The alpha at which a two-symbol, two-hypothesis schedule's threshold
    at step n is gamma."""
    sched = ThresholdSchedule(0.5, 2, 2)
    return sched.constant * math.exp(
        -(n * (gamma - n ** -sched.zeta) - 2.0 * math.log(n + 1.0)))


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
        # Twenty zeros put t = 1 at every step. Alpha puts the threshold at
        # step 20 midway between the two bounds, inside the margin of both,
        # so only the capped search can decide that step.
        n, t = 20, 1.0
        game = _ChannelGame(P0, P1, 0.05, DistortionMeasure.TV_L1)
        lower, upper = max(game.reach(t, 0), game.reach(t, 1)), game.upper(t)
        gamma = 0.5 * (lower + upper)
        assert lower < gamma * (1.0 + _BOUND_MARGIN) and upper >= gamma * (1.0 - _BOUND_MARGIN)
        sched = ThresholdSchedule(alpha=_alpha_at(gamma, n), num_hypotheses=2, alphabet_size=2)
        assert sched.value(n) == pytest.approx(gamma, rel=1e-12)
        with pytest.raises(ResourceError):
            run_nonaware(iter([0] * n), sched, P0, P1, 0.05, DistortionMeasure.TV_L1)

    def test_run_nonaware_bounds_decide_without_search(self, capped):
        # the bounds decide every step of this input, so no capped value
        # decides and the run reads the stream to its end
        sched = ThresholdSchedule(alpha=0.1, num_hypotheses=2, alphabet_size=2)
        with pytest.raises(StreamExhaustedError, match="after 20 symbols"):
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


def _law(p: float) -> Distribution:
    return Distribution([p, 1.0 - p])


@settings(max_examples=150, deadline=None)
@given(_games())
def test_duality_bounds_hold(game):
    """The larger branch value <= the min-max value <= the objective at the
    clamp, within 1e-12 relative; a binary divergence near zero carries
    the rounding of its two canceling terms, about 1e-16, so values below
    1e-3 compare to 1e-15."""
    measure, p0, p1, delta, q0, _ = game
    channel_game = _ChannelGame(_law(p0), _law(p1), delta, measure)
    res = channel_game.minmax(q0)
    assert res.converged
    lower = max(channel_game.reach(q0, 0), channel_game.reach(q0, 1))
    upper = channel_game.upper(q0)
    assert lower <= res.value + 1e-12 * max(res.value, 1e-3)
    assert res.value <= upper + 1e-12 * max(upper, 1e-3)


@pytest.mark.parametrize("total", [1, 2, 3, 7, 10, 1023, 1024, 3391, 10**6 + 1])
def test_first_share_is_the_empirical_law(total):
    """t is the float that empirical_distribution forms, renormalization
    included, for every split of the total."""
    for zeros in sorted({0, 1, total // 3, total // 2, total - 1, total} & set(range(total + 1))):
        qhat = empirical_distribution(np.array([zeros, total - zeros]))
        assert _first_share(zeros, total - zeros) == float(qhat.probs[0])


class _Counting:
    """An iterator over a list that counts the symbols taken from it."""

    def __init__(self, symbols):
        self.symbols, self.taken = symbols, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.taken == len(self.symbols):
            raise StopIteration
        self.taken += 1
        return self.symbols[self.taken - 1]


def _run(run, symbols, *args, **kwargs):
    """The outcome, or the type and message of the error, and how many
    symbols the run read."""
    it = _Counting(symbols)
    try:
        result = run(it, *args, **kwargs)
    except (ResourceError, StreamExhaustedError) as exc:
        result = (type(exc), str(exc))
    return result, it.taken


@settings(max_examples=60, deadline=None)
@given(game=_games(), stride=st.integers(1, 2048), evaluations=st.integers(0, 24),
       offset=st.integers(0, 2047), record=st.booleans(), short=st.booleans(),
       alpha=st.sampled_from([0.01, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_run_matches_stepwise(game, stride, evaluations, offset, record, short, alpha, seed):
    """Same outcome, decision, trajectory or error, and the same number of
    symbols read, as the per-symbol loop that solves every step in full."""
    measure, p0, p1, delta, q0, _ = game
    cap = max(1, evaluations * stride + offset % stride)
    rng = np.random.default_rng(seed)
    # symbol 0 with probability q0; a short stream ends before the cap
    length = int(rng.integers(0, cap)) if short else cap
    symbols = (rng.random(length) >= q0).astype(int).tolist()
    sched = ThresholdSchedule(alpha, 2, 2)
    args = (sched, _law(p0), _law(p1), delta, measure)
    kwargs = dict(cap=cap, stride=stride, record_trajectory=record)
    assert _run(run_nonaware, symbols, *args, **kwargs) == _run(
        run_nonaware_stepwise, symbols, *args, **kwargs)


@pytest.mark.parametrize("stride, record", [(1, False), (7, True), (1024, True)])
def test_bench_game_matches_stepwise(stride, record):
    """The benchmark's game and channel, to the stop."""
    sched = ThresholdSchedule(0.05, 2, 2)
    rng = np.random.default_rng(stride)
    # P0 through the benchmark's channel [[0.7781, 0.2219], [0.175, 0.825]]
    zero = 0.38 * 0.7781 + 0.62 * 0.175
    symbols = (rng.random(20_000) >= zero).astype(int).tolist()
    args = (sched, P0, P1, 0.05, DistortionMeasure.TV_L1)
    kwargs = dict(stride=stride, record_trajectory=record)
    got = _run(run_nonaware, symbols, *args, **kwargs)
    assert not isinstance(got[0], tuple) and not got[0].timed_out
    assert got == _run(run_nonaware_stepwise, symbols, *args, **kwargs)


class TestStreamEdges:
    SCHED = ThresholdSchedule(0.05, 2, 2)
    ARGS = (SCHED, P0, P1, 0.05, DistortionMeasure.TV_L1)

    def _symbols(self):
        return (np.random.default_rng(5).random(20_000) >= 0.5).astype(int).tolist()

    @pytest.mark.parametrize("bad", [2, -1, "x"])
    def test_bad_symbol_reads_the_rest_of_its_stride(self, bad):
        symbols = self._symbols()
        symbols[9] = bad
        it = _Counting(symbols)
        with pytest.raises(DomainError):
            run_nonaware(it, *self.ARGS, stride=16)
        assert it.taken == 16

    def test_bad_symbol_after_the_stop_is_not_read(self):
        symbols = self._symbols()
        stop, taken = _run(run_nonaware_stepwise, symbols, *self.ARGS, stride=7)
        symbols[stop.stopping_time] = 2
        assert _run(run_nonaware, symbols, *self.ARGS, stride=7) == (stop, taken)
