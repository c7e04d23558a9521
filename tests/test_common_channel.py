"""The binary common-channel min-max, the common-channel search, and
their callers.

The closed-form solve is checked against a brute-force grid over binary
channels [[a, 1-a], [1-b, b]] on random games, against the larger of the
two clamp divergences at every t, and pinned on the benchmark's game, where
an earlier barrier solver overstated it. The facing-ends channel of
`solve_nonaware_adversary` is checked against a grid of its objective.
`run_nonaware`, which reads its stream one evaluated step at a time
against a boundary table on the two output ranges, is checked against the
per-symbol loop in `oracles.py`.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from seqgame import divopt, prob
from seqgame.divopt import (
    _FEASIBILITY_SLACK,
    DistortionBall,
    _ChannelGame,
    _CommonChannelSet,
    min_divergence_over_common_channels,
    min_max_divergence_over_channel,
)
from seqgame.equilibrium import nonaware_achievable, nonaware_converse, solve_nonaware_adversary
from seqgame.errors import DomainError, ResourceError, ShapeError, StreamExhaustedError
from seqgame.prob import Channel, Distribution, DistortionMeasure
from seqgame.seqtest import ThresholdSchedule, _shares, run_nonaware

from oracles import (
    branch_statistics,
    empirical_distribution,
    grid_oracle_min_channels,
    run_nonaware_stepwise,
)

P0 = Distribution([0.38, 0.62])
P1 = Distribution([0.5, 0.5])
FLOOR = DistortionBall.floor  # the floor of the balls of every common-channel solve
GRID_STEP = 1.0 / 200


class TestBenchGame:
    """The game of the common-channel benchmark: TV budget 0.05."""

    def test_value_at_044(self):
        res = min_max_divergence_over_channel(
            Distribution([0.44, 0.56]), P0, P1, 0.05, DistortionMeasure.TV_L1)
        # a channel grid at pitch 2.5e-4 reaches 0.0025222; the barrier gave 0.0064630
        assert res.value <= 0.0025222
        assert res.value == pytest.approx(0.0025208, abs=1e-6)

    def test_value_at_045(self):
        res = min_max_divergence_over_channel(
            Distribution([0.45, 0.55]), P0, P1, 0.05, DistortionMeasure.TV_L1)
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
    qhat = Distribution([q0, 1.0 - q0])
    if len(branches) == 2:
        res = min_max_divergence_over_channel(qhat, *laws, delta, measure)
    else:
        res = min_divergence_over_common_channels(qhat, branches[0], *laws, delta, measure)

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
    """No common-channel solve iterates: with every bisection capped at
    one step, the solves still give their values and the test still decides."""

    @pytest.fixture
    def capped(self, monkeypatch):
        monkeypatch.setattr(divopt, "_BISECTION_CAP", 1)

    def test_minmax_needs_no_search(self, capped):
        res = min_max_divergence_over_channel(
            Distribution([0.44, 0.56]), P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert res.value == pytest.approx(0.0025208, abs=1e-6)

    def test_single_branch_needs_no_search(self, capped):
        res = min_divergence_over_common_channels(
            Distribution([0.44, 0.56]), 0, P0, P1, 0.05, DistortionMeasure.TV_L1)
        assert res.value == pytest.approx(0.0025208, abs=1e-6)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_run_nonaware_stops_at_the_larger_clamp(self, capped, side):
        # Twenty zeros put t = 1 at step 20; a threshold a hair below the
        # larger clamp divergence stops the run there, one a hair above
        # does not.
        n = 20
        game = _ChannelGame(P0, P1, 0.05, DistortionMeasure.TV_L1)
        gamma = game.minmax(1.0).value * (1.0 + side * 1e-9)
        sched = ThresholdSchedule(alpha=_alpha_at(gamma, n), num_hypotheses=2, alphabet_size=2)
        assert sched.value(n) == pytest.approx(gamma, rel=1e-11)
        out = run_nonaware(iter([0] * n), sched, P0, P1, 0.05, DistortionMeasure.TV_L1,
                           cap=n, stride=n)
        assert out.timed_out == (side > 0.0)
        assert out.stopping_time == n

    def test_achievable_bound_needs_no_search(self, capped):
        ach = nonaware_achievable(P0, P1, Channel(np.eye(2)), 0.05, DistortionMeasure.TV_L1)
        assert ach == pytest.approx(0.03670848617543383, rel=1e-6)

    def test_run_nonaware_bounds_decide_without_search(self, capped):
        # the larger clamp decides every step of this input, and none
        # stops, so the run reads the stream to its end
        sched = ThresholdSchedule(alpha=0.1, num_hypotheses=2, alphabet_size=2)
        with pytest.raises(StreamExhaustedError, match="after 20 symbols"):
            run_nonaware(iter([0, 1] * 10), sched, P0, P1, 0.05, DistortionMeasure.TV_L1)


def _law(p: float) -> Distribution:
    return Distribution([p, 1.0 - p])


@settings(max_examples=150, deadline=None)
@given(_games())
def test_minmax_is_the_larger_clamp(game):
    """The min-max value is exactly the larger of the two clamp
    divergences, and its channel is feasible for both balls and attains it."""
    measure, p0, p1, delta, q0, _ = game
    laws = (_law(p0), _law(p1))
    channel_game = _ChannelGame(*laws, delta, measure)
    res = channel_game.minmax(q0)
    assert res.value == max(channel_game.single(q0, b).value for b in (0, 1))
    reached = []
    for p in laws:
        out = p.probs @ res.channel.rows
        assert np.all(out >= FLOOR - _FEASIBILITY_SLACK)
        assert measure.evaluate(p.probs, out) <= delta + _FEASIBILITY_SLACK
        reached.append(float(_binary_kl(q0, out[0])))
    assert max(reached) == pytest.approx(res.value, rel=1e-9, abs=1e-12)


def _larger_clamp(game: _ChannelGame, t: np.ndarray) -> np.ndarray:
    """The min-max statistic at every entry of t, as the larger clamp
    divergence onto the two output ranges."""
    with np.errstate(divide="ignore"):
        return np.max([_binary_kl(t, np.clip(t, r.x_lo, r.x_hi))
                       for r in game.regions], axis=0)


# the benchmark game, whose output ranges are separated
@example((DistortionMeasure.TV_L1, 0.38, 0.5, 0.05, 0.5, (0, 1)), 1.0)
# overlapping ranges
@example((DistortionMeasure.TV_L1, 0.38, 0.5, 0.2, 0.5, (0, 1)), 2.5)
@example((DistortionMeasure.KL, 0.3, 0.35, 0.02, 0.5, (0, 1)), 0.5)
# p0 = p1
@example((DistortionMeasure.KL, 0.3, 0.3, 0.0, 0.5, (0, 1)), 1.0)
# the output laws' divergences, and the statistic, round below zero
@example((DistortionMeasure.KL, 0.41635715791842365, 0.4639752355616323, 0.04422607658090565,
          0.5, (0, 1)), 0.3124923751441946)
@example((DistortionMeasure.TV_L1, 0.41005022862785295, 0.41005022862785295, 0.0,
          0.5, (0, 1)), 5.22633705567591)
@settings(max_examples=60, deadline=None)
@given(_games(), st.floats(0.1, 10.0))
def test_search_matches_channel_grid_oracle(game, weight):
    """The facing-ends channel is feasible, pays no more than any channel
    of a grid, and its achievable bound stays within the converse as floats.

    The grid scores each channel by S(x) + weight S(y) with S the larger
    clamp, which the two tests above check against the min-max."""
    measure, p0, p1, delta, _, _ = game
    laws = (_law(p0), _law(p1))
    bounds = solve_nonaware_adversary(*laws, delta, measure, weight)
    assert 0.0 <= bounds.achievable <= bounds.converse
    for p in laws:
        out = p.probs @ bounds.channel.rows
        assert np.all(out >= FLOOR - _FEASIBILITY_SLACK)
        assert measure.evaluate(p.probs, out) <= delta + _FEASIBILITY_SLACK

    channel_game = _ChannelGame(*laws, delta, measure)

    def feasible(a, b):
        return np.all([(_distortion(measure, p.probs[0], t) <= delta)
                       & (t >= FLOOR) & (t <= 1.0 - FLOOR)
                       for p in laws for t in [_outputs(a, b, p)]], axis=0)

    def objective(a, b):
        x, y = (_outputs(a, b, p) for p in laws)
        return _larger_clamp(channel_game, x) + weight * _larger_clamp(channel_game, y)

    # the identity channel is on the grid, so the grid is never empty
    oracle, _ = grid_oracle_min_channels(objective, feasible, step=GRID_STEP)
    assert bounds.achievable <= oracle * (1.0 + 1e-12) + 1e-15


def test_achievable_within_converse_at_the_facing_ends():
    """At the benchmark game's facing ends, (0.405, 0.475), the two bounds
    are equal in exact arithmetic; rounding once put the achievable bound
    2e-16 above the converse."""
    rows = np.linalg.solve(np.array([P0.probs, P1.probs]), [0.38 + 0.025, 0.5 - 0.025])
    channel = Channel(np.column_stack([rows, 1.0 - rows]))
    args = (P0, P1, channel, 0.05, DistortionMeasure.TV_L1)
    achievable, converse = nonaware_achievable(*args), nonaware_converse(*args)
    assert achievable == pytest.approx(0.0199213615917475, rel=1e-12)
    assert achievable <= converse


@pytest.mark.parametrize("total", [1, 2, 3, 7, 10, 1023, 1024, 3391, 10**6 + 1])
def test_first_share_is_the_empirical_law(total):
    """t, the first of the shares `_shares` forms, is the float that
    empirical_distribution forms, renormalization included, for every
    split of the total."""
    for zeros in sorted({0, 1, total // 3, total // 2, total - 1, total} & set(range(total + 1))):
        qhat = empirical_distribution(np.array([zeros, total - zeros]))
        assert _shares(np.array([[zeros, total - zeros]]))[0, 0] == float(qhat.probs[0])


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


_SLOW_GAME = (DistortionMeasure.TV_L1, 0.38, 0.5, 0.05)


@settings(max_examples=60, deadline=None)
@given(game=_games(), stride=st.integers(1, 2048), evaluations=st.integers(0, 24),
       offset=st.integers(0, 2047), short=st.booleans(),
       alpha=st.sampled_from([0.01, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
@example(game=_SLOW_GAME + (0.42, (0, 1)), stride=7, evaluations=700, offset=3, short=False,
         alpha=0.05, seed=2)
@example(game=_SLOW_GAME + (0.44, (0, 1)), stride=7, evaluations=585, offset=5, short=False,
         alpha=0.05, seed=0)
def test_run_matches_stepwise(game, stride, evaluations, offset, short, alpha, seed):
    """Same outcome, decision or error, and the same number of
    symbols read, as the per-symbol loop that solves every step in full.
    Among the examples, the benchmark's game between its output ranges: a
    stop at 4,830 whose steps at stride 7 run across the boundary table's
    first block into its second, and a timeout at the cap 4,100, off the
    stride and just past the first block."""
    measure, p0, p1, delta, q0, _ = game
    cap = max(1, evaluations * stride + offset % stride)
    rng = np.random.default_rng(seed)
    # symbol 0 with probability q0; a short stream ends before the cap
    length = int(rng.integers(0, cap)) if short else cap
    symbols = (rng.random(length) >= q0).astype(int).tolist()
    sched = ThresholdSchedule(alpha, 2, 2)
    args = (sched, _law(p0), _law(p1), delta, measure)
    kwargs = dict(cap=cap, stride=stride)
    assert _run(run_nonaware, symbols, *args, **kwargs) == _run(
        run_nonaware_stepwise, symbols, *args, **kwargs)


@pytest.mark.parametrize("stride", [1, 7, 1024])
def test_bench_game_matches_stepwise(stride):
    """The benchmark's game and channel, to the stop."""
    sched = ThresholdSchedule(0.05, 2, 2)
    rng = np.random.default_rng(stride)
    # P0 through the benchmark's channel [[0.7781, 0.2219], [0.175, 0.825]]
    zero = 0.38 * 0.7781 + 0.62 * 0.175
    symbols = (rng.random(20_000) >= zero).astype(int).tolist()
    args = (sched, P0, P1, 0.05, DistortionMeasure.TV_L1)
    got = _run(run_nonaware, symbols, *args, stride=stride)
    assert not isinstance(got[0], tuple) and not got[0].timed_out
    assert got == _run(run_nonaware_stepwise, symbols, *args, stride=stride)


def test_both_branches_clear_at_once():
    """A conflict on the benchmark's game: at t = 0.44, between the output
    ranges [0.361, 0.405] and [0.475, 0.520], both statistics (0.00246 and
    0.00252) clear the threshold (0.00175) at the first evaluated step, and
    the larger, hypothesis 1's, decides."""
    symbols = np.random.default_rng(0).permutation([0] * 8_800 + [1] * 11_200).tolist()
    symbols += [0] * 100  # read only if the run went past its stop
    args = (ThresholdSchedule(0.05, 2, 2), P0, P1, 0.05, DistortionMeasure.TV_L1)
    got = _run(run_nonaware, symbols, *args, stride=20_000)
    assert got == _run(run_nonaware_stepwise, symbols, *args, stride=20_000)
    outcome, taken = got
    assert (outcome.stopping_time, outcome.decision, taken) == (20_000, 1, 20_000)
    branch = branch_statistics(empirical_distribution([8_800, 11_200]), *args[1:])
    assert min(branch) >= args[0].value(20_000)


class TestStreamEdges:
    SCHED = ThresholdSchedule(0.05, 2, 2)
    ARGS = (SCHED, P0, P1, 0.05, DistortionMeasure.TV_L1)

    def _symbols(self):
        return (np.random.default_rng(5).random(20_000) >= 0.5).astype(int).tolist()

    @pytest.mark.parametrize("bad", [2, -1, "x", 0.5, 1.0, "1", True, np.True_])
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


@st.composite
def _grid_games(draw):
    """Binary games on a decimal grid, whose interval and output-range ends
    lie within a few ulps of count shares k/1000."""
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    p0 = draw(st.integers(5, 95)) / 100
    p1 = p0 if draw(st.booleans()) else draw(st.integers(5, 95)) / 100
    top = 200 if measure is DistortionMeasure.TV_L1 else 20
    delta = draw(st.integers(0, top)) / 1000
    return measure, p0, p1, delta


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=150, deadline=None)
@given(game=_grid_games(), ulps=st.integers(-4, 4))
@example(game=(DistortionMeasure.TV_L1, 0.1, 0.1, 0.05), ulps=0)
@example(game=(DistortionMeasure.KL, 0.3, 0.3, 0.0), ulps=1)
def test_no_divergence_rounds_below_zero(game, ulps):
    """Reach values a few ulps off every interval and output-range end, and
    the statistics of `run_nonaware` at count shares next to those ends,
    are never negative (two nearby floats once gave -7e-17)."""
    measure, p0, p1, delta = game
    laws = (_law(p0), _law(p1))
    channel_game = _ChannelGame(*laws, delta, measure)
    for b, law in enumerate(laws):
        ball = DistortionBall(law, delta, measure)
        for end in ball.interval:
            t = min(max(_nudged(end, ulps), 0.0), 1.0)
            assert divopt.min_divergence_to_ball(_law(t), ball).value >= 0.0
        region = channel_game.regions[b]
        for end in (region.x_lo, region.x_hi):
            t = min(max(_nudged(end, ulps), 0.0), 1.0)
            assert channel_game.single(t, b).value >= 0.0
            zeros = round(end * 1000)
            if 0 < zeros < 1000:
                # each hypothesis's statistic in `run_nonaware`: t clamped onto the rival's range
                share = float(_shares(np.array([[zeros, 1000 - zeros]]))[0, 0])
                for rival in channel_game.regions:
                    assert prob._binary_kl(share, min(max(share, rival.x_lo), rival.x_hi)) >= 0.0
