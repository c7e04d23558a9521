"""The chunked aware test against the test fed one symbol at a time.

`run_aware` reads its stream in chunks and evaluates every step of a
chunk with one batched `evidence_statistics` call; `run_aware_stepwise` in
`oracles.py` is the per-symbol loop it replaced. Both must stop, decide
and raise alike. A batched evidence call must equal its one-row calls
bit for bit, and its one stacked reach solve must equal the solves
ball by ball of `evidence_by_ball`.
"""

import functools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqgame import (
    Distribution,
    DistortionBall,
    DistortionMeasure,
    DomainError,
    GameSpec,
    StreamExhaustedError,
    ThresholdSchedule,
    evidence_statistics,
    min_divergence_to_ball,
    run_aware,
)
from seqgame import divopt, seqtest
from seqgame.errors import InfeasibleError
from seqgame.prob import Channel
from seqgame.simharness import _ChannelStream

from oracles import evidence_by_ball, run_aware_stepwise

CAPS = (1, 15, 16, 17, 255, 256, 257, 4097)


def _laws(size: int, count: int) -> tuple[Distribution, ...]:
    """Well separated laws: law i puts 0.5 on symbol i, the rest evenly."""
    laws = []
    for i in range(count):
        probs = np.full(size, 0.5 / (size - 1))
        probs[i] = 0.5
        laws.append(Distribution(probs))
    return tuple(laws)


@functools.lru_cache(maxsize=None)
def _spec(size: int, count: int, measure: str, delta: float) -> GameSpec:
    return GameSpec(_laws(size, count), delta, DistortionMeasure(measure))


@st.composite
def _games(draw):
    size = draw(st.integers(3, 5))
    count = draw(st.integers(2, 3))
    measure = draw(st.sampled_from(["tv_l1", "kl"]))
    top = 0.2 if measure == "tv_l1" else 0.02
    delta = draw(st.one_of(st.sampled_from([0.0, 1e-12]),
                           st.floats(1e-3, top).map(lambda d: round(d, 3))))
    return _spec(size, count, measure, delta)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_games(), stride=st.integers(1, 20), cap=st.sampled_from(CAPS),
       seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.05, 0.3]), data=st.data())
def test_chunked_matches_stepwise(spec, stride, cap, seed, alpha, data):
    truth = data.draw(st.integers(0, spec.num_hypotheses - 1))
    schedule = ThresholdSchedule(alpha, spec.num_hypotheses, spec.alphabet_size)
    channel = Channel(np.eye(spec.alphabet_size))
    outcomes = []
    for run in (run_aware, run_aware_stepwise):
        stream = _ChannelStream(spec.hypotheses[truth], channel, np.random.default_rng(seed))
        outcomes.append(run(stream, schedule, spec, cap=cap, stride=stride))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("stride, cap", [(7, 9000), (5000, 12001)])
def test_long_run_matches_stepwise(stride, cap):
    """Uniform symbols, equally far from every hypothesis, and a tiny alpha
    keep the test running to the cap, through chunks that double up to
    4,096 symbols, and through chunks without an evaluated step when the
    stride is longer."""
    spec = _spec(3, 3, "tv_l1", 0.05)
    schedule = ThresholdSchedule(1e-300, spec.num_hypotheses, spec.alphabet_size)
    outcomes = []
    for run in (run_aware, run_aware_stepwise):
        stream = _ChannelStream(Distribution(np.full(3, 1.0 / 3.0)), Channel(np.eye(3)),
                                np.random.default_rng(stride))
        outcomes.append(run(stream, schedule, spec, cap=cap, stride=stride))
    assert outcomes[0].timed_out
    assert outcomes[0] == outcomes[1]


def _symbols(spec: GameSpec, truth: int, count: int, seed: int = 0) -> list[int]:
    stream = _ChannelStream(spec.hypotheses[truth], Channel(np.eye(spec.alphabet_size)), seed)
    return stream.reader()(count).tolist()


@pytest.fixture(scope="module")
def game():
    spec = _spec(3, 3, "tv_l1", 0.05)
    return spec, ThresholdSchedule(0.05, spec.num_hypotheses, spec.alphabet_size)


class TestStreamEdges:
    @pytest.mark.parametrize("stride", [1, 7, 16])
    def test_exhausted_before_the_stop(self, game, stride):
        spec, schedule = game
        symbols = _symbols(spec, 0, 40)
        for run in (run_aware, run_aware_stepwise):
            with pytest.raises(StreamExhaustedError, match="after 40 symbols"):
                run(iter(symbols), schedule, spec, stride=stride)

    @pytest.mark.parametrize("stride", [1, 5])
    def test_bad_symbol_after_the_stop(self, game, stride):
        spec, schedule = game
        symbols = _symbols(spec, 1, 2000)
        stop = run_aware_stepwise(iter(symbols), schedule, spec, stride=stride)
        assert not stop.timed_out
        symbols[stop.stopping_time] = spec.alphabet_size
        assert run_aware(iter(symbols), schedule, spec, stride=stride) == stop

    @pytest.mark.parametrize("bad", [3, -1, "x", 0.5, 1.0, "1", True, np.True_])
    def test_bad_symbol_before_the_stop(self, game, bad):
        spec, schedule = game
        symbols = _symbols(spec, 1, 2000)
        stop = run_aware_stepwise(iter(symbols), schedule, spec)
        symbols[stop.stopping_time - 1] = bad
        with pytest.raises(DomainError):
            run_aware(iter(symbols), schedule, spec)

    def test_stream_read_to_the_end_of_the_stopping_chunk(self, game):
        spec, schedule = game
        symbols = _symbols(spec, 2, 2000)
        it = iter(symbols)
        stop = run_aware(it, schedule, spec, stride=3)
        end, steps = 0, 16
        while end < stop.stopping_time:
            end, steps = end + 3 * steps, 2 * steps
        assert len(list(it)) == len(symbols) - end


@pytest.mark.parametrize("measure, delta", [("tv_l1", 0.0), ("tv_l1", 1e-12), ("tv_l1", 0.08),
                                            ("kl", 0.0), ("kl", 1e-12), ("kl", 0.01)])
@pytest.mark.parametrize("size", [3, 4, 5])
def test_batched_evidence_equals_one_row_calls(measure, delta, size):
    spec = _spec(size, 3, measure, delta)
    rng = np.random.default_rng(size)
    counts = rng.integers(0, 6, (24, size)) * rng.integers(0, 2, (24, size))
    counts[counts.sum(axis=1) == 0, 0] = 1
    batched = evidence_statistics(counts, spec)
    assert batched.shape == (24, spec.num_hypotheses)
    for row, z in zip(counts, batched):
        one = evidence_statistics(row, spec)
        assert np.array_equal(z, one)


@dataclass(frozen=True)
class _Balls:
    """What `evidence_statistics` reads of a GameSpec, without the check
    that the balls lie apart: the solver must hold on any balls."""

    balls: tuple[DistortionBall, ...]

    @property
    def num_hypotheses(self) -> int:
        return len(self.balls)

    @property
    def alphabet_size(self) -> int:
        return self.balls[0].size


@st.composite
def _ball_sets(draw):
    size, count = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    top = 0.5 if measure is DistortionMeasure.TV_L1 else 0.05
    radius = draw(st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(1e-4, top)))
    floor = draw(st.one_of(st.just(0.0), st.just(np.nextafter(1.0 / size, 0.0)),
                           st.floats(0.0, 1.0 / size, exclude_max=True)))
    balls = []
    for _ in range(count):
        # integer weights give zero entries and ties, which the floor lifts
        weights = np.array(draw(st.lists(st.integers(0, 12), min_size=size, max_size=size)))
        if weights.sum() == 0:
            weights[0] = 1
        center = floor + (1.0 - size * floor) * weights / weights.sum()
        try:
            balls.append(DistortionBall(Distribution(center), radius, measure, floor))
        except InfeasibleError:  # rounding dropped an entry below the floor
            assume(False)
    return _Balls(tuple(balls))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_ball_sets(), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_stacked_evidence_equals_the_per_ball_oracle(spec, rows, seed):
    rng, shape = np.random.default_rng(seed), (rows, spec.alphabet_size)
    counts = rng.integers(0, 9, shape) * rng.integers(0, 2, shape)
    counts[counts.sum(axis=1) == 0, 0] = 1
    got, want = evidence_statistics(counts, spec), evidence_by_ball(counts, spec.balls)
    assert got.tobytes() == want.tobytes()
    # the one-ball entry point is the stacked solve on one row and ball
    qhat = counts / counts.sum(axis=1, keepdims=True)
    reach = divopt._ball_reach(qhat, spec.balls)[1].reshape(len(spec.balls), rows)
    for r in {0, rows - 1}:
        for j, ball in enumerate(spec.balls):
            assert min_divergence_to_ball(qhat[r], ball).value == reach[j, r]


@pytest.mark.parametrize("measure, delta", [("tv_l1", 0.05), ("kl", 0.01)])
@pytest.mark.parametrize("count", [2, 3, 4])
def test_one_reach_solve_per_evidence_call(monkeypatch, measure, delta, count):
    """Every ball's reach comes from one call of the reach solver, which
    makes one call of the block solver of its measure."""
    spec = _spec(4, count, measure, delta)  # set-up solves its pairs before the count
    counts = np.random.default_rng(count).integers(0, 9, (16, 4)) + 1
    calls = []
    for module, name in ((seqtest, "_ball_reach"), (divopt, "_tv_block_argmin"),
                         (divopt, "_kl_reach_argmin"), (divopt, "min_divergence_to_ball")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    evidence_statistics(counts, spec)
    block = "_tv_block_argmin" if measure == "tv_l1" else "_kl_reach_argmin"
    assert sorted(calls) == sorted(["_ball_reach", block])


def test_stacked_evidence_equals_the_oracle_across_scan_chunks(monkeypatch):
    """The TV solver splits long stacks of rows into knot scans of bounded
    size; with five rows per scan, the 48 stacked rows of three balls
    cross scans in the middle of a ball's rows."""
    spec = _spec(4, 3, "tv_l1", 0.05)
    counts = np.random.default_rng(1).integers(0, 9, (16, 4)) + 1
    monkeypatch.setattr(divopt, "_SCAN_ENTRIES", 5 * 4 * (2 * 4 + 1))
    got = evidence_statistics(counts, spec)
    assert got.tobytes() == evidence_by_ball(counts, spec.balls).tobytes()
