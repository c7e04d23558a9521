"""Several streams in lockstep against each stream run alone.

`run_aware` takes a tuple of streams and `run_replication` equal-length
sequences of hypotheses and replication indices; both give one outcome per
run, equal to the call on that run alone. The lockstep loop runs groups
of `seqtest._GROUP` streams and splits its evidence calls at
`seqtest._ROWS` rows; the tests shrink both so that small cases cross
their edges.
"""

import functools
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqgame import (
    Distribution,
    DistortionMeasure,
    DomainError,
    GameSpec,
    ScenarioConfig,
    ShapeError,
    StreamExhaustedError,
    ThresholdSchedule,
    run_aware,
    run_replication,
)
from seqgame import run_nonaware, seqtest
from seqgame.prob import Channel
from seqgame.simharness import _ChannelStream, _seed_words

from oracles import run_aware_stepwise, run_nonaware_stepwise


@contextmanager
def _limits(group: int, rows: int):
    with mock.patch.object(seqtest, "_GROUP", group), mock.patch.object(seqtest, "_ROWS", rows):
        yield


def _laws(size: int, count: int) -> tuple[Distribution, ...]:
    """Law i puts 0.5 on symbol i and the rest evenly; on two symbols,
    0.2, 0.8 and 0.5 on symbol 0."""
    if size == 2:
        return tuple(Distribution([p, 1.0 - p]) for p in (0.2, 0.8, 0.5)[:count])
    laws = []
    for i in range(count):
        probs = np.full(size, 0.5 / (size - 1))
        probs[i] = 0.5
        laws.append(Distribution(probs))
    return tuple(laws)


@functools.lru_cache(maxsize=None)
def _spec(size: int, count: int, measure: str, delta: float) -> GameSpec:
    return GameSpec(_laws(size, count), delta, DistortionMeasure(measure))


def _stream(spec: GameSpec, law: int, seed: int) -> _ChannelStream:
    """Symbols from hypothesis `law`, or from the uniform law past the last
    hypothesis, which is far from none of them and runs long; each reading
    draws the same symbols again."""
    size = spec.alphabet_size
    source = spec.hypotheses[law] if law < spec.num_hypotheses else Distribution(np.full(size, 1.0 / size))
    return _ChannelStream(source, Channel(np.eye(size)), seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(size=st.integers(2, 5), count=st.integers(2, 3), measure=st.sampled_from(["tv_l1", "kl"]),
       delta=st.sampled_from([0.0, 1e-12, 0.01]), stride=st.integers(1, 20),
       cap=st.sampled_from([1, 15, 17, 100, 255, 257, 1001, 4097]),
       alpha=st.sampled_from([0.3, 0.05, 1e-6]), group=st.sampled_from([1, 2, 3, 32]),
       rows=st.sampled_from([1, 7, 4096]), data=st.data())
@example(size=3, count=3, measure="kl", delta=0.01, stride=3, cap=2000, alpha=1e-6, group=2,
         rows=7, data=None)
def test_a_tuple_of_streams_equals_the_calls_alone(size, count, measure, delta, stride, cap,
                                                   alpha, group, rows, data):
    """Games of K = 2..5 symbols, caps on and off the stride, streams from
    every hypothesis and from the uniform law, so that runs stop in
    different rounds and some time out."""
    spec = _spec(size, count, measure, delta)
    schedule = ThresholdSchedule(alpha, count, size)
    if data is None:  # the example: one stream of each hypothesis, and a long uniform one
        picks = [(law, 0) for law in range(count + 1)]
    else:
        picks = data.draw(st.lists(st.tuples(st.integers(0, count), st.integers(0, 2**16)),
                                   min_size=1, max_size=6))
    streams = tuple(_stream(spec, law, seed) for law, seed in picks)
    alone = tuple(run_aware(stream, schedule, spec, cap=cap, stride=stride) for stream in streams)
    with _limits(group, rows):
        assert run_aware(streams, schedule, spec, cap=cap, stride=stride) == alone


def test_streams_stop_in_different_rounds():
    """The case above that the property test has as its example: the runs
    stop in three different reads and the uniform one times out."""
    spec = _spec(3, 3, "kl", 0.01)
    schedule = ThresholdSchedule(1e-6, 3, 3)
    streams = tuple(_stream(spec, law, 0) for law in range(4))
    with _limits(2, 7):
        outcomes = run_aware(streams, schedule, spec, cap=2000, stride=3)
    assert outcomes == tuple(run_aware(s, schedule, spec, cap=2000, stride=3) for s in streams)
    # reads end after 48, 144, 336, 720, ... symbols at stride 3
    ends = np.cumsum([3 * 16 << k for k in range(8)])
    rounds = {int(np.searchsorted(ends, o.stopping_time)) for o in outcomes if not o.timed_out}
    assert len(rounds) > 1
    assert outcomes[-1].timed_out


def test_lists_and_arrays_in_a_tuple():
    spec = _spec(3, 2, "tv_l1", 0.05)
    schedule = ThresholdSchedule(0.05, 2, 3)
    symbols = _stream(spec, 1, 5).reader()(3000)
    streams = (symbols.tolist(), symbols, iter(symbols[::-1].tolist()))
    alone = (run_aware(symbols.tolist(), schedule, spec), run_aware(symbols, schedule, spec),
             run_aware(iter(symbols[::-1].tolist()), schedule, spec))
    assert run_aware(streams, schedule, spec) == alone
    # a one-stream tuple is a tuple of streams; an empty tuple, an empty stream
    assert run_aware((symbols,), schedule, spec) == alone[1:2]
    with pytest.raises(StreamExhaustedError):
        run_aware((), schedule, spec)


@pytest.mark.parametrize("group", [1, 2, 32])
def test_each_stream_keeps_its_reads(group):
    """Every stream is read to the end of the read of its stop, as alone:
    16 evaluated steps, then twice as many in each next read."""
    spec = _spec(3, 3, "kl", 0.01)
    schedule = ThresholdSchedule(1e-6, 3, 3)
    symbols = [_stream(spec, law, 0).reader()(3000).tolist() for law in (0, 2, 1, 3)]

    def left(run):
        its = [iter(s) for s in symbols]
        run(its)
        return [len(list(it)) for it in its]

    alone = left(lambda its: [run_aware(it, schedule, spec, cap=2000, stride=3) for it in its])
    with _limits(group, 4096):
        assert left(lambda its: run_aware(tuple(its), schedule, spec, cap=2000, stride=3)) == alone
    assert len(set(alone)) > 1


def _raised(call):
    """The type and message of what `call()` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestFailingStreams:
    @pytest.mark.parametrize("group", [1, 2, 32])
    @pytest.mark.parametrize("size", [2, 3])
    def test_the_first_failing_stream_raises(self, size, group):
        """Stream 1 ends in the second read, stream 2 meets an invalid
        symbol in the first and stream 3 ends at once: stream 1's error is
        raised, as it is alone, whatever the order the streams fail in."""
        # on two symbols, balls close enough that a fair coin runs long
        spec = (_spec(size, 2, "tv_l1", 0.05) if size > 2 else
                GameSpec((Distribution([0.45, 0.55]), Distribution([0.55, 0.45])), 0.05,
                         DistortionMeasure.TV_L1))
        schedule = ThresholdSchedule(1e-6, 2, size)
        long = _stream(spec, 2, 0).reader()(4000).tolist()
        bad = long[:5] + [size] + long[6:]
        streams = (_stream(spec, 0, 1), long[:300], bad, [])
        with _limits(group, 4096):
            got = _raised(lambda: run_aware(streams, schedule, spec))
        assert got == _raised(lambda: run_aware(streams[1], schedule, spec))
        assert got[0] is StreamExhaustedError and "after 300 symbols" in got[1]
        assert _raised(lambda: run_aware(bad, schedule, spec))[0] is DomainError
        with _limits(group, 4096):
            tail = _raised(lambda: run_aware(streams[2:], schedule, spec))
        assert tail == _raised(lambda: run_aware(bad, schedule, spec))

    def test_a_stream_that_stops_before_its_bad_symbol_does_not_raise(self):
        spec = _spec(3, 2, "tv_l1", 0.05)
        schedule = ThresholdSchedule(0.05, 2, 3)
        symbols = _stream(spec, 0, 3).reader()(3000).tolist()
        stop = run_aware(symbols, schedule, spec)
        symbols[stop.stopping_time] = -1
        other = _stream(spec, 1, 4)
        assert run_aware((symbols, other), schedule, spec) == (
            stop, run_aware(other, schedule, spec))


class TestShortReads:
    """A stream that ends, or meets an invalid symbol, one symbol before an
    evaluated step. It repeats one symbol, so its counts there, which the
    loop carries past the end of the read, give the law at which the full
    stream stops: the stop rule reports a stop at that step, and the loop
    must drop it and raise what the per-symbol loop raises."""

    CAP = 100_000

    @staticmethod
    def _cut(symbol: int, stop: int, size: int) -> dict[str, list[int]]:
        """The stream of `symbol` one symbol short of `stop`, alone and then
        followed by an invalid symbol and more of `symbol`."""
        short = [symbol] * (stop - 1)
        return {"ends": short, "invalid": short + [size] + [symbol] * 10}

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("size", [2, 3])
    def test_aware(self, size, stride):
        """Alone, and in a tuple before and after a stream that stops later."""
        spec, schedule = _spec(size, 3, "tv_l1", 0.05), ThresholdSchedule(1e-6, 3, size)
        kwargs = dict(cap=self.CAP, stride=stride)
        stop = run_aware_stepwise([size - 1] * self.CAP, schedule, spec, **kwargs).stopping_time
        assert stop % stride == 0 and stop > 1
        later = _stream(spec, 3, 0)  # the uniform law, which runs long
        assert run_aware(later, schedule, spec, **kwargs).stopping_time > 2 * stop
        for kind, symbols in self._cut(size - 1, stop, size).items():
            want = _raised(lambda: run_aware_stepwise(symbols, schedule, spec, **kwargs))
            assert want[0] is (StreamExhaustedError if kind == "ends" else DomainError)
            for streams in (symbols, (symbols, later), (later, symbols)):
                assert _raised(lambda: run_aware(streams, schedule, spec, **kwargs)) == want

    @pytest.mark.parametrize("stride", [1, 7])
    def test_common_channel(self, stride):
        args = (ThresholdSchedule(0.05, 2, 2), Distribution([0.38, 0.62]), Distribution([0.5, 0.5]),
                0.05, DistortionMeasure.TV_L1)
        stop = run_nonaware_stepwise([1] * self.CAP, *args, cap=self.CAP, stride=stride)
        assert stop.stopping_time % stride == 0 and stop.stopping_time > 1
        for kind, symbols in self._cut(1, stop.stopping_time, 2).items():
            want = _raised(lambda: run_nonaware_stepwise(symbols, *args, stride=stride))
            assert want[0] is (StreamExhaustedError if kind == "ends" else DomainError)
            assert _raised(lambda: run_nonaware(symbols, *args, stride=stride)) == want


@pytest.fixture(scope="module")
def configs():
    binary = GameSpec((Distribution([0.38, 0.62]), Distribution([0.5, 0.5])), 0.05,
                      DistortionMeasure.TV_L1)
    return {2: ScenarioConfig(binary, (0.1, 0.01), 4, 3, cap=5000, stride=3),
            3: ScenarioConfig(_spec(3, 3, "tv_l1", 0.05), (0.1, 0.01), 4, 3, cap=5000, stride=3)}


class TestRunReplicationSequences:
    @pytest.mark.parametrize("size", [2, 3])
    def test_equals_the_scalar_calls(self, configs, size):
        cfg = configs[size]
        hyps = (0, 1, 1, 0, 1, 0, 0)
        reps = (0, 0, 3, 2, 7, 2, 11)
        for alpha in cfg.alpha_grid:
            alone = tuple(run_replication(cfg, alpha, h, r) for h, r in zip(hyps, reps))
            assert run_replication(cfg, alpha, hyps, reps) == alone
            assert run_replication(cfg, alpha, list(hyps), list(reps)) == alone
            with _limits(2, 5):
                assert run_replication(cfg, alpha, hyps, reps) == alone
        assert run_replication(cfg, 0.1, (), []) == ()

    @pytest.mark.parametrize("size", [2, 3])
    def test_unequal_lengths(self, configs, size):
        with pytest.raises(ShapeError):
            run_replication(configs[size], 0.1, (0, 1), (0,))
        with pytest.raises(ShapeError):
            run_replication(configs[size], 0.1, [], (0,))

    def test_each_coordinate_is_checked(self, configs):
        cfg = configs[3]
        for hyps, reps in (((0, 1), 0), ((0, 3), (0, 0)), ((0, 1), (0, -1)), ((0, True), (0, 0)),
                           ((0, 1), (0, 0.5))):
            with pytest.raises(DomainError):
                run_replication(cfg, 0.1, hyps, reps)
        with pytest.raises(DomainError):
            run_replication(cfg, 0.3, (0,), (0,))


@pytest.mark.parametrize("coordinate", [0, 2**32 - 1, 2**32, 2**63 - 1])
def test_seed_words_give_the_list_seed(coordinate):
    """The uint32 words of a replication seed its generator as the list of
    its coordinates does."""
    coordinates = (coordinate, 1, coordinate, coordinate)
    words = _seed_words(*coordinates)
    assert isinstance(words, np.ndarray) == (coordinate < 2**32)
    ours, theirs = np.random.SeedSequence(words), np.random.SeedSequence(list(coordinates))
    assert np.array_equal(ours.generate_state(8), theirs.generate_state(8))
    assert np.array_equal(ours.pool, theirs.pool)
