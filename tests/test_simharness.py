import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import seqgame
from seqgame import divopt, seqtest, simharness
from seqgame.equilibrium import GameSpec
from seqgame.errors import DomainError, InfeasibleError, SeqGameError, ShapeError
from seqgame.prob import Channel, Distribution, DistortionMeasure
from seqgame.seqtest import ThresholdSchedule, run_aware, run_nonaware
from seqgame.simharness import (
    EQUILIBRIUM_ADVERSARY,
    REPORT_COLUMNS,
    ScenarioConfig,
    _ChannelStream,
    alpha_sweep,
    monte_carlo,
    run_replication,
    sample_through_channel,
)

from oracles import _first_stop, normalize, run_aware_stepwise

SRC = str(Path(seqgame.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def wide_spec():
    return GameSpec(
        (Distribution([0.2, 0.8]), Distribution([0.8, 0.2])),
        0.05,
        DistortionMeasure.TV_L1,
    )


@pytest.fixture(scope="module")
def wide_config(wide_spec):
    return ScenarioConfig(
        spec=wide_spec, alpha_grid=(0.1,), replications=30, seed=11,
    )


# Source laws and channels with zero entries and tied running sums.
SAMPLER_LAWS = [
    ([0.38, 0.62], [[0.7781, 0.2219], [0.175, 0.825]]),
    ([0.2, 0.3, 0.5], [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.1, 0.1, 0.8]]),
    ([1e-9, 1.0 - 1e-9], [[1.0, 0.0], [0.0, 1.0]]),
    ([0.1, 0.0, 0.6, 0.3], [[0.0, 0.5, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25],
                            [0.7, 0.0, 0.0, 0.3], [0.0, 0.0, 0.0, 1.0]]),
    ([0.0, 0.2, 0.2, 0.0, 0.6], [[0.2, 0.2, 0.2, 0.2, 0.2], [0.0, 0.0, 1.0, 0.0, 0.0],
                                 [0.5, 0.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.3, 0.0, 0.7, 0.0]]),
    ([0.3, 0.0, 0.0, 0.4, 0.0, 0.3], [[0.0, 1 / 3, 0.0, 1 / 3, 0.0, 1 / 3]] * 3
                                      + [[0.5, 0.0, 0.0, 0.0, 0.0, 0.5]] * 2
                                      + [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]),
]


class TestSampleThroughChannel:
    def test_identity_preserves_law(self, rng):
        source = Distribution([0.3, 0.7])
        eye = Channel(np.eye(2))
        draws = np.array([sample_through_channel(source, eye, rng) for _ in range(4000)])
        counts = np.bincount(draws, minlength=2)
        res = stats.chisquare(counts, f_exp=4000 * source.probs)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("size", [-1, 2.5, True])
    def test_bad_size_is_a_domain_error(self, rng, size):
        with pytest.raises(DomainError):
            sample_through_channel(Distribution([0.3, 0.7]), Channel(np.eye(2)), rng, size)

    def test_rank_one_forces_output(self, rng):
        source = Distribution([0.3, 0.7])
        sink = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
        draws = {sample_through_channel(source, sink, rng) for _ in range(50)}
        assert draws == {1}

    def test_marginal_through_asymmetric_channel(self, rng):
        # output mass on symbol 0: 0.38 * 0.5 + 0.62 * 0.3419 = 0.401978
        source = Distribution([0.38, 0.62])
        chan = Channel(np.array([[0.5, 0.5], [0.3419, 0.6581]]))
        draws = np.array([sample_through_channel(source, chan, rng) for _ in range(20000)])
        frac0 = float(np.mean(draws == 0))
        sigma = math.sqrt(0.401978 * (1 - 0.401978) / 20000)
        assert abs(frac0 - 0.401978) <= 4 * sigma

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            sample_through_channel(Distribution([0.2, 0.3, 0.5]), Channel(np.eye(2)), rng)

    def test_consumes_exactly_two_uniforms(self):
        source = Distribution([0.3, 0.7])
        chan = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        got = [sample_through_channel(source, chan, a) for _ in range(20)]
        again = [sample_through_channel(source, chan, b) for _ in range(20)]
        assert got == again
        # both generators advanced in lockstep
        assert a.random() == b.random()

    @pytest.mark.parametrize("probs, rows", SAMPLER_LAWS)
    def test_matches_inverse_cdf_on_sorted_sums(self, probs, rows):
        """The inverse-CDF draw of np.searchsorted on the running sums,
        capped at the last symbol, from the same two uniforms per draw."""
        source, chan = Distribution(probs), Channel(np.array(rows))
        got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5000):
            got = sample_through_channel(source, chan, got_rng)
            u = ref_rng.random(2)
            x = min(int(np.searchsorted(np.cumsum(source.probs), u[0], side="right")),
                    source.size - 1)
            row = np.cumsum(chan.rows[x])
            ref = min(int(np.searchsorted(row, u[1], side="right")), chan.num_outputs - 1)
            assert got == ref
        assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("probs, rows", SAMPLER_LAWS)
    @pytest.mark.parametrize("size", [0, 1, 255, 4096])
    def test_block_equals_single_draws(self, probs, rows, size):
        """A block of `size` symbols is `size` single draws, and leaves the
        generator where they leave it."""
        source, chan = Distribution(probs), Channel(np.array(rows))
        block_rng, single_rng = np.random.default_rng(size), np.random.default_rng(size)
        block = sample_through_channel(source, chan, block_rng, size)
        singles = [sample_through_channel(source, chan, single_rng) for _ in range(size)]
        assert block.tolist() == singles
        assert block_rng.bit_generator.state == single_rng.bit_generator.state


class TestScenarioConfig:
    def test_validation(self, wide_spec):
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (), 10, 0)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (1.5,), 10, 0)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 0, 0)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 10, -1)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 10, 0, zeta=1.0)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 10, 0, true_hypothesis=2)
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 10, 0, adversary="worst")
        # non-integer replications and seeds used to pass here and raise raw
        # TypeErrors later, in monte_carlo or in SeedSequence
        for limits in ({"cap": 0}, {"cap": 2.5}, {"stride": 0}, {"stride": 1.5},
                       {"replications": 2.5}, {"seed": 1.5}, {"seed": None}):
            with pytest.raises(DomainError):
                ScenarioConfig(wide_spec, (0.1,), **{"replications": 10, "seed": 0, **limits})

    @pytest.mark.parametrize("name", ["replications", "cap", "stride"])
    @pytest.mark.parametrize("value", [True, 0, 1.0])
    def test_counts_are_positive_integers(self, wide_spec, name, value):
        """True used to run as 1, and the CSV printed True in the
        replications column."""
        counts = {"replications": 1, "seed": 0, name: value}
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            ScenarioConfig(wide_spec, (0.1,), **counts)

    def test_repeated_alpha(self, wide_spec):
        """A repeated alpha would rerun the first one's substreams and print
        the same row twice."""
        with pytest.raises(DomainError, match="distinct"):
            ScenarioConfig(wide_spec, (0.1, 0.05, 0.1), 1, 0)

    @pytest.mark.parametrize("hypothesis", [0.5, 1.0, "1", True, -1])
    def test_true_hypothesis_is_an_integer_in_range(self, wide_spec, hypothesis):
        """0.5 and 1.0 used to build, and monte_carlo then failed with a raw
        TypeError from SeedSequence; '1' failed with one at once."""
        with pytest.raises(DomainError):
            ScenarioConfig(wide_spec, (0.1,), 1, 0, true_hypothesis=hypothesis)
        cfg = ScenarioConfig(wide_spec, (0.1,), 1, 0, true_hypothesis=np.int64(1))
        assert cfg.simulated_hypotheses() == (1,)

    def test_channel_adversary_checked(self, wide_spec):
        with pytest.raises(ShapeError):
            ScenarioConfig(wide_spec, (0.1,), 10, 0, adversary=Channel(np.eye(3)))
        push = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InfeasibleError):
            ScenarioConfig(wide_spec, (0.1,), 10, 0, adversary=push)
        with pytest.raises(ShapeError):
            ScenarioConfig(
                wide_spec, (0.1,), 10, 0, adversary=(Channel(np.eye(2)),)
            )

    def test_equilibrium_channels_are_witnesses(self, wide_config):
        assert wide_config.adversary == EQUILIBRIUM_ADVERSARY
        assert wide_config.channels == wide_config.solution.witness_channels

    def test_common_channel_broadcast(self, wide_spec):
        cfg = ScenarioConfig(
            wide_spec, (0.1,), 5, 0, adversary=Channel(np.eye(2))
        )
        assert len(cfg.channels) == 2
        assert cfg.channels[0] is cfg.channels[1]

    def test_alpha_index(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1, 0.05), 5, 0)
        assert cfg.alpha_index(0.05) == 1
        with pytest.raises(DomainError):
            cfg.alpha_index(0.2)

    def test_schedule_and_hypothesis_selection(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 5, 0, true_hypothesis=1)
        assert cfg.simulated_hypotheses() == (1,)
        sched = cfg.schedule_for(0.1)
        assert sched.alpha == 0.1
        assert sched.num_hypotheses == 2
        assert sched.alphabet_size == 2
        cfg_all = ScenarioConfig(wide_spec, (0.1,), 5, 0)
        assert cfg_all.simulated_hypotheses() == (0, 1)


class TestRunReplication:
    def test_deterministic_in_coordinates(self, wide_config):
        a = run_replication(wide_config, 0.1, 0, 3)
        b = run_replication(wide_config, 0.1, 0, 3)
        assert (a.stopping_time, a.decision, a.timed_out) == (
            b.stopping_time, b.decision, b.timed_out
        )

    def test_replications_vary(self, wide_config):
        times = {run_replication(wide_config, 0.1, 0, r).stopping_time for r in range(6)}
        assert len(times) > 1

    def test_cap_one_times_out(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 5, 0, cap=1)
        out = run_replication(cfg, 0.1, 0, 0)
        assert out.timed_out and out.stopping_time == 1

    def test_validation(self, wide_config):
        with pytest.raises(DomainError):
            run_replication(wide_config, 0.1, 2, 0)
        with pytest.raises(DomainError):
            run_replication(wide_config, 0.1, 0, -1)
        with pytest.raises(DomainError):
            run_replication(wide_config, 0.2, 0, 0)

    @pytest.mark.parametrize("coordinates", [(0.5, 0), (1.0, 0), (True, 0), ("1", 0),
                                             (0, 0.5), (0, "1"), (0, True)])
    def test_coordinates_are_integers(self, wide_config, coordinates):
        """Non-integers used to fail with a raw TypeError, from SeedSequence
        or from comparing a string, and True ran as 1."""
        with pytest.raises(DomainError, match="must be an integer"):
            run_replication(wide_config, 0.1, *coordinates)
        assert (run_replication(wide_config, 0.1, np.int64(1), np.int64(2))
                == run_replication(wide_config, 0.1, 1, 2))

    def test_fast_engine_matches_stepwise_path(self, wide_config):
        """The vectorized binary engine replays the exact uniform stream and
        clamp formula of the per-sample path, so outcomes agree run for run."""
        cfg = wide_config
        schedule = cfg.schedule_for(0.1)
        for hyp in (0, 1):
            source = cfg.spec.hypotheses[hyp]
            channel = cfg.channels[hyp]
            for rep in range(15):
                fast = run_replication(cfg, 0.1, hyp, rep)
                seq = np.random.SeedSequence([cfg.seed, 0, hyp, rep])
                rng = np.random.default_rng(seq)
                slow = run_aware_stepwise(
                    _ChannelStream(source, channel, rng), schedule, cfg.spec,
                    cap=cfg.cap, stride=cfg.stride,
                )
                assert fast.stopping_time == slow.stopping_time
                assert fast.decision == slow.decision

    def test_stride_still_stops(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 5, 0, stride=5)
        out = run_replication(cfg, 0.1, 0, 0)
        assert not out.timed_out
        assert out.stopping_time % 5 == 0


class TestMonteCarlo:
    def test_single_replication_aggregates(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 1, 3, true_hypothesis=0)
        report = monte_carlo(cfg)
        assert len(report.rows) == 1
        row = report.rows[0]
        single = run_replication(cfg, 0.1, 0, 0)
        assert row.mean_T == float(single.stopping_time)
        assert row.std_T == 0.0 and row.stderr_T == 0.0
        assert row.payoff_estimate == pytest.approx(
            math.log(10.0) / single.stopping_time, rel=1e-12
        )
        assert row.error_rate in (0.0, 1.0)
        assert row.replications == 1

    def test_error_rate_within_guarantee(self, bernoulli_spec):
        cfg = ScenarioConfig(bernoulli_spec, (0.1,), 300, 5)
        report = monte_carlo(cfg)
        bound = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / 300)
        for row in report.rows:
            assert row.error_rate <= bound
            assert row.timeouts == 0

    def test_exponent_column(self, wide_config):
        report = monte_carlo(wide_config)
        sol = wide_config.solution
        for row in report.rows:
            assert row.theoretical_exponent == pytest.approx(
                float(sol.exponents[row.hypothesis]), rel=1e-12
            )

    def test_grid_layout(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.2, 0.1), 3, 0)
        report = monte_carlo(cfg)
        assert [(r.alpha, r.hypothesis) for r in report.rows] == [
            (0.2, 0), (0.2, 1), (0.1, 0), (0.1, 1)
        ]
        for r in report.rows:
            assert r.log_inv_alpha == pytest.approx(math.log(1.0 / r.alpha), rel=1e-12)

    def test_all_timeouts_give_nan(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 2, 0, cap=1, true_hypothesis=0)
        row = monte_carlo(cfg).rows[0]
        assert row.timeouts == 2
        assert math.isnan(row.mean_T) and math.isnan(row.payoff_estimate)
        assert row.error_rate == 0.0


class TestCsvAndSweep:
    def test_columns(self):
        # REPORT_COLUMNS follows the fields of ReportRow; reordering them
        # must not move the CSV header unnoticed
        assert REPORT_COLUMNS == (
            "alpha", "log_inv_alpha", "hypothesis", "mean_T", "std_T", "stderr_T",
            "payoff_estimate", "theoretical_exponent", "error_rate", "timeouts",
            "replications",
        )

    def test_csv_layout(self, wide_spec):
        cfg = ScenarioConfig(wide_spec, (0.1,), 2, 0, true_hypothesis=0)
        text = alpha_sweep(cfg)
        lines = text.splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(REPORT_COLUMNS)
        assert fields[0] == "0.1"
        assert fields[2] == "0"
        assert fields[-1] == "2"

    def test_sweep_deterministic_and_writes(self, wide_spec, tmp_path):
        cfg = ScenarioConfig(wide_spec, (0.2, 0.1), 4, 9)
        target = tmp_path / "sweep.csv"
        first = alpha_sweep(cfg)
        target.write_text(first)
        assert target.read_text() == first
        again = alpha_sweep(
            ScenarioConfig(wide_spec, (0.2, 0.1), 4, 9)
        )
        assert again == first

    def test_explicit_witness_tuple_matches_marker(self, wide_spec):
        base = ScenarioConfig(wide_spec, (0.1,), 3, 2)
        explicit = ScenarioConfig(
            wide_spec, (0.1,), 3, 2, adversary=base.solution.witness_channels
        )
        assert alpha_sweep(base) == alpha_sweep(explicit)


def _stepwise(cfg: ScenarioConfig, alpha: float, hyp: int, rep: int, run=run_aware_stepwise):
    """The per-sample test, with one `evidence_statistics` call per evaluated
    step, on the stream run_replication draws from; or `run` on it."""
    seq = np.random.SeedSequence([cfg.seed, cfg.alpha_index(alpha), hyp, rep])
    stream = _ChannelStream(cfg.spec.hypotheses[hyp], cfg.channels[hyp],
                            np.random.default_rng(seq))
    return run(stream, cfg.schedule_for(alpha), cfg.spec, cap=cfg.cap, stride=cfg.stride)


def _table(cfg: ScenarioConfig):
    """The boundary table the engine reads at the scenario's one alpha."""
    (schedule,) = cfg._schedules
    return schedule._table(tuple(ball.interval for ball in cfg.spec.balls), cfg.cap, cfg.stride)


def _same_outcome(a, b) -> bool:
    return (a.stopping_time, a.decision, a.timed_out) == (b.stopping_time, b.decision,
                                                          b.timed_out)


_BERNOULLI = GameSpec((Distribution([0.38, 0.62]), Distribution([0.5, 0.5])), 0.05,
                      DistortionMeasure.TV_L1)
_THREE_ON_TWO = GameSpec(tuple(Distribution([p, 1.0 - p]) for p in (0.1, 0.5, 0.9)), 0.02,
                         DistortionMeasure.TV_L1)


@st.composite
def _binary_scenarios(draw):
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    p0 = draw(st.one_of(st.sampled_from([1e-9, 1e-6, 1e-3]), st.floats(0.02, 0.98)))
    # close laws stop after thousands of samples, past the engine's first block
    gap = draw(st.floats(0.01, 0.6))
    p1 = p0 + gap if p0 + gap < 0.98 else p0 - gap
    assume(p1 > 0.02)
    top = 0.1 if measure is DistortionMeasure.TV_L1 else 0.01
    delta = draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(1e-4, top)))
    try:
        spec = GameSpec((Distribution([p0, 1.0 - p0]), Distribution([p1, 1.0 - p1])),
                        delta, measure)
    except SeqGameError:
        assume(False)
    alpha = draw(st.floats(1e-6, 0.3))
    cap = draw(st.sampled_from([1, 2, 37, 4095, 4096, 4097, 4096 + 1000]))
    stride = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**16))
    return ScenarioConfig(spec, (alpha,), 2, seed, cap=cap, stride=stride)


class TestBinaryEngine:
    @settings(max_examples=40, deadline=None)
    @given(_binary_scenarios(), st.integers(0, 50))
    @example(ScenarioConfig(_BERNOULLI, (0.001,), 2, 5, cap=5096, stride=7), 5)
    @example(ScenarioConfig(_BERNOULLI, (1e-6,), 2, 6, cap=4097, stride=3), 0)
    def test_matches_stepwise_path(self, cfg, rep):
        """Random games, and two cases that reach the engine's second block:
        a stop at 4,725 and a timeout at a cap on the stride, and a timeout
        at a cap off the stride. `run_aware`, which reads the engine's table
        in chunks that run across its blocks, matches too."""
        (alpha,) = cfg.alpha_grid
        for hyp in (0, 1):
            oracle = _stepwise(cfg, alpha, hyp, rep)
            assert _same_outcome(run_replication(cfg, alpha, hyp, rep), oracle)
            assert _same_outcome(_stepwise(cfg, alpha, hyp, rep, run_aware), oracle)

    def test_three_hypotheses_on_two_symbols(self):
        """Each statistic is the divergence to the nearest rival ball, so the
        middle hypothesis needs evidence against both of the others."""
        spec = GameSpec(tuple(Distribution([p, 1.0 - p]) for p in (0.1, 0.5, 0.9)),
                        0.02, DistortionMeasure.TV_L1)
        cfg = ScenarioConfig(spec, (0.01,), 8, 3, stride=2)
        for hyp in range(3):
            for rep in range(8):
                assert _same_outcome(run_replication(cfg, 0.01, hyp, rep),
                                     _stepwise(cfg, 0.01, hyp, rep))

    def test_blocks_without_an_evaluated_step(self):
        """A stride longer than a block leaves whole blocks with nothing
        to check; the engine samples through them."""
        cfg = ScenarioConfig(_BERNOULLI, (0.001,), 2, 5, cap=12001, stride=5000)
        assert _table(cfg).block(0)[0].size == 0
        for hyp in (0, 1):
            for rep in (0, 1):
                assert _same_outcome(run_replication(cfg, 0.001, hyp, rep),
                                     _stepwise(cfg, 0.001, hyp, rep))

    @pytest.mark.parametrize("stride, cap", [(3, 61), (4, 70)])
    def test_three_hypotheses_with_a_cap_off_the_stride(self, stride, cap):
        """Three pairs of balls go through the band check's `all`, and the
        cap's off-stride column makes the block read its counts through a
        gather; runs stop before the cap and time out at it."""
        cfg = ScenarioConfig(_THREE_ON_TWO, (0.01,), 8, 3, cap=cap, stride=stride)
        steps, lower, upper, band_lower, band_upper, pick = _table(cfg).block(0)
        assert band_lower.shape == band_upper.shape == (3, steps.size)
        assert steps[-1] == cap and np.array_equal(pick, steps - 1)
        outcomes = []
        for hyp in range(3):
            for rep in range(8):
                fast = run_replication(cfg, 0.01, hyp, rep)
                assert _same_outcome(fast, _stepwise(cfg, 0.01, hyp, rep))
                outcomes.append(fast)
        assert any(o.timed_out for o in outcomes)
        assert any(not o.timed_out for o in outcomes)


@st.composite
def _boundary_columns(draw):
    """Counts at a few columns and the boundaries of M = 2..4 balls there,
    drawn from -1 to n + 1 so that they may meet, cross, or clear nothing."""
    balls, width, n = draw(st.integers(2, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def ints(shape, lo, hi):
        size = math.prod(shape)
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=np.int32).reshape(shape)

    return ints((width,), 0, n), ints((balls, width), -1, n + 1), ints((balls, width), -1, n + 1)


def _no_stop(balls: int, width: int, n: int):
    return (np.arange(width, dtype=np.int32) % (n + 1), np.full((balls, width), -1, np.int32),
            np.full((balls, width), n + 1, np.int32))


class TestBandStop:
    @settings(max_examples=300, deadline=None)
    @given(_boundary_columns())
    @example(_no_stop(2, 5, 4))
    @example(_no_stop(4, 3, 1))
    @example((np.array([2, 2, 3], np.int32), np.array([[2, 1, 3], [2, 4, 3]], np.int32),
              np.array([[2, 1, 3], [0, 3, 4]], np.int32)))
    @example((np.array([1, 1], np.int32), np.array([[0, 1], [0, 0], [2, 0]], np.int32),
              np.array([[2, 2], [2, 3], [1, 2]], np.int32)))
    def test_matches_ball_by_ball_count(self, columns):
        """The first column outside every pair's band, and the ball left
        uncleared there, are those of counting the cleared balls; among
        the examples, no stop at all, and equal and crossing boundaries."""
        zeros, lower, upper = columns
        pairs = list(itertools.combinations(range(len(lower)), 2))
        band_lower = np.array([np.maximum(lower[j], lower[k]) for j, k in pairs])
        band_upper = np.array([np.minimum(upper[j], upper[k]) for j, k in pairs])
        assert (seqtest._band_stop(zeros, lower, upper, band_lower, band_upper)
                == _first_stop(zeros, lower, upper))


@st.composite
def _table_reads(draw):
    """A boundary table on M = 2..4 nearby intervals, the evaluated steps of
    one read, which ends within the 4,096-step block of its first symbol, as
    `_run`'s reads do, possibly at a cap off the stride or on the block's
    last step, or holds that cap alone, and the counts of zeros
    of 1..5 streams there: each inside the band of all balls in the read's
    first rows, where no hypothesis stops, then near a boundary or
    anywhere from 0 to the step."""
    balls = draw(st.integers(2, 4))
    base = draw(st.floats(0.2, 0.8))
    half = draw(st.sampled_from([0.0, 0.01, 0.03]))
    centers = [base + draw(st.floats(-0.04, 0.04)) for _ in range(balls)]
    intervals = tuple((c - half, c + half) for c in centers)
    stride = draw(st.integers(1, 40))
    start = max(0, draw(st.integers(1, 2)) * seqtest._BLOCK - draw(st.integers(0, 300)))
    if draw(st.booleans()):  # any read
        end = start + draw(st.integers(1, (start // seqtest._BLOCK + 1) * seqtest._BLOCK - start))
        cap = end + draw(st.sampled_from([0, 1, 500]))
    else:  # the last read, from the last multiple of the stride to the cap
        start -= start % stride
        edge = (start // seqtest._BLOCK + 1) * seqtest._BLOCK
        end = cap = start + draw(st.integers(1, min(stride, edge - start)))
    steps = np.r_[np.arange((start // stride + 1) * stride, end + 1, stride),
                  [cap] if end == cap and cap % stride else []].astype(np.int64)
    assume(steps.size)
    schedule = ThresholdSchedule(draw(st.sampled_from([0.3, 0.01, 1e-6])), balls, 2)
    table = seqtest._BoundaryTable(schedule, intervals, cap, stride)
    lower, upper = seqtest._count_boundaries(schedule, intervals, steps)
    band_lower, band_upper = lower.max(axis=0), upper.min(axis=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 5)), steps.size)
    # half the counts within one of a boundary, the rest anywhere
    near = np.choose(rng.integers(0, 2 * balls, size=shape), np.r_[lower, upper]) + rng.integers(-1, 2, shape)
    zeros = np.where(rng.random(shape) < 0.5, near.clip(0, steps), rng.integers(0, steps + 1, shape))
    for row, quiet in zip(zeros, rng.integers(0, steps.size + 1, size=len(zeros))):
        inside = band_lower[:quiet] + 1 < band_upper[:quiet]
        row[:quiet][inside] = (band_lower[:quiet] + band_upper[:quiet])[inside] // 2
    return table, steps.tolist(), zeros, lower, upper


class TestTableFirstStops:
    @settings(max_examples=60, deadline=None)
    @given(_table_reads())
    def test_each_row_matches_ball_by_ball_count(self, read):
        """Each stream's first stop is that of counting the cleared balls
        at every step, with boundaries searched at the read's steps alone,
        not block by block."""
        table, steps, zeros, lower, upper = read
        got = table.first_stops(steps, zeros[:, :, None])
        assert got == [_first_stop(row, lower, upper) for row in zeros]


class TestCountBoundaries:
    @settings(max_examples=6, deadline=None)
    @given(_binary_scenarios())
    def test_match_brute_force(self, cfg):
        """Every count c in 0..n clears the threshold against a ball exactly
        when it lies outside (lower, upper), for every n up to 3,000."""
        (alpha,) = cfg.alpha_grid
        schedule = cfg.schedule_for(alpha)
        intervals = tuple(ball.interval for ball in cfg.spec.balls)
        last = 3000
        lower, upper = seqtest._count_boundaries(schedule, intervals, np.arange(1, last + 1))
        for n in range(1, last + 1):
            c = np.arange(n + 1)
            gamma = schedule.value(n)
            for j, (lo, hi) in enumerate(intervals):
                brute = divopt._clamp_divergence(c / n, lo, hi) >= gamma
                table = (c <= lower[j, n - 1]) | (c >= upper[j, n - 1])
                assert np.array_equal(brute, table), (n, j)

        head = seqtest._count_boundaries(schedule, intervals, np.arange(1, 1001))
        tail = seqtest._count_boundaries(schedule, intervals, np.arange(1001, last + 1))
        for whole, parts in zip((lower, upper), zip(head, tail)):
            assert np.array_equal(whole, np.concatenate(parts, axis=1))
        strided = np.arange(cfg.stride, last + 1, cfg.stride)
        sparse = seqtest._count_boundaries(schedule, intervals, strided)
        for whole, part in zip((lower, upper), sparse):
            assert np.array_equal(whole[:, strided - 1], part)

    def test_blocks_hold_evaluated_steps_and_stop_at_cap(self, wide_spec):
        """Multiples of the stride and the cap, grown block by block."""
        cfg = ScenarioConfig(wide_spec, (0.1,), 2, 0, cap=4096 + 904, stride=7)
        table = _table(cfg)
        assert table.blocks == []
        here, lower, upper, band_lower, band_upper, _ = table.block(1)
        assert len(table.blocks) == 2
        assert np.array_equal(band_lower, np.maximum(lower[:1], lower[1:]))
        assert np.array_equal(band_upper, np.minimum(upper[:1], upper[1:]))
        assert lower.dtype == upper.dtype == np.int32
        assert np.array_equal(here, np.r_[np.arange(4102, 5000, 7), 5000])
        assert lower.shape == upper.shape == (2, here.size)
        steps = np.r_[np.arange(7, 5000, 7), 5000]
        assert np.array_equal(np.r_[table.blocks[0][0], here], steps)
        schedule = cfg.schedule_for(0.1)
        intervals = tuple(ball.interval for ball in wide_spec.balls)
        whole = seqtest._count_boundaries(schedule, intervals, steps)
        for got, ref in zip(zip(*(blk[1:] for blk in table.blocks)), whole):
            assert np.array_equal(np.concatenate(got, axis=1), ref)

    def test_counts_past_int32_use_int64(self, wide_spec):
        """Upper boundaries reach cap + 1, which must fit the table type."""
        dtypes = [_table(ScenarioConfig(wide_spec, (0.1,), 2, 0, cap=cap)).dtype
                  for cap in (2**31 - 2, 2**31 - 1)]
        assert dtypes == [np.int32, np.int64]


def _pinned_game(measure: str) -> GameSpec:
    if measure == "tv":
        return GameSpec((Distribution([0.38, 0.62]), Distribution([0.5, 0.5])), 0.05,
                        DistortionMeasure.TV_L1)
    return GameSpec((normalize([0.9061, 0.09395]), Distribution([0.8481, 0.1519])), 0.001,
                    DistortionMeasure.KL)


# SHA-256 of each sweep's CSV, written by the per-sample-divergence engine
# that the count boundaries replaced.
PINNED_SWEEPS = {
    ("tv", 1): "23a86eaed3d723f3dff79365d4157179d2cb1fbdfcc1b2f6d57e13303be1b090",
    ("tv", 3): "d0f75a433ca26e0662cdd326f26f1911bbfabac5fec1d63b9609380bbe1b9079",
    ("kl", 1): "35de699cbe237a3b3395cb371cb0bce154308e144836cbb6f203e0e030998f66",
    ("kl", 3): "d781c27182909e4f239d31ad7889183d26229650ca04362a43ea1f06d22f445a",
}


@pytest.mark.parametrize("measure, stride", sorted(PINNED_SWEEPS))
def test_sweep_csv_is_pinned(measure, stride):
    cfg = ScenarioConfig(_pinned_game(measure), (0.2, 0.01), 25, 17, stride=stride)
    text = alpha_sweep(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEPS[measure, stride]


# SHA-256 of the common-channel test's (stopping_time, decision, timed_out)
# list on the benchmark's game through its channel, written by the loop that
# formed both branch statistics at every evaluated step.
PINNED_COMMON_CHANNEL = "0da8f85d2ed30d8c6e24d284ebb9428c6bfd5e87cd198a0556027ad696d8745d"


def test_common_channel_outcomes_are_pinned():
    """Three streams under each hypothesis at strides 1, 7 and 1,024, and at
    stride 7 with the cap 4,100, off the stride."""
    spec = _pinned_game("tv")
    channel = Channel(np.array([[0.7781, 0.2219], [0.175, 0.825]]))
    schedule = ThresholdSchedule(0.05, 2, 2)
    outcomes = []
    for stride, cap in ((1, 1_000_000), (7, 1_000_000), (1024, 1_000_000), (7, 4100)):
        for hyp in (0, 1):
            for rep in range(3):
                stream = _ChannelStream(spec.hypotheses[hyp], channel,
                                        np.random.default_rng([17, hyp, rep]))
                out = run_nonaware(stream, schedule, *spec.hypotheses, spec.delta, spec.measure,
                                   cap=cap, stride=stride)
                outcomes.append((out.stopping_time, out.decision, out.timed_out))
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == PINNED_COMMON_CHANNEL


# SHA-256 of a three-hypothesis binary sweep's CSV, written by the engine
# that checked every ball's boundaries before the continuation bands.
PINNED_THREE_HYPOTHESIS_SWEEP = "23edc4841833685a256bde7519ccd905a49d5656cf966601dec355207cfbe1f3"


def test_three_hypothesis_sweep_csv_is_pinned():
    cfg = ScenarioConfig(_THREE_ON_TWO, (0.2, 0.01), 25, 17, cap=5000, stride=3)
    text = alpha_sweep(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_THREE_HYPOTHESIS_SWEEP


_TERNARY_LAWS = (Distribution([0.6, 0.25, 0.15]), Distribution([0.2, 0.6, 0.2]),
                 Distribution([0.2, 0.2, 0.6]))

# SHA-256 of each ternary sweep's CSV, written by the engine that solved
# the reach of each ball on its own.
PINNED_TERNARY_SWEEPS = {
    (DistortionMeasure.TV_L1, 0.1): "abd29ec297fe454bb3a8f3a77f8b9312f9e49d3d9fbd36798afa745c4d406f75",
    (DistortionMeasure.KL, 0.01): "da14648849a1b993a23bb83f665b9bfc42f98bbc19b5260dfbf328836529ebb3",
}


@pytest.mark.parametrize("measure, delta", list(PINNED_TERNARY_SWEEPS))
def test_ternary_sweep_csv_is_pinned(measure, delta):
    cfg = ScenarioConfig(GameSpec(_TERNARY_LAWS, delta, measure), (0.2, 0.01), 25, 17, stride=16)
    text = alpha_sweep(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TERNARY_SWEEPS[measure, delta]


class TestNoSharedState:
    @pytest.mark.parametrize("module", [simharness, seqtest])
    def test_no_module_level_cache(self, module):
        """Boundary tables live on the schedules that own their thresholds."""
        caches = [name for name, value in vars(module).items()
                  if not name.startswith("__") and isinstance(value, (dict, list, set))]
        assert caches == []

    def test_scenarios_do_not_leak_into_each_other(self):
        """Two scenarios at one alpha with different balls, run in turn in one
        process, give the CSVs each gives alone in a fresh interpreter; a
        second run of a scenario gives its first CSV again."""
        setups = {"narrow": 0.01, "wide": 0.08}
        code = """
import sys
from seqgame import Distribution, DistortionMeasure, GameSpec
from seqgame.simharness import ScenarioConfig, alpha_sweep
spec = GameSpec((Distribution([0.38, 0.62]), Distribution([0.55, 0.45])),
                float(sys.argv[1]), DistortionMeasure.TV_L1)
sys.stdout.write(alpha_sweep(ScenarioConfig(spec, (0.05,), 20, 4, stride=2)))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        alone = {}
        for name, delta in setups.items():
            done = subprocess.run([sys.executable, "-c", code, str(delta)], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            alone[name] = done.stdout
        assert alone["narrow"] != alone["wide"]

        configs = {
            name: ScenarioConfig(
                GameSpec((Distribution([0.38, 0.62]), Distribution([0.55, 0.45])),
                         delta, DistortionMeasure.TV_L1),
                (0.05,), 20, 4, stride=2)
            for name, delta in setups.items()
        }
        for name in ("narrow", "wide", "narrow"):
            assert monte_carlo(configs[name]).to_csv() == alone[name]
        assert monte_carlo(configs["wide"]).to_csv() == alone["wide"]
