import math

import mpmath
import numpy as np
import pytest

from seqgame.equilibrium import GameSpec
from seqgame.errors import (
    ConstructionError,
    DomainError,
    ResourceError,
    ShapeError,
    StreamExhaustedError,
)
from seqgame.prob import Distribution, DistortionMeasure
from seqgame.seqtest import (
    ThresholdSchedule,
    _gamma_q,
    _tail_bracket,
    evidence_statistics,
    run_aware,
    run_nonaware,
    threshold_constant,
)

from oracles import binary_kl, branch_statistics, run_nonaware_stepwise

# series sums frozen from a 30-digit arbitrary-precision bracket
C_085 = 2593.3325570093630302
C_05 = 1.6704068179663398297
GEOMETRIC_LIMIT = 0.5819767068693265  # decay exponent -> 1 leaves sum exp(-n)


def _mp_tail(n: int, s: float) -> mpmath.mpf:
    """Sum of exp(-k^s) over k > n to 40 digits: 2,000 terms summed, and
    Euler-Maclaurin to the f11 term beyond them, where each next term is
    smaller by a factor of about (2 pi L)^2 at L > 2,000."""
    with mpmath.workdps(40):
        sf = mpmath.mpf(s)
        f = lambda x: mpmath.exp(-x**sf)  # noqa: E731
        far = mpmath.mpf(n + 2001)
        tail = mpmath.fsum(f(mpmath.mpf(k)) for k in range(n + 1, n + 2001))
        tail += mpmath.gammainc(1 / sf, far**sf) / sf + f(far) / 2
        for k in range(1, 7):
            tail -= (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                     * mpmath.diff(f, far, 2 * k - 1))
        return tail


@pytest.fixture(scope="module")
def wide_spec():
    """Well-separated Bernoulli pair so runs stop within tens of samples."""
    return GameSpec(
        (Distribution([0.2, 0.8]), Distribution([0.8, 0.2])),
        0.05,
        DistortionMeasure.TV_L1,
    )


class TestThresholdConstant:
    def test_frozen_values(self):
        assert threshold_constant(0.85) == pytest.approx(C_085, abs=1e-8)
        assert threshold_constant(0.5) == pytest.approx(C_05, rel=1e-12)

    def test_small_zeta_approaches_geometric_series(self):
        assert threshold_constant(1e-4) == pytest.approx(GEOMETRIC_LIMIT, abs=1e-3)

    def test_grows_with_zeta(self):
        assert threshold_constant(0.3) < threshold_constant(0.6) < threshold_constant(0.85)

    def test_domain_validation(self):
        for zeta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                threshold_constant(zeta)

    def test_extreme_zeta_refused(self):
        # the tail certificate would need a gamma factor beyond float range
        for zeta in (0.9943, 0.999999):
            with pytest.raises(ResourceError):
                threshold_constant(zeta)

    def test_1024_terms_bracket_the_tail_for_every_accepted_zeta(self):
        """The fixed 1,024 terms need no tolerance: past them the tail
        bracket is at most 1e-12 wide (1.2e-13 at its widest) at 2,000
        zetas spanning (0, 0.994]."""
        zetas = np.linspace(0.0, 0.994, 2001)[1:]
        widths = [upper - lower for lower, upper in
                  (_tail_bracket(1024, 1.0 - zeta) for zeta in zetas.tolist())]
        assert max(widths) <= 1e-12

    def test_within_float_rounding_of_the_frozen_value(self):
        # the truncation is certified to 1.2e-13; what is left is rounding
        assert abs(threshold_constant(0.85) - C_085) <= 2e-11

    @pytest.mark.parametrize("zeta", [0.3, 0.5, 0.85, 0.95])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_tail_bracket_holds_the_tail(self, zeta, n):
        lower, upper = _tail_bracket(n, 1.0 - zeta)
        tail = _mp_tail(n, 1.0 - zeta)
        # the bracket is exact in real arithmetic; allow float rounding
        assert lower <= tail * (1 + mpmath.mpf(1e-14))
        assert upper >= tail * (1 - mpmath.mpf(1e-14))

    @pytest.mark.parametrize("a", [*np.geomspace(1.01, 100.0, 7).tolist(), 1.0 / 0.15],
                             ids=lambda a: f"{a:.4g}")
    def test_gamma_q_within_1e13_of_mpmath(self, a):
        """Q(a, x) for x in [1e-3, 1e3], on both sides of x = a + 1."""
        xs = [*np.geomspace(1e-3, 1e3, 41).tolist(), a + 0.5, math.nextafter(a + 1.0, 0.0), a + 1.0, a + 1.5]
        sides = set()
        for x in xs:
            with mpmath.workdps(40):
                want = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            if want < 1e-300:  # below the range of floats
                continue
            assert abs(_gamma_q(a, x) - want) <= 1e-13 * want, (a, x)
            sides.add(x < a + 1.0)
        assert sides == {True, False}


class TestThresholdSchedule:
    def test_hand_formula_at_one(self):
        sched = ThresholdSchedule(alpha=0.05, num_hypotheses=2, alphabet_size=2)
        expect = math.log(sched.constant / 0.05) + 1.0 + 2.0 * math.log(2.0)
        assert sched.value(1) == pytest.approx(expect, abs=1e-15)
        assert sched.value(1) == pytest.approx(13.242725663824404, abs=1e-9)

    def test_hand_formula_general(self):
        sched = ThresholdSchedule(alpha=0.01, num_hypotheses=3, alphabet_size=4, zeta=0.6)
        for n in (1, 7, 100, 12345):
            expect = (
                math.log(sched.constant / 0.01) / n
                + n ** (-0.6)
                + (4.0 * math.log(n + 1.0) + math.log(2.0)) / n
            )
            assert sched.value(n) == pytest.approx(expect, rel=1e-15)

    def test_vectorized_matches_scalar(self):
        sched = ThresholdSchedule(alpha=0.1, num_hypotheses=2, alphabet_size=2)
        vals = sched.at(np.arange(1, 501))
        assert vals.shape == (500,)
        scalar = np.array([sched.value(n) for n in range(1, 501)])
        np.testing.assert_allclose(vals, scalar, rtol=1e-13)

    @pytest.mark.parametrize("alphabet_size", [2, 3])
    def test_vector_form_equals_scalar_bit_for_bit(self, alphabet_size):
        """`at` equals the formula in Python floats, with `math.log` and
        `pow` and in the formula's order, bit for bit on a million steps;
        `value` equals it at a sample of them."""
        sched = ThresholdSchedule(math.exp(-8), 2, alphabet_size)
        log_ratio = math.log(sched.constant / sched.alpha)
        log_rivals = math.log(sched.num_hypotheses - 1.0)
        steps = np.arange(1, 10**6 + 1)
        scalar = np.array([log_ratio / n + pow(n, -sched.zeta)
                           + (alphabet_size * math.log(n + 1.0) + log_rivals) / n
                           for n in steps.tolist()])
        np.testing.assert_array_equal(sched.at(steps), scalar)
        sample = [1, 2, 7, 4096, 4097, 123_457, 10**6]
        assert [sched.value(n) for n in sample] == [scalar[n - 1] for n in sample]

    def test_vector_form_rejects_steps_below_one(self):
        sched = ThresholdSchedule(0.05, 2, 2)
        assert sched.at([]).shape == (0,)
        with pytest.raises(DomainError):
            sched.at([3, 0])

    def test_decays_toward_zero(self):
        sched = ThresholdSchedule(alpha=0.05, num_hypotheses=2, alphabet_size=2)
        assert sched.value(10**6) < 1e-2 * sched.value(100)
        assert np.all(np.diff(sched.at(np.arange(1, 301))) < 0)

    def test_explicit_constant(self):
        # the constant follows from zeta alone and cannot be passed in
        assert ThresholdSchedule(0.05, 2, 2, zeta=0.6).constant == threshold_constant(0.6)
        with pytest.raises(TypeError):
            ThresholdSchedule(0.05, 2, 2, constant=10.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ThresholdSchedule(0.0, 2, 2)
        with pytest.raises(DomainError):
            ThresholdSchedule(1.0, 2, 2)
        with pytest.raises(DomainError):
            ThresholdSchedule(0.05, 1, 2)
        with pytest.raises(DomainError):
            ThresholdSchedule(0.05, 2, 1)
        with pytest.raises(DomainError):
            ThresholdSchedule(0.05, 2, 2, zeta=1.0)
        sched = ThresholdSchedule(0.05, 2, 2)
        with pytest.raises(DomainError):
            sched.value(0)

    @pytest.mark.parametrize("call", ["value(True)", "value(np.True_)", "at([True])"])
    def test_bools_are_not_steps(self, call):
        """Each of these used to give the threshold at n = 1."""
        sched = ThresholdSchedule(0.1, 2, 2)
        calls = {"value(True)": lambda: sched.value(True),
                 "value(np.True_)": lambda: sched.value(np.True_),
                 "at([True])": lambda: sched.at([True])}
        with pytest.raises(DomainError):
            calls[call]()

    @pytest.mark.parametrize("call", ["value(inf)", "value(nan)", "at([5, inf])", "at([nan])"])
    def test_steps_must_be_finite(self, call):
        """value(inf) used to give NaN, and at([inf]) NaN with numpy's
        "invalid value" warning."""
        sched = ThresholdSchedule(0.1, 2, 2)
        calls = {"value(inf)": lambda: sched.value(math.inf),
                 "value(nan)": lambda: sched.value(math.nan),
                 "at([5, inf])": lambda: sched.at([5, math.inf]),
                 "at([nan])": lambda: sched.at([math.nan])}
        with pytest.raises(DomainError):
            calls[call]()

    @pytest.mark.parametrize("sizes", [(2.5, 2), (math.nan, 2), (2, 2.5), (2, math.nan),
                                       ("3", 2)])
    def test_sizes_must_be_integers(self, sizes):
        """2.5 passed the old `< 2` checks with a log(1.5) rival term, and
        NaN made every threshold NaN."""
        with pytest.raises(DomainError):
            ThresholdSchedule(0.05, *sizes)

    def test_hashable(self):
        a = ThresholdSchedule(0.05, 2, 2)
        b = ThresholdSchedule(0.05, 2, 2)
        assert a == b
        assert hash(a) == hash(b)


class TestEvidenceStatistics:
    def test_at_ball_boundary(self, bernoulli_spec):
        # empirical law sits exactly on the edge of ball 0
        z = evidence_statistics(np.array([405, 595]), bernoulli_spec)
        assert z[0] == pytest.approx(binary_kl(0.405, 0.475), rel=1e-12)
        assert z[1] == 0.0

    def test_symmetric_case(self, bernoulli_spec):
        z = evidence_statistics(np.array([475, 525]), bernoulli_spec)
        assert z[0] == 0.0
        assert z[1] == pytest.approx(binary_kl(0.475, 0.405), rel=1e-12)

    def test_between_balls(self, bernoulli_spec):
        # both statistics positive: evidence against each rival in turn
        z = evidence_statistics(np.array([440, 560]), bernoulli_spec)
        assert z[0] == pytest.approx(binary_kl(0.44, 0.475), rel=1e-10)
        assert z[1] == pytest.approx(binary_kl(0.44, 0.405), rel=1e-10)

    @pytest.mark.parametrize("counts", [[np.inf, 1.0], [np.nan, 1.0], [0.5, 1.0], [-1, 2],
                                        ["1", "2"], [True, False], [1000000.3, 5.0]])
    def test_rejects_counts_that_are_not_counts(self, bernoulli_spec, counts):
        with pytest.raises(ConstructionError):
            evidence_statistics(np.array(counts), bernoulli_spec)

    def test_three_hypotheses(self):
        spec = GameSpec(
            (
                Distribution([0.2, 0.8]),
                Distribution([0.5, 0.5]),
                Distribution([0.8, 0.2]),
            ),
            0.02,
            DistortionMeasure.TV_L1,
        )
        z = evidence_statistics(np.array([22, 78]), spec)
        d0 = binary_kl(0.22, 0.21)
        d1 = binary_kl(0.22, 0.49)
        # hypothesis 0 is nearest, so its rivals' floor is the second smallest
        assert z[0] == pytest.approx(d1, rel=1e-10)
        assert z[1] == pytest.approx(d0, rel=1e-10)
        assert z[2] == pytest.approx(d0, rel=1e-10)


class TestRunAware:
    def test_decides_true_hypothesis(self, wide_spec, rng):
        sched = ThresholdSchedule(0.1, 2, 2)
        stream = (rng.random(2000) < 0.8).astype(int)  # law (0.2, 0.8)
        out = run_aware(iter(stream), sched, wide_spec)
        assert out.decision == 0
        assert not out.timed_out
        assert out.stopping_time < 200

    def test_trajectory_consistency(self, wide_spec, rng):
        """The statistics of every prefix up to the stop: none clears its
        threshold before the stop, and at the stop the first that clears it
        decides."""
        sched = ThresholdSchedule(0.1, 2, 2)
        stream = list((rng.random(2000) < 0.8).astype(int))
        out = run_aware(iter(stream), sched, wide_spec)
        steps = np.arange(1, out.stopping_time + 1)
        ones = np.cumsum(stream[:out.stopping_time])
        z = evidence_statistics(np.column_stack([steps - ones, ones]), wide_spec)
        gammas = sched.at(steps)
        assert np.all(z[:-1].max(axis=1) < gammas[:-1])
        assert z[-1, out.decision] >= gammas[-1]
        assert np.all(z[-1, :out.decision] < gammas[-1])

        assert run_aware(iter(stream), sched, wide_spec) == out

    def test_stride_skips_evaluations(self, wide_spec, rng):
        sched = ThresholdSchedule(0.1, 2, 2)
        stream = list((rng.random(2000) < 0.8).astype(int))
        base = run_aware(iter(stream), sched, wide_spec)
        strided = run_aware(iter(stream), sched, wide_spec, stride=7)
        assert strided.stopping_time >= base.stopping_time
        assert strided.decision == base.decision
        assert strided.stopping_time % 7 == 0

    def test_exhausted_stream(self, wide_spec):
        sched = ThresholdSchedule(0.1, 2, 2)
        with pytest.raises(StreamExhaustedError):
            run_aware(iter([0, 1, 0]), sched, wide_spec)

    def test_cap_times_out(self, wide_spec):
        sched = ThresholdSchedule(0.1, 2, 2)
        out = run_aware(iter([0, 1] * 50), sched, wide_spec, cap=6)
        assert out.timed_out
        assert out.decision is None
        assert out.stopping_time == 6

    def test_no_stop_at_small_n(self, bernoulli_spec):
        sched = ThresholdSchedule(0.05, 2, 2)
        out = run_aware(iter([0]), sched, bernoulli_spec, cap=1)
        assert out.timed_out and out.stopping_time == 1
        assert max(evidence_statistics([1, 0], bernoulli_spec)) < sched.value(1)

    def test_tie_breaks_to_smallest_index(self):
        # mirrored hypotheses with zero budget: a balanced type gives exactly
        # equal statistics, so both clear the threshold together
        spec = GameSpec(
            (Distribution([0.25, 0.75]), Distribution([0.75, 0.25])),
            0.0,
            DistortionMeasure.TV_L1,
        )
        sched = ThresholdSchedule(0.4, 2, 2)
        out = run_aware(iter([1] * 150 + [0] * 150), sched, spec, cap=300, stride=300)
        z = evidence_statistics([150, 150], spec)
        assert z[0] == z[1] >= sched.value(300)
        assert (out.stopping_time, out.decision) == (300, 0)

    def test_parameter_validation(self, wide_spec):
        sched = ThresholdSchedule(0.1, 2, 2)
        with pytest.raises(DomainError):
            run_aware(iter([0]), sched, wide_spec, cap=0)
        with pytest.raises(DomainError):
            run_aware(iter([0]), sched, wide_spec, stride=0)
        with pytest.raises(DomainError):
            run_aware(iter([3]), sched, wide_spec)
        with pytest.raises(DomainError):
            run_aware(iter([0] * 10), sched, wide_spec, cap=1.5)
        with pytest.raises(DomainError):
            run_aware(iter([0] * 10), sched, wide_spec, stride=2.5)
        # True used to run as 1, and cap=True returned stopping_time=True
        for limits in ({"cap": True}, {"stride": True}):
            with pytest.raises(DomainError, match="must be an integer"):
                run_aware(iter([0] * 10), sched, wide_spec, **limits)

    def test_schedule_of_another_game(self, bernoulli_spec):
        # a schedule's rival and symbol counts enter its thresholds, so one
        # built for another game would move the stop without an error
        for sizes in ((5, 7), (3, 2), (2, 3)):
            with pytest.raises(ShapeError, match="schedule is for"):
                run_aware(iter([0] * 10), ThresholdSchedule(0.1, *sizes), bernoulli_spec)


@pytest.mark.parametrize("symbol", [0.9, True, np.True_, [1]],
                         ids=["0.9", "True", "np.True_", "list"])
def test_streams_of_non_integers(bernoulli_spec, symbol):
    """Both tests used to read such a stream as its truncation, 0.9 as 0
    and a bool as 1; the common-channel test read [1] as 1, and the aware
    test raised ShapeError on it."""
    sched = ThresholdSchedule(0.1, 2, 2)
    with pytest.raises(DomainError, match="symbol must be an integer"):
        run_aware([symbol] * 5000, sched, bernoulli_spec)
    with pytest.raises(DomainError, match="symbol must be an integer"):
        run_nonaware([symbol] * 5000, sched, *bernoulli_spec.hypotheses, 0.05,
                     DistortionMeasure.TV_L1)


@pytest.mark.parametrize("case", ["aware, no schedule", "aware, no spec",
                                  "common, no schedule", "common, laws as lists"])
def test_entry_points_refuse_arguments_of_the_wrong_type(bernoulli_spec, case):
    """Each of these calls used to raise a raw AttributeError."""
    sched = ThresholdSchedule(0.1, 2, 2)
    p0, p1 = bernoulli_spec.hypotheses
    game = (0.05, DistortionMeasure.TV_L1)
    calls = {
        "aware, no schedule": lambda: run_aware(iter([0]), None, bernoulli_spec),
        "aware, no spec": lambda: run_aware(iter([0]), sched, None),
        "common, no schedule": lambda: run_nonaware(iter([0]), None, p0, p1, *game),
        "common, laws as lists": lambda: run_nonaware(iter([0]), sched, p0.probs.tolist(),
                                                      p1.probs.tolist(), *game),
    }
    with pytest.raises(DomainError, match="must be a"):
        calls[case]()


class TestNonAwareDecision:
    """The common-channel decision of `run_nonaware`, at one evaluated step
    of 20,000 symbols: the hypothesis whose statistic alone clears the
    threshold wins; where both clear, the larger statistic, then
    hypothesis 0. Hypothesis b's statistic is the divergence from the
    empirical law to the rival's output range."""

    STEPS = 20_000
    BENCH = (Distribution([0.38, 0.62]), Distribution([0.5, 0.5]), 0.05, DistortionMeasure.TV_L1)

    def _decide(self, zeros, game):
        symbols = np.random.default_rng(zeros).permutation([0] * zeros + [1] * (self.STEPS - zeros))
        sched = ThresholdSchedule(0.05, 2, 2)
        out = run_nonaware(iter(symbols.tolist()), sched, *game, stride=self.STEPS)
        assert out == run_nonaware_stepwise(iter(symbols.tolist()), sched, *game, stride=self.STEPS)
        assert out.stopping_time == self.STEPS
        qhat = Distribution([zeros / self.STEPS, 1.0 - zeros / self.STEPS])
        return out.decision, branch_statistics(qhat, *game), sched.value(self.STEPS)

    def test_single_holder_wins(self):
        # the empirical law on hypothesis 0's output range [0.361, 0.405], then on 1's
        for zeros, want in ((7_600, 0), (10_000, 1)):
            decision, branch, gamma = self._decide(zeros, self.BENCH)
            assert branch[want] >= gamma > branch[1 - want]
            assert decision == want

    def test_conflicts_fall_back_to_magnitude(self):
        # t = 0.435 and 0.44 lie between the output ranges; both statistics clear
        for zeros, want in ((8_700, 0), (8_800, 1)):
            decision, branch, gamma = self._decide(zeros, self.BENCH)
            assert min(branch) >= gamma and branch[want] > branch[1 - want]
            assert decision == want
        # mirror-image laws at t = 0.5: equal statistics, and hypothesis 0 wins
        mirror = (Distribution([0.4, 0.6]), Distribution([0.6, 0.4]), 0.05, DistortionMeasure.TV_L1)
        decision, branch, gamma = self._decide(10_000, mirror)
        assert branch[0] == branch[1] >= gamma
        assert decision == 0


class TestRunNonAware:
    P0 = Distribution([0.1, 0.9])
    P1 = Distribution([0.9, 0.1])

    def test_decides_true_hypothesis(self, rng):
        sched = ThresholdSchedule(0.2, 2, 2)
        stream = (rng.random(500) < 0.9).astype(int)  # law (0.1, 0.9)
        out = run_nonaware(
            iter(stream), sched, self.P0, self.P1, 0.05, DistortionMeasure.TV_L1,
        )
        assert out.decision == 0
        assert not out.timed_out
        assert out.stopping_time < 100

    def test_requires_binary_schedule(self):
        for sizes in ((3, 2), (2, 3)):
            with pytest.raises(ShapeError):
                run_nonaware(iter([0]), ThresholdSchedule(0.2, *sizes), self.P0, self.P1, 0.05,
                             DistortionMeasure.TV_L1)

    @pytest.mark.parametrize("limits", [{"cap": 0}, {"cap": 1.5}, {"stride": 0},
                                        {"stride": 2.5}, {"cap": True}, {"stride": True}])
    def test_parameter_validation(self, limits):
        sched = ThresholdSchedule(0.2, 2, 2)
        with pytest.raises(DomainError):
            run_nonaware(iter([0] * 10), sched, self.P0, self.P1, 0.05,
                         DistortionMeasure.TV_L1, **limits)

    def test_cap_times_out(self):
        sched = ThresholdSchedule(0.2, 2, 2)
        out = run_nonaware(
            iter([0, 1] * 5), sched, self.P0, self.P1, 0.05,
            DistortionMeasure.TV_L1, cap=4,
        )
        assert out.timed_out and out.decision is None
