import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqgame.divopt import DistortionBall
from seqgame.equilibrium import (
    GameSpec,
    equilibrium_payoff,
    nonaware_achievable,
    nonaware_converse,
    solve_aware_equilibrium,
    solve_nonaware_adversary,
)
from seqgame.errors import (
    ConstructionError,
    DegenerateGameError,
    DomainError,
    InfeasibleError,
    ShapeError,
)
from seqgame.prob import Channel, Distribution, DistortionMeasure, apply_channel

from oracles import ball_lattice, bhattacharyya_full_patience, binary_kl, separation

# closest facing points of the two Bernoulli balls [0.355, 0.405], [0.475, 0.525]
E_01 = binary_kl(0.405, 0.475)
E_10 = binary_kl(0.475, 0.405)

# Lattice pitch per alphabet size, coarser for larger alphabets so that each
# ball lattice stays at most a few hundred points.
LATTICE_STEP = {3: 0.01, 4: 0.025, 5: 0.05, 6: 0.1}


@st.composite
def _lattice_ball_pairs(draw):
    """Two balls of one measure whose centers lie on the lattice of pitch
    LATTICE_STEP[size], with every entry at least one pitch."""
    size = draw(st.integers(min_value=3, max_value=6))
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    n = round(1.0 / LATTICE_STEP[size])
    top = 0.3 if measure is DistortionMeasure.TV_L1 else 0.05
    balls = []
    for _ in range(2):
        w = np.array(draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                                   min_size=size, max_size=size)))
        counts = 1 + np.floor(w / w.sum() * (n - size))
        counts[np.argmax(counts)] += n - counts.sum()
        radius = draw(st.floats(min_value=0.0, max_value=top))
        balls.append(DistortionBall(Distribution(counts / n), radius, measure))
    return balls


_P = (Distribution([0.2, 0.8]), Distribution([0.8, 0.2]))


@pytest.mark.parametrize("build", [
    lambda: DistortionBall(_P[0], math.nan, DistortionMeasure.KL).interval,
    lambda: GameSpec(_P, 0.05, DistortionMeasure.TV_L1, weights=(math.nan, 1.0)),
    lambda: nonaware_converse(*_P, Channel(np.eye(2)), math.nan, DistortionMeasure.TV_L1),
    lambda: GameSpec(_P, math.nan, DistortionMeasure.TV_L1),
    lambda: GameSpec(_P, math.nan, DistortionMeasure.KL),
], ids=["ball-radius", "spec-weight", "converse-delta", "spec-delta-tv", "spec-delta-kl"])
def test_nan_budget_or_weight_is_a_domain_error(build):
    with pytest.raises(DomainError):
        build()


class TestGameSpec:
    def test_basic_shape(self, bernoulli_spec):
        assert bernoulli_spec.num_hypotheses == 2
        assert bernoulli_spec.alphabet_size == 2
        assert bernoulli_spec.weights == (1.0, 1.0)

    def test_needs_two_hypotheses(self):
        with pytest.raises(ConstructionError):
            GameSpec((Distribution([0.4, 0.6]),), 0.05, DistortionMeasure.TV_L1)

    def test_mismatched_alphabets(self):
        with pytest.raises(ShapeError):
            GameSpec(
                (Distribution([0.4, 0.6]), Distribution([0.2, 0.3, 0.5])),
                0.05,
                DistortionMeasure.TV_L1,
            )

    def test_coincident_hypotheses(self):
        with pytest.raises(ConstructionError):
            GameSpec(
                (Distribution([0.4, 0.6]), Distribution([0.4, 0.6])),
                0.05,
                DistortionMeasure.TV_L1,
            )

    def test_negative_budget(self):
        with pytest.raises(DomainError):
            GameSpec(
                (Distribution([0.4, 0.6]), Distribution([0.5, 0.5])),
                -0.01,
                DistortionMeasure.TV_L1,
            )

    def test_weight_validation(self):
        hyps = (Distribution([0.4, 0.6]), Distribution([0.5, 0.5]))
        with pytest.raises(ShapeError):
            GameSpec(hyps, 0.01, DistortionMeasure.TV_L1, weights=(1.0,))
        with pytest.raises(DomainError):
            GameSpec(hyps, 0.01, DistortionMeasure.TV_L1, weights=(1.0, 0.0))

    def test_degenerate_budget_rejected(self):
        # balls wide enough to overlap leave the hypotheses indistinguishable
        with pytest.raises(DegenerateGameError):
            GameSpec(
                (Distribution([0.38, 0.62]), Distribution([0.5, 0.5])),
                0.8,
                DistortionMeasure.TV_L1,
            )

    def test_pairwise_minima_cached(self, bernoulli_spec):
        pair = bernoulli_spec.pairwise_minima
        assert set(pair) == {(0, 1), (1, 0)}
        assert pair[(0, 1)].value == pytest.approx(E_01, rel=1e-12)
        assert pair[(1, 0)].value == pytest.approx(E_10, rel=1e-12)


class TestAwareEquilibrium:
    def test_bernoulli_values(self, bernoulli_spec):
        sol = solve_aware_equilibrium(bernoulli_spec)
        assert sol.exponents[0] == pytest.approx(E_01, rel=1e-12)
        assert sol.exponents[1] == pytest.approx(E_10, rel=1e-12)
        assert sol.payoff == pytest.approx(E_01 + E_10, rel=1e-12)
        assert sol.q_star[0].probs[0] == pytest.approx(0.405, abs=1e-12)
        assert sol.q_star[1].probs[0] == pytest.approx(0.475, abs=1e-12)
        assert sol.converged

    def test_matrix_layout(self, bernoulli_spec):
        sol = solve_aware_equilibrium(bernoulli_spec)
        assert np.all(np.isinf(np.diag(sol.divergence_matrix)))
        assert np.allclose(sol.exponents, sol.divergence_matrix.min(axis=1))

    def test_witness_channels_realize_optima(self, bernoulli_spec):
        sol = solve_aware_equilibrium(bernoulli_spec)
        for i, chan in enumerate(sol.witness_channels):
            out = apply_channel(bernoulli_spec.hypotheses[i], chan)
            assert np.allclose(out.probs, sol.q_star[i].probs, rtol=0.0, atol=1e-10)
            d = bernoulli_spec.measure.evaluate(bernoulli_spec.hypotheses[i], out)
            assert d <= bernoulli_spec.delta + 1e-9

    def test_weights_scale_payoff(self):
        spec = GameSpec(
            (Distribution([0.38, 0.62]), Distribution([0.5, 0.5])),
            0.05,
            DistortionMeasure.TV_L1,
            weights=(2.0, 0.5),
        )
        sol = solve_aware_equilibrium(spec)
        assert sol.payoff == pytest.approx(2.0 * E_01 + 0.5 * E_10, rel=1e-12)

    def test_divergence_ball_instance(self, digits_spec):
        """Budget 0.001 under the divergence measure: both balls are intervals
        and the exponents are the divergences across the facing endpoints."""
        b0_lo, _ = digits_spec.balls[0].interval
        _, b1_hi = digits_spec.balls[1].interval
        assert b0_lo > b1_hi  # hypothesis 0 sits above hypothesis 1
        sol = solve_aware_equilibrium(digits_spec)
        assert sol.exponents[0] == pytest.approx(binary_kl(b0_lo, b1_hi), rel=1e-10)
        assert sol.exponents[1] == pytest.approx(binary_kl(b1_hi, b0_lo), rel=1e-10)
        assert sol.payoff == pytest.approx(0.007770769469587525, rel=1e-9)

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
        sol = solve_aware_equilibrium(spec)
        # middle hypothesis faces rivals on both sides; its exponent is the
        # smaller of the two pair values
        pair = spec.pairwise_minima
        assert sol.exponents[1] == pytest.approx(
            min(pair[(1, 0)].value, pair[(1, 2)].value), rel=1e-9
        )
        assert sol.divergence_matrix.shape == (3, 3)
        assert all(q.size == 2 for q in sol.q_star)


class TestEquilibriumPayoff:
    def test_weighted_sum(self):
        assert equilibrium_payoff([0.1, 0.2], [1.0, 1.0]) == pytest.approx(0.3)
        assert equilibrium_payoff([0.1, 0.2], [2.0, 1.0]) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ShapeError):
            equilibrium_payoff([0.1, 0.2], [1.0])
        with pytest.raises(DomainError):
            equilibrium_payoff([0.1, 0.2], [1.0, -1.0])


class TestBhattacharyya:
    """The oracle separation (`oracles.separation`), which the stopping-time
    horizon in `test_horizon.py` is built on."""

    def test_binary_closed_form(self, bernoulli_spec):
        got = separation(bernoulli_spec)
        coeff = math.sqrt(0.405 * 0.475) + math.sqrt(0.595 * 0.525)
        assert got == pytest.approx(-math.log(coeff), rel=1e-12)
        assert got == pytest.approx(0.002492177586470483, rel=1e-12)

    def test_below_half_the_divergence_separation(self, bernoulli_spec):
        # -log sum sqrt(pq) <= D(p||q)/2 pointwise, so the joint minima
        # inherit the same ordering
        b = separation(bernoulli_spec)
        d = min(r.value for r in bernoulli_spec.pairwise_minima.values())
        assert b <= 0.5 * d + 1e-12

    def test_ternary_matches_lattice(self):
        spec = GameSpec(
            (Distribution([0.5, 0.3, 0.2]), Distribution([0.2, 0.3, 0.5])),
            0.1,
            DistortionMeasure.TV_L1,
        )
        got = separation(spec)
        step = 0.01
        pts0 = ball_lattice(spec.balls[0], step)
        pts1 = ball_lattice(spec.balls[1], step)
        coeff = np.sqrt(pts0[:, None, :] * pts1[None, :, :]).sum(axis=2)
        grid = float(-np.log(coeff.max()))
        assert got <= grid + 1e-9
        assert grid - got <= 3.0 * step

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_lattice_ball_pairs())
    # a TV radius far below the rounding of the center's entries
    @example([DistortionBall(Distribution([0.34, 0.33, 0.33]), 0.0, DistortionMeasure.TV_L1),
              DistortionBall(Distribution([0.41, 0.39, 0.2]), 1e-83, DistortionMeasure.TV_L1)])
    def test_matches_lattice_oracle(self, balls):
        step = LATTICE_STEP[balls[0].size]
        got = bhattacharyya_full_patience(*balls)
        pts0, pts1 = (ball_lattice(b, step) for b in balls)
        coeff = np.sqrt(pts0) @ np.sqrt(pts1).T
        grid = float(-np.log(min(coeff.max(), 1.0)))
        assert got <= grid + 1e-9
        assert grid - got <= 4.0 * step


class TestNonAware:
    def test_identity_channel_values(self):
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        eye = Channel(np.eye(2))
        conv = nonaware_converse(p0, p1, eye, 0.05, DistortionMeasure.TV_L1)
        assert conv == pytest.approx(binary_kl(0.38, 0.5) + binary_kl(0.5, 0.38), rel=1e-12)
        ach = nonaware_achievable(p0, p1, eye, 0.05, DistortionMeasure.TV_L1)
        assert ach == pytest.approx(0.03670848617543383, rel=1e-6)
        assert ach <= conv + 1e-9

    def test_infeasible_channel_rejected(self):
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        push = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InfeasibleError):
            nonaware_achievable(p0, p1, push, 0.05, DistortionMeasure.TV_L1)
        with pytest.raises(InfeasibleError):
            nonaware_converse(p0, p1, push, 0.05, DistortionMeasure.TV_L1)

    def test_weight_validation(self):
        p0 = Distribution([0.38, 0.62])
        p1 = Distribution([0.5, 0.5])
        eye = Channel(np.eye(2))
        with pytest.raises(DomainError):
            nonaware_achievable(p0, p1, eye, 0.05, DistortionMeasure.TV_L1, weight=0.0)
        with pytest.raises(DomainError):
            nonaware_converse(p0, p1, eye, 0.05, DistortionMeasure.TV_L1, weight=-1.0)

    def test_search_brackets_aware_payoff(self, bernoulli_spec):
        """A common channel can only help the decision maker, so the searched
        achievable payoff stays above the hypothesis-aware game value; the
        converse evaluated at the same channel brackets it from above."""
        p0, p1 = bernoulli_spec.hypotheses
        bounds = solve_nonaware_adversary(
            p0, p1, bernoulli_spec.delta, bernoulli_spec.measure, num_starts=2
        )
        aware = solve_aware_equilibrium(bernoulli_spec).payoff
        assert bounds.achievable >= aware - 1e-6
        assert bounds.achievable <= bounds.converse + 1e-9
        for p in (p0, p1):
            out = apply_channel(p, bounds.channel)
            assert bernoulli_spec.measure.evaluate(p, out) <= bernoulli_spec.delta + 1e-9

    def test_num_starts_validation(self):
        # an integer of at least 1, and not a bool
        for num_starts in (0, 1.5, True, "1"):
            with pytest.raises(DomainError):
                solve_nonaware_adversary(
                    Distribution([0.38, 0.62]),
                    Distribution([0.5, 0.5]),
                    0.05,
                    DistortionMeasure.TV_L1,
                    num_starts=num_starts,
                )
