import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqgame import (
    Channel,
    ConstructionError,
    Distribution,
    DistortionMeasure,
    DomainError,
    EmptySequenceError,
    ShapeError,
    apply_channel,
    kl_divergence,
)
from seqgame.prob import _binary_kl

from oracles import bhattacharyya, binary_kl, empirical_distribution, normalize


class TestDistribution:
    def test_basic_construction(self):
        d = Distribution([0.38, 0.62])
        assert d.size == 2
        assert np.allclose(d.probs, [0.38, 0.62])
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rescales_tiny_drift(self):
        d = Distribution([0.5, 0.5 + 4e-10])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ConstructionError):
            Distribution([0.5, -0.5])
        with pytest.raises(ConstructionError):
            Distribution([0.5, 0.4])
        with pytest.raises(ConstructionError):
            Distribution([0.5, math.nan])
        with pytest.raises(ShapeError):
            Distribution([[0.5], [0.5]])

    def test_read_only(self):
        d = Distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_support_floor(self):
        assert Distribution([0.5, 0.5]).is_fully_supported()
        assert not Distribution([1.0, 0.0]).is_fully_supported()
        assert Distribution([1e-8, 1.0 - 1e-8]).is_fully_supported(1e-9)

    def test_iteration_and_allclose(self):
        d = Distribution([0.2, 0.3, 0.5])
        assert list(d) == pytest.approx([0.2, 0.3, 0.5])
        assert np.allclose(d.probs, Distribution([0.2, 0.3, 0.5]).probs, rtol=0.0, atol=1e-12)
        assert not np.allclose(d.probs, Distribution([0.5, 0.3, 0.2]).probs, rtol=0.0, atol=1e-12)


class TestChannel:
    def test_identity(self):
        ch = Channel(np.eye(3))
        assert ch.rows.shape[0] == ch.num_outputs == 3
        assert np.array_equal(ch.rows, np.eye(3))

    def test_row_validation(self):
        with pytest.raises(ConstructionError):
            Channel([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ConstructionError):
            Channel([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ShapeError):
            Channel([0.5, 0.5])

    def test_rectangular_allowed(self):
        ch = Channel([[0.2, 0.3, 0.5]])
        assert ch.rows.shape[0] == 1
        assert ch.num_outputs == 3

    def test_apply_channel_marginal(self):
        p = Distribution([0.38, 0.62])
        ch = Channel([[0.5, 0.5], [0.3419, 0.6581]])
        out = apply_channel(p, ch)
        assert out.probs[0] == pytest.approx(0.38 * 0.5 + 0.62 * 0.3419)

    def test_apply_channel_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_channel(Distribution([0.2, 0.3, 0.5]), Channel(np.eye(2)))

    def test_rank_one_collapses(self):
        ch = Channel([[0.9, 0.1], [0.9, 0.1]])
        for p in ([1.0, 0.0], [0.25, 0.75]):
            assert np.allclose(apply_channel(Distribution(p), ch).probs, [0.9, 0.1], rtol=0.0,
                               atol=1e-12)


class TestDistortionMeasure:
    def test_tv_is_unhalved_l1(self):
        p = np.array([0.38, 0.62])
        q = np.array([0.405, 0.595])
        assert DistortionMeasure.TV_L1.evaluate(p, q) == pytest.approx(0.05)

    def test_kl_direction(self):
        p = Distribution([0.9, 0.1])
        q = Distribution([0.8, 0.2])
        assert DistortionMeasure.KL.evaluate(p, q) == pytest.approx(binary_kl(0.9, 0.8))

    def test_identity_gives_zero(self):
        p = Distribution([0.3, 0.7])
        for m in DistortionMeasure:
            assert m.evaluate(p, p) == 0.0


def test_normalize():
    d = normalize([2, 3, 5])
    assert np.allclose(d.probs, [0.2, 0.3, 0.5])
    with pytest.raises(ConstructionError):
        normalize([1.0, -1.0])
    with pytest.raises(ConstructionError):
        normalize([0.0, 0.0])


def test_normalize_four_decimal_estimates():
    # rounded four-decimal estimates can sum to 1.00005
    d = normalize([0.9061, 0.09395])
    assert d.probs[0] == pytest.approx(0.9061 / 1.00005, rel=1e-15)


class TestKl:
    def test_hand_value(self):
        # 0.75*log(1.5) + 0.25*log(0.5), by hand
        expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(expect, rel=1e-15)

    def test_zero_numerator_term_drops(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_uncovered_support_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_binary_kl_matches_vector_form(self):
        assert _binary_kl(0.405, 0.475) == pytest.approx(
            kl_divergence([0.405, 0.595], [0.475, 0.525]), rel=1e-13
        )

    @given(
        a=st.floats(0.01, 0.99),
        b=st.floats(0.01, 0.99),
    )
    def test_binary_kl_nonnegative(self, a, b):
        v = _binary_kl(a, b)
        assert v >= 0.0
        if abs(a - b) > 1e-9:
            assert v > 0.0

    @given(a=st.floats(1e-6, 1.0 - 1e-6), ulps=st.integers(-8, 8))
    def test_binary_kl_never_negative_near_equality(self, a, ulps):
        """The two terms round below zero on about half the pairs a few ulps
        apart; the result is clamped at zero, and is zero at a = b."""
        assert _binary_kl(a, a) == 0.0
        b = a
        for _ in range(abs(ulps)):
            b = math.nextafter(b, math.copysign(2.0, ulps))
        assert _binary_kl(a, b) >= 0.0
        assert _binary_kl(b, a) >= 0.0


class TestBhattacharyya:
    def test_symmetric_and_zero_at_equality(self):
        p = Distribution([0.3, 0.7])
        q = Distribution([0.6, 0.4])
        assert bhattacharyya(p, q) == pytest.approx(bhattacharyya(q, p), rel=1e-15)
        assert bhattacharyya(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        expect = -math.log(math.sqrt(0.405 * 0.475) + math.sqrt(0.595 * 0.525))
        assert bhattacharyya([0.405, 0.595], [0.475, 0.525]) == pytest.approx(expect, rel=1e-14)

    def test_requires_full_support(self):
        with pytest.raises(DomainError):
            bhattacharyya([1.0, 0.0], [0.5, 0.5])

    def test_an_underflowed_coefficient_is_an_infinite_distance(self):
        # every product sqrt(p q) rounds to 0; math.log(0) raised ValueError
        assert bhattacharyya([5e-324, 5e-324], [0.5, 0.5]) == math.inf


class TestEmpirical:
    """The type of a sample, as the per-symbol reference loops form it."""

    def test_counts_to_type(self):
        d = empirical_distribution([3, 1])
        assert np.allclose(d.probs, [0.75, 0.25])

    def test_rejects_bad_counts(self):
        with pytest.raises(EmptySequenceError):
            empirical_distribution([0, 0])
        with pytest.raises(ConstructionError):
            empirical_distribution([1.5, 2])
        with pytest.raises(ConstructionError):
            empirical_distribution([-1, 2])

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=6).filter(lambda c: sum(c) > 0))
    def test_type_sums_to_one(self, counts):
        d = empirical_distribution(counts)
        assert abs(d.probs.sum() - 1.0) < 1e-12
