"""The stop rule of the pairwise alternation, `pairwise_min_divergence`:
stopping at the first round that ends on the state it began with must
return what the full-patience loop of `oracles.py` returns, bit for bit,
after no more rounds."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqgame import divopt
from seqgame.divopt import DistortionBall, pairwise_min_divergence
from seqgame.equilibrium import GameSpec
from seqgame.prob import Distribution, DistortionMeasure

from oracles import pairwise_min_full_patience

# the three laws of the ternary benchmark game
TERNARY = ((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6))


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _same_pair(got, want) -> bool:
    return (np.array_equal(_bits(got.value), _bits(want.value))
            and np.array_equal(_bits(got.argmin_first.probs), _bits(want.argmin_first.probs))
            and np.array_equal(_bits(got.argmin_second.probs), _bits(want.argmin_second.probs))
            and got.converged == want.converged)


@st.composite
def _games(draw):
    """The balls of a random game: K 3-5 symbols, M 2-4 hypotheses, TV or
    KL, a radius of zero or up to a third of the simplex, centers drawn on
    a coarse grid so that some coincide or nearly touch."""
    k, m = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    top = 0.3 if measure is DistortionMeasure.TV_L1 else 0.1
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-4, top)))
    centers = [np.array(draw(st.lists(st.integers(1, 8), min_size=k, max_size=k)), dtype=float)
               for _ in range(m)]
    return [DistortionBall(Distribution(c / c.sum()), radius, measure) for c in centers]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_games())
def test_pairs_match_the_full_patience_loop(balls):
    for a, b in itertools.permutations(balls, 2):
        got, want = pairwise_min_divergence(a, b), pairwise_min_full_patience(a, b)
        assert _same_pair(got, want), (got, want)
        assert got.iterations <= want.iterations


def _ternary_balls(measure=DistortionMeasure.TV_L1, delta=0.1):
    return [DistortionBall(Distribution(h), delta, measure) for h in TERNARY]


def test_ternary_tv_pairs_stop_after_two_rounds():
    """Round 2 of every ordered pair ends on the q2 that round 1 left; the
    full-patience loop runs four more copies of it."""
    spec = GameSpec(tuple(Distribution(h) for h in TERNARY), 0.1, DistortionMeasure.TV_L1)
    assert len(spec.pairwise_minima) == 6
    for res in spec.pairwise_minima.values():
        assert res.converged
        assert res.iterations == 2


def test_patience_past_the_round_cap(monkeypatch):
    """The repeats a fixed point skips would need more rounds than the cap
    allows, so the pair stays unconverged."""
    monkeypatch.setattr(divopt, "_PATIENCE", 250)
    balls = _ternary_balls()
    for a, b in itertools.permutations(balls, 2):
        got, want = pairwise_min_divergence(a, b), pairwise_min_full_patience(a, b)
        assert not got.converged
        assert _same_pair(got, want)
        assert got.iterations == 2


@pytest.mark.parametrize("patience", range(198, 202))
def test_patience_at_the_round_cap(patience, monkeypatch):
    """Around the edge where the skipped repeats just fit under the cap."""
    monkeypatch.setattr(divopt, "_PATIENCE", patience)
    a, b = _ternary_balls()[:2]
    assert _same_pair(pairwise_min_divergence(a, b), pairwise_min_full_patience(a, b))


def test_kl_pairs_stop_on_patience():
    """KL rounds keep moving by rounding until patience runs out, so the
    fixed point changes nothing there."""
    for a, b in itertools.permutations(_ternary_balls(DistortionMeasure.KL, 0.01), 2):
        got, want = pairwise_min_divergence(a, b), pairwise_min_full_patience(a, b)
        assert _same_pair(got, want)
        assert got.iterations == want.iterations


@pytest.mark.parametrize("measure", list(DistortionMeasure))
def test_disjoint_point_balls_never_converge(measure):
    """At D = inf every round's drop is inf - inf, never quiet: the first
    round is a fixed point, yet the full loop runs to its cap unconverged."""
    a = DistortionBall(Distribution([1.0, 0.0, 0.0]), 0.0, measure, floor=0.0)
    b = DistortionBall(Distribution([0.0, 0.5, 0.5]), 0.0, measure, floor=0.0)
    got, want = pairwise_min_divergence(a, b), pairwise_min_full_patience(a, b)
    assert _same_pair(got, want)
    assert not got.converged
    assert (got.iterations, want.iterations) == (1, 200)
