"""Many pairs of balls in one alternation: `pairwise_min_divergence` on two
sequences of balls must give, in each entry, what the per-pair loop of
`oracles.py` gives on that pair alone, bit for bit (value, both argmins,
`converged` and `iterations`), and the batched I-projection
`divopt._kl_tilt_argmin` must give, row by row, what the one-row solve
gives."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqgame import divopt
from seqgame.divopt import DistortionBall, _kl_tilt_argmin, pairwise_min_divergence
from seqgame.prob import Distribution, DistortionMeasure

from oracles import kl_tilt_argmin_one_row, pairwise_min_one_pair

TV, KL = DistortionMeasure.TV_L1, DistortionMeasure.KL


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _same(got, want) -> bool:
    return (np.array_equal(_bits(got.value), _bits(want.value))
            and np.array_equal(_bits(got.argmin_first.probs), _bits(want.argmin_first.probs))
            and np.array_equal(_bits(got.argmin_second.probs), _bits(want.argmin_second.probs))
            and (got.converged, got.iterations) == (want.converged, want.iterations))


def _all_pairs(balls):
    """Every ordered pair of the balls, through one call on two sequences,
    and each pair's result from the per-pair loop."""
    pairs = list(itertools.permutations(balls, 2))
    got = pairwise_min_divergence(tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
    assert isinstance(got, tuple) and len(got) == len(pairs)
    return got, [pairwise_min_one_pair(a, b) for a, b in pairs]


@st.composite
def _games(draw):
    """The balls of a random game: K 3-5 symbols, M 2-4 hypotheses, TV or
    KL, a radius of zero or up to a third of the simplex, and a floor of
    zero (where centers may miss symbols) or 1e-9. Centers are drawn on a
    coarse grid so that some coincide or nearly touch."""
    k, m = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    measure = draw(st.sampled_from([TV, KL]))
    top = 0.3 if measure is TV else 0.1
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-4, top)))
    floor = draw(st.sampled_from([0.0, 1e-9]))
    centers = []
    for _ in range(m):
        c = np.array(draw(st.lists(st.integers(0 if floor == 0.0 else 1, 8), min_size=k,
                                   max_size=k)), dtype=float)
        c[0] += c.sum() == 0.0
        centers.append(c / c.sum())
    return [DistortionBall(Distribution(c), radius, measure, floor) for c in centers]


def _big_tv_game():
    """K = 32 and M = 16 under TV: the 240 rows of a block solve exceed the
    126 rows of one knot scan of `divopt._tv_block_argmin`, so the scan
    splits the batch."""
    rng = np.random.default_rng(3)
    return [DistortionBall(Distribution(0.9 * rng.dirichlet(np.ones(32)) + 0.1 / 32), 0.1, TV)
            for _ in range(16)]


def _mixed_game(measure, delta):
    """Ternary balls: 0 and 1 overlap (value 0) at TV 0.1 and KL 0.01, and
    2 and 3 are far from both."""
    laws = ((0.5, 0.3, 0.2), (0.45, 0.33, 0.22), (0.1, 0.1, 0.8), (0.2, 0.7, 0.1))
    return [DistortionBall(Distribution(h), delta, measure) for h in laws]


def _disjoint_game():
    """Two point balls on disjoint supports: each pair starts, and stays,
    at D = inf, so its first drop is inf - inf."""
    return [DistortionBall(Distribution(c), 0.0, TV, floor=0.0) for c in ([1, 0, 0], [0, 0, 1])]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_games())
@example(_big_tv_game())
@example(_disjoint_game())
@example(_mixed_game(TV, 0.1))
def test_every_row_equals_the_per_pair_loop(balls):
    got, want = _all_pairs(balls)
    for res, ref in zip(got, want):
        assert _same(res, ref), (res, ref)


def test_the_disjoint_pairs_stop_at_once_unconverged():
    got, _ = _all_pairs(_disjoint_game())
    assert [(r.value, r.converged, r.iterations) for r in got] == [(np.inf, False, 1)] * 2


def test_the_mixed_tv_pairs_stop_in_different_rounds():
    """A TV round adds one iteration, its blocks taking no bisection steps,
    so the pairs of this batch stop after one, two and three rounds."""
    got, _ = _all_pairs(_mixed_game(TV, 0.1))
    assert {r.iterations for r in got} == {1, 2, 3}


def test_the_big_example_splits_a_knot_scan():
    assert 16 * 15 > divopt._SCAN_ENTRIES // (32 * (2 * 32 + 1))


def test_one_pair_is_a_batch_of_one():
    a, b = _big_tv_game()[:2]
    (batched,) = pairwise_min_divergence([a], [b])
    assert _same(pairwise_min_divergence(a, b), batched)


@pytest.mark.parametrize("measure, delta", [(TV, 0.1), (KL, 0.01), (KL, 1e-6)])
@pytest.mark.parametrize("rounds, doublings", [(3, 100), (8, 1), (200, 0)])
def test_rows_stay_independent_under_the_caps(monkeypatch, measure, delta, rounds, doublings):
    """Small caps stop some pairs unconverged, after few rounds, short
    bisections or an open bracket; the overlapping pairs stop at zero. Each
    row still equals the per-pair loop under the same caps."""
    monkeypatch.setattr(divopt, "_BISECTION_CAP", rounds)
    monkeypatch.setattr(divopt, "_BRACKET_CAP", doublings)
    got, want = _all_pairs(_mixed_game(measure, delta))
    for res, ref in zip(got, want):
        assert _same(res, ref), (res, ref)
    if delta >= 0.01:
        assert got[0].value == got[3].value == 0.0  # the pairs (0, 1) and (1, 0)
    assert min(r.value for r in got[6:]) > 0.0  # every pair with ball 2 or 3 first
    if measure is KL or rounds < divopt._PATIENCE:
        assert not all(r.converged for r in got)


def test_the_caps_stop_some_pairs_and_not_others(monkeypatch):
    """One batch holds pairs that converge and pairs that hit the caps."""
    monkeypatch.setattr(divopt, "_BISECTION_CAP", 8)
    got, _ = _all_pairs(_mixed_game(KL, 0.01))
    assert {r.converged for r in got} == {True, False}


def _tilt_rows(rows, p, floor, radius):
    """The batched tilt and, per row, the one-row solve on that row's ball."""
    w, centers = np.array(rows), np.array([p] * len(rows))
    x, converged, steps = _kl_tilt_argmin(w, centers, floor, radius)
    ball = DistortionBall(Distribution(p), radius, KL, floor)
    for r, row in enumerate(w):
        ref_x, ref_converged, ref_steps = kl_tilt_argmin_one_row(row, ball)
        assert np.array_equal(_bits(x[r]), _bits(ref_x))
        assert (bool(converged[r]), int(steps[r])) == (ref_converged, ref_steps)
    return converged, steps


P = (0.6, 0.25, 0.15)
# far from P, near P but outside a ball of 1e-6, inside it, and missing P's support
FAR, NEAR, INSIDE, MISSING = (0.2, 0.2, 0.6), (0.603, 0.247, 0.15), (0.6, 0.25, 0.15), (0.5, 0.5, 0.0)


def test_tilt_rows_with_a_zero_radius():
    converged, steps = _tilt_rows([FAR, NEAR, MISSING], P, 1e-9, 0.0)
    assert converged.all() and not steps.any()


@pytest.mark.parametrize("floor", [0.0, 1e-9])
def test_tilt_rows_on_each_early_exit(monkeypatch, floor):
    """With one doubling allowed, the far row's bracket stays open, the near
    row's closes; the inside row stops at the low end of its bracket and
    the row that misses P's support stops at once."""
    monkeypatch.setattr(divopt, "_BRACKET_CAP", 1)
    converged, steps = _tilt_rows([FAR, NEAR, INSIDE, MISSING, NEAR, FAR], P, floor, 1e-6)
    assert converged.tolist() == [False, True, True, True, True, False]
    assert steps[[0, 2, 3, 5]].tolist() == [1, 0, 0, 1] and steps[1] > 1


def test_tilt_rows_with_room_to_widen():
    converged, steps = _tilt_rows([FAR, NEAR, INSIDE, MISSING], P, 1e-9, 1e-6)
    assert converged.all() and (steps[:2] > 1).all() and not steps[2:].any()
