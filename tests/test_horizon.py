"""The stopping-time horizon: every run of the aware test stops by N_B,
the first evaluated step at which the threshold falls to the
Bhattacharyya separation of the game (`oracles.stopping_horizon`).

The separation is computed by the oracles, at laws inside the balls, so
it is never below the true minimum and N_B never above the true horizon:
the horizon test can fail on a sound program, never pass on an unsound
one. `tests/test_equilibrium.py::TestBhattacharyya` checks that separation
against closed forms and lattices; the first tests here pin it on the
benchmark games.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seqgame.equilibrium import GameSpec
from seqgame.errors import ConstructionError, DegenerateGameError, ResourceError
from seqgame.prob import Channel, Distribution, DistortionMeasure
from seqgame.seqtest import ThresholdSchedule, run_aware
from seqgame.simharness import ScenarioConfig, _run_fast_binary, monte_carlo

from oracles import (
    _geometric_step,
    bhattacharyya_full_patience,
    separation,
    stopping_horizon,
)

ALPHAS = (math.exp(-4), math.exp(-12))
# the largest N_B a drawn game may have, which bounds the test's time
HORIZON_LIMIT = 20_000


def test_bernoulli_separation(bernoulli_spec):
    """The separation of the `bernoulli_tv` game, pinned, and the horizons
    it gives at stride 1."""
    assert separation(bernoulli_spec) == 0.002492177586470483
    assert [stopping_horizon(bernoulli_spec, a, 1) for a in ALPHAS] == [14_109, 17_551]


@pytest.mark.parametrize("measure, delta, pinned", [
    ("tv_l1", 0.1, (0.0510649779869086, 0.0767955176043674, 0.0601536434902207)),
    ("kl", 0.01, (0.0432808586169129, 0.0709816360394801, 0.0535234644693901)),
])
def test_ternary_separation(measure, delta, pinned):
    """The pairs of the ternary benchmark game, pinned from a projected-
    gradient solver, and the horizons they give at stride 16."""
    laws = ((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6))
    spec = GameSpec(tuple(Distribution(h) for h in laws), delta, DistortionMeasure(measure))
    balls = spec.balls
    got = [bhattacharyya_full_patience(balls[i], balls[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert got == pytest.approx(pinned, rel=1e-9)
    assert separation(spec) == min(got)
    want = (688, 864) if measure == "tv_l1" else (832, 1_024)
    assert tuple(stopping_horizon(spec, a, 16) for a in ALPHAS) == want


@st.composite
def _games(draw):
    """A game with K 2-4 symbols and M 2-3 hypotheses, TV or KL, a radius
    of zero or up to 0.1 (TV) or 0.01 (KL), centers on a coarse grid. A
    draw that GameSpec refuses is not a game and is drawn again."""
    k, m = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    measure = draw(st.sampled_from(list(DistortionMeasure)))
    top = 0.1 if measure is DistortionMeasure.TV_L1 else 0.01
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-4, top)))
    centers = [np.array(draw(st.lists(st.integers(1, 8), min_size=k, max_size=k)), dtype=float)
               for _ in range(m)]
    try:
        return GameSpec(tuple(Distribution(c / c.sum()) for c in centers), radius, measure)
    except (ConstructionError, DegenerateGameError):  # coinciding centers, or touching balls
        assume(False)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_games(), st.sampled_from(ALPHAS), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_every_run_stops_by_the_horizon(spec, alpha, stride, seed):
    """`run_aware` with its cap at N_B never times out, fed each center and
    the normalized sqrt(x y) of each pair's minimizing laws x and y, the
    streams that come closest to the bound. Nor does the binary engine,
    under the equilibrium channels and under those midpoint laws.

    Two filters act on the drawn games: a game with N_B above
    HORIZON_LIMIT is rejected, to bound the test's time, and one whose
    separation the oracle cannot compute (ResourceError) is skipped.
    """
    try:
        horizon = stopping_horizon(spec, alpha, stride)
    except ResourceError:
        assume(False)
    assume(horizon <= HORIZON_LIMIT)
    schedule = ThresholdSchedule(alpha, spec.num_hypotheses, spec.alphabet_size)
    midpoints = [_geometric_step(r.argmin_first.probs, r.argmin_second.probs)[1]
                 for r in spec.pairwise_minima.values()]
    rng = np.random.default_rng(seed)
    for law in [h.probs for h in spec.hypotheses] + midpoints:
        stream = rng.choice(spec.alphabet_size, size=horizon, p=law)
        out = run_aware(stream, schedule, spec, cap=horizon, stride=stride)
        assert not out.timed_out, (law, horizon)
        assert out.stopping_time <= horizon
    if spec.alphabet_size == 2:
        config = ScenarioConfig(spec, (alpha,), replications=20, seed=seed, cap=horizon,
                                stride=stride)
        assert [row.timeouts for row in monte_carlo(config).rows] == [0] * spec.num_hypotheses
        table = schedule._table(tuple(ball.interval for ball in spec.balls), horizon, stride)
        for law in midpoints:  # through a channel that outputs the law whatever it reads
            channel = Channel(np.vstack([law, law]))
            for _ in range(10):
                out = _run_fast_binary(rng, spec.hypotheses[0], channel, table)
                assert not out.timed_out, (law, horizon)
