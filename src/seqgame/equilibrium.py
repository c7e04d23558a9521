"""Worst-case adversary strategies and the limiting payoff of the game.

An adversary attached to hypothesis i may replace samples through any
channel whose output law stays within the distortion budget of the source,
so its reach is a ball around the hypothesis. The decision maker's limiting
per-sample evidence under hypothesis i is the smallest divergence from the
adversary's chosen law to any rival ball, and the game value weights those
exponents across hypotheses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divopt import (
    _FEASIBILITY_SLACK,
    DistortionBall,
    PairMinResult,
    _ChannelGame,
    channel_from_output,
    min_divergence_to_ball,
    min_max_divergence_over_channel,
    pairwise_min_divergence,
)
from .errors import ConstructionError, DegenerateGameError, InfeasibleError, ShapeError
from .prob import (Channel, Distribution, DistortionMeasure, _check_integers, _floats, _instance, _real,
                   apply_channel, kl_divergence)

__all__ = [
    "GameSpec",
    "EquilibriumSolution",
    "NonAwareBounds",
    "solve_aware_equilibrium",
    "equilibrium_payoff",
    "nonaware_achievable",
    "nonaware_converse",
    "solve_nonaware_adversary",
]

# The smallest pairwise minimum of a game that is not degenerate.
_SEPARATION_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class GameSpec:
    """The full game: hypotheses, distortion budget, and mixing weights.

    Construction verifies that no two adversaries can reach a common output
    law; otherwise the hypotheses are statistically indistinguishable at
    this budget and every sequential procedure breaks down.
    """

    hypotheses: tuple[Distribution, ...]
    delta: float
    measure: DistortionMeasure
    weights: tuple[float, ...] = ()
    support_floor: float = 1e-9

    def __post_init__(self) -> None:
        hyps = tuple(_instance("hypothesis", h, Distribution)
                     for h in _instance("hypotheses", self.hypotheses, (tuple, list)))
        if len(hyps) < 2:
            raise ConstructionError("a testing game needs at least two hypotheses")
        size = hyps[0].size
        if any(h.size != size for h in hyps):
            raise ShapeError("all hypotheses must share one alphabet")
        floor = _real("support_floor", self.support_floor, 0.0, 1.0 / size)
        for idx, h in enumerate(hyps):
            if not h.is_fully_supported(floor):
                raise ConstructionError(f"hypothesis {idx} falls below the support floor {floor}")
        for i in range(len(hyps)):
            for j in range(i + 1, len(hyps)):
                if np.max(np.abs(hyps[i].probs - hyps[j].probs)) <= 1e-12:
                    raise ConstructionError(f"hypotheses {i} and {j} coincide")
        weights = tuple(_real("weights", w, low_open=True)
                        for w in _floats("weights", self.weights).tolist()) or (1.0,) * len(hyps)
        if len(weights) != len(hyps):
            raise ShapeError("need one weight per hypothesis")
        for name, value in (("hypotheses", hyps), ("delta", _real("delta", self.delta)),
                            ("weights", weights), ("support_floor", floor)):
            object.__setattr__(self, name, value)
        # touching the cache runs the separation check eagerly
        self.pairwise_minima

    @property
    def num_hypotheses(self) -> int:
        return len(self.hypotheses)

    @property
    def alphabet_size(self) -> int:
        return self.hypotheses[0].size

    @cached_property
    def balls(self) -> tuple[DistortionBall, ...]:
        return tuple(
            DistortionBall(h, self.delta, self.measure, self.support_floor)
            for h in self.hypotheses
        )

    @cached_property
    def pairwise_minima(self) -> dict[tuple[int, int], PairMinResult]:
        """Joint minima of D(q_i || q_j) over the M(M-1) ordered pairs of
        balls, all in one alternation. The smallest entry must clear
        `_SEPARATION_FLOOR` or the game is degenerate."""
        pairs = list(itertools.permutations(range(self.num_hypotheses), 2))
        out = dict(zip(pairs, pairwise_min_divergence(tuple(self.balls[i] for i, _ in pairs),
                                                      tuple(self.balls[j] for _, j in pairs))))
        worst = min(r.value for r in out.values())
        if worst < _SEPARATION_FLOOR:
            raise DegenerateGameError(
                f"distortion budget {self.delta} lets adversaries close the gap "
                f"between some pair of hypotheses (min divergence {worst:.3e})"
            )
        return out


@dataclass(frozen=True)
class EquilibriumSolution:
    """Mutually best adversary laws and the resulting error exponents.

    divergence_matrix[i, j] is the divergence from adversary i's chosen law
    to the closest point of rival ball j (diagonal entries are +inf);
    exponents[i] is the row minimum and payoff the weighted sum.
    """

    q_star: tuple[Distribution, ...]
    divergence_matrix: np.ndarray
    exponents: np.ndarray
    payoff: float
    witness_channels: tuple[Channel, ...]
    converged: bool


def solve_aware_equilibrium(spec: GameSpec) -> EquilibriumSolution:
    """Solve every adversary's best response assuming rivals also optimize.

    Adversary i picks the law in its ball minimizing the divergence to the
    closest rival ball, read off `spec.pairwise_minima` (exact over the
    ordered pairs). The reported matrix re-solves each inner minimum there.
    """
    m = _instance("spec", spec, GameSpec).num_hypotheses
    pair = spec.pairwise_minima
    q_star = []
    converged = True
    for i in range(m):
        rivals = [(pair[(i, j)].value, j) for j in range(m) if j != i]
        _, j_best = min(rivals)
        best = pair[(i, j_best)]
        q_star.append(best.argmin_first)
        converged &= best.converged
    matrix = np.full((m, m), math.inf)
    for i in range(m):
        for j in range(m):
            if i != j:
                res = min_divergence_to_ball(q_star[i], spec.balls[j])
                matrix[i, j] = res.value
                converged &= res.converged
    exponents = matrix.min(axis=1)
    payoff = equilibrium_payoff(exponents, spec.weights)
    witnesses = tuple(
        channel_from_output(spec.hypotheses[i], q_star[i]) for i in range(m)
    )
    return EquilibriumSolution(tuple(q_star), matrix, exponents, payoff, witnesses, converged)


def equilibrium_payoff(exponents, weights) -> float:
    """Weighted sum of per-hypothesis exponents; weights must be positive."""
    e, w = _floats("exponents", exponents), _floats("weights", weights)
    if e.shape != w.shape:
        raise ShapeError("exponents and weights must have matching lengths")
    for value in w.tolist():
        _real("weights", value, low_open=True)
    with np.errstate(over="ignore"):  # inf for exponents near 1e308, not a warning
        return float(np.dot(e, w))


# ---------------------------------------------------------------------------
# Non-aware adversary: one common channel for both hypotheses (binary games)


@dataclass(frozen=True)
class NonAwareBounds:
    """Payoff bounds at one common channel.

    `achievable` is what the decision maker can guarantee, `converse` what
    no procedure can beat; achievable <= converse always. Both are exact at
    `channel`.
    """

    achievable: float
    converse: float
    channel: Channel


def _outputs_within_budget(laws, channels, delta: float,
                           measure: DistortionMeasure) -> list[Distribution]:
    """The output law of each law through its channel, which must map the
    alphabet onto itself; InfeasibleError if one distorts its law beyond delta."""
    outputs = []
    for i, (law, channel) in enumerate(zip(laws, channels)):
        out = apply_channel(law, channel)
        distortion = measure.evaluate(law, out)
        if distortion > delta + _FEASIBILITY_SLACK:
            raise InfeasibleError(f"channel distorts hypothesis {i} by {distortion:.6g}, budget {delta}")
        outputs.append(out)
    return outputs


def _common_outputs(p0: Distribution, p1: Distribution, channel: Channel, delta: float,
                    measure: DistortionMeasure) -> tuple[Distribution, Distribution,
                                                         float, float]:
    """The output laws of a common channel and their divergences
    D(out0 || out1) and D(out1 || out0), never below zero (nearly equal
    laws can round to -1e-17); InfeasibleError if the channel breaks the
    budget."""
    out0, out1 = _outputs_within_budget((p0, p1), (channel, channel), _real("delta", delta),
                                        _instance("measure", measure, DistortionMeasure))
    return out0, out1, max(0.0, kl_divergence(out0, out1)), max(0.0, kl_divergence(out1, out0))


def nonaware_achievable(p0: Distribution, p1: Distribution, channel: Channel,
                        delta: float, measure: DistortionMeasure,
                        weight: float = 1.0) -> float:
    """Guaranteed payoff when one common channel perturbs both hypotheses.

    Each term is the worst divergence the decision maker can still force
    between the observed law and everything a common channel can produce.
    The given channel is one of those, and makes the rival's output law,
    so a term is at most the divergence between the two output laws. The
    smaller of the two is kept, with that divergence as `nonaware_converse`
    takes it, so that rounding never lifts the bound above the converse
    where the two are equal; nor does it take a term below zero.
    """
    weight = _real("weight", weight, low_open=True)
    out0, out1, d01, d10 = _common_outputs(p0, p1, channel, delta, measure)
    term0, term1 = (
        max(0.0, min(min_max_divergence_over_channel(out, p0, p1, delta, measure).value, d))
        for out, d in ((out0, d01), (out1, d10))
    )
    return term0 + weight * term1


def nonaware_converse(p0: Distribution, p1: Distribution, channel: Channel,
                      delta: float, measure: DistortionMeasure,
                      weight: float = 1.0) -> float:
    """Upper bound on any procedure's payoff at a common channel."""
    weight = _real("weight", weight, low_open=True)
    _, _, d01, d10 = _common_outputs(p0, p1, channel, delta, measure)
    return d01 + weight * d10


def solve_nonaware_adversary(p0: Distribution, p1: Distribution, delta: float,
                             measure: DistortionMeasure, weight: float = 1.0,
                             num_starts: int = 1) -> NonAwareBounds:
    """The common channel minimizing the achievable payoff, in closed form.

    The payoff at a channel depends only on its outputs (x, y) of p0 and
    p1: it is S(x) + weight S(y), where S(t), the channel min-max
    statistic at t, is the larger of the clamp divergences of t onto the
    ranges Px and Py of x and y over the feasible set P (see
    `min_max_divergence_over_channel`). Where Px and Py overlap at z, the
    channel with outputs (z, z) pays zero. Otherwise say Px < Py, with
    a = max Px and b = min Py. Then S(x) = D(x || b) on Px and
    S(y) = D(y || a) on Py, each least at (a, b). That point is feasible:
    the diagonal lies in the parallelogram of all channels, so I0 and I1
    are disjoint too, and P = {y <= U(x)} within I0 x I1 with U
    nondecreasing. A channel with output b of p1 has an output x' <= a of
    p0, so b <= U(x') <= U(a). The payoff there is
    D(a || b) + weight D(b || a), which is also the converse. The case
    Py < Px is symmetric.

    `num_starts` must be an integer of at least 1, not a bool, and is
    otherwise ignored: there is no search to restart.
    """
    _check_integers(1, num_starts=num_starts)
    channel = _ChannelGame(p0, p1, delta, measure).facing_ends()
    achievable = nonaware_achievable(p0, p1, channel, delta, measure, weight)
    converse = nonaware_converse(p0, p1, channel, delta, measure, weight)
    return NonAwareBounds(achievable, converse, channel)
