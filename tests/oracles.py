"""Brute-force oracles for the tests: lattice searches over balls and
binary channels, a pattern descent on the simplex, the type of a sample,
the scaling of weights into a law, the Bernoulli KL, the Bhattacharyya
distance, membership of a ball, the evidence statistic solved ball by
ball, the branch statistics of the common channel, the aware and
common-channel tests fed one symbol at a time, the binary engine's stop
rule counted ball by ball, random feasible common channels, the pairwise
alternation run one pair at a time (with its first block solved one row
at a time, and its stop rule in scalar arithmetic), the pairwise alternation and the Bhattacharyya separation run
for their full patience, and the stopping-time horizon that the
separation gives.

They are independent of the solvers in `seqgame.divopt`, of the stacked
reach solve of `seqgame.seqtest.evidence_statistics`, of the batching of
pairs in the pairwise alternation and of its stop rule on arrays, of the
stream loop that `seqgame.seqtest.run_aware` and `run_nonaware` share and
of their decision rules, of the count-boundary tables and continuation bands of
`seqgame.seqtest` and of the fixed-point stop of the pairwise
alternation (the full-patience loops share only their exact blocks), and
exist only to check them.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np
from scipy.special import xlogy

from seqgame import divopt
from seqgame.divopt import (
    DistortionBall,
    PairMinResult,
    _ball_reach,
    min_divergence_to_ball,
    min_divergence_over_common_channels,
    min_max_divergence_over_channel,
)
from seqgame.equilibrium import GameSpec
from seqgame.errors import (
    ConstructionError,
    DomainError,
    EmptySequenceError,
    InfeasibleError,
    ResourceError,
    ShapeError,
    StreamExhaustedError,
)
from seqgame.prob import Channel, Distribution, DistortionMeasure, _kl_rows
from seqgame.seqtest import TestOutcome, ThresholdSchedule, _check_symbol, evidence_statistics


@functools.lru_cache(maxsize=None)
def simplex_lattice(size: int, resolution: int) -> np.ndarray:
    """All integer vectors of the given size summing to `resolution`; the
    array is cached, so it is read-only."""
    if size < 1 or resolution < 0:
        raise DomainError("size must be >= 1 and resolution >= 0")
    if size == 1:
        out = np.array([[resolution]], dtype=np.int64)
    else:
        blocks = []
        for first in range(resolution + 1):
            sub = simplex_lattice(size - 1, resolution - first)
            head = np.full((sub.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, sub]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def ball_lattice(ball: DistortionBall, step: float, max_points: int = 4_000_000) -> np.ndarray:
    """Lattice points of pitch `step` lying inside the ball."""
    n = int(round(1.0 / step))
    count = math.comb(n + ball.size - 1, ball.size - 1)
    if count > max_points:
        raise ResourceError(f"lattice would hold {count} points (limit {max_points})")
    pts = simplex_lattice(ball.size, n).astype(float) / n
    keep = np.all(pts >= ball.floor, axis=1)
    pts = pts[keep]
    c = ball.center.probs
    if ball.measure is DistortionMeasure.TV_L1:
        dist = np.abs(pts - c).sum(axis=1)
    else:
        with np.errstate(divide="ignore"):
            dist = xlogy(c, c / pts).sum(axis=1)
    return pts[dist <= ball.radius + 1e-12]


def grid_oracle_min(objective, ball: DistortionBall, step: float,
                    max_points: int = 4_000_000) -> tuple[float, Distribution]:
    """Exhaustive lattice minimization over a ball; alphabets up to size 3.

    `objective` receives an (N, K) array of candidate rows and must return
    N values. Intended as an independent check on the solvers.
    """
    if ball.size > 3:
        raise ResourceError("exhaustive ball grids support alphabets up to size 3")
    pts = ball_lattice(ball, step, max_points)
    if pts.shape[0] == 0:
        raise InfeasibleError("no lattice point falls inside the ball")
    values = np.asarray(objective(pts), dtype=float)
    idx = int(np.argmin(values))
    return float(values[idx]), Distribution(pts[idx])


def grid_oracle_min_channels(objective, feasible, step: float,
                             max_points: int = 4_000_000) -> tuple[float, Channel]:
    """Exhaustive search over binary-alphabet channels [[a,1-a],[1-b,b]].

    `objective` and `feasible` receive flat arrays of a, b values and return
    per-point values / booleans.
    """
    n = int(round(1.0 / step))
    if (n + 1) ** 2 > max_points:
        raise ResourceError(f"channel grid would hold {(n + 1) ** 2} points")
    g = np.linspace(0.0, 1.0, n + 1)
    a, b = np.meshgrid(g, g, indexing="ij")
    a = a.ravel()
    b = b.ravel()
    ok = np.asarray(feasible(a, b), dtype=bool)
    if not np.any(ok):
        raise InfeasibleError("no grid channel satisfies the distortion budget")
    a, b = a[ok], b[ok]
    values = np.asarray(objective(a, b), dtype=float)
    idx = int(np.argmin(values))
    rows = np.array([[a[idx], 1.0 - a[idx]], [1.0 - b[idx], b[idx]]])
    return float(values[idx]), Channel(rows)


def refine_simplex_min(objective, start, initial_step: float = 0.1,
                       final_step: float = 1e-5, feasible=None) -> tuple[float, np.ndarray]:
    """Pattern descent on the simplex along e_i - e_j moves with shrinking
    pitch. For a convex objective this converges to the global minimum from
    any start; used to sharpen coarse lattice searches.
    """
    x = np.asarray(start, dtype=float).copy()
    k = x.size
    moves = []
    for i in range(k):
        for j in range(k):
            if i != j:
                m = np.zeros(k)
                m[i] += 1.0
                m[j] -= 1.0
                moves.append(m)
    moves = np.array(moves)
    best = float(np.asarray(objective(x[None, :]))[0])
    h = initial_step
    while h >= final_step:
        improved = True
        while improved:
            cands = x[None, :] + h * moves
            ok = np.all(cands >= 0.0, axis=1)
            if feasible is not None:
                ok &= np.asarray(feasible(cands), dtype=bool)
            if not np.any(ok):
                break
            cands = cands[ok]
            vals = np.asarray(objective(cands), dtype=float)
            idx = int(np.argmin(vals))
            if vals[idx] < best - 1e-18:
                best = float(vals[idx])
                x = cands[idx]
            else:
                improved = False
        h *= 0.5
    return best, x


def empirical_distribution(counts) -> Distribution:
    """The type of a sample, given per-symbol counts."""
    arr = np.asarray(counts)
    if arr.ndim != 1:
        raise ShapeError(f"counts must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ConstructionError("counts must have at least one entry")
    if np.any(arr < 0) or not np.allclose(arr, np.round(arr)):
        raise ConstructionError("counts must be nonnegative integers")
    total = arr.sum()
    if total == 0:
        raise EmptySequenceError("cannot form an empirical distribution from zero samples")
    return Distribution(arr / float(total))


def normalize(weights) -> Distribution:
    """Scale a nonnegative weight vector into a Distribution; ConstructionError
    when it has a negative entry or no mass."""
    arr = np.asarray(weights, dtype=float)
    total = arr.sum()
    if total <= 0.0 or np.any(arr < 0.0):
        raise ConstructionError("weights must be nonnegative with positive total mass")
    return Distribution(arr / total)


def binary_kl(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), in nats, for a
    and b strictly inside (0, 1)."""
    return float(a * np.log(a / b) + (1.0 - a) * np.log((1.0 - a) / (1.0 - b)))


def bhattacharyya(p, q) -> float:
    """Bhattacharyya distance -log sum(sqrt(p * q)), in nats, between two
    Distributions or vectors; DomainError unless both have full support."""
    p, q = (np.asarray(x.probs if isinstance(x, Distribution) else x, dtype=float) for x in (p, q))
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise DomainError("bhattacharyya requires strictly positive entries")
    coeff = float(np.sqrt(p * q).sum())
    return -math.log(coeff) if coeff > 0.0 else math.inf  # every product underflowed


def contains(ball: DistortionBall, point, slack: float = 1e-9) -> bool:
    """Whether the vector `point` lies in the ball, each bound of the ball
    relaxed by slack; ShapeError unless it has the ball's size."""
    point = np.asarray(point, dtype=float)
    if point.shape != (ball.size,):
        raise ShapeError(f"point has shape {point.shape}, the ball {ball.size} symbols")
    center = ball.center.probs
    if ball.measure is DistortionMeasure.TV_L1:
        distortion = np.abs(point - center).sum()
    else:
        distortion = _kl_rows(center, point)
    return bool(distortion <= ball.radius + slack and point.min() >= ball.floor - slack
                and abs(point.sum() - 1.0) <= slack)


def evidence_by_ball(counts: np.ndarray, balls: tuple[DistortionBall, ...]) -> np.ndarray:
    """`evidence_statistics` on an (R, K) array of counts with one reach
    solve per ball, the loop that the stacked solve replaced: column j
    holds the reach of each row into ball j, and entry (r, i) is the least
    of row r's reaches into the balls other than i."""
    qhat = counts / counts.sum(axis=1, keepdims=True).astype(float)
    qhat = qhat / qhat.sum(axis=1, keepdims=True)
    dists = np.column_stack([_ball_reach(qhat, (ball,))[1] for ball in balls])
    return np.column_stack([np.delete(dists, i, axis=1).min(axis=1) for i in range(len(balls))])


def run_aware_stepwise(stream: Iterable[int], schedule: ThresholdSchedule, spec: GameSpec,
                       cap: int = 1_000_000, stride: int = 1) -> TestOutcome:
    """The universal test fed one symbol at a time, one evidence call per
    evaluated step: the loop `run_aware` ran before it read chunks."""
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    counts = np.zeros(spec.alphabet_size, dtype=np.int64)
    it = iter(stream)
    n = 0
    while n < cap:
        try:
            symbol = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"stream ended after {n} symbols with no decision"
            ) from None
        counts[_check_symbol(symbol, spec.alphabet_size)] += 1
        n += 1
        if n % stride and n < cap:
            continue
        z = evidence_statistics(counts, spec)
        gamma = schedule.value(n)
        hits = np.flatnonzero(z >= gamma)
        if hits.size:
            return TestOutcome(n, int(hits[0]))
    return TestOutcome(cap, None, True)


def branch_statistics(qhat: Distribution, p0: Distribution, p1: Distribution, delta: float,
                      measure: DistortionMeasure) -> np.ndarray:
    """Evidence for each hypothesis: the divergence from qhat to everything
    a common channel can make of the rival law."""
    return np.array([
        min_divergence_over_common_channels(qhat, 1 - b, p0, p1, delta, measure).value
        for b in (0, 1)
    ])


def _tie_rule(branch, gamma: float) -> int:
    """The common-channel decision once some branch clears gamma: the only
    branch that clears it, else the larger statistic, branch 0 on a tie."""
    clearing = [b for b in (0, 1) if branch[b] >= gamma]
    if len(clearing) == 1:
        return clearing[0]
    return max((0, 1), key=lambda b: (branch[b], -b))


def run_nonaware_stepwise(stream: Iterable[int], schedule: ThresholdSchedule,
                          p0: Distribution, p1: Distribution, delta: float,
                          measure: DistortionMeasure, cap: int = 1_000_000,
                          stride: int = 1) -> TestOutcome:
    """The common-channel test fed one symbol at a time, solving the public
    channel min-max on the empirical law at every evaluated step;
    `run_nonaware` instead reads one evaluated step at a time, forms qhat
    from the counts at that step and builds its channel game once per run."""
    if schedule.num_hypotheses != 2:
        raise DomainError("the common-channel test is defined for two hypotheses")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    counts = np.zeros(2, dtype=np.int64)
    it = iter(stream)
    n = 0
    while n < cap:
        try:
            symbol = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"stream ended after {n} symbols with no decision"
            ) from None
        counts[_check_symbol(symbol, 2)] += 1
        n += 1
        if n % stride and n < cap:
            continue
        qhat = empirical_distribution(counts)
        s_stat = min_max_divergence_over_channel(qhat, p0, p1, delta, measure).value
        gamma = schedule.value(n)
        if s_stat >= gamma:
            return TestOutcome(n, _tie_rule(branch_statistics(qhat, p0, p1, delta, measure), gamma))
    return TestOutcome(cap, None, True)


def _first_stop(zeros: np.ndarray, lower: np.ndarray,
                upper: np.ndarray) -> tuple[int, int] | None:
    """First column at which some hypothesis stops, and its decision.

    Hypothesis i stops when the count clears the boundaries of every rival
    ball j != i; when several do, the smallest index wins.
    """
    clears = [(zeros <= lo) | (zeros >= hi) for lo, hi in zip(lower, upper)]
    stops = np.sum(clears, axis=0) >= len(clears) - 1
    if not stops.any():
        return None
    k = int(stops.argmax())
    missed = [j for j, cleared in enumerate(clears) if not cleared[k]]
    return k, missed[0] if missed else 0


def _max_feasible_blend(p0: Distribution, p1: Distribution, target: np.ndarray,
                        delta: float, measure: DistortionMeasure) -> np.ndarray:
    """Largest blend (1-t) I + t target staying inside the common budget."""
    k = p0.size
    eye = np.eye(k)

    def feasible(t: float) -> bool:
        a = (1.0 - t) * eye + t * target
        for p in (p0, p1):
            if measure.evaluate(p.probs, p.probs @ a) > delta:
                return False
        return True

    lo, hi = 0.0, 1.0
    if feasible(1.0):
        return target.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    t = 0.9 * lo
    return (1.0 - t) * eye + t * target


def kl_tilt_argmin_one_row(w: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, bool, int]:
    """The KL first block of the pairwise alternation, one row at a time:
    argmin of D(x || w) over a KL ball, an I-projection of w, with log c
    bracketed by doubling and then bisected on D(p || x) = r (see
    `divopt._kl_tilt_argmin`, which solves many rows at once)."""
    p, floor, radius = ball.center.probs, ball.floor, ball.radius
    if radius == 0.0 or np.any(w[p > 0.0] == 0.0):
        # every feasible x has D(x || w) = inf when w misses p's support
        return p.copy(), True, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(p > 0.0, np.log(p) - np.log(w), -math.inf)
    top = float(log_ratio.max())

    def tilt(s: np.ndarray, rows=None) -> np.ndarray:
        lw = divopt._lambertw_exp(s[:, None] + log_ratio)
        return divopt._floor_fill(w * np.exp(lw - lw.max(axis=1, keepdims=True)), floor)

    level = divopt._kl_from(p[None, :])  # w > 0 on the support of p, so x is too
    lo = -40.0 - top  # c p_i / w_i < e^-40: x equals w to rounding
    x = tilt(np.array([lo]))
    if level(x, 0)[0] <= radius:
        return x[0], True, 0
    hi = 1.0 - lo
    for widen in range(1, divopt._BRACKET_CAP + 1):
        if level(tilt(np.array([hi])), 0)[0] <= radius:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return p.copy(), False, divopt._BRACKET_CAP
    x, _, converged, steps = divopt._bisect_level(tilt, level, radius, np.array([lo]),
                                                  np.array([hi]))
    return x[0], bool(converged[0]), widen + int(steps[0])


def first_block_one_row(w: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, bool, int]:
    """argmin of D(x || w) over x in the ball, one row at a time."""
    if divopt._inside(w, ball.center.probs, ball):
        return w, True, 0
    if ball.measure is DistortionMeasure.TV_L1:
        return divopt._tv_block_argmin(w[None, :], ball.center.probs[None, :], ball.floor,
                                       0.5 * ball.radius)[0], True, 0
    return kl_tilt_argmin_one_row(w, ball)


class RunningMinimum:
    """The stop rule of one pair of the pairwise alternation, in scalar
    arithmetic: `divopt._PATIENCE` rounds in a row that drop its running
    minimum by less than `divopt._TOLERANCE` relative converge,
    `divopt._BISECTION_CAP` rounds do not. A round is a pure function of
    the pair's state at its start, so one that ends on that state bit for
    bit is repeated by every later round: the pair leaves the alternation
    there, with the outcome the repeats give."""

    def __init__(self, start: float):
        self.best, self.rounds, self.quiet = start, 0, 0

    def _drop(self, value: float) -> float:
        return (self.best - value) / max(abs(self.best), 1e-300)

    def stop(self, value: float, fixed_point: bool) -> bool:
        """Count a round that reached `value`; True once the rounds are over."""
        self.rounds += 1
        self.quiet = self.quiet + 1 if self._drop(value) < divopt._TOLERANCE else 0
        if value <= self.best:
            self.best = value
        # every repeat drops by _drop(value) <= 0, so is quiet, unless that is NaN (inf - inf)
        self.converged = self.quiet >= divopt._PATIENCE or (
            fixed_point and self._drop(value) < divopt._TOLERANCE
            and self.rounds + divopt._PATIENCE - self.quiet <= divopt._BISECTION_CAP)
        return self.converged or fixed_point or self.rounds >= divopt._BISECTION_CAP


def pairwise_min_one_pair(ball_first: DistortionBall, ball_second: DistortionBall) -> PairMinResult:
    """`pairwise_min_divergence` on one pair of balls above two symbols, run
    alone: each round one first block of one row and one public reach
    solve, stopped by the pair's own `RunningMinimum`."""
    q1, q2 = ball_first.center.probs, ball_second.center.probs
    rule, best_pair = RunningMinimum(float(_kl_rows(q1, q2))), (q1, q2)
    blocks_converged, total_iters, done = True, 0, False
    while not done:
        q1, first_ok, it1 = first_block_one_row(q2, ball_first)
        inner = min_divergence_to_ball(q1, ball_second)
        total_iters += 1 + it1 + inner.iterations
        blocks_converged &= first_ok and inner.converged
        start, q2 = q2, inner.argmin.probs
        if inner.value <= rule.best:
            best_pair = (q1, q2)
        done = rule.stop(inner.value, np.array_equal(q2, start))
    return PairMinResult(max(rule.best, 0.0), Distribution(best_pair[0]), Distribution(best_pair[1]),
                         rule.converged and blocks_converged, total_iters)


def pairwise_min_full_patience(ball_first: DistortionBall,
                               ball_second: DistortionBall) -> PairMinResult:
    """`pairwise_min_divergence` for alphabets above two symbols, with the
    rounds stopping only on `divopt._PATIENCE` quiet rounds in a row or on
    the round cap, never at a fixed point."""
    q1, q2 = ball_first.center.probs, ball_second.center.probs
    best, best_pair = float(_kl_rows(q1, q2)), (q1, q2)
    quiet, converged, blocks_converged, total_iters = 0, False, True, 0
    for _ in range(divopt._BISECTION_CAP):
        q1, first_ok, it1 = first_block_one_row(q2, ball_first)
        inner = min_divergence_to_ball(q1, ball_second)
        q2 = inner.argmin.probs
        total_iters += 1 + it1 + inner.iterations
        blocks_converged &= first_ok and inner.converged
        value = inner.value
        rel = (best - value) / max(abs(best), 1e-300)
        if value <= best:
            best, best_pair = value, (q1, q2)
        quiet = quiet + 1 if rel < divopt._TOLERANCE else 0
        if quiet >= divopt._PATIENCE:
            converged = True
            break
    return PairMinResult(max(best, 0.0), Distribution(best_pair[0]), Distribution(best_pair[1]),
                         converged and blocks_converged, total_iters)


def _geometric_step(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """B(x, y) = -log sum(sqrt(x y)), never below zero, and the q that
    minimizes D(q || x) + D(q || y), the normalized sqrt(x y). Disjoint
    supports give B = +inf and, as q, their mixture."""
    root = np.sqrt(x * y)
    coeff = float(root.sum())
    if coeff == 0.0:
        return math.inf, 0.5 * (x + y)
    return max(0.0, -math.log(coeff)), root / coeff


def bhattacharyya_full_patience(ball_a: DistortionBall, ball_b: DistortionBall) -> float:
    """Smallest Bhattacharyya distance between laws of two balls, for
    alphabets above two symbols.

    Minimizes D(q || x) + D(q || y), which is 2 B(x, y) at its best q and
    jointly convex in (q, x, y), one exact block at a time (Csiszar &
    Tusnady): x and y are the reaches of q, and q is the normalized
    sqrt(x y). From the centers on, each cycle runs two such rounds and
    extrapolates log q along them (SQUAREM, Varadhan & Roland 2008), so
    that nearly touching balls do not creep; the extrapolated round is
    kept only if it does better. The value is B at feasible laws, so never
    below the true minimum. The cycles stop only on `divopt._PATIENCE`
    quiet cycles in a row; the cycle cap, or a reach block's own, raises
    ResourceError.
    """

    def advance(q: np.ndarray) -> tuple[float, np.ndarray]:
        reaches = [min_divergence_to_ball(q, ball) for ball in (ball_a, ball_b)]
        if not all(r.converged for r in reaches):
            raise ResourceError("a reach block of the Bhattacharyya alternation hit its cap")
        return _geometric_step(*(r.argmin.probs for r in reaches))

    best, q = _geometric_step(ball_a.center.probs, ball_b.center.probs)
    quiet = 0
    for _ in range(divopt._BISECTION_CAP):
        _, q1 = advance(q)
        value, q2 = advance(q1)
        if value == math.inf:
            return value
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log([q, q1, q2])
            step, bend = logs[1] - logs[0], logs[2] - 2.0 * logs[1] + logs[0]
            step_norm, bend_norm = np.linalg.norm(step), np.linalg.norm(bend)
        if step_norm > bend_norm > 0.0:
            alpha = step_norm / bend_norm
            t = logs[0] + 2.0 * alpha * step + alpha * alpha * bend
            e = np.exp(t - t.max())
            trial, q3 = advance(e / e.sum())
            if trial <= value:
                value, q2 = trial, q3
        q = q2
        rel = (best - value) / max(abs(best), 1e-300)
        best = min(best, value)
        quiet = quiet + 1 if rel < divopt._TOLERANCE else 0
        if quiet >= divopt._PATIENCE:
            return best
    raise ResourceError("Bhattacharyya alternation still moving after the cycle cap")


# Relative margin taken off the separation: the alternation's B can sit
# above the true minimum by its tolerance.
HORIZON_MARGIN = 1e-9


@functools.lru_cache(maxsize=8)
def separation(spec: GameSpec) -> float:
    """The Bhattacharyya separation of a game: the smallest Bhattacharyya
    distance between laws of two different balls. Binary games take the
    facing ends of their intervals, the argmins of `spec.pairwise_minima`;
    larger alphabets `bhattacharyya_full_patience` over every pair."""
    if spec.alphabet_size == 2:
        return min(bhattacharyya(r.argmin_first, r.argmin_second)
                   for r in spec.pairwise_minima.values())
    balls = spec.balls
    return min(bhattacharyya_full_patience(balls[i], balls[j])
               for i in range(len(balls)) for j in range(i + 1, len(balls)))


def stopping_horizon(spec: GameSpec, alpha: float, stride: int) -> int:
    """N_B: the first multiple of `stride` at which the aware test's
    threshold is at most the separation B, less `HORIZON_MARGIN` relative.

    If the test has not stopped at step n, with empirical law t, every
    hypothesis has a rival ball within gamma(n) of t. Take the hypothesis
    whose own ball j is nearest t and such a rival k, with reaches x and y:
    2 B <= 2 B(x, y) <= D(t || x) + D(t || y) < 2 gamma(n). So every run
    stops by N_B, for any number of hypotheses and symbols. The threshold
    falls with n, so the qualifying steps are the multiples from N_B on,
    and a bisection finds the first.
    """
    schedule = ThresholdSchedule(alpha, spec.num_hypotheses, spec.alphabet_size)
    bound = separation(spec) * (1.0 - HORIZON_MARGIN)
    below, above = 0, 1  # in strides; the first qualifying one lies in (below, above]
    while schedule.value(above * stride) > bound:
        below, above = above, 2 * above
    while above - below > 1:
        mid = (below + above) // 2
        if schedule.value(mid * stride) > bound:
            below = mid
        else:
            above = mid
    return above * stride
