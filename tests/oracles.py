"""Brute-force oracles for the tests: lattice searches over balls and
binary channels, a pattern descent on the simplex, and the aware and
common-channel tests fed one symbol at a time.

They are independent of the solvers in `seqgame.divopt`, of the chunked
loop of `seqgame.seqtest.run_aware` and of the bounded, stride-reading loop
of `seqgame.seqtest.run_nonaware`, and exist only to check them.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np
from scipy.special import xlogy

from seqgame.divopt import (
    DistortionBall,
    SolverOptions,
    _converged_value,
    min_divergence_over_common_channels,
    min_max_divergence_over_channel,
)
from seqgame.equilibrium import GameSpec
from seqgame.errors import DomainError, InfeasibleError, ResourceError, StreamExhaustedError
from seqgame.prob import Channel, Distribution, DistortionMeasure, empirical_distribution
from seqgame.seqtest import (
    AwareTestState,
    NonAwareTestState,
    TestOutcome,
    ThresholdSchedule,
    TrajectoryRow,
    _check_symbol,
    _nonaware_decide,
    evidence_statistics,
)


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


def run_aware_stepwise(stream: Iterable[int], schedule: ThresholdSchedule, spec: GameSpec,
                       options: SolverOptions | None = None, cap: int = 1_000_000,
                       stride: int = 1, record_trajectory: bool = False) -> TestOutcome:
    """The universal test fed one symbol at a time, one evidence call per
    evaluated step: the loop `run_aware` ran before it read chunks."""
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    state = AwareTestState.fresh(spec.alphabet_size)
    rows: list[TrajectoryRow] = []
    it = iter(stream)
    while state.num_samples < cap:
        try:
            symbol = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"stream ended after {state.num_samples} symbols with no decision"
            ) from None
        sym = _check_symbol(symbol, spec.alphabet_size)
        state.counts[sym] += 1
        state.num_samples += 1
        n = state.num_samples
        if n % stride and n < cap:
            continue
        z = evidence_statistics(state.counts, spec, options)
        state.statistics = z
        gamma = schedule.value(n)
        hits = np.flatnonzero(z >= gamma)
        decision = int(hits[0]) if hits.size else None
        if record_trajectory:
            rows.append(TrajectoryRow(n, gamma, tuple(z), decision is not None, decision))
        if decision is not None:
            state.stopped = (n, decision)
            return TestOutcome(n, decision, False, tuple(rows) if record_trajectory else None)
    return TestOutcome(cap, None, True, tuple(rows) if record_trajectory else None)


def _branch_statistics(qhat: Distribution, p0: Distribution, p1: Distribution, delta: float,
                       measure: DistortionMeasure,
                       options: SolverOptions | None) -> np.ndarray:
    """Evidence for each hypothesis: the divergence from qhat to everything
    a common channel can make of the rival law."""
    return np.array([
        _converged_value(min_divergence_over_common_channels(
            qhat, 1 - b, p0, p1, delta, measure, options))
        for b in (0, 1)
    ])


def run_nonaware_stepwise(stream: Iterable[int], schedule: ThresholdSchedule,
                          p0: Distribution, p1: Distribution, delta: float,
                          measure: DistortionMeasure, options: SolverOptions | None = None,
                          cap: int = 1_000_000, stride: int = 1,
                          record_trajectory: bool = False) -> TestOutcome:
    """The common-channel test fed one symbol at a time, with the full
    channel min-max solve at every evaluated step: the loop `run_nonaware`
    ran before it screened steps with the duality bounds."""
    if schedule.num_hypotheses != 2:
        raise DomainError("the common-channel test is defined for two hypotheses")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    state = NonAwareTestState.fresh()
    rows: list[TrajectoryRow] = []
    it = iter(stream)

    while state.num_samples < cap:
        try:
            symbol = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"stream ended after {state.num_samples} symbols with no decision"
            ) from None
        sym = _check_symbol(symbol, 2)
        state.counts[sym] += 1
        state.num_samples += 1
        n = state.num_samples
        if n % stride and n < cap:
            continue
        qhat = empirical_distribution(state.counts)
        s_stat = _converged_value(
            min_max_divergence_over_channel(qhat, p0, p1, delta, measure, options))
        state.minmax_statistic = s_stat
        gamma = schedule.value(n)
        if s_stat >= gamma:
            branch = _branch_statistics(qhat, p0, p1, delta, measure, options)
            state.branch_statistics = branch
            decision = _nonaware_decide(branch, gamma)
            state.stopped = (n, decision)
            if record_trajectory:
                rows.append(TrajectoryRow(n, gamma, tuple(branch), True, decision))
            return TestOutcome(n, decision, False, tuple(rows) if record_trajectory else None)
        if record_trajectory:
            branch = _branch_statistics(qhat, p0, p1, delta, measure, options)
            rows.append(TrajectoryRow(n, gamma, tuple(branch), False, None))
    return TestOutcome(cap, None, True, tuple(rows) if record_trajectory else None)
