"""Monte Carlo harness: perturbed sampling, replications, and alpha sweeps.

Each replication draws its randomness from a substream keyed by
(seed, alpha index, hypothesis, replication index), so results do not
depend on execution order and any single run can be reproduced in
isolation. Binary alphabets run on a vectorized engine that stops on
integer boundaries for the count of zeros, held per scenario and alpha,
and matches the step-by-step test outcome for outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy.special import xlogy

from .divopt import _FEASIBILITY_SLACK
from .equilibrium import EquilibriumSolution, GameSpec, solve_aware_equilibrium
from .errors import DomainError, InfeasibleError, ShapeError
from .prob import Channel, Distribution
from .seqtest import TestOutcome, ThresholdSchedule, run_aware

__all__ = [
    "EQUILIBRIUM_ADVERSARY",
    "ScenarioConfig",
    "ReportRow",
    "SimulationReport",
    "sample_through_channel",
    "run_replication",
    "monte_carlo",
    "alpha_sweep",
]

EQUILIBRIUM_ADVERSARY = "equilibrium"

_BLOCK = 4096
# spacing of the exactly searched steps that seed the boundary search
_KNOT_SPACING = 128

REPORT_COLUMNS = (
    "alpha", "log_inv_alpha", "hypothesis", "mean_T", "std_T", "stderr_T",
    "payoff_estimate", "theoretical_exponent", "error_rate", "timeouts",
    "replications",
)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One simulation campaign.

    adversary is either the string "equilibrium" (channels solved from the
    game), a single Channel applied under every hypothesis, or one Channel
    per hypothesis. true_hypothesis None means every hypothesis is simulated
    in turn.
    """

    spec: GameSpec
    alpha_grid: tuple[float, ...]
    replications: int
    seed: int
    adversary: str | Channel | tuple[Channel, ...] = EQUILIBRIUM_ADVERSARY
    cap: int = 1_000_000
    stride: int = 1
    zeta: float = 0.85
    true_hypothesis: int | None = None

    def __post_init__(self) -> None:
        grid = tuple(float(a) for a in self.alpha_grid)
        if not grid:
            raise DomainError("alpha_grid must not be empty")
        if any(not 0.0 < a < 1.0 for a in grid):
            raise DomainError("alpha values must lie in (0, 1)")
        object.__setattr__(self, "alpha_grid", grid)
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if self.cap < 1 or self.stride < 1:
            raise DomainError("cap and stride must be >= 1")
        if not 0.0 < self.zeta < 1.0:
            raise DomainError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.true_hypothesis is not None and not (
            0 <= self.true_hypothesis < self.spec.num_hypotheses
        ):
            raise DomainError(f"true_hypothesis {self.true_hypothesis} out of range")
        adv = self.adversary
        if isinstance(adv, str):
            if adv != EQUILIBRIUM_ADVERSARY:
                raise DomainError(f"unknown adversary marker {adv!r}")
        elif isinstance(adv, Channel):
            self._check_channel(adv, range(self.spec.num_hypotheses))
        else:
            adv = tuple(adv)
            if len(adv) != self.spec.num_hypotheses:
                raise ShapeError("need one adversary channel per hypothesis")
            for i, ch in enumerate(adv):
                self._check_channel(ch, (i,))
            object.__setattr__(self, "adversary", adv)

    def _check_channel(self, channel: Channel, holders) -> None:
        k = self.spec.alphabet_size
        if channel.num_inputs != k or channel.num_outputs != k:
            raise ShapeError(f"adversary channel must be {k}x{k}")
        for i in holders:
            p = self.spec.hypotheses[i]
            out = p.probs @ channel.rows
            dist = self.spec.measure.evaluate(p.probs, out)
            if dist > self.spec.delta + _FEASIBILITY_SLACK:
                raise InfeasibleError(
                    f"channel distorts hypothesis {i} by {dist:.6g}, "
                    f"budget {self.spec.delta}"
                )

    @cached_property
    def solution(self) -> EquilibriumSolution:
        return solve_aware_equilibrium(self.spec)

    @cached_property
    def channels(self) -> tuple[Channel, ...]:
        """The channel actually applied under each hypothesis."""
        adv = self.adversary
        if isinstance(adv, str):
            return self.solution.witness_channels
        if isinstance(adv, Channel):
            return (adv,) * self.spec.num_hypotheses
        return adv

    def alpha_index(self, alpha: float) -> int:
        try:
            return self.alpha_grid.index(float(alpha))
        except ValueError:
            raise DomainError(f"alpha {alpha} is not on the configured grid") from None

    def schedule_for(self, alpha: float) -> ThresholdSchedule:
        return ThresholdSchedule(
            alpha=float(alpha),
            num_hypotheses=self.spec.num_hypotheses,
            alphabet_size=self.spec.alphabet_size,
            zeta=self.zeta,
        )

    @cached_property
    def _schedules(self) -> tuple[ThresholdSchedule, ...]:
        return tuple(self.schedule_for(alpha) for alpha in self.alpha_grid)

    @cached_property
    def _boundary_tables(self) -> tuple["_BoundaryTable", ...]:
        """Stopping boundaries of the binary engine, one table per alpha;
        each stays empty until replications reach its blocks."""
        intervals = tuple(ball.interval for ball in self.spec.balls)
        return tuple(_BoundaryTable(s, intervals, self.cap, self.stride)
                     for s in self._schedules)

    def simulated_hypotheses(self) -> tuple[int, ...]:
        if self.true_hypothesis is not None:
            return (self.true_hypothesis,)
        return tuple(range(self.spec.num_hypotheses))


def sample_through_channel(source: Distribution, channel: Channel,
                           rng: np.random.Generator, size: int | None = None) -> int | np.ndarray:
    """Draw one input symbol from `source`, then the output through the
    channel row it selects. Consumes exactly two uniforms per symbol.

    The single draw reads the cached running sums of the source and of the
    channel rows once, and maps its two uniforms with `bisect_right`,
    capped at the last symbol. With `size`, draws that many symbols as an
    integer array from the same uniforms in the same order as `size` single
    draws, and gives the same symbols.
    """
    cumulative, rows = source.cumulative, channel.cumulative_rows
    if len(cumulative) != len(rows):
        raise ShapeError("source alphabet does not match the channel input")
    if size is None:
        u0, u1 = rng.random(2).tolist()
        row = rows[min(bisect_right(cumulative, u0), len(cumulative) - 1)]
        return min(bisect_right(row, u1), len(row) - 1)
    u = rng.random((size, 2))
    x = np.minimum(np.searchsorted(source.cumulative, u[:, 0], side="right"), source.size - 1)
    y = np.empty(size, dtype=np.int64)
    for a, cumulative in enumerate(channel.cumulative_rows):
        sel = x == a
        y[sel] = np.searchsorted(cumulative, u[sel, 1], side="right")
    return np.minimum(y, channel.num_outputs - 1)


def _channel_stream(source: Distribution, channel: Channel,
                    rng: np.random.Generator) -> Iterator[int]:
    """Symbols through the channel, drawn in blocks of 256 that double up
    to _BLOCK."""
    size = 256
    while True:
        yield from sample_through_channel(source, channel, rng, size).tolist()
        size = min(2 * size, _BLOCK)


def _clamp_divergence(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Divergence from Bernoulli(t) to its clamp onto [lo, hi], elementwise."""
    tc = np.clip(t, lo, hi)
    # where the clamp is exact, a zero end gives 0/0; np.where drops it
    with np.errstate(divide="ignore", invalid="ignore"):
        val = xlogy(t, t / tc) + xlogy(1.0 - t, (1.0 - t) / (1.0 - tc))
    return np.where(tc == t, 0.0, val)


def _last_true(holds, steps: np.ndarray) -> np.ndarray:
    """For each n in the 2-D array `steps`, the largest c in [-1, n] where
    holds(c, i) is true, i being the flat position of n in `steps`; holds
    must be true then false over c = 0..n, and c = -1 counts as true and
    c = n + 1 as false.

    Exact answers at every _KNOT_SPACING-th column, interpolated along each
    row, give every entry a guess g, and probes at g + 1, then g + 2 or g,
    settle most entries before the bisection. Every probe narrows the
    search whatever it returns, so a poor guess costs passes, never
    exactness.
    """
    a = np.full(steps.size, -1, dtype=np.int64)
    b = steps.ravel() + 1

    def narrow(c: np.ndarray) -> None:
        idx = np.flatnonzero((a < c) & (c < b))
        c = c[idx]
        ok = holds(c, idx)
        a[idx[ok]] = c[ok]
        b[idx[~ok]] = c[~ok]

    width = steps.shape[1]
    if width > _KNOT_SPACING:
        knots = np.unique(np.r_[np.arange(0, width, _KNOT_SPACING), width - 1])
        flat = (np.arange(steps.shape[0])[:, None] * width + knots).ravel()
        exact = _last_true(lambda c, i: holds(c, flat[i]), steps[:, knots])
        cols = np.arange(width)
        guess = np.floor([np.interp(cols, knots, row) for row in exact]).astype(np.int64)
        # most answers are g or g + 1, which two of these probes settle
        for probe in (guess + 1, guess + 2, guess):
            narrow(probe.ravel())
    while True:
        gap = b - a > 1
        if not gap.any():
            return a.reshape(steps.shape)
        narrow(np.where(gap, (a + b) >> 1, -1))


def _count_boundaries(schedule: ThresholdSchedule,
                      intervals: tuple[tuple[float, float], ...],
                      steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stopping boundaries on the count of zeros at the given steps.

    With two symbols the statistic at step n depends only on the count c of
    zeros. The divergence from Bernoulli(c/n) to ball j is convex in c/n
    and zero on the ball's interval, and every threshold is positive, so
    the counts that clear the threshold against ball j are
    {c <= lower[j]} | {c >= upper[j]}, one column per step. The search
    evaluates the float expression of the engine, c/n through the clamp
    divergence against ThresholdSchedule.value(n), so the boundaries decide
    exactly as evaluating it at every count would. Row 2j searches lower[j]
    and row 2j + 1 searches upper[j] - 1.
    """
    rows = 2 * len(intervals)
    n = np.tile(steps, rows)
    gamma = np.tile([schedule.value(k) for k in steps.tolist()], rows)
    lo, hi = (np.repeat(ends, 2 * steps.size) for ends in zip(*intervals))
    side_low = np.tile(np.repeat([True, False], steps.size), len(intervals))

    def holds(c, i):
        t = c / n[i]
        d = _clamp_divergence(t, lo[i], hi[i])
        return np.where(side_low[i], (t < lo[i]) & (d >= gamma[i]),
                        (t <= hi[i]) | (d < gamma[i]))

    found = _last_true(holds, n.reshape(rows, steps.size))
    return found[0::2], found[1::2] + 1


class _BoundaryTable:
    """The count boundaries of one alpha at the steps the test evaluates
    (multiples of the stride, and the cap), one entry per engine block,
    computed when a replication first reaches that block."""

    def __init__(self, schedule: ThresholdSchedule,
                 intervals: tuple[tuple[float, float], ...], cap: int, stride: int) -> None:
        self.schedule = schedule
        self.intervals = intervals
        self.cap = cap
        self.stride = stride
        # upper boundaries reach cap + 1
        self.dtype = np.int32 if cap < 2**31 - 1 else np.int64
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def block(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns of the evaluated steps within block `index` (column j is
        step index*_BLOCK + 1 + j), and the lower and upper boundaries there."""
        while len(self.blocks) <= index:
            first = len(self.blocks) * _BLOCK + 1
            last = min(first + _BLOCK - 1, self.cap)
            steps = np.arange(-(-first // self.stride) * self.stride, last + 1, self.stride)
            if last == self.cap and self.cap % self.stride:
                steps = np.append(steps, self.cap)
            lower, upper = _count_boundaries(self.schedule, self.intervals, steps)
            self.blocks.append((steps - first, lower.astype(self.dtype),
                                upper.astype(self.dtype)))
        return self.blocks[index]


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


def _run_fast_binary(rng: np.random.Generator, source: Distribution, channel: Channel,
                     table: _BoundaryTable) -> TestOutcome:
    """Blockwise engine for binary alphabets.

    Consumes the same uniform stream as sample_through_channel and stops on
    the count boundaries of `table`, so outcomes match the step-by-step
    path exactly.
    """
    cut_in = source.cumulative[0]
    (cut_zero, _), (cut_one, _) = channel.cumulative_rows
    count0 = 0
    done = 0
    while done < table.cap:
        u = rng.random((min(_BLOCK, table.cap - done), 2))
        cols, lower, upper = table.block(done // _BLOCK)
        zeros = np.cumsum(u[:, 1] < np.where(u[:, 0] >= cut_in, cut_one, cut_zero),
                          dtype=lower.dtype)
        zeros += count0
        hit = _first_stop(zeros[cols], lower, upper)
        if hit is not None:
            return TestOutcome(done + 1 + int(cols[hit[0]]), hit[1], False, None)
        done += zeros.size
        count0 = int(zeros[-1])
    return TestOutcome(table.cap, None, True, None)


def run_replication(config: ScenarioConfig, alpha: float, hypothesis: int,
                    replication_index: int) -> TestOutcome:
    """One full sequential run, deterministic in its four coordinates."""
    if not 0 <= hypothesis < config.spec.num_hypotheses:
        raise DomainError(f"hypothesis {hypothesis} out of range")
    if replication_index < 0:
        raise DomainError("replication_index must be nonnegative")
    idx = config.alpha_index(alpha)
    seed_seq = np.random.SeedSequence([config.seed, idx, hypothesis, replication_index])
    rng = np.random.default_rng(seed_seq)
    source = config.spec.hypotheses[hypothesis]
    channel = config.channels[hypothesis]
    if config.spec.alphabet_size == 2:
        return _run_fast_binary(rng, source, channel, config._boundary_tables[idx])
    stream = _channel_stream(source, channel, rng)
    return run_aware(stream, config._schedules[idx], config.spec,
                     cap=config.cap, stride=config.stride)


@dataclass(frozen=True)
class ReportRow:
    alpha: float
    log_inv_alpha: float
    hypothesis: int
    mean_T: float
    std_T: float
    stderr_T: float
    payoff_estimate: float
    theoretical_exponent: float
    error_rate: float
    timeouts: int
    replications: int


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated Monte Carlo results, one row per (alpha, hypothesis)."""

    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for r in self.rows:
            lines.append(",".join((
                format(r.alpha, ".12g"),
                format(r.log_inv_alpha, ".12g"),
                str(r.hypothesis),
                format(r.mean_T, ".12g"),
                format(r.std_T, ".12g"),
                format(r.stderr_T, ".12g"),
                format(r.payoff_estimate, ".12g"),
                format(r.theoretical_exponent, ".12g"),
                format(r.error_rate, ".12g"),
                str(r.timeouts),
                str(r.replications),
            )))
        return "\n".join(lines) + "\n"


def monte_carlo(config: ScenarioConfig) -> SimulationReport:
    """Run every (alpha, hypothesis, replication) cell and aggregate.

    Stopping times exclude timed-out runs, which are tallied separately.
    The error rate counts finished runs that decided wrongly, over all
    replications. The payoff estimate is log(1/alpha) over the mean
    stopping time; theoretical_exponent is the matching equilibrium
    exponent, constant across alpha.
    """
    rows = []
    exponents = config.solution.exponents
    for alpha in config.alpha_grid:
        for hyp in config.simulated_hypotheses():
            times = []
            errors = 0
            timeouts = 0
            for rep in range(config.replications):
                outcome = run_replication(config, alpha, hyp, rep)
                if outcome.timed_out:
                    timeouts += 1
                    continue
                times.append(outcome.stopping_time)
                if outcome.decision != hyp:
                    errors += 1
            n_ok = len(times)
            if n_ok:
                mean_t = float(np.mean(times))
                std_t = float(np.std(times, ddof=1)) if n_ok > 1 else 0.0
                stderr_t = std_t / math.sqrt(n_ok)
                payoff = math.log(1.0 / alpha) / mean_t
            else:
                mean_t = std_t = stderr_t = payoff = math.nan
            rows.append(ReportRow(
                alpha=alpha,
                log_inv_alpha=math.log(1.0 / alpha),
                hypothesis=hyp,
                mean_T=mean_t,
                std_T=std_t,
                stderr_T=stderr_t,
                payoff_estimate=payoff,
                theoretical_exponent=float(exponents[hyp]),
                error_rate=errors / config.replications,
                timeouts=timeouts,
                replications=config.replications,
            ))
    return SimulationReport(tuple(rows))


def alpha_sweep(config: ScenarioConfig, path: str | Path | None = None) -> str:
    """Monte Carlo over the whole alpha grid, rendered as CSV.

    Writes the text to `path` when given and always returns it.
    """
    text = monte_carlo(config).to_csv()
    if path is not None:
        Path(path).write_text(text)
    return text
