"""Monte Carlo harness: perturbed sampling, replications, and alpha sweeps.

Each replication draws its randomness from a substream keyed by
(seed, alpha index, hypothesis, replication index), so results do not
depend on execution order and any single run can be reproduced in
isolation. Binary alphabets run on a vectorized engine that matches the
step-by-step test outcome for outcome.
"""

from __future__ import annotations

import math
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

    def simulated_hypotheses(self) -> tuple[int, ...]:
        if self.true_hypothesis is not None:
            return (self.true_hypothesis,)
        return tuple(range(self.spec.num_hypotheses))


def sample_through_channel(source: Distribution, channel: Channel,
                           rng: np.random.Generator) -> int:
    """Draw one input symbol from `source`, then the output through the
    channel row it selects. Consumes exactly two uniforms."""
    if source.size != channel.num_inputs:
        raise ShapeError("source alphabet does not match the channel input")
    u = rng.random(2)
    cums_in = np.cumsum(source.probs)
    x = min(int(np.searchsorted(cums_in, u[0], side="right")), source.size - 1)
    cums_row = np.cumsum(channel.rows[x])
    return min(int(np.searchsorted(cums_row, u[1], side="right")), channel.num_outputs - 1)


def _channel_stream(source: Distribution, channel: Channel,
                    rng: np.random.Generator) -> Iterator[int]:
    while True:
        yield sample_through_channel(source, channel, rng)


class _ThresholdBuffer:
    """Threshold values 1..n from the scalar formula, grown on demand.

    Keeping one scalar source of truth means the vectorized engine and the
    step-by-step test compare against bit-identical thresholds.
    """

    def __init__(self, schedule: ThresholdSchedule) -> None:
        self.schedule = schedule
        self._values = np.empty(0)

    def upto(self, n: int) -> np.ndarray:
        cur = self._values
        if cur.size < n:
            new_len = max(8192, 2 * cur.size, n)
            ext = np.array(
                [self.schedule.value(k) for k in range(cur.size + 1, new_len + 1)]
            )
            cur = np.concatenate([cur, ext])
            self._values = cur
        return cur


_threshold_buffers: dict[ThresholdSchedule, _ThresholdBuffer] = {}


def _buffer_for(schedule: ThresholdSchedule) -> _ThresholdBuffer:
    return _threshold_buffers.setdefault(schedule, _ThresholdBuffer(schedule))


def _clamp_divergence(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Divergence from Bernoulli(t) to its clamp onto [lo, hi], elementwise."""
    tc = np.clip(t, lo, hi)
    val = xlogy(t, t / tc) + xlogy(1.0 - t, (1.0 - t) / (1.0 - tc))
    return np.where(tc == t, 0.0, val)


def _run_fast_binary(rng: np.random.Generator, source: Distribution, channel: Channel,
                     spec: GameSpec, schedule: ThresholdSchedule,
                     cap: int, stride: int) -> TestOutcome:
    """Blockwise engine for binary alphabets.

    Consumes the same uniform stream as sample_through_channel and applies
    the same clamp formula as the ball solver, so outcomes match the
    step-by-step path exactly.
    """
    cums_in = np.cumsum(source.probs)
    cums_rows = np.cumsum(channel.rows, axis=1)
    lo0, hi0 = spec.balls[0].interval
    lo1, hi1 = spec.balls[1].interval
    gammas = _buffer_for(schedule)
    count0 = 0
    done = 0
    while done < cap:
        block = min(_BLOCK, cap - done)
        u = rng.random((block, 2))
        x = np.minimum(np.searchsorted(cums_in, u[:, 0], side="right"), 1)
        rows = cums_rows[x]
        y = np.minimum((rows <= u[:, 1, None]).sum(axis=1), 1)
        zeros = np.cumsum(y == 0)
        n = done + np.arange(1, block + 1)
        evals = np.flatnonzero((n % stride == 0) | (n == cap))
        if evals.size:
            ne = n[evals]
            t = (count0 + zeros[evals]) / ne
            z0 = _clamp_divergence(t, lo1, hi1)
            z1 = _clamp_divergence(t, lo0, hi0)
            gam = gammas.upto(int(ne[-1]))[ne - 1]
            hit0 = z0 >= gam
            hit1 = z1 >= gam
            idx = np.flatnonzero(hit0 | hit1)
            if idx.size:
                k = int(idx[0])
                decision = 0 if hit0[k] else 1
                return TestOutcome(int(ne[k]), decision, False, None)
        count0 += int(zeros[-1])
        done += block
    return TestOutcome(cap, None, True, None)


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
    schedule = config.schedule_for(alpha)
    source = config.spec.hypotheses[hypothesis]
    channel = config.channels[hypothesis]
    if config.spec.alphabet_size == 2:
        return _run_fast_binary(rng, source, channel, config.spec, schedule,
                                config.cap, config.stride)
    stream = _channel_stream(source, channel, rng)
    return run_aware(stream, schedule, config.spec, cap=config.cap, stride=config.stride)


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
