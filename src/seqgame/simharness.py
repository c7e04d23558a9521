"""Monte Carlo harness: perturbed sampling, replications, and alpha sweeps.

Each replication draws its randomness from a substream keyed by
(seed, alpha index, hypothesis, replication index), so results do not
depend on execution order and any single run can be reproduced in
isolation. Binary alphabets run on a vectorized engine that stops by the
boundary table `run_aware` reads, held by the schedule of each alpha, so
it matches that test outcome for outcome. Larger alphabets pass all the
replications of an alpha to one `run_aware` call, which runs their
streams in lockstep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np
# numpy loads numpy.random on first use; load it with the package, so that
# no run pays for it inside its first replication
import numpy.random  # noqa: F401

from .equilibrium import EquilibriumSolution, GameSpec, _outputs_within_budget, solve_aware_equilibrium
from .errors import DomainError, ResourceError, ShapeError
from .prob import Channel, Distribution, _check_integers, _floats, _instance, _real
from .seqtest import (_BLOCK, TestOutcome, ThresholdSchedule, _band_stop, _BoundaryTable, _CodeStream,
                      run_aware)

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
        spec = _instance("spec", self.spec, GameSpec)
        grid = tuple(_real("alpha", a, 0.0, 1.0, low_open=True)
                     for a in _floats("alpha_grid", self.alpha_grid).tolist())
        if not grid:
            raise DomainError("alpha_grid must not be empty")
        if len(set(grid)) < len(grid):
            raise DomainError(f"alpha values must be distinct, got {grid}")
        object.__setattr__(self, "alpha_grid", grid)
        _check_integers(1, 2**63, replications=self.replications, cap=self.cap, stride=self.stride)
        _check_integers(seed=self.seed)
        _real("zeta", self.zeta, 0.0, 1.0, low_open=True)
        if self.true_hypothesis is not None:
            _check_integers(0, spec.num_hypotheses, true_hypothesis=self.true_hypothesis)
        adv = _instance("adversary", self.adversary, (str, Channel, tuple, list))
        if isinstance(adv, str):
            if adv != EQUILIBRIUM_ADVERSARY:
                raise DomainError(f"unknown adversary marker {adv!r}")
        else:
            channels = (adv,) * spec.num_hypotheses if isinstance(adv, Channel) else tuple(adv)
            if len(channels) != spec.num_hypotheses:
                raise ShapeError("need one adversary channel per hypothesis")
            _outputs_within_budget(spec.hypotheses, channels, spec.delta, spec.measure)
            object.__setattr__(self, "adversary", adv if isinstance(adv, Channel) else channels)

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
            return self.alpha_grid.index(_real("alpha", alpha, 0.0, 1.0, low_open=True))
        except ValueError:
            raise DomainError(f"alpha {alpha} is not on the configured grid") from None

    def schedule_for(self, alpha: float) -> ThresholdSchedule:
        return ThresholdSchedule(alpha, self.spec.num_hypotheses, self.spec.alphabet_size, self.zeta)

    @cached_property
    def _schedules(self) -> tuple[ThresholdSchedule, ...]:
        return tuple(self.schedule_for(alpha) for alpha in self.alpha_grid)

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
    try:  # the arguments' one check: a draw per symbol pays for no other
        cumulative, rows = source.cumulative, channel.cumulative_rows
        if len(cumulative) != len(rows):
            raise ShapeError("source alphabet does not match the channel input")
        if size is None:
            u0, u1 = rng.random(2).tolist()
            row = rows[min(bisect_right(cumulative, u0), len(cumulative) - 1)]
            return min(bisect_right(row, u1), len(row) - 1)
        _check_integers(0, 2**63, size=size)
        u = rng.random((size, 2))
    except AttributeError:
        raise DomainError("source, channel and rng must be a Distribution, a Channel and a Generator, "
                          f"got {', '.join(type(v).__name__ for v in (source, channel, rng))}") from None
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory for the draw
        raise ResourceError(f"{size} draws do not fit in memory") from None
    x = np.minimum(np.searchsorted(cumulative, u[:, 0], side="right"), len(cumulative) - 1)
    # the running sums never decrease, so counting those <= u1 is the search
    y = (np.asarray(rows)[x] <= u[:, 1:]).sum(axis=1)
    return np.minimum(y, channel.num_outputs - 1)


class _ChannelStream(_CodeStream):
    """Symbols through `channel` from `source`, drawn by `sample_through_channel`
    from a generator that each reading seeds afresh from `entropy` (what
    `default_rng` takes; a Generator is read on from where it stands)."""

    __slots__ = ("source", "channel", "entropy")

    def __init__(self, source: Distribution, channel: Channel, entropy) -> None:
        self.source, self.channel, self.entropy = source, channel, entropy

    def reader(self) -> Callable[[int], np.ndarray]:
        rng = np.random.default_rng(self.entropy)
        # sample_through_channel is looked up at each call, as wrappers put on the module expect
        return lambda size: sample_through_channel(self.source, self.channel, rng, size)


def _run_fast_binary(rng: np.random.Generator, source: Distribution, channel: Channel,
                     table: _BoundaryTable) -> TestOutcome:
    """Blockwise engine for binary alphabets.

    Consumes the same uniform stream as sample_through_channel, counts the
    zeros of each block with one cumulative sum, and stops by the band
    check of the table block it drew, the rule `run_aware` reads, so
    outcomes match `run_aware`'s exactly.
    """
    cut_in = source.cumulative[0]
    # P(output 0 | input 0) and P(output 0 | input 1)
    cuts = np.array([row[0] for row in channel.cumulative_rows])
    count0 = 0
    done = 0
    while done < table.cap:
        u = rng.random((min(_BLOCK, table.cap - done), 2))
        steps, *bounds, pick = table.block(done // _BLOCK)
        inputs = (u[:, 0] >= cut_in).view(np.int8)
        zeros = (u[:, 1] < cuts.take(inputs)).cumsum(dtype=table.dtype)
        if count0:
            zeros += count0
        hit = _band_stop(zeros[pick], *bounds) if steps.size else None
        if hit is not None:
            return TestOutcome(int(steps[hit[0]]), hit[1])
        done += zeros.size
        count0 = int(zeros[-1])
    return TestOutcome(table.cap, None, True)


def _seed_words(*coordinates: int) -> np.ndarray | list[int]:
    """The entropy of a replication's generator: its coordinates as a uint32
    array, which SeedSequence reads into the same pool as the list of ints
    in a quarter of the time, or the list when one needs more than 32 bits."""
    if max(coordinates) < 2**32:
        return np.array(coordinates, dtype=np.uint32)
    return list(coordinates)


def run_replication(config: ScenarioConfig, alpha: float, hypothesis: int | tuple[int, ...],
                    replication_index: int | tuple[int, ...]) -> TestOutcome | tuple[TestOutcome, ...]:
    """One full sequential run, deterministic in its four coordinates.

    Equal-length tuples (or lists) of hypotheses and replication indices
    give a tuple of outcomes at this alpha, entry r equal to the call on
    (hypothesis[r], replication_index[r]). On two symbols the binary engine
    runs them one by one; on more, one `run_aware` call drives their streams
    in lockstep, each stream drawing arrays of symbols from its generator.
    """
    spec = _instance("config", config, ScenarioConfig).spec
    single = not isinstance(hypothesis, (tuple, list))
    hyps = (hypothesis,) if single else hypothesis
    reps = ((replication_index,) if single
            else _instance("replication_index", replication_index, (tuple, list)))
    if len(hyps) != len(reps):
        raise ShapeError(f"{len(hyps)} hypotheses for {len(reps)} replication indices")
    for hyp, rep in zip(hyps, reps):
        _check_integers(0, spec.num_hypotheses, hypothesis=hyp)
        _check_integers(replication_index=rep)
    idx = config.alpha_index(alpha)
    schedule = config._schedules[idx]
    runs = [(spec.hypotheses[hyp], config.channels[hyp], _seed_words(config.seed, idx, hyp, rep))
            for hyp, rep in zip(hyps, reps)]
    if spec.alphabet_size == 2:
        table = schedule._table(tuple(ball.interval for ball in spec.balls), config.cap, config.stride)
        outcomes = tuple(_run_fast_binary(np.random.default_rng(words), source, channel, table)
                         for source, channel, words in runs)
    else:
        streams = tuple(_ChannelStream(*run) for run in runs)
        outcomes = run_aware(streams, schedule, spec, cap=config.cap, stride=config.stride) if streams else ()
    return outcomes[0] if single else outcomes


@dataclass(frozen=True)
class ReportRow:
    """One row of a report: its fields, in order, are the CSV columns."""

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


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated Monte Carlo results, one row per (alpha, hypothesis)."""

    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for r in self.rows:
            cells = (getattr(r, column) for column in REPORT_COLUMNS)
            lines.append(",".join(format(v, ".12g") if isinstance(v, float) else str(v)
                                  for v in cells))
        return "\n".join(lines) + "\n"


def monte_carlo(config: ScenarioConfig) -> SimulationReport:
    """Run every (alpha, hypothesis, replication) cell and aggregate, with
    one `run_replication` call per alpha.

    Stopping times exclude timed-out runs, which are tallied separately.
    The error rate counts finished runs that decided wrongly, over all
    replications. The payoff estimate is log(1/alpha) over the mean
    stopping time; theoretical_exponent is the matching equilibrium
    exponent, constant across alpha.
    """
    rows = []
    exponents = _instance("config", config, ScenarioConfig).solution.exponents
    hyps, count = config.simulated_hypotheses(), config.replications
    for alpha in config.alpha_grid:
        # every cell of this alpha in one call, hypothesis by hypothesis
        outcomes = run_replication(config, alpha, tuple(h for h in hyps for _ in range(count)),
                                   tuple(range(count)) * len(hyps))
        for k, hyp in enumerate(hyps):
            times = []
            errors = 0
            timeouts = 0
            for outcome in outcomes[k * count:(k + 1) * count]:
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


def alpha_sweep(config: ScenarioConfig) -> str:
    """Monte Carlo over the whole alpha grid, rendered as CSV."""
    return monte_carlo(config).to_csv()
