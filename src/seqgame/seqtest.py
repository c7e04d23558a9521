"""Sequential decision procedures.

The universal test tracks, for each hypothesis, the divergence from the
running empirical distribution to the nearest rival reachable set, and
stops when any such statistic clears a shrinking threshold. A variant for
the common-channel adversary and a classical likelihood-ratio baseline
share the same outcome type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.special import gammaincc, gammaln

from .divopt import (
    SolverOptions,
    _converged_value,
    min_divergence_over_common_channels,
    min_divergence_to_ball,
    min_max_divergence_over_channel,
)
from .equilibrium import GameSpec
from .errors import (
    ConstructionError,
    DomainError,
    ResourceError,
    ShapeError,
    StateError,
    StreamExhaustedError,
)
from .prob import Distribution, DistortionMeasure, empirical_distribution

__all__ = [
    "threshold_constant",
    "ThresholdSchedule",
    "AwareTestState",
    "NonAwareTestState",
    "TestOutcome",
    "TrajectoryRow",
    "trajectory_csv",
    "evidence_statistics",
    "step_aware",
    "run_aware",
    "step_nonaware",
    "run_nonaware",
    "MsprtConfig",
    "run_msprt",
]

_MAX_TERMS = 1 << 30


def _tail_integral(a: float, s: float) -> float:
    """Integral of exp(-x^s) from a to infinity, via u = x^s."""
    log_gamma = gammaln(1.0 / s)
    if log_gamma > 700.0:
        raise ResourceError(f"tail certificate overflows for decay exponent {s}")
    return math.exp(log_gamma) * float(gammaincc(1.0 / s, a**s)) / s


@lru_cache(maxsize=None)
def threshold_constant(zeta: float, abs_tol: float = 1e-9) -> float:
    """Sum of exp(-n^(1-zeta)) over n >= 1, certified to within abs_tol.

    Partial sum plus an integral bracket on the tail. The summand is
    decreasing and convex, so the midpoint rule bounds the tail from above
    and the right-endpoint rule with a trapezoid correction from below; the
    truncation point doubles until the bracket is tighter than abs_tol and
    the bracket midpoint is taken.
    """
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"zeta must lie in (0, 1), got {zeta}")
    if abs_tol <= 0.0:
        raise DomainError("abs_tol must be positive")
    s = 1.0 - zeta
    chunk_sums: list[float] = []
    covered = 0
    target = 1 << 13
    while True:
        while covered < target:
            stop = min(covered + (1 << 20), target)
            grid = np.arange(covered + 1, stop + 1, dtype=float)
            chunk_sums.append(math.fsum(np.exp(-(grid**s))))
            covered = stop
        f_next = math.exp(-float(covered + 1) ** s)
        lower = _tail_integral(covered + 1.0, s) + 0.5 * f_next
        upper = _tail_integral(covered + 0.5, s)
        if upper - lower <= abs_tol:
            return math.fsum(chunk_sums) + 0.5 * (lower + upper)
        if target >= _MAX_TERMS:
            raise ResourceError(
                f"tail bracket still {upper - lower:.3e} wide after {target} terms"
            )
        target <<= 1


@dataclass(frozen=True)
class ThresholdSchedule:
    """The shrinking stopping threshold of the universal test.

    value(n) = log(constant/alpha)/n + n^(-zeta)
               + (alphabet_size*log(n+1) + log(num_hypotheses-1))/n.

    The constant is the certified series sum for the given zeta; it is
    computed once per schedule and cached across schedules.
    """

    alpha: float
    num_hypotheses: int
    alphabet_size: int
    zeta: float = 0.85
    constant: float = 0.0
    constant_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.num_hypotheses < 2:
            raise DomainError("need at least two hypotheses")
        if self.alphabet_size < 2:
            raise DomainError("alphabet must have at least two symbols")
        if not 0.0 < self.zeta < 1.0:
            raise DomainError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.constant == 0.0:
            object.__setattr__(
                self, "constant", threshold_constant(self.zeta, self.constant_tolerance)
            )
        if not (math.isfinite(self.constant) and self.constant > 0.0):
            raise ConstructionError(f"constant must be positive, got {self.constant}")
        # the two logarithms that do not depend on n, computed once
        object.__setattr__(self, "_log_ratio", math.log(self.constant / self.alpha))
        object.__setattr__(self, "_log_rivals", math.log(self.num_hypotheses - 1.0))

    def value(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"threshold is defined for n >= 1, got {n}")
        extra = self.alphabet_size * math.log(n + 1.0) + self._log_rivals
        return self._log_ratio / n + n ** (-self.zeta) + extra / n

    def values(self, n_max: int) -> np.ndarray:
        """Thresholds at n = 1..n_max as one vector."""
        if n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {n_max}")
        n = np.arange(1, n_max + 1, dtype=float)
        extra = self.alphabet_size * np.log(n + 1.0) + self._log_rivals
        return self._log_ratio / n + n ** (-self.zeta) + extra / n


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    threshold: float
    statistics: tuple[float, ...]
    stopped: bool
    decision: int | None


@dataclass(frozen=True)
class TestOutcome:
    """Result of one sequential run.

    A timed-out run carries decision None; stopping_time is then the cap,
    not a stopping time in the formal sense.
    """

    stopping_time: int
    decision: int | None
    timed_out: bool = False
    trajectory: tuple[TrajectoryRow, ...] | None = None


def trajectory_csv(trajectory: Iterable[TrajectoryRow]) -> str:
    """Render recorded rows as CSV: step, threshold, statistics, stop flag."""
    rows = list(trajectory)
    if not rows:
        raise DomainError("nothing recorded")
    width = len(rows[0].statistics)
    header = "n,gamma_n," + ",".join(f"z_{i}" for i in range(width)) + ",stopped_flag,decision"
    lines = [header]
    for row in rows:
        stats = ",".join(format(v, ".12g") for v in row.statistics)
        decision = "" if row.decision is None else str(row.decision)
        lines.append(
            f"{row.step},{format(row.threshold, '.12g')},{stats},{int(row.stopped)},{decision}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class AwareTestState:
    """Mutable per-run state: symbol tallies and the current statistics."""

    counts: np.ndarray
    num_samples: int = 0
    statistics: np.ndarray | None = None
    stopped: tuple[int, int] | None = None

    @classmethod
    def fresh(cls, alphabet_size: int) -> "AwareTestState":
        return cls(np.zeros(alphabet_size, dtype=np.int64))


def evidence_statistics(counts: np.ndarray, spec: GameSpec,
                        options: SolverOptions | None = None) -> np.ndarray:
    """Per-hypothesis evidence: distance from the empirical law to the
    nearest rival reachable set.

    statistic[i] = min over j != i of the divergence from the empirical
    distribution of `counts` to ball j. Zero whenever the empirical law is
    inside some rival ball.
    """
    qhat = empirical_distribution(counts)
    dists = np.array(
        [min_divergence_to_ball(qhat, ball, options).value for ball in spec.balls]
    )
    order = np.argsort(dists, kind="stable")
    smallest, second = dists[order[0]], dists[order[1]]
    out = np.full(spec.num_hypotheses, smallest)
    out[order[0]] = second
    return out


def _check_symbol(symbol: int, alphabet_size: int) -> int:
    sym = int(symbol)
    if not 0 <= sym < alphabet_size:
        raise DomainError(f"symbol {symbol} outside alphabet of size {alphabet_size}")
    return sym


def step_aware(state: AwareTestState, symbol: int, schedule: ThresholdSchedule,
               spec: GameSpec, options: SolverOptions | None = None) -> int | None:
    """Feed one symbol; return the decided hypothesis or None to continue.

    The first statistic to clear the threshold stops the run; if several
    clear it at the same step the smallest index wins.
    """
    if state.stopped is not None:
        raise StateError(f"test already stopped at {state.stopped}")
    sym = _check_symbol(symbol, spec.alphabet_size)
    state.counts[sym] += 1
    state.num_samples += 1
    z = evidence_statistics(state.counts, spec, options)
    state.statistics = z
    hits = np.flatnonzero(z >= schedule.value(state.num_samples))
    if hits.size == 0:
        return None
    decision = int(hits[0])
    state.stopped = (state.num_samples, decision)
    return decision


def run_aware(stream: Iterable[int], schedule: ThresholdSchedule, spec: GameSpec,
              options: SolverOptions | None = None, cap: int = 1_000_000,
              stride: int = 1, record_trajectory: bool = False) -> TestOutcome:
    """Run the universal test on a symbol stream until it stops.

    The stopping condition is evaluated every `stride` samples (and at the
    cap), trading at most stride-1 extra samples for speed. Reaching the cap
    yields a timed-out outcome; an exhausted stream is an error because no
    decision of any kind was reached.
    """
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


# ---------------------------------------------------------------------------
# Common-channel (non-aware adversary) test, binary hypotheses


@dataclass
class NonAwareTestState:
    """State of the common-channel test: tallies plus the latest statistics.

    minmax_statistic drives stopping; branch_statistics[b] is the evidence
    for hypothesis b (divergence to everything a common channel can produce
    from the rival) and drives the decision.
    """

    counts: np.ndarray
    num_samples: int = 0
    minmax_statistic: float | None = None
    branch_statistics: np.ndarray | None = None
    stopped: tuple[int, int] | None = None

    @classmethod
    def fresh(cls) -> "NonAwareTestState":
        return cls(np.zeros(2, dtype=np.int64))


def _nonaware_decide(branch: np.ndarray, gamma: float) -> int:
    """Branch whose evidence clears gamma; conflicts fall back to the larger
    statistic and then the smaller index."""
    hold = branch >= gamma
    if hold[0] != hold[1]:
        return 0 if hold[0] else 1
    return 0 if branch[0] >= branch[1] else 1


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


def step_nonaware(state: NonAwareTestState, symbol: int, schedule: ThresholdSchedule,
                  p0: Distribution, p1: Distribution, delta: float,
                  measure: DistortionMeasure,
                  options: SolverOptions | None = None) -> int | None:
    """One step of the binary common-channel test.

    Stops when the channel min-max statistic clears the threshold; the
    decision then comes from the per-branch statistics. A channel solve that
    hit its iteration cap raises ResourceError rather than decide.
    """
    if state.stopped is not None:
        raise StateError(f"test already stopped at {state.stopped}")
    if schedule.num_hypotheses != 2:
        raise DomainError("the common-channel test is defined for two hypotheses")
    sym = _check_symbol(symbol, 2)
    state.counts[sym] += 1
    state.num_samples += 1
    qhat = empirical_distribution(state.counts)
    s_stat = _converged_value(
        min_max_divergence_over_channel(qhat, p0, p1, delta, measure, options))
    state.minmax_statistic = s_stat
    gamma = schedule.value(state.num_samples)
    if s_stat < gamma:
        return None
    branch = _branch_statistics(qhat, p0, p1, delta, measure, options)
    state.branch_statistics = branch
    decision = _nonaware_decide(branch, gamma)
    state.stopped = (state.num_samples, decision)
    return decision


def run_nonaware(stream: Iterable[int], schedule: ThresholdSchedule,
                 p0: Distribution, p1: Distribution, delta: float,
                 measure: DistortionMeasure, options: SolverOptions | None = None,
                 cap: int = 1_000_000, stride: int = 1,
                 record_trajectory: bool = False) -> TestOutcome:
    """Run the common-channel test; semantics mirror run_aware.

    Trajectory rows carry the two branch statistics, which cost two extra
    channel solves per evaluated step when recording is on. A channel solve
    that hit its iteration cap raises ResourceError rather than decide.
    """
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


# ---------------------------------------------------------------------------
# Classical matrix likelihood-ratio baseline


@dataclass(frozen=True)
class MsprtConfig:
    """Boundary matrix for the pairwise likelihood-ratio test.

    Off-diagonal entries are the thresholds the log-likelihood ratios must
    reach; the diagonal is zero by convention.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ShapeError(f"boundary matrix must be square, got {b.shape}")
        if b.shape[0] < 2:
            raise ShapeError("need at least two hypotheses")
        if not np.all(np.isfinite(b)):
            raise ConstructionError("boundaries must be finite")
        if np.any(np.diag(b) != 0.0):
            raise ConstructionError("diagonal boundaries must be zero")
        off = b[~np.eye(b.shape[0], dtype=bool)]
        if np.any(off <= 0.0):
            raise ConstructionError("off-diagonal boundaries must be positive")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def num_hypotheses(self) -> int:
        return int(self.boundaries.shape[0])


def run_msprt(stream: Iterable[int], hypotheses: tuple[Distribution, ...],
              config: MsprtConfig, cap: int = 1_000_000) -> TestOutcome:
    """Accept the first hypothesis whose log-likelihood ratio against every
    rival reaches that rival's boundary.

    Hypotheses must have full support so the ratios stay finite.
    """
    hyps = tuple(hypotheses)
    m = len(hyps)
    if m != config.num_hypotheses:
        raise ShapeError("boundary matrix size must match the hypothesis count")
    size = hyps[0].size
    if any(h.size != size for h in hyps):
        raise ShapeError("all hypotheses must share one alphabet")
    probs = np.stack([h.probs for h in hyps])
    if np.any(probs <= 0.0):
        raise DomainError("hypotheses must have full support")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    logs = np.log(probs)
    loglik = np.zeros(m)
    not_diag = ~np.eye(m, dtype=bool)
    n = 0
    it = iter(stream)
    while n < cap:
        try:
            symbol = next(it)
        except StopIteration:
            raise StreamExhaustedError(
                f"stream ended after {n} symbols with no decision"
            ) from None
        sym = _check_symbol(symbol, size)
        loglik += logs[:, sym]
        n += 1
        ratios = loglik[:, None] - loglik[None, :]
        accept = np.all((ratios >= config.boundaries) | ~not_diag, axis=1)
        hits = np.flatnonzero(accept)
        if hits.size:
            return TestOutcome(n, int(hits[0]), False, None)
    return TestOutcome(cap, None, True, None)
