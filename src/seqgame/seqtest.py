"""Sequential decision procedures.

The universal test tracks, for each hypothesis, the divergence from the
running empirical distribution to the nearest rival reachable set, and
stops when any such statistic clears a shrinking threshold. It and the
test against the common-channel adversary share one stream loop and
differ in their statistic, decision rule and read policy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, repeat

import numpy as np

from .divopt import _ball_reach, _ChannelGame
from .equilibrium import GameSpec
from .errors import (
    ConstructionError,
    DomainError,
    EmptySequenceError,
    ResourceError,
    SeqGameError,
    ShapeError,
    StreamExhaustedError,
)
from .prob import Distribution, DistortionMeasure, _binary_kl, _check_integers, _floats, _instance, _real

__all__ = [
    "threshold_constant",
    "ThresholdSchedule",
    "TestOutcome",
    "evidence_statistics",
    "run_aware",
    "run_nonaware",
]

# Terms of `threshold_constant`'s partial sum; the tail bracket past them is <= 1.2e-13.
_TERMS = 1 << 10
# Most terms of the series or the continued fraction of `_gamma_q`.
_GAMMA_TERMS = 10_000


def _gamma_q(a: float, x: float) -> float:
    """The regularized upper incomplete gamma Q(a, x), for a > 1 and x > 0.

    Below x = a + 1 it is 1 - P, with P from its power series; above, the
    continued fraction of Q by Lentz's method, as in Numerical Recipes
    (6.2.5, 6.2.7). Both scale x^a e^-x / Gamma(a), formed from `pow`,
    `exp` and `math.gamma`, which each round once, and not as the exp of
    a log, whose argument of a few hundred would lose 1e-13 relative.
    e^-x is applied in two halves, so that it does not underflow before
    x^a / Gamma(a) lifts it. Within 1e-13 relative of the exact value for
    a in [1.01, 100] and x in [1e-3, 1e3], where that value is a normal
    float.
    """
    half = math.exp(-0.5 * x)
    front = x**a / math.gamma(a) * half * half
    eps = np.finfo(float).eps
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _GAMMA_TERMS):
            term *= x / (a + k)
            total += term
            if term <= total * eps:
                return 1.0 - front * total
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        value = d
        for i in range(1, _GAMMA_TERMS):
            an, b = -i * (i - a), b + 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            c = c if abs(c) >= tiny else tiny
            step = c * d
            value *= step
            if abs(step - 1.0) <= eps:
                return front * value
    raise ResourceError(f"incomplete gamma Q({a}, {x}) did not converge in {_GAMMA_TERMS} terms")


def _tail_bracket(n: int, s: float) -> tuple[float, float]:
    """Bounds (lower, upper) on the sum of f(x) = exp(-x^s) over x > n.

    Euler-Maclaurin at a = n + 1 writes that tail as the integral of f from
    a to infinity, plus f(a)/2 - f1(a)/12 + f3(a)/720 + R, where fk is the
    k-th derivative of f and R has the sign of f5. For 0 < s < 1, x^s is
    a Bernstein function, so f is completely monotone and every odd
    derivative of f is <= 0 on (0, inf). So f3 and f5 share a sign, and
    the remainder after the f1 term, f3(a)/720 + R, has the sign of
    f3(a)/720 and is no larger in size: the tail lies between
    upper + f3(a)/720 and upper = integral + f(a)/2 - f1(a)/12.

    With g = a^s, g1 = s g/a, g2 = (s-1) g1/a and g3 = (s-2) g2/a, the
    derivatives are f1 = -g1 f and f3 = (-g1^3 + 3 g1 g2 - g3) f. The
    integral is Gamma(1/s) Q(1/s, g)/s, via u = x^s, with Gamma from
    `math.lgamma` and Q from `_gamma_q`.
    """
    log_gamma = math.lgamma(1.0 / s)
    if log_gamma > 700.0:
        raise ResourceError(f"tail certificate overflows for decay exponent {s}")
    a = n + 1.0
    g = a**s
    f = math.exp(-g)
    g1 = s * g / a
    g2 = (s - 1.0) * g1 / a
    g3 = (s - 2.0) * g2 / a
    f1 = -g1 * f
    f3 = (-g1**3 + 3.0 * g1 * g2 - g3) * f
    integral = math.exp(log_gamma) * _gamma_q(1.0 / s, g) / s
    upper = integral + 0.5 * f - f1 / 12.0
    return upper + f3 / 720.0, upper


def threshold_constant(zeta: float) -> float:
    """Sum of exp(-n^(1-zeta)) over n >= 1.

    A partial sum of 1,024 terms plus the midpoint of the Euler-Maclaurin
    bracket on the tail of `_tail_bracket`, -f3(1025)/720 wide: at most
    1.2e-13 for every zeta the tail accepts (up to about 0.9942). Float
    rounding in the partial sum and in the incomplete gamma function adds
    about 1e-15 of the value. The terms are numpy's `exp`; Gamma and Q of
    the tail are `math.lgamma` and `_gamma_q`. The value is cached per
    zeta, and `cache_info` reports the cache.
    """
    return _threshold_constant(_real("zeta", zeta, 0.0, 1.0, low_open=True))


@lru_cache(maxsize=None)
def _threshold_constant(zeta: float) -> float:
    lower, upper = _tail_bracket(_TERMS, 1.0 - zeta)
    if upper - lower > 1e-12:
        raise ResourceError(f"tail bracket {upper - lower:.3e} wide after {_TERMS} terms")
    grid = np.arange(1, _TERMS + 1, dtype=float)
    return math.fsum(np.exp(-(grid ** (1.0 - zeta)))) + 0.5 * (lower + upper)


threshold_constant.cache_info = _threshold_constant.cache_info


@dataclass(frozen=True)
class ThresholdSchedule:
    """The shrinking stopping threshold of the universal test.

    value(n) = log(constant/alpha)/n + n^(-zeta)
               + (alphabet_size*log(n+1) + log(num_hypotheses-1))/n.

    The attribute `constant`, the series sum `threshold_constant(zeta)`, is
    computed once per zeta and cached across schedules.
    """

    alpha: float
    num_hypotheses: int
    alphabet_size: int
    zeta: float = 0.85

    def __post_init__(self) -> None:
        for name in ("alpha", "zeta"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, 1.0, low_open=True))
        _check_integers(2, num_hypotheses=self.num_hypotheses, alphabet_size=self.alphabet_size)
        object.__setattr__(self, "constant", threshold_constant(self.zeta))
        # the two logarithms that do not depend on n, computed once
        object.__setattr__(self, "_log_ratio", math.log(self.constant / self.alpha))
        object.__setattr__(self, "_log_rivals", math.log(self.num_hypotheses - 1.0))

    def value(self, n: int) -> float:
        try:  # no check ahead of the arithmetic but a type test: this runs once per evaluated step
            if not n >= 1 or isinstance(n, (bool, np.bool_)):
                raise DomainError(f"threshold is defined for numbers n >= 1, not bools, got {n!r}")
            extra = self.alphabet_size * math.log(n + 1.0) + self._log_rivals
            return self._log_ratio / n + n ** (-self.zeta) + extra / n
        except (TypeError, ValueError, OverflowError):  # not a number, an array, or beyond floats
            raise DomainError(f"n must be a number >= 1, got {n!r:.80}") from None

    def at(self, steps) -> np.ndarray:
        """Thresholds at the given steps, equal to value(n) at each, bit for bit.

        The logarithm and the power go through `math.log` and `pow`, the
        calls `value` makes, since numpy's may differ in the last bit; the
        rest of the formula runs in numpy in the same order as `value`.
        """
        n = _floats("steps", steps)
        if (steps.dtype == bool if isinstance(steps, np.ndarray)
                else any(isinstance(step, (bool, np.bool_)) for step in steps)):
            raise DomainError("steps must be numbers, not bools")
        if n.size and not n.min() >= 1.0:
            raise DomainError(f"threshold is defined for n >= 1, got {n.min():g}")
        logs = np.fromiter(map(math.log, (n + 1.0).tolist()), float, n.size)
        powers = np.fromiter(map(pow, n.tolist(), repeat(-self.zeta)), float, n.size)
        extra = self.alphabet_size * logs + self._log_rivals
        return self._log_ratio / n + powers + extra / n


@dataclass(frozen=True)
class TestOutcome:
    """Result of one sequential run.

    A timed-out run carries decision None; stopping_time is then the cap,
    not a stopping time in the formal sense.
    """

    stopping_time: int
    decision: int | None
    timed_out: bool = False


def _shares(rows: np.ndarray) -> np.ndarray:
    """The empirical law of each row of counts as `Distribution` forms it:
    each count over the row's total, then over the sum of those shares."""
    qhat = rows / rows.sum(axis=1, keepdims=True)
    return qhat / qhat.sum(axis=1, keepdims=True)


def evidence_statistics(counts: np.ndarray, spec: GameSpec) -> np.ndarray:
    """Per-hypothesis evidence: distance from the empirical law to the
    nearest rival reachable set.

    statistic[i] = min over j != i of the divergence from the empirical
    distribution of `counts` to ball j. Zero whenever the empirical law is
    inside some rival ball. `counts` is one count vector, or an (R, K)
    array with one count vector per row, which gives an (R, M) array; each
    row equals the call on that row alone, bit for bit. One reach solve
    covers every row and ball, each row against its own ball's center.
    """
    try:
        arr, size = np.asarray(counts), spec.alphabet_size
    except (TypeError, ValueError, OverflowError):  # ragged, or beyond int64
        raise ConstructionError("counts must be nonnegative integers") from None
    except AttributeError:  # anything with the game's sizes and balls serves as the spec
        raise DomainError(f"spec must be a GameSpec, got {type(spec).__name__}") from None
    if arr.ndim not in (1, 2) or arr.shape[-1] != size:
        raise ShapeError(f"counts must be K or R x K with K = {size}, got shape {arr.shape}")
    rows = np.atleast_2d(arr)
    kind = rows.dtype.kind
    whole = kind in "iu" or (kind in "fb" and (rows <= 2.0**53).all()
                             and np.allclose(rows, np.round(rows)))
    if not whole or np.any(rows < 0):
        raise ConstructionError("counts must be nonnegative integers")
    # float totals: no int64 wraparound, and no overflow from counts of at most 2^53
    totals = rows.sum(axis=1, dtype=float)
    if totals.max(initial=0.0) > 2.0**53:
        raise ConstructionError("each row of counts must total at most 2^53")
    if not totals.all():
        raise EmptySequenceError("cannot form an empirical distribution from zero samples")
    dists = _ball_reach(_shares(rows), spec.balls)[1].reshape(spec.num_hypotheses, -1).T
    order = np.argsort(dists, axis=1, kind="stable")
    index = np.arange(rows.shape[0])
    out = np.repeat(dists[index, order[:, 0]][:, None], spec.num_hypotheses, axis=1)
    out[index, order[:, 0]] = dists[index, order[:, 1]]
    return out if arr.ndim == 2 else out[0]


def _check_run(stream, schedule: ThresholdSchedule, sizes: tuple[int, int], cap: int,
               stride: int) -> None:
    """The checks both tests make: the stream, the schedule, built for their
    game's (hypotheses, symbols) `sizes`, the cap and the stride."""
    _instance("stream", stream, Iterable)
    got = (_instance("schedule", schedule, ThresholdSchedule).num_hypotheses, schedule.alphabet_size)
    if got != sizes:
        raise ShapeError(f"the schedule is for {got[0]} hypotheses on {got[1]} symbols, "
                         f"the test for {sizes[0]} on {sizes[1]}")
    _check_integers(1, 2**63, cap=cap, stride=stride)


def _check_symbol(symbol: int, alphabet_size: int) -> int:
    """The symbol as an int; DomainError unless it is an integer, not a
    bool, in the alphabet."""
    _check_integers(0, alphabet_size, symbol=symbol)
    return int(symbol)


def _symbol_codes(symbols: list, alphabet_size: int) -> tuple[np.ndarray, DomainError | None]:
    """The symbols before the first invalid one, as codes, and the error
    that symbol raises; None when every symbol is valid."""
    try:
        codes = np.asarray(symbols)
    except (TypeError, ValueError, OverflowError):  # ragged, or beyond int64
        codes = None
    # plain integers, all at once; numpy reads a bool among them as 0 or 1
    if codes is not None and codes.ndim == 1 and codes.dtype.kind in "iu":
        bad = (codes < 0) | (codes >= alphabet_size)
        if not bad.any():
            return codes.astype(np.int64, copy=False), None
        symbols = symbols[:int(bad.argmax()) + 1]  # up to the first bad one, which raises below
    out = []
    for symbol in symbols:
        try:
            out.append(_check_symbol(symbol, alphabet_size))
        except DomainError as exc:
            return np.array(out, dtype=np.int64), exc
    return np.array(out, dtype=np.int64), None


def _read(it, count: int, read: int, size: int) -> tuple[np.ndarray, SeqGameError | None]:
    """The next `count` symbols of the iterator as codes, `read` symbols
    into the stream, and the error that ends the run before the last of
    them: an invalid symbol (the codes stop before it) or the end of the
    stream; None when all `count` are valid."""
    symbols = list(islice(it, count))
    codes, error = _symbol_codes(symbols, size)
    if error is None and len(symbols) < count:
        error = StreamExhaustedError(
            f"stream ended after {read + len(symbols)} symbols with no decision")
    return codes, error


def _evaluate(tallies: np.ndarray, steps: list[int], schedule: ThresholdSchedule, statistic,
              decide) -> tuple[int, int] | None:
    """The first (row, decision) at which a statistic clears its threshold,
    over the given steps with one row of counts per step, or None;
    decide(statistics, threshold) gives the decision there."""
    z = statistic(tallies)
    gammas = [schedule.value(n) for n in steps]
    hits = z >= np.array(gammas)[:, None]
    first = int(hits.argmax())  # row-major, so in the first row with a hit
    row = first // hits.shape[1]
    return (row, decide(z[row], gammas[row])) if hits.flat[first] else None


# Evaluated steps in the first read of run_aware; each next read doubles it.
_CHUNK_STEPS = 16
# Most symbols one read takes.
_CHUNK_SYMBOLS = 4096


def _run(stream: Iterable[int], schedule: ThresholdSchedule, cap: int, stride: int, statistic,
         decide, reads: Iterator[int]) -> TestOutcome:
    """The stream loop of both tests, on checked arguments: each read
    ends `next(reads)` evaluated steps on, within the cap and 4,096 symbols,
    and one `_evaluate` covers its steps."""
    size = schedule.alphabet_size
    counts = np.zeros(size, dtype=np.int64)
    it = iter(stream)
    n = 0
    while n < cap:
        end = min((n // stride + next(reads)) * stride, cap)
        if end - n > _CHUNK_SYMBOLS:  # the last evaluated step that fits, if any
            last_step = (n + _CHUNK_SYMBOLS) // stride * stride
            end = last_step if last_step > n else n + _CHUNK_SYMBOLS
        codes, error = _read(it, end - n, n, size)
        read, first = n + codes.size, (n // stride + 1) * stride
        steps = list(range(first, read + 1, stride))
        if read == cap and cap % stride:
            steps.append(cap)
        # a symbol is binned under the first step at or after it; row j then
        # counts up to steps[j], the last row to `read`
        bins = np.arange(n % stride, n % stride + codes.size) // stride * size + codes
        tallies = counts + np.bincount(bins, minlength=(len(steps) + 1) * size).reshape(
            -1, size).cumsum(axis=0)
        if steps:
            stop = _evaluate(tallies[:-1], steps, schedule, statistic, decide)
            if stop is not None:
                return TestOutcome(steps[stop[0]], stop[1])
        if error is not None:
            raise error
        counts, n = tallies[-1], read
    return TestOutcome(cap, None, True)


def run_aware(stream: Iterable[int], schedule: ThresholdSchedule, spec: GameSpec,
              cap: int = 1_000_000, stride: int = 1) -> TestOutcome:
    """Run the universal test on a symbol stream until it stops.

    The stopping condition is evaluated every `stride` samples (and at the
    cap), trading at most stride-1 extra samples for speed. Reaching the cap
    yields a timed-out outcome; an exhausted stream is an error because no
    decision of any kind was reached. Among statistics that clear the
    threshold together, the smallest index decides.

    The stream is read in chunks that end on evaluated steps: 16 of them
    at first, twice as many in each next chunk, and at most 4,096 symbols;
    one `evidence_statistics` call covers a chunk. Outcomes and errors are
    those of feeding the symbols one at a time, but the stream is read up
    to the end of the chunk in which the test stops. A schedule built for
    another size of game raises ShapeError.
    """
    _instance("spec", spec, GameSpec)
    _check_run(stream, schedule, (spec.num_hypotheses, spec.alphabet_size), cap, stride)
    # evidence_statistics is looked up at each call, as wrappers put on the module expect
    return _run(stream, schedule, cap, stride,
                lambda tallies: evidence_statistics(tallies, spec),
                lambda z, gamma: int((z >= gamma).argmax()),
                (_CHUNK_STEPS << k for k in count()))


# ---------------------------------------------------------------------------
# Common-channel (non-aware adversary) test, binary hypotheses


def _nonaware_decide(branch, gamma: float) -> int:
    """Branch whose evidence clears gamma; conflicts fall back to the larger
    statistic and then the smaller index."""
    hold = (branch[0] >= gamma, branch[1] >= gamma)
    if hold[0] != hold[1]:
        return 0 if hold[0] else 1
    return 0 if branch[0] >= branch[1] else 1


def run_nonaware(stream: Iterable[int], schedule: ThresholdSchedule,
                 p0: Distribution, p1: Distribution, delta: float,
                 measure: DistortionMeasure, cap: int = 1_000_000, stride: int = 1) -> TestOutcome:
    """Run the common-channel test; semantics mirror run_aware.

    It shares run_aware's stream loop and differs in three things. The
    statistic of hypothesis b is the divergence from qhat = (t, 1 - t) to
    everything a common channel can make of the rival law: t clamped onto
    the rival's output range, from a channel game built once per run. At
    the stop `_nonaware_decide` decides: the one branch that clears the
    threshold, else the larger statistic. Each read takes one evaluated
    step (at most 4,096 symbols), so the run reads no symbol past its stop;
    an invalid symbol raises DomainError once the rest of its read has been
    consumed. A read costs some thirty numpy calls, so small strides are
    slow: per symbol, stride 1 costs about 300 times what stride 1,024
    does. The schedule must be built for two hypotheses on two symbols.
    """
    _check_run(stream, schedule, (2, 2), cap, stride)
    game = _ChannelGame(p0, p1, delta, measure)
    rivals = game.regions[::-1]  # each hypothesis faces its rival's output range
    return _run(stream, schedule, cap, stride,
                lambda tallies: np.array([[_binary_kl(t, min(max(t, r.x_lo), r.x_hi)) for r in rivals]
                                          for t in _shares(tallies)[:, 0].tolist()]),
                _nonaware_decide, repeat(1))
