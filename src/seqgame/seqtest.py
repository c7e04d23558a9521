"""Sequential decision procedures.

The universal test tracks, for each hypothesis, the divergence from the
running empirical distribution to the nearest rival reachable set, and
stops when any such statistic clears a shrinking threshold. It and the
common-channel test share one stream loop and one stop rule on two
symbols: integer boundaries on the count of zeros, on the ball intervals
or on the channels' output ranges, which `simharness` reads too. More
symbols compute `evidence_statistics`. The loop drives a tuple of streams
in lockstep, so that one evidence call covers a read of every stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, repeat

import numpy as np

from .divopt import _ball_reach, _ChannelGame, _clamp_divergence
from .equilibrium import GameSpec
from .errors import (
    ConstructionError,
    DomainError,
    EmptySequenceError,
    ResourceError,
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
    computed once per zeta and cached across schedules. The schedule holds
    the count-boundary tables on its thresholds, one per (intervals, cap, stride).
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
        object.__setattr__(self, "_tables", {})

    def _formula(self, n, log_next, power):
        """The threshold at n from log(n + 1) and n^(-zeta), on floats or arrays alike."""
        return self._log_ratio / n + power + (self.alphabet_size * log_next + self._log_rivals) / n

    def value(self, n: int) -> float:
        try:
            if not 1 <= n < math.inf or isinstance(n, (bool, np.bool_)):
                raise DomainError(f"n must be a finite number >= 1, not a bool, got {n!r}")
            return self._formula(n, math.log(n + 1.0), pow(n, -self.zeta))
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
        if n.size and not (n.min() >= 1.0 and n.max() < math.inf):
            raise DomainError(f"steps must be finite and at least 1, got {n.min():g} to {n.max():g}")
        logs = np.fromiter(map(math.log, (n + 1.0).tolist()), float, n.size)
        powers = np.fromiter(map(pow, n.tolist(), repeat(-self.zeta)), float, n.size)
        return self._formula(n, logs, powers)

    def _table(self, intervals: tuple[tuple[float, float], ...], cap: int, stride: int) -> _BoundaryTable:
        """The boundary table on `intervals` for this cap and stride, made on first use."""
        key = (intervals, cap, stride)
        if key not in self._tables:
            self._tables[key] = _BoundaryTable(self, intervals, cap, stride)
        return self._tables[key]


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
    whole = kind in "iu" or (kind == "f" and (rows <= 2.0**53).all()
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


# ---------------------------------------------------------------------------
# The stop rule of two symbols: integer boundaries on the count of zeros

# Most symbols in one read of the stream loop; steps in one block of a boundary table.
_BLOCK = 4096
# spacing of the exactly searched steps that seed the boundary search
_KNOT_SPACING = 128


def _last_true(holds, steps: np.ndarray) -> np.ndarray:
    """For each n in the 2-D array `steps`, the largest c in [-1, n] where
    holds(c, i) is true, i being the flat positions in `steps` of the
    entries probed, or a full slice for all; holds must be true then false
    over c = 0..n, and c = -1 counts as true and c = n + 1 as false.

    Rows at most _KNOT_SPACING wide bisect. Wider rows guess g for every
    entry from exact answers at every _KNOT_SPACING-th column; a probe at
    g + 1, then one step the way it points, settles the common answers g
    and g + 1, and other entries gallop in doubling steps, then bisect: a
    poor guess costs passes, never exactness.
    """
    width = steps.shape[1]
    n = steps.ravel()
    top = int(n.max(initial=0)) + 1
    a, b, found = np.full(n.size, -1), n + 1, np.empty(n.size, dtype=np.int64)
    if width > _KNOT_SPACING:
        # every _KNOT_SPACING-th column and the last, increasing; not np.unique,
        # which imports numpy.ma
        knots = np.arange(0, width + _KNOT_SPACING - 1, _KNOT_SPACING).clip(max=width - 1)
        flat = (np.arange(steps.shape[0])[:, None] * width + knots).ravel()
        exact = _last_true(lambda c, i: holds(c, flat[i]), steps[:, knots])
        guess = np.floor([np.interp(np.arange(width), knots, row) for row in exact]).astype(np.int64)
        c = np.clip(guess.ravel() + 1, 0, n)
        up = holds(c, slice(None))
        a, b, reach = np.where(up, c, a), np.where(up, b, c), 1
    else:
        # a reach as wide as any bracket makes every probe a midpoint
        up, reach = np.ones(n.size, dtype=bool), top
    idx = np.arange(n.size)
    while True:
        done = b - a == 1
        if done.any():
            found[idx[done]] = a[done]
            idx, a, b, up = idx[~done], a[~done], b[~done], up[~done]
        if not idx.size:
            return found.reshape(steps.shape)
        mid = (a + b) >> 1
        # every probe lies strictly inside its bracket
        c = np.where(up, np.minimum(a + reach, mid), np.maximum(b - reach, mid))
        ok = holds(c, idx if idx.size < n.size else slice(None))
        a, b = np.where(ok, c, a), np.where(ok, b, c)
        reach = min(2 * reach, top)


def _count_boundaries(schedule: ThresholdSchedule,
                      intervals: tuple[tuple[float, float], ...],
                      steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stopping boundaries on the count of zeros at the given steps.

    The divergence from Bernoulli(c/n) to interval j is convex in c/n and
    zero on the interval, and every threshold is positive, so the counts c
    that clear the threshold against it are {c <= lower[j]} |
    {c >= upper[j]}. The search evaluates c/n through the clamp divergence
    against value(n), which `at` gives bit for bit, so the boundaries decide
    exactly as that expression at every count. Row 2j searches lower[j],
    row 2j + 1 upper[j] - 1.
    """
    rows = 2 * len(intervals)
    n = np.tile(steps, rows)
    gamma = np.tile(schedule.at(steps), rows)
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
    """A schedule's count boundaries on the intervals of the rival laws at
    the steps a run evaluates (multiples of the stride, and the cap), one
    entry per block of _BLOCK steps, computed when a run first reaches it."""

    def __init__(self, schedule: ThresholdSchedule,
                 intervals: tuple[tuple[float, float], ...], cap: int, stride: int) -> None:
        self.schedule, self.intervals, self.cap, self.stride = schedule, intervals, cap, stride
        # upper boundaries reach cap + 1
        self.dtype = np.int32 if cap < 2**31 - 1 else np.int64
        self.blocks: list[tuple[np.ndarray, ...]] = []

    def block(self, index: int) -> tuple[np.ndarray, ...]:
        """The evaluated steps within block `index`, as (steps, lower, upper,
        band_lower, band_upper, pick), one column per step. Row p of the
        bands belongs to the p-th pair (j, k), j < k, of intervals: a count
        strictly between their larger lower and smaller upper boundary
        clears neither. `pick` takes the columns from the block's counts, of
        steps index*_BLOCK + 1 on: a slice, or an index array once the cap
        adds an off-stride column.
        """
        while len(self.blocks) <= index:
            first = len(self.blocks) * _BLOCK + 1
            last = min(first + _BLOCK - 1, self.cap)
            start = -(-first // self.stride) * self.stride
            steps = np.arange(start, last + 1, self.stride)
            pick = slice(start - first, last + 1 - first, self.stride)
            if last == self.cap and self.cap % self.stride:
                steps = np.append(steps, self.cap)
                pick = steps - first
            lower, upper = (b.astype(self.dtype) for b in
                            _count_boundaries(self.schedule, self.intervals, steps))
            j, k = np.triu_indices(len(lower), 1)
            self.blocks.append((steps, lower, upper, np.maximum(lower[j], lower[k]),
                                np.minimum(upper[j], upper[k]), pick))
        return self.blocks[index]

    def first_stop(self, steps, counts: np.ndarray) -> tuple[int, int] | None:
        """The first row at which some hypothesis stops, and its decision,
        or None; row r of `counts` holds the counts at step steps[r], and
        only its zeros, in column 0, are read. The steps are consecutive
        evaluated steps, which may run across blocks."""
        zeros, row, rows = counts[:, 0], 0, len(steps)
        while row < rows:
            step = int(steps[row])
            here, lower, upper, band_lower, band_upper, _ = self.block((step - 1) // _BLOCK)
            # the column of the step: the cap's, past the last multiple, rounds up
            col = -((int(here[0]) - step) // self.stride)
            end = col + min(here.size - col, rows - row)
            hit = _band_stop(zeros[row:row + end - col], lower[:, col:end], upper[:, col:end],
                             band_lower[:, col:end], band_upper[:, col:end])
            if hit is not None:
                return row + hit[0], hit[1]
            row += end - col
        return None


def _band_stop(zeros: np.ndarray, lower: np.ndarray, upper: np.ndarray,
               band_lower: np.ndarray, band_upper: np.ndarray) -> tuple[int, int] | None:
    """First column at which some hypothesis stops, and its decision.

    Hypothesis i stops when the count clears every rival j != i, so some
    hypothesis stops exactly when the count is outside every pair's band.
    The decision is the one uncleared interval, else 0, the smallest index.
    """
    if len(band_lower) == 1:
        stops = (zeros <= band_lower[0]) | (zeros >= band_upper[0])
    else:
        stops = ((zeros <= band_lower) | (zeros >= band_upper)).all(axis=0)
    k = int(stops.argmax())
    if not stops[k]:
        return None
    z = zeros[k]
    return k, int(((lower[:, k] < z) & (z < upper[:, k])).argmax())


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
    # plain integers, all at once; numpy reads a bool among them as 0 or 1, so bools go below
    if (codes is not None and codes.ndim == 1 and codes.dtype.kind in "iu"
            and {bool, np.bool_}.isdisjoint(map(type, symbols))):
        bad = (codes < 0) | (codes >= alphabet_size)
        first = int(bad.argmax())  # argmax, not any: this runs once per read
        if not bad[first]:
            return codes.astype(np.int64, copy=False), None
        symbols = symbols[:first + 1]  # up to the first bad one, which raises below
    out = []
    for symbol in symbols:
        try:
            out.append(_check_symbol(symbol, alphabet_size))
        except DomainError as exc:
            return np.array(out, dtype=np.int64), exc
    return np.array(out, dtype=np.int64), None


class _CodeStream:
    """A stream that hands out its symbols as arrays of codes in the
    alphabet. `reader()` starts a reading: a function that gives the next
    `size` symbols as an int64 array. `_run` reads it with no check per
    symbol; iterating it yields the symbols of a fresh reading one by one."""

    __slots__ = ()

    def reader(self) -> Callable[[int], np.ndarray]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        take = self.reader()
        while True:
            yield from take(_BLOCK).tolist()


def _reader(stream: Iterable[int],
            alphabet_size: int) -> Callable[[int], tuple[np.ndarray, DomainError | None]]:
    """read(k): the next k symbols of the stream as codes, up to the first
    invalid one or the end of the stream, and the error of that symbol."""
    if isinstance(stream, _CodeStream):
        take = stream.reader()
        return lambda k: (take(k), None)
    it = iter(stream)
    return lambda k: _symbol_codes(list(islice(it, k)), alphabet_size)


def _several(stream) -> bool:
    """Whether `stream` is a tuple of streams: a non-empty tuple whose every
    item is iterable, and not a 0-d array."""
    return (isinstance(stream, tuple) and stream != ()
            and all(isinstance(s, Iterable) and not (isinstance(s, np.ndarray) and s.ndim == 0)
                    for s in stream))


# Evaluated steps in the first read of run_aware; each next read doubles it.
_CHUNK_STEPS = 16
# Most streams `_run` drives in lockstep at once; most rows of one evidence_statistics call.
_GROUP = 32
_ROWS = _BLOCK


def _run(streams: tuple, schedule: ThresholdSchedule, cap: int, stride: int, first_stops,
         reads: Callable[[], Iterator[int]]) -> list[TestOutcome]:
    """The stream loop of both tests, on checked arguments: one outcome per
    stream, each that of the stream run alone. Groups of at most _GROUP
    streams run in lockstep, each from a fresh `reads()`. Each round reads
    every live stream up to `next(reads)` evaluated steps on, within the cap
    and _BLOCK symbols. One first_stops(steps, tallies, reached) call then
    gives each stream's (row, decision) of its stop, or None: tallies[s, r]
    counts stream s up to steps[r], and stream s reached steps[:reached[s]].
    An invalid symbol or the end of a stream is raised once the steps before
    it are evaluated; of several such streams, the first one's error."""
    outcomes = []
    for start in range(0, len(streams), _GROUP):
        outcomes += _lockstep(streams[start:start + _GROUP], schedule, cap, stride, first_stops,
                              reads())
    return outcomes


def _lockstep(streams: tuple, schedule: ThresholdSchedule, cap: int, stride: int, first_stops,
              reads: Iterator[int]) -> list[TestOutcome]:
    """`_run` on one group of streams."""
    size = schedule.alphabet_size
    readers = [_reader(stream, size) for stream in streams]
    outcomes = [TestOutcome(cap, None, True)] * len(streams)
    live, failure, n = list(range(len(streams))), None, 0
    counts = np.zeros((len(streams), size), dtype=np.int64)
    while live and n < cap:
        end = min((n // stride + next(reads)) * stride, cap)
        if end - n > _BLOCK:  # the last evaluated step that fits, if any
            last_step = (n + _BLOCK) // stride * stride
            end = last_step if last_step > n else n + _BLOCK
        got = [readers[i](end - n) for i in live]  # the codes stop before an invalid symbol
        steps = list(range((n // stride + 1) * stride, end + 1, stride))
        if end == cap and cap % stride:
            steps.append(cap)
        # a symbol is binned under the first step at or after it; row r of a
        # stream then counts up to steps[r], its last row to the end of its read
        width = (len(steps) + 1) * size
        bins = np.arange(n % stride, end - n + n % stride) // stride * size
        flat = [bins[:codes.size] + codes for codes, _ in got]
        # stream s bins after the `width` bins of each stream before it
        flat = np.concatenate([f + s * width for s, f in enumerate(flat)]) if len(flat) > 1 else flat[0]
        tallies = np.bincount(flat, minlength=len(live) * width).reshape(len(live), -1, size)
        tallies = tallies.cumsum(axis=1)
        tallies += counts[:, None, :]
        reached = [len(steps) if codes.size == end - n else bisect_right(steps, n + codes.size)
                   for codes, _ in got]
        stops = first_stops(steps, tallies[:, :-1], reached) if steps else [None] * len(live)
        keep = []
        for s, (i, (codes, error), stop) in enumerate(zip(live, got, stops)):
            if stop is not None:
                outcomes[i] = TestOutcome(steps[stop[0]], stop[1])
                continue
            if error is None and codes.size < end - n:
                error = StreamExhaustedError(f"stream ended after {n + codes.size} symbols with no decision")
            if error is not None:  # it is raised unless an earlier stream fails too: drop the later ones
                failure = error
                break
            keep.append(s)
        counts = tallies[:, -1] if len(keep) == len(live) else tallies[keep, -1]
        live, n = [live[s] for s in keep], end
    if failure is not None:
        raise failure
    return outcomes


def _each(first_stop):
    """first_stops for `_run` from the first_stop(steps, tallies) of one stream."""
    return lambda steps, tallies, reached: [first_stop(steps[:r], rows[:r]) if r else None
                                            for rows, r in zip(tallies, reached)]


def run_aware(stream: Iterable[int] | tuple[Iterable[int], ...], schedule: ThresholdSchedule,
              spec: GameSpec, cap: int = 1_000_000, stride: int = 1) -> TestOutcome | tuple[TestOutcome, ...]:
    """Run the universal test on a symbol stream until it stops.

    The stopping condition is evaluated every `stride` samples (and at the
    cap), trading at most stride-1 extra samples for speed. Reaching the cap
    yields a timed-out outcome; an exhausted stream is an error because no
    decision of any kind was reached. Among statistics that clear the
    threshold together, the smallest index decides.

    The stream is read in chunks that end on evaluated steps: 16 of them at
    first, twice as many in each next one, and at most 4,096 symbols. On two
    symbols a chunk reads the schedule's boundary table on the ball
    intervals, as the binary engine does; else `evidence_statistics` covers
    it against thresholds from `schedule.at`. Outcomes and errors are those
    of feeding one symbol at a time, but the stream is read to the end of
    the chunk of the stop. A schedule built for another size of game raises
    ShapeError.

    A tuple of streams (a non-empty tuple of iterables) gives a tuple of
    outcomes, entry s equal to the call on stream s alone. The streams run
    in lockstep, 32 at a time: each round reads a chunk of every stream
    still running, and on three or more symbols one evidence call covers
    all their rows, 4,096 at most. If some streams end or meet an invalid
    symbol, the first of them raises its error.
    """
    _instance("spec", spec, GameSpec)
    _check_run(stream, schedule, (spec.num_hypotheses, spec.alphabet_size), cap, stride)
    if spec.alphabet_size == 2:
        first_stops = _each(schedule._table(tuple(b.interval for b in spec.balls), cap, stride).first_stop)
    else:
        def first_stops(steps, tallies, reached):
            if min(reached) < len(steps):  # rows past a short read never stop; ones keep them valid
                short = np.arange(len(steps)) >= np.array(reached)[:, None]
                tallies = np.where(short[:, :, None], 1, tallies)
            counts = tallies.reshape(-1, spec.alphabet_size)
            # evidence_statistics is looked up at each call, as wrappers put on the module expect
            stats = [evidence_statistics(counts[r:r + _ROWS], spec) for r in range(0, len(counts), _ROWS)]
            hits = (np.concatenate(stats).reshape(len(reached), len(steps), -1)
                    >= schedule.at(np.array(steps))[:, None]).reshape(len(reached), -1)
            first = hits.argmax(axis=1)  # row-major: the first row with a hit, its smallest index
            return [divmod(int(f), spec.num_hypotheses) if hits[s, f] and f // spec.num_hypotheses < r
                    else None for s, (f, r) in enumerate(zip(first, reached))]
    several = _several(stream)
    outcomes = _run(stream if several else (stream,), schedule, cap, stride, first_stops,
                    lambda: (_CHUNK_STEPS << k for k in count()))
    return tuple(outcomes) if several else outcomes[0]


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

    The statistic of hypothesis b is the divergence from qhat = (t, 1 - t)
    to everything a common channel can make of the rival law: t clamped
    onto the rival's output range. The test reads the schedule's boundary
    table on the two output ranges of a channel game built once per run,
    and forms the two statistics at the stop step alone, for
    `_nonaware_decide`. Each read takes one evaluated step (at most 4,096
    symbols), so the run reads no symbol past its stop, and an invalid
    symbol raises DomainError once the rest of its read is consumed. Per
    symbol, stride 1 costs about 140 times what stride 1,024 does.
    The schedule must be built for two hypotheses on two symbols.
    """
    _check_run(stream, schedule, (2, 2), cap, stride)
    regions = _ChannelGame(p0, p1, delta, measure).regions
    table = schedule._table(tuple((r.x_lo, r.x_hi) for r in regions), cap, stride)

    def first_stop(steps, tallies):
        hit = table.first_stop(steps, tallies)
        if hit is None:
            return None
        t = float(tallies[hit[0], 0]) / steps[hit[0]]
        # each hypothesis faces its rival's output range
        branch = [_binary_kl(t, min(max(t, r.x_lo), r.x_hi)) for r in regions[::-1]]
        return hit[0], _nonaware_decide(branch, schedule.value(steps[hit[0]]))
    return _run((stream,), schedule, cap, stride, _each(first_stop), lambda: repeat(1))[0]
