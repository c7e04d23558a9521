"""Finite-alphabet distributions, channels, and divergence primitives.

All divergences are in nats. The total variation convention here is the
unhalved L1 distance, sum(|P - Q|).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError, ShapeError

__all__ = [
    "Distribution",
    "Channel",
    "DistortionMeasure",
    "apply_channel",
    "kl_divergence",
]

# Inputs to the Distribution constructor may be off by more before we reject.
_INPUT_SUM_ATOL = 1e-9


def _floats(name: str, values, ndim: int = 1) -> np.ndarray:
    """values as a float array of `ndim` dimensions; ConstructionError if they are not numbers."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConstructionError(f"{name} must be numbers, got {values!r:.80}") from None
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be a {ndim}-d array, got shape {arr.shape}")
    return arr


def _law(name: str, value, size: int | None = None) -> np.ndarray:
    """A Distribution's probabilities, or value as a `_floats` vector of at
    least one entry, nonnegative and summing to 1 within `_INPUT_SUM_ATOL`
    (so all finite), and ConstructionError otherwise; ShapeError unless it
    has `size` entries."""
    if isinstance(value, Distribution):
        arr = value.probs
    else:
        arr = _floats(name, value)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, not a warning
            total = arr.sum()
        if arr.size == 0 or not np.isfinite(total):
            raise ConstructionError(f"{name} must have at least one entry, all finite, with a finite sum")
        if np.any(arr < 0):
            raise ConstructionError(f"{name} must be nonnegative")
        if abs(total - 1.0) > _INPUT_SUM_ATOL:
            raise ConstructionError(f"{name} sums to {total!r}, expected 1 within {_INPUT_SUM_ATOL}")
    if size is not None and arr.size != size:
        raise ShapeError(f"{name} has {arr.size} entries, expected {size}")
    return arr


def _real(name: str, value, low: float = 0.0, high: float = math.inf, low_open: bool = False) -> float:
    """value as a float; DomainError unless it is a real number, not a bool,
    in [low, high), or (low, high) with `low_open`; high = inf is allowed."""
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        x = float(value)
        if (low < x if low_open else low <= x) and (x < high or high == math.inf):
            return x
    bounds = f"{'(' if low_open else '['}{low:g}, {high:g})"
    rule = {"(0, inf)": "positive", "[0, inf)": "nonnegative"}.get(bounds, f"a number in {bounds}")
    raise DomainError(f"{name} must be {rule}, got {value!r}")


def _instance(name: str, value, kind: type | tuple[type, ...]):
    """value, if it is an instance of `kind` (a type or a tuple of types); DomainError otherwise."""
    if isinstance(value, kind):
        return value
    kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise DomainError(f"{name} must be a {kinds}, got {type(value).__name__}")


def _check_integers(low: int = 0, stop: float = math.inf, **values) -> None:
    """DomainError unless each value is an integer, not a bool, in [low, stop);
    an exact int skips the type tests."""
    for name, value in values.items():
        integer = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
        if not (integer and low <= value < stop):
            raise DomainError(f"{name} must be an integer in [{low}, {stop}), got {value!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite alphabet {0, ..., K-1}.

    The constructor accepts nonnegative vectors whose sum deviates from 1
    by at most 1e-9 and rescales them exactly.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _law("probs", self.probs)
        arr = arr / arr.sum()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """Running sums of probs as Python floats, for inverse-CDF draws."""
        return tuple(np.cumsum(self.probs).tolist())

    def is_fully_supported(self, floor: float = 1e-9) -> bool:
        """True when every symbol carries at least `floor` mass."""
        return bool(np.all(self.probs >= _real("floor", floor)))

    def __iter__(self):
        return iter(self.probs)

    def __repr__(self) -> str:
        body = ", ".join(repr(float(p)) for p in self.probs)
        return f"Distribution([{body}])"


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix mapping input symbols to output symbols.

    Row x is the conditional distribution of the output given input x.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = _floats("channel matrix", self.rows, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, not a warning
            sums = arr.sum(axis=1)
        if not np.all(np.isfinite(sums)):
            raise ConstructionError("channel rows must have finite entries and finite sums")
        if np.any(arr < 0):
            raise ConstructionError("channel entries must be nonnegative")
        if np.any(np.abs(sums - 1.0) > _INPUT_SUM_ATOL):
            raise ConstructionError("every channel row must sum to 1")
        arr = arr / sums[:, None]
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def num_outputs(self) -> int:
        return int(self.rows.shape[1])

    @cached_property
    def cumulative_rows(self) -> tuple[tuple[float, ...], ...]:
        """Running sums along each row as Python floats, for inverse-CDF draws."""
        return tuple(tuple(row) for row in np.cumsum(self.rows, axis=1).tolist())

    def __repr__(self) -> str:
        return f"Channel({self.rows.tolist()!r})"


class _MeasureLookup(enum.EnumMeta):
    """`DistortionMeasure(value)` raises DomainError, not ValueError, for a value naming no measure."""

    def __call__(cls, value, *args, **kwargs):
        try:
            return super().__call__(value, *args, **kwargs)
        except ValueError:
            raise DomainError(f"measure must be one of {[m.value for m in cls]}, got {value!r}") from None


class DistortionMeasure(enum.Enum, metaclass=_MeasureLookup):
    """How far a channel may push a distribution from its original."""

    TV_L1 = "tv_l1"
    KL = "kl"

    def evaluate(self, original, perturbed) -> float:
        """Distortion d(original, perturbed); KL reads D(original || perturbed)."""
        p = _law("original", original)
        q = _law("perturbed", perturbed, p.size)
        with np.errstate(over="ignore"):  # huge entries are infinitely far apart
            return float(np.abs(p - q).sum()) if self is DistortionMeasure.TV_L1 else _kl_arrays(p, q)


def apply_channel(dist: Distribution, channel: Channel) -> Distribution:
    """Push a distribution through a channel: the output law P @ A."""
    p = _instance("dist", dist, Distribution).probs
    rows = _instance("channel", channel, Channel).rows
    if rows.shape[0] != p.size:
        raise ShapeError(
            f"channel expects {rows.shape[0]} input symbols, distribution has {p.size}"
        )
    return Distribution(p @ rows)


def _kl_arrays(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence on raw arrays with the 0*log(0) = 0 convention."""
    support = p > 0.0
    if np.any(q[support] <= 0.0):
        return math.inf
    ps = p[support]
    with np.errstate(over="ignore"):  # inf for entries near 1e308, not a warning
        return float(np.dot(ps, np.log(ps) - np.log(q[support])))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p_r || q_r) along the last axis of two broadcastable arrays of
    nonnegative entries, with the 0*log(0) = 0 convention; +inf where q_r
    misses the support of p_r, as `_kl_arrays` gives."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, np.log(p) - np.log(q), 0.0)
    return np.vecdot(p, terms)


def kl_divergence(p, q) -> float:
    """D(p || q) in nats; +inf when q misses part of p's support."""
    parr = _law("p", p)
    return _kl_arrays(parr, _law("q", q, parr.size))


def _binary_kl(t: float, s: float) -> float:
    """Binary KL with t and s on the closed interval [0, 1]; +inf where t
    puts mass that s does not. Clamped at zero, which the two terms can
    round below when s is a few ulps from t. The logs are numpy's, as in
    the vector form `divopt._clamp_divergence`, so the two agree bit for
    bit (numpy's log and `math.log` differ in the last bit on a few
    inputs)."""
    if (t > 0.0 and s <= 0.0) or (t < 1.0 and s >= 1.0):
        return math.inf
    value = t * np.log(t / s) if t > 0.0 else 0.0
    if t < 1.0:
        value += (1.0 - t) * np.log((1.0 - t) / (1.0 - s))
    return max(float(value), 0.0)

