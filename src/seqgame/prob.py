"""Finite-alphabet distributions, channels, and divergence primitives.

All divergences are in nats. The total variation convention here is the
unhalved L1 distance, sum(|P - Q|).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    EmptySequenceError,
    ShapeError,
)

__all__ = [
    "Distribution",
    "Channel",
    "DistortionMeasure",
    "normalize",
    "apply_channel",
    "kl_divergence",
    "binary_kl",
    "bhattacharyya",
    "empirical_distribution",
    "log_likelihood_ratio",
]

# A freshly normalized vector should sum to 1 up to accumulated rounding.
_SUM_ATOL = 1e-12
# Inputs to the Distribution constructor may be off by more before we reject.
_INPUT_SUM_ATOL = 1e-9


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ConstructionError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ConstructionError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a finite alphabet {0, ..., K-1}.

    The constructor accepts vectors whose sum deviates from 1 by at most
    1e-9 and rescales them exactly; use `normalize` for arbitrary
    nonnegative weight vectors.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_array(self.probs, "probs")
        if np.any(arr < 0):
            raise ConstructionError("probabilities must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > _INPUT_SUM_ATOL:
            raise ConstructionError(
                f"probabilities sum to {total!r}, expected 1 within {_INPUT_SUM_ATOL}"
            )
        arr = arr / total
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
        return bool(np.all(self.probs >= floor))

    def allclose(self, other: "Distribution | np.ndarray", atol: float = 1e-12) -> bool:
        other_arr = other.probs if isinstance(other, Distribution) else np.asarray(other)
        return bool(np.allclose(self.probs, other_arr, rtol=0.0, atol=atol))

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
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2:
            raise ShapeError(f"channel matrix must be two-dimensional, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConstructionError("channel matrix contains non-finite entries")
        if np.any(arr < 0):
            raise ConstructionError("channel entries must be nonnegative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _INPUT_SUM_ATOL):
            raise ConstructionError("every channel row must sum to 1")
        arr = arr / sums[:, None]
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def num_inputs(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.rows.shape[1])

    @cached_property
    def cumulative_rows(self) -> tuple[tuple[float, ...], ...]:
        """Running sums along each row as Python floats, for inverse-CDF draws."""
        return tuple(tuple(row) for row in np.cumsum(self.rows, axis=1).tolist())

    @classmethod
    def identity(cls, size: int) -> "Channel":
        return cls(np.eye(size))

    def __repr__(self) -> str:
        return f"Channel({self.rows.tolist()!r})"


class DistortionMeasure(enum.Enum):
    """How far a channel may push a distribution from its original."""

    TV_L1 = "tv_l1"
    KL = "kl"

    def evaluate(self, original, perturbed) -> float:
        """Distortion d(original, perturbed); KL reads D(original || perturbed)."""
        p = original.probs if isinstance(original, Distribution) else np.asarray(original, dtype=float)
        q = perturbed.probs if isinstance(perturbed, Distribution) else np.asarray(perturbed, dtype=float)
        if p.shape != q.shape:
            raise ShapeError(f"mismatched shapes {p.shape} vs {q.shape}")
        if self is DistortionMeasure.TV_L1:
            return float(np.abs(p - q).sum())
        return _kl_arrays(p, q)


def normalize(weights) -> Distribution:
    """Scale a nonnegative weight vector into a Distribution.

    Raises ConstructionError when the vector has a negative entry or no mass.
    """
    arr = _as_float_array(weights, "weights")
    if np.any(arr < 0):
        raise ConstructionError("weights must be nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ConstructionError("weights must have positive total mass")
    return Distribution(arr / total)


def apply_channel(dist: Distribution, channel: Channel) -> Distribution:
    """Push a distribution through a channel: the output law P @ A."""
    p = dist.probs
    rows = channel.rows
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
    parr = p.probs if isinstance(p, Distribution) else _as_float_array(p, "p")
    qarr = q.probs if isinstance(q, Distribution) else _as_float_array(q, "q")
    if parr.shape != qarr.shape:
        raise ShapeError(f"mismatched shapes {parr.shape} vs {qarr.shape}")
    return _kl_arrays(parr, qarr)


def binary_kl(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), in nats.

    Both arguments must lie strictly inside (0, 1).
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise DomainError(f"binary_kl needs arguments in (0, 1), got {a!r}, {b!r}")
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def bhattacharyya(p, q) -> float:
    """Bhattacharyya distance -log sum(sqrt(p * q)), in nats.

    Requires both arguments to have full support so the coefficient is
    positive and the distance finite.
    """
    parr = p.probs if isinstance(p, Distribution) else _as_float_array(p, "p")
    qarr = q.probs if isinstance(q, Distribution) else _as_float_array(q, "q")
    if parr.shape != qarr.shape:
        raise ShapeError(f"mismatched shapes {parr.shape} vs {qarr.shape}")
    if np.any(parr <= 0.0) or np.any(qarr <= 0.0):
        raise DomainError("bhattacharyya requires strictly positive entries")
    coeff = float(np.sqrt(parr * qarr).sum())
    return -math.log(coeff)


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


def log_likelihood_ratio(counts, p: Distribution, q: Distribution) -> float:
    """Cumulative log-likelihood ratio sum counts[a] * log(p[a] / q[a]).

    Returns +inf when the sample hits a symbol with q-mass zero but positive
    p-mass, -inf in the mirror case, and nan when both masses vanish on an
    observed symbol.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.shape != p.probs.shape or arr.shape != q.probs.shape:
        raise ShapeError("counts and distributions must share one alphabet")
    observed = arr > 0.0
    pm = p.probs[observed]
    qm = q.probs[observed]
    if np.any((pm == 0.0) & (qm == 0.0)):
        return math.nan
    if np.any(qm == 0.0):
        return math.inf
    if np.any(pm == 0.0):
        return -math.inf
    return float(np.dot(arr[observed], np.log(pm) - np.log(qm)))
