"""Divergence minimization over distortion balls and channel sets.

The reach `min D(qhat || q)` over a distortion ball, and the argmin of
`D(x || w)` over one, are solved exactly from their KKT conditions: a
sorting water-fill for TV balls, and a mixture or an exponential tilt with
one bisected scalar for KL balls. Alternating these exact blocks solves the
pairwise minimum `min D(q1 || q2)` over two balls, for many pairs in one
alternation. The binary common-channel min-max has a closed form in output
coordinates: the larger of the clamps of qhat[0] onto the two laws' ranges
of outputs over the common channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InfeasibleError, ResourceError, ShapeError
from .prob import (Channel, Distribution, DistortionMeasure, _binary_kl, _check_integers, _instance,
                   _kl_rows, _law, _real)

__all__ = [
    "DistortionBall",
    "BallMinResult",
    "PairMinResult",
    "ChannelMinMaxResult",
    "channel_from_output",
    "min_divergence_to_ball",
    "pairwise_min_divergence",
    "min_max_divergence_over_channel",
    "min_divergence_over_common_channels",
]

_FEASIBILITY_SLACK = 1e-9
# Most steps any bracket-widening loop may take before giving up.
_BRACKET_CAP = 100
# Most bisection or alternation steps an exact block solver may take.
_BISECTION_CAP = 200
# Most halvings of a binary KL ball's edge: adjacent floats anywhere in [0, 1], 2^-1074 included.
_EDGE_CAP = 1_100
# The stop rule of the pairwise alternation (`pairwise_min_divergence`).
_TOLERANCE = 1e-10
_PATIENCE = 5


def _drop(best: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The drop from each running minimum to its round's value, relative to it."""
    return (best - value) / np.maximum(np.abs(best), 1e-300)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y, with the log taken only where x > 0 and 0 elsewhere."""
    return x * np.log(y, out=np.zeros(np.shape(y)), where=x > 0.0)


def _clamp_divergence(t: np.ndarray, lo, hi) -> np.ndarray:
    """`_binary_kl` from each t to its clamp onto [lo, hi], elementwise and
    equal to it bit for bit: zero where the clamp leaves t as it is. Both
    take their logs from `np.log`."""
    tc, s = np.minimum(np.maximum(t, lo), hi), 1.0 - t
    # where the clamp is exact the terms are zero, or 0/0 at t = 0 or 1;
    # the log skips those, and fmax makes any rounding below zero exactly zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # over: t near +-1e308
        val = _xlogy(t, t / tc) + _xlogy(s, s / (1.0 - tc))
    return np.fmax(val, 0.0, out=val if isinstance(val, np.ndarray) else None)


@dataclass(frozen=True, eq=False)
class DistortionBall:
    """All distributions within a distortion budget of a center.

    The feasible set is {q : d(center, q) <= radius, q >= floor entrywise,
    sum(q) = 1}. The center itself must clear the floor, otherwise the
    floored set might be empty and the ball is rejected.
    """

    center: Distribution
    radius: float
    measure: DistortionMeasure
    floor: float = 1e-9

    def __post_init__(self) -> None:
        _instance("center", self.center, Distribution)
        object.__setattr__(self, "radius", _real("radius", self.radius))
        _instance("measure", self.measure, DistortionMeasure)
        object.__setattr__(self, "floor", _real("floor", self.floor, 0.0, 1.0 / self.center.size))
        if not self.center.is_fully_supported(self.floor):
            raise InfeasibleError(
                "ball center falls below the support floor; feasible set may be empty"
            )

    @property
    def size(self) -> int:
        return self.center.size

    @cached_property
    def interval(self) -> tuple[float, float]:
        """Feasible range of the first coordinate; binary alphabets only."""
        if self.size != 2:
            raise ShapeError("interval reduction applies to binary alphabets only")
        c = float(self.center.probs[0])
        lo_cap, hi_cap = self.floor, 1.0 - self.floor
        if self.measure is DistortionMeasure.KL and self.radius > 0.0:
            lo, hi = _bisect_kl_edge(c, self.radius, lo_cap), _bisect_kl_edge(c, self.radius, hi_cap)
        else:  # sum|q - c| = 2|q0 - c0| for binary vectors; radius 0 holds c alone under KL too
            lo, hi = c - self.radius / 2.0, c + self.radius / 2.0
        return max(lo, lo_cap), min(hi, hi_cap)


def _inside(w: np.ndarray, p: np.ndarray, ball: DistortionBall) -> np.ndarray:
    """Whether each row of w (its last axis) lies in the ball with the
    measure, radius and floor of `ball` around the matching row of p."""
    return ((ball.measure._rows(p, w) <= ball.radius) & (w.min(axis=-1) >= ball.floor)
            & (w.sum(axis=-1) == 1.0))


def _bisect_kl_edge(c: float, radius: float, far: float) -> float:
    """The t between c and `far` where D(c || t) reaches the radius, on its
    feasible side, to adjacent floats; `far` itself when D(c || far) stays
    within the (positive) radius. ResourceError past `_EDGE_CAP` halvings."""
    if _binary_kl(c, far) <= radius:
        return far
    inside, outside = c, far
    for _ in range(_EDGE_CAP):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:  # adjacent floats: no later step moves either
            return inside
        if _binary_kl(c, mid) > radius:
            outside = mid
        else:
            inside = mid
    raise ResourceError(f"KL edge at radius {radius} around {c} still open after {_EDGE_CAP} halvings")


@dataclass(frozen=True)
class BallMinResult:
    value: float
    argmin: Distribution
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# Exact block minimizers over one ball
#
# Over a ball with center p, radius r and floor f, the reach argmin of
# D(w || q) and the argmin of D(x || w) solve KKT systems with one or two
# scalar multipliers. Sorting finds the TV multipliers; a capped bisection
# finds the KL one. The balls of one game differ only in their centers, so
# each solver takes an (R, K) array of rows w with an (R, K) array of
# centers p, and solves every row against its own center: a row's result
# does not depend on the other rows.


def _upper_level(w: np.ndarray, c: np.ndarray, ratio: np.ndarray, mass: float) -> np.ndarray:
    """Per row of w, the level h > 0 with sum((w/h - c)_+) = mass > 0, by
    sorting the ratio w/c; c holds one row per row of w."""
    n, size = w.shape
    # flat positions of each row's entries in decreasing ratio, for three gathers
    order = (-ratio).argsort(axis=1)
    order += np.arange(0, n * size, size)[:, None]
    levels = w.take(order).cumsum(axis=1) / (c.take(order).cumsum(axis=1) + mass)
    above = ratio.take(order) > levels
    # the top ratio always counts: a mass below the rounding of c leaves no
    # ratio above its level
    above[:, 0] = True
    return levels[np.arange(n), size - 1 - above[:, ::-1].argmax(axis=1)]


def _floor_fill(v: np.ndarray, floor: float) -> np.ndarray:
    """Per row, max(floor, v/lam) with lam making the sum one; rows of v are
    nonnegative with some mass."""
    x = v / v.sum(axis=1, keepdims=True)
    if x.min() < floor:
        low = x.min(axis=1) < floor
        y = x[low]
        with np.errstate(over="ignore"):  # y/f is inf for a subnormal f, as y/0 would be
            lam = _upper_level(y, np.full_like(y, floor), y / floor, 1.0 - x.shape[1] * floor)
        x[low] = np.maximum(floor, y / lam[:, None])
    return x


# Most (row, knot, symbol) entries one knot scan of the TV solver holds.
_SCAN_ENTRIES = 1 << 18


def _tv_block_argmin(w: np.ndarray, p: np.ndarray, floor: float, mass: float) -> np.ndarray:
    """Per row of w, the common argmin of D(w || q) and of D(q || w) over
    the TV ball with that row of p as center, radius 2 mass and floor f
    (`floor`).

    With rho = w/p, both optima take q_i = w_i/h where rho_i > h,
    q_i = max(f, w_i/l) where rho_i < l, and q_i = p_i otherwise. The up
    level h and the down level l each move r/2 of mass and come from
    independent water-fills. When l > h the budget is slack and only the
    floor binds.
    """
    n, size = w.shape
    if mass == 0.0:
        return p.copy()
    step = max(1, _SCAN_ENTRIES // (size * (2 * size + 1)))
    if n > step:
        return np.concatenate([_tv_block_argmin(w[i:i + step], p[i:i + step], floor, mass)
                               for i in range(0, n, step)])
    room = p - floor
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # x/0 is inf for x > 0, and nan, made 0, for x = 0; x over a
        # subnormal floor may overflow to inf too
        rho, sigma = np.fmax(w / p, 0.0), np.fmax(w / floor, 0.0)
        high = _upper_level(w, p, rho, mass)[:, None]

        # The mass that level l moves below p, sum(clip(p - w/l, 0, p - f)),
        # is continuous and nondecreasing in l, with knots where a symbol
        # leaves p (rho) and where it reaches the floor (sigma). At l = 0,
        # w_i = 0 gives nan, which fmin makes p_i - f.
        knots = np.concatenate([rho, sigma, np.full((n, 1), math.inf)], axis=1)
        knots.sort(axis=1)
        moved = np.fmax(np.fmin(p[:, None, :] - w[:, None, :] / knots[:, :, None], room[:, None, :]),
                        0.0).sum(axis=2)
        reached = moved >= mass
        # Between the knot below the first that moves r/2 and that knot, the
        # moved mass is A - B/l. When the first knot (l = 0) does, the knot
        # below wraps to the last (l = inf), which gives B = 0 and low = 0.
        low_knot = knots[np.arange(n), reached.argmax(axis=1) - 1][:, None]
        # sigma >= rho, so the floored symbols are among those below low_knot
        below, floored = rho <= low_knot, sigma <= low_knot
        low = ((w * (below ^ floored)).sum(axis=1)
               / ((np.where(floored, room, p) * below).sum(axis=1) - mass))[:, None]
        q = np.where(rho > high, w / high, np.where(rho < low, np.fmax(w / low, floor), p))
        first = reached[:, 0]
        if first.any():
            # Symbols with w_i = 0 alone give up r/2 as l -> 0; the objective
            # ignores them, so shrink them in proportion to their room above f.
            gone = np.where(w[first] == 0.0, room[first], 0.0)
            shrunk = np.where(gone > 0.0, p[first] - mass * gone / gone.sum(axis=1, keepdims=True),
                              p[first])
            q[first] = np.where(rho[first] > high[first], q[first], shrunk)
    fill = ~reached[:, -1] | (low > high)[:, 0]
    if fill.any():
        q[fill] = _floor_fill(w[fill], floor)
    return q


def _bisect_level(point, level, radius: float, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect, for each row, a parameter between an infeasible `lo` and a
    feasible `hi` until level(point(s, rows), rows) = radius.

    point(s, rows) gives the points at parameters s of the listed rows, and
    level(q, rows) the levels of those points. Every row stops on its own
    when its bracket is a few ulps wide, or at the cap; returns the points
    at the feasible ends, those ends, which rows stopped before the cap,
    and each row's steps.
    """
    n = lo.size
    # a slice selects every row as views, until the first row stops
    rows, index, hi = slice(None), np.arange(n), np.array(hi, dtype=float)
    a, b = np.array(lo, dtype=float), hi.copy()
    converged, steps = np.zeros(n, dtype=bool), np.full(n, _BISECTION_CAP)
    width = 4.0 * np.finfo(float).eps
    # brackets stay inside the first ones, so no row stops before its gap is this small
    near = width * max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    for it in range(1, _BISECTION_CAP + 1):
        mid = 0.5 * (a + b)
        inside = level(point(mid, rows), rows) <= radius
        a, b = np.where(inside, a, mid), np.where(inside, mid, b)
        gap = np.abs(b - a)
        if gap.min() > near:
            continue
        done = gap <= width * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        if done.any():
            stopped = index[done]
            hi[stopped], converged[stopped], steps[stopped] = b[done], True, it
            rows = index = index[~done]
            a, b = a[~done], b[~done]
            if rows.size == 0:
                break
    hi[index] = b
    return point(hi, slice(None)), hi, converged, steps


def _kl_from(p: np.ndarray):
    """q, rows -> D(p_r || q_r) for the rows of the (R, K) array p that the
    rows of q pair with, +inf where q_r misses p_r's support (with a divide
    warning): `_kl_rows`, with p's logs taken once for the bisections."""
    support = p > 0.0
    log_p = np.log(p, out=np.zeros_like(p), where=support)
    # off the support both logs read 0, so the term is an exact zero, which
    # leaves the running sum as it was
    return lambda q, rows: np.vecdot(p[rows], log_p[rows] - np.log(q, out=np.zeros(q.shape),
                                                                   where=support[rows]))


def _kl_reach_argmin(w: np.ndarray, p: np.ndarray, floor: float,
                     radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row, argmin of D(w || q) over the KL ball around that row of p:
    the floored mixture of w and p, and the weight t on p (zero where w
    itself, floored, is in).

    Stationarity gives q = (1-t) w + t p (Csiszar's mixture form), with t
    bisected on D(p || q(t)) = r. The bisection runs on log(1-t) so that a
    tiny radius keeps full relative precision in the weight on w.
    """
    n = w.shape[0]
    converged, steps = np.ones(n, dtype=bool), np.zeros(n, dtype=int)
    if radius == 0.0:
        return p.copy(), np.ones(n), converged, steps

    def mixture(s: np.ndarray, v: np.ndarray, c: np.ndarray) -> np.ndarray:
        # expm1 keeps the weight on p to full relative precision when s is near 0
        return _floor_fill(np.exp(s)[:, None] * v - np.expm1(s)[:, None] * c, floor)

    with np.errstate(divide="ignore"):  # q = 0 on the support of p: D = inf
        q = mixture(np.zeros(n), w, p)  # w itself, floored
        out = np.flatnonzero(_kl_rows(p, q) > radius)
        weight = np.zeros(n)
        if out.size:
            far, centers = w[out], p[out]
            # at the smallest normal weight the mixture is p to rounding: feasible
            q[out], s, converged[out], steps[out] = _bisect_level(
                lambda s, rows: mixture(s, far[rows], centers[rows]), _kl_from(centers), radius,
                np.zeros(out.size), np.full(out.size, math.log(np.finfo(float).tiny)))
            weight[out] = -np.expm1(s)
    return q, weight, converged, steps


def _lambertw_exp(y: np.ndarray) -> np.ndarray:
    """W(exp(y)) on the principal branch, the root w of w + log w = y, for
    every y: 0 at y = -inf, and within 4 ulps of the exact value for y in
    [-745, 1e4], with no numpy warning.

    Up to y = 700 it takes four Newton steps on w e^w = x, x = e^y, from
    Winitzki's start L (1 - log(1 + L) / (2 + L)), L = log(1 + x), which
    is within 2% of the root. Each step reads x e^-w, not e^(y - w):
    rounding y - w would cost up to ulp(y) relative where w is small.
    Above 700, where x overflows, u = y - log u contracts by 1/u. Only
    numpy's `exp`, `log` and `log1p` are used.
    """
    x = np.exp(np.minimum(y, 700.0))
    start = np.log1p(x)
    w = start - start * np.log1p(start) / (2.0 + start)
    for _ in range(4):  # quadratic from 2%: the fourth step lands within rounding
        w -= (w - x * np.exp(-w)) / (1.0 + w)
    big = y > 700.0
    if big.any():
        u = y[big]
        for _ in range(6):  # u = y - log u contracts by 1/u < 1/690
            u = y[big] - np.log(u)
        w[big] = u
    return w


def _kl_tilt_argmin(w: np.ndarray, p: np.ndarray, floor: float,
                    radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, argmin of D(x || w) over the KL ball around that row of p,
    an I-projection of w; whether each row converged, and its steps.

    Stationarity gives x_i = mu p_i / W(mu p_i e^(1+lam) / w_i) with W the
    Lambert function, lam fixing the sum and mu the level. Writing
    c = mu e^(1+lam) turns this into x_i proportional to
    w_i exp(W(c p_i / w_i)), normalized and floored; log c is bisected on
    D(p || x) = r, with x = w at c -> 0 and x -> p as c grows. Each row
    doubles its own bracket; one that stays open after `_BRACKET_CAP`
    doublings returns p, unconverged.
    """
    n = w.shape[0]
    x, converged, steps = p.copy(), np.ones(n, dtype=bool), np.zeros(n, dtype=int)
    # every feasible x has D(x || w) = inf when w misses p's support
    rows = np.flatnonzero(~((w == 0.0) & (p > 0.0)).any(axis=1) & (radius > 0.0))
    if rows.size == 0:
        return x, converged, steps
    w, p = w[rows], p[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(p > 0.0, np.log(p) - np.log(w), -math.inf)

    def tilt(s: np.ndarray, at) -> np.ndarray:
        lw = _lambertw_exp(s[:, None] + log_ratio[at])
        return _floor_fill(w[at] * np.exp(lw - lw.max(axis=1, keepdims=True)), floor)

    level = _kl_from(p)  # w > 0 on the support of p, so x is too
    lo = -40.0 - log_ratio.max(axis=1)  # c p_i / w_i < e^-40: x equals w to rounding
    start = tilt(lo, slice(None))
    inside = level(start, slice(None)) <= radius
    x[rows[inside]] = start[inside]
    hi, widen, live = 1.0 - lo, np.zeros(rows.size, dtype=int), np.flatnonzero(~inside)
    for k in range(1, _BRACKET_CAP + 1):
        if live.size == 0:
            break
        closed = level(tilt(hi[live], live), live) <= radius
        widen[live[closed]] = k
        live = live[~closed]
        lo[live], hi[live] = hi[live], 2.0 * hi[live]
    converged[rows[live]], steps[rows[live]] = False, _BRACKET_CAP
    ends = np.flatnonzero(widen)
    if ends.size:
        x[rows[ends]], _, converged[rows[ends]], bisected = _bisect_level(
            lambda s, at: tilt(s, ends[at]), lambda q, at: level(q, ends[at]), radius, lo[ends],
            hi[ends])
        steps[rows[ends]] = widen[ends] + bisected
    return x, converged, steps


def _first_block_argmin(w: np.ndarray, p: np.ndarray,
                        ball: DistortionBall) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, argmin of D(x || w) over the ball like `ball` around that row
    of p (rows inside are their own); whether each converged, its steps."""
    x, converged, steps = w.copy(), np.ones(w.shape[0], dtype=bool), np.zeros(w.shape[0], dtype=int)
    out = np.flatnonzero(~_inside(w, p, ball))
    if out.size and ball.measure is DistortionMeasure.TV_L1:
        x[out] = _tv_block_argmin(w[out], p[out], ball.floor, 0.5 * ball.radius)
    elif out.size:
        x[out], converged[out], steps[out] = _kl_tilt_argmin(w[out], p[out], ball.floor, ball.radius)
    return x, converged, steps


def channel_from_output(source: Distribution, output: Distribution) -> Channel:
    """The rank-one channel sending every input symbol to the output law.

    Pushing `source` (or anything else) through it reproduces `output`
    exactly, which realizes any target output distribution.
    """
    if _instance("source", source, Distribution).size != _instance("output", output, Distribution).size:
        raise ShapeError("source and output must share one alphabet")
    return Channel(np.tile(output.probs, (source.size, 1)))


def _ball_reach(q0: np.ndarray, balls: tuple[DistortionBall, ...]) -> tuple[np.ndarray, np.ndarray,
                                                                           np.ndarray, np.ndarray]:
    """The reach of every row of the (R, K) array q0 into each ball, in one
    solve: argmins, values, whether each solve converged, and its bisection
    steps, as (M R)-row arrays that list the R rows of ball 0 first. The
    balls share their measure, radius and floor. Rows inside a ball are
    their own argmin there, at value zero."""
    if balls[0].size == 2:
        # each ball's interval ends as an (M, 1) column against the R rows
        lo, hi = np.array([b.interval for b in balls]).T[:, :, None]
        t = q0[:, 0]
        tc = np.minimum(np.maximum(t, lo), hi).ravel()
        return (np.column_stack([tc, 1.0 - tc]), _clamp_divergence(t, lo, hi).ravel(),
                np.ones(tc.size, dtype=bool), np.zeros(tc.size, dtype=int))
    return _reach_rows(np.concatenate([q0] * len(balls)),
                       np.array([b.center.probs for b in balls]).repeat(q0.shape[0], axis=0), balls[0])


def _reach_rows(w: np.ndarray, p: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, np.ndarray,
                                                                          np.ndarray, np.ndarray]:
    """`_ball_reach` on three or more symbols, with row r of w against the
    ball like `ball` (measure, radius, floor) around row r of p."""
    converged, steps, weight = np.ones(w.shape[0], dtype=bool), np.zeros(w.shape[0], dtype=int), None
    if ball.measure is DistortionMeasure.TV_L1:
        solved = _tv_block_argmin(w, p, ball.floor, 0.5 * ball.radius)
    else:
        solved, weight, converged, steps = _kl_reach_argmin(w, p, ball.floor, ball.radius)
    inside = _inside(w, p, ball)
    # D(q0 || q0) is exactly zero
    q = np.where(inside[:, None], w, solved)
    values = _kl_rows(w, q)
    if weight is not None:
        # Off the floor q is the mixture w + t (p - w), so D(w || q) is
        # -sum w log1p(t (p - w) / w): near the boundary, where t is tiny,
        # this keeps the relative precision that the log differences lose.
        mix = np.flatnonzero(~inside & (weight > 0.0) & (weight < 1.0)
                             & (solved.min(axis=1) > ball.floor))
        v, t = w[mix], weight[mix, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(v > 0.0, np.log1p(t * (p[mix] - v) / v), 0.0)
        values[mix] = -np.vecdot(v, terms)
    return q, values, converged | inside, np.where(inside, 0, steps)


def min_divergence_to_ball(qhat, ball: DistortionBall) -> BallMinResult:
    """Minimize D(qhat || q) over the ball; the reach of one adversary.

    Value is zero exactly when qhat itself is feasible. Binary alphabets
    reduce to clamping qhat onto the feasible interval. Larger alphabets
    solve the KKT conditions exactly: a sorting water-fill for TV balls,
    and for KL balls the mixture of qhat and the center with its weight
    bisected. `iterations` counts bisection steps. The solve has no
    tolerance to tune.
    """
    q0 = _law("qhat", qhat, _instance("ball", ball, DistortionBall).size)
    q, value, converged, steps = _ball_reach(q0[None, :], (ball,))
    return BallMinResult(float(value[0]), _floored_distribution(q[0], ball.floor),
                         bool(converged[0]), int(steps[0]))


def _floored_distribution(q: np.ndarray, floor: float) -> Distribution:
    """Distribution(q) for q >= floor entrywise, keeping every entry at or
    above the floor.

    The constructor divides by the sum, which rounding can leave an ulp
    above one, and that drops floored entries just below the floor. Then
    the largest entry gives up the excess, so the division can only raise
    the entries.
    """
    arg = Distribution(q)
    if arg.probs.min() >= floor:
        return arg
    q = q.copy()
    k = int(np.argmax(q))
    while q.sum() > 1.0:
        q[k] -= max(q.sum() - 1.0, np.spacing(q[k]))
    return Distribution(q)


@dataclass(frozen=True)
class PairMinResult:
    value: float
    argmin_first: Distribution
    argmin_second: Distribution
    converged: bool
    iterations: int


def _binary_pair(ball_first: DistortionBall, ball_second: DistortionBall) -> PairMinResult:
    """The pairwise minimum of two binary balls, from their intervals."""
    (a1, b1), (a2, b2) = ball_first.interval, ball_second.interval
    lo, hi = max(a1, a2), min(b1, b2)
    if lo <= hi:  # overlapping reach: both adversaries meet at one law
        t = min(max(float(ball_first.center.probs[0]), lo), hi)
        shared = Distribution(np.array([t, 1.0 - t]))
        return PairMinResult(0.0, shared, shared, True, 0)
    t1, t2 = (b1, a2) if b1 < a2 else (a1, b2)
    return PairMinResult(_binary_kl(t1, t2), Distribution(np.array([t1, 1.0 - t1])),
                         Distribution(np.array([t2, 1.0 - t2])), True, 0)


def pairwise_min_divergence(ball_first, ball_second):
    """Minimize D(q1 || q2) jointly over two balls, or over each pair of
    two equal-length sequences of balls.

    The objective is jointly convex and the feasible set is a product, so
    alternating exact block minimization reaches the global optimum. Each
    block is solved exactly: the q1 step is an I-projection of q2 onto the
    first ball, the q2 step the reach of q1 into the second. A pair stops
    after `_PATIENCE` rounds in a row that drop its running minimum by less
    than `_TOLERANCE` relative (converged), after `_BISECTION_CAP` rounds,
    or at a round that ends on its start state q2 bit for bit, with the
    outcome the repeats of that round would give. So a pair of balls has
    one result, the running minimum: its value, never below zero, and
    argmins. `iterations` counts the rounds run and their blocks' bisection
    steps; `converged` is False when the rounds (or the repeats they skip)
    or any block would hit its cap. Binary balls take a closed form.

    Two balls give one `PairMinResult`; two sequences a tuple whose entry r
    is, bit for bit, the result for (ball_first[r], ball_second[r]). All
    pairs run in one alternation, each half-round one block solve over the
    pairs still running. The balls of each sequence share their measure,
    radius and floor.
    """
    single = isinstance(ball_first, DistortionBall)
    firsts, seconds = (tuple(_instance(name, ball, DistortionBall)
                             for ball in ((value,) if single else _instance(name, value, (tuple, list))))
                       for name, value in (("ball_first", ball_first), ("ball_second", ball_second)))
    if len(firsts) != len(seconds):
        raise ShapeError("ball_first and ball_second must have one ball per pair")
    if len({ball.size for ball in firsts + seconds}) > 1:
        raise ShapeError("balls must share one alphabet")
    if any(len({(b.measure, b.radius, b.floor) for b in balls}) > 1 for balls in (firsts, seconds)):
        raise DomainError("the balls of each sequence must share one measure, radius and floor")
    if not firsts or firsts[0].size == 2:
        results = tuple(map(_binary_pair, firsts, seconds))
        return results[0] if single else results

    # one row per pair: q2[r] is the state of pair r, best[r] its running minimum
    p1, p2 = (np.array([ball.center.probs for ball in balls]) for balls in (firsts, seconds))
    best = _kl_rows(p1, p2)
    best1, best2, q2 = p1.copy(), p2.copy(), p2.copy()
    iterations, quiet = np.zeros(best.size, dtype=int), np.zeros(best.size, dtype=int)
    converged, blocks_converged = np.zeros(best.size, dtype=bool), np.ones(best.size, dtype=bool)
    live, rounds = np.arange(best.size), 0
    while live.size:
        q1, first_ok, first_steps = _first_block_argmin(q2[live], p1[live], firsts[0])
        raw, values, reach_ok, reach_steps = _reach_rows(q1, p2[live], seconds[0])
        # the probabilities of `_floored_distribution` on each row
        reach = raw / raw.sum(axis=1, keepdims=True)
        for k in np.flatnonzero(reach.min(axis=1) < seconds[0].floor):
            reach[k] = _floored_distribution(raw[k], seconds[0].floor).probs
        iterations[live] += 1 + first_steps + reach_steps
        blocks_converged[live] &= first_ok & reach_ok
        fixed = (reach == q2[live]).all(axis=1)
        q2[live] = reach
        rounds, old = rounds + 1, best[live]
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf: disjoint supports start at inf
            quiet[live] = calm = np.where(_drop(old, values) < _TOLERANCE, quiet[live] + 1, 0)
            better = values <= old  # rounding can leave the rounds cycling near zero
            best[live] = new = np.where(better, values, old)
            # every repeat of a fixed point drops by _drop <= 0, so is quiet, unless that is NaN
            settled = fixed & (_drop(new, values) < _TOLERANCE)
        best1[live[better]], best2[live[better]] = q1[better], reach[better]
        converged[live] = stop = (calm >= _PATIENCE) | (
            settled & (rounds + _PATIENCE - calm <= _BISECTION_CAP))
        live = live[~(stop | fixed)] if rounds < _BISECTION_CAP else live[:0]
    ok = (converged & blocks_converged).tolist()
    results = tuple(PairMinResult(max(b, 0.0), Distribution(a1), Distribution(a2), c, n)
                    for b, a1, a2, c, n in zip(best.tolist(), best1, best2, ok, iterations.tolist()))
    return results[0] if single else results


# ---------------------------------------------------------------------------
# Common-channel min-max, binary alphabets
#
# A binary channel [[u, 1-u], [v, 1-v]] sends p0 and p1 to the output
# coordinates x = (p0 A)[0] and y = (p1 A)[0]. In the coordinates (x, s),
# with s = u - v, the channel entries are u = x + p0[1] s and v = x - p0[0] s,
# and y = x + (p1[0] - p0[0]) s. Every constraint of the problem reads
# lo <= x + c s <= hi: u and v in [0, 1], y in the interval of p1's ball,
# and x in the interval of p0's ball (c = 0). The range of x is found
# without dividing by p1[0] - p0[0], so p0 = p1 (where y = x) stays well
# posed; a slice divides by it only to aim y at qhat[0], then clips.


@dataclass(frozen=True)
class ChannelMinMaxResult:
    value: float
    channel: Channel


class _CommonChannelSet:
    """The binary channels that keep both laws inside their balls, as
    slices in s over the feasible output range [x_lo, x_hi] of p0."""

    def __init__(self, w: float, d: float, interval0: tuple[float, float],
                 interval1: tuple[float, float]) -> None:
        self.w, self.d = w, d
        x_lo, x_hi = interval0
        rows = [(1.0 - w, 0.0, 1.0), (-w, 0.0, 1.0)]
        if d == 0.0:
            x_lo, x_hi = max(x_lo, interval1[0]), min(x_hi, interval1[1])
        else:
            rows.append((d, *interval1))
        # s >= (ell - x)/c and s <= (mu - x)/c for each row
        self.rows = [(c, lo, hi) if c > 0.0 else (c, hi, lo) for c, lo, hi in rows]
        # Eliminating s pairs each lower bound with every other upper bound;
        # both sides are multiplied by |c_i c_j| so no small c is divided by.
        for i, (ci, ell, _) in enumerate(self.rows):
            for j, (cj, _, mu) in enumerate(self.rows):
                if i == j:
                    continue
                wi, wj = math.copysign(cj, ci), math.copysign(ci, cj)
                slope, rhs = wj - wi, mu * wj - ell * wi
                if slope > 0.0:
                    x_hi = min(x_hi, rhs / slope)
                elif slope < 0.0:
                    x_lo = max(x_lo, rhs / slope)
        # The identity channel (x = p0[0], s = 1) is always feasible, so
        # rounding may not push the range off it.
        self.x_lo, self.x_hi = min(x_lo, w), max(x_hi, w)

    def best_y(self, x: float, target: float) -> tuple[float, float]:
        """The feasible (s, y) at x with y closest to the target."""
        s_lo, s_hi = -math.inf, math.inf
        for c, ell, mu in self.rows:
            s_lo, s_hi = max(s_lo, (ell - x) / c), min(s_hi, (mu - x) / c)
        if self.d == 0.0:
            return min(max(1.0, s_lo), s_hi), x
        s = min(max((target - x) / self.d, s_lo), s_hi)
        return s, x + self.d * s

    def channel(self, x: float, s: float) -> Channel:
        u = min(max(x + (1.0 - self.w) * s, 0.0), 1.0)
        v = min(max(x - self.w * s, 0.0), 1.0)
        return Channel(np.array([[u, 1.0 - u], [v, 1.0 - v]]))


class _ChannelGame:
    """The binary common-channel game of (p0, p1, delta, measure), on balls
    with `DistortionBall`'s default floor.

    The channel set comes in two orderings of the two laws: `regions[b]`
    puts p_b first, so its range of x is what the channels make of p_b.
    Every solve takes the target t = qhat[0].
    """

    def __init__(self, p0: Distribution, p1: Distribution, delta: float,
                 measure: DistortionMeasure) -> None:
        pa, pb = _instance("p0", p0, Distribution).probs, _instance("p1", p1, Distribution).probs
        if pa.size != 2 or pb.size != 2:
            raise ShapeError("the common-channel min-max applies to binary alphabets only")
        delta = _real("delta", delta)
        if np.any(pa <= 0.0) or np.any(pb <= 0.0):
            raise DomainError("both hypothesis laws must have full support")
        laws = [(float(p.probs[0]), DistortionBall(p, delta, measure).interval)
                for p in (p0, p1)]
        self.regions = tuple(_CommonChannelSet(w, v - w, own, rival)
                             for (w, own), (v, rival) in (laws, laws[::-1]))

    def single(self, t: float, target: int) -> ChannelMinMaxResult:
        """min over feasible channels of D(t || (p_target A)[0]), a clamp
        of t onto the output range of p_target, with the channel that
        attains it: the clamp x, and the y of its slice closest to t."""
        region = self.regions[target]
        x = min(max(t, region.x_lo), region.x_hi)
        s, _ = region.best_y(x, t)
        return ChannelMinMaxResult(_binary_kl(t, x), region.channel(x, s))

    def clamp_divergences(self, t: float) -> tuple[float, float]:
        """Entry b is `single(t, b).value`: the divergence to t's clamp onto range b."""
        return tuple(_binary_kl(t, min(max(t, r.x_lo), r.x_hi)) for r in self.regions)

    def minmax(self, t: float) -> ChannelMinMaxResult:
        """min over feasible channels of the larger branch divergence: the
        single branch with the larger reach, whose channel also keeps the
        other branch within it (see `min_max_divergence_over_channel`)."""
        reach = self.clamp_divergences(t)
        return self.single(t, 0 if reach[0] >= reach[1] else 1)

    def facing_ends(self) -> Channel:
        """A feasible channel whose outputs of p0 and p1 lie nearest each
        other: both at the middle of the overlap of their ranges, else at
        the facing ends of the ranges."""
        region, rival = self.regions
        lo, hi = max(region.x_lo, rival.x_lo), min(region.x_hi, rival.x_hi)
        if lo <= hi:
            return region.channel(0.5 * (lo + hi), 0.0)
        x, y = (region.x_hi, rival.x_lo) if region.x_hi < rival.x_lo else (region.x_lo, rival.x_hi)
        s, _ = region.best_y(x, y)
        return region.channel(x, s)


def min_max_divergence_over_channel(qhat, p0: Distribution, p1: Distribution, delta: float,
                                    measure: DistortionMeasure) -> ChannelMinMaxResult:
    """Minimize max over b = 0, 1 of D(qhat || p_b A) over binary channels
    A with d(p0, p0 A) <= delta and d(p1, p1 A) <= delta.

    Solved in output coordinates and in closed form. A channel
    [[u, 1-u], [v, 1-v]] sends (p0, p1) to (x, y) = ((p0 A)[0], (p1 A)[0]).
    Over u, v in [0, 1] these points form a parallelogram
    {L(x) <= y <= U(x)} with (0, 0) and (1, 1) among its corners; L and U
    are nondecreasing, and L(x) <= x <= U(x). The feasible set P is
    the parallelogram within I0 x I1, the intervals of the two balls,
    whose floor (`DistortionBall`'s default) keeps every output law at
    least that floor entrywise. One
    branch b alone is a clamp of t = qhat[0] onto the range of P in its
    coordinate (`min_divergence_over_common_channels`).

    The two together give M, the larger of the two clamp
    divergences: no channel does better than either clamp, and some
    channel reaches M. Let J = {z : D(t || z) <= M}, an interval around t
    that holds both clamps, and suppose P missed J x J. Since the diagonal
    lies in the parallelogram, A = I0 & J and B = I1 & J would be
    disjoint; they hold the clamps, so neither is empty. If A < B, every x
    in A has U(x) < min B, else (x, min B) would lie in P and in J x J.
    The clamp x* of p0 lies in A, and a point (x*, y') of P gives
    min I1 <= y' < min B, so min B = min J <= max A, against A < B. The
    case B < A is symmetric.

    The channel returned sits at the clamp of the larger branch, with the
    other output the point of its slice of P closest to t. That point lies
    in J: say p0's branch is the larger, with clamp x* >= t (the other
    cases are symmetric), so that x* = max J. The slice is
    [max(L(x*), min I1), min(U(x*), max I1)], and the other clamp y* lies
    in I1 and in J, so the slice starts at or below x* and ends at or above
    min J. It meets J, which holds t. Larger alphabets raise ShapeError.
    """
    with np.errstate(over="ignore"):  # inf for a first entry near -1e308, not a warning
        return _ChannelGame(p0, p1, delta, measure).minmax(float(_law("qhat", qhat, 2)[0]))


def min_divergence_over_common_channels(qhat, target: int, p0: Distribution, p1: Distribution,
                                        delta: float, measure: DistortionMeasure) -> ChannelMinMaxResult:
    """Minimize D(qhat || p_target A) over channels feasible for both laws.

    Unlike `min_divergence_to_ball`, one channel must respect the distortion
    budget of both hypotheses at once, so the reach of `target` is smaller
    than its own ball.
    """
    _check_integers(0, 2, target=target)
    with np.errstate(over="ignore"):  # inf for a first entry near -1e308, not a warning
        return _ChannelGame(p0, p1, delta, measure).single(float(_law("qhat", qhat, 2)[0]), target)
