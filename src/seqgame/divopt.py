"""Divergence minimization over distortion balls and channel sets.

The reach `min D(qhat || q)` over a distortion ball, and the argmin of
`D(x || w)` over one, are solved exactly from their KKT conditions: a
sorting water-fill for TV balls, and a mixture or an exponential tilt with
one bisected scalar for KL balls. Alternating these exact blocks solves the
pairwise minimum `min D(q1 || q2)` over two balls here, and the
Bhattacharyya separation in `equilibrium`. The binary common-channel
min-max is solved in output coordinates by a golden-section search on one
convex function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import lambertw

from .errors import DomainError, InfeasibleError, ResourceError, ShapeError
from .prob import Channel, Distribution, DistortionMeasure, _kl_arrays, _kl_rows

__all__ = [
    "SolverOptions",
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


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the two alternations, `pairwise_min_divergence` and
    the Bhattacharyya separation: stop after `patience` rounds in a row
    whose value drops by less than `tolerance` relative."""

    tolerance: float = 1e-10
    patience: int = 5

    def __post_init__(self) -> None:
        if self.tolerance <= 0 or self.patience < 1:
            raise DomainError("solver options must be positive")


_DEFAULT_OPTIONS = SolverOptions()


def _binary_kl(t: float, s: float) -> float:
    """Binary KL with t and s on the closed interval [0, 1]; +inf where t
    puts mass that s does not."""
    if (t > 0.0 and s <= 0.0) or (t < 1.0 and s >= 1.0):
        return math.inf
    value = t * math.log(t / s) if t > 0.0 else 0.0
    if t < 1.0:
        value += (1.0 - t) * math.log((1.0 - t) / (1.0 - s))
    return value


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
        if self.radius < 0:
            raise DomainError(f"radius must be nonnegative, got {self.radius!r}")
        if not (0.0 <= self.floor < 1.0 / self.center.size):
            raise DomainError("floor must satisfy 0 <= floor < 1/K")
        if not self.center.is_fully_supported(self.floor):
            raise InfeasibleError(
                "ball center falls below the support floor; feasible set may be empty"
            )

    @property
    def size(self) -> int:
        return self.center.size

    def distortion(self, point) -> float:
        return self.measure.evaluate(self.center, point)

    def contains(self, point, slack: float = _FEASIBILITY_SLACK) -> bool:
        arr = point.probs if isinstance(point, Distribution) else np.asarray(point, dtype=float)
        if arr.shape != self.center.probs.shape:
            raise ShapeError("point alphabet does not match the ball center")
        if abs(arr.sum() - 1.0) > slack or np.any(arr < self.floor - slack):
            return False
        return self.measure.evaluate(self.center.probs, arr) <= self.radius + slack

    @cached_property
    def interval(self) -> tuple[float, float]:
        """Feasible range of the first coordinate; binary alphabets only."""
        if self.size != 2:
            raise ShapeError("interval reduction applies to binary alphabets only")
        c = float(self.center.probs[0])
        lo_cap, hi_cap = self.floor, 1.0 - self.floor
        if self.measure is DistortionMeasure.TV_L1:
            # sum|q - c| = 2|q0 - c0| for binary vectors
            lo, hi = c - self.radius / 2.0, c + self.radius / 2.0
        else:
            lo = _bisect_kl_edge(c, self.radius, lo_cap)
            hi = _bisect_kl_edge(c, self.radius, hi_cap)
        return max(lo, lo_cap), min(hi, hi_cap)


def _bisect_kl_edge(c: float, radius: float, far: float) -> float:
    """The t between c and `far` where D(c || t) reaches the radius, on its
    feasible side; `far` itself when D(c || far) stays within the radius."""
    if _binary_kl(c, far) <= radius:
        return far
    inside, outside = c, far
    for _ in range(200):
        mid = 0.5 * (inside + outside)
        if mid == inside or mid == outside:  # adjacent floats: no later step moves either
            break
        if _binary_kl(c, mid) > radius:
            outside = mid
        else:
            inside = mid
    return inside


def _project_simplex_floor(y: np.ndarray, floor: float) -> np.ndarray:
    """Projection onto {x : sum x = 1, x >= floor} via the sorting method."""
    k = y.size
    mass = 1.0 - k * floor
    z = y - floor
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - mass
    idx = np.arange(1, k + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(z - theta, 0.0) + floor


def _row_project(a: np.ndarray, floor: float) -> np.ndarray:
    out = np.empty_like(a)
    for i in range(a.shape[0]):
        out[i] = _project_simplex_floor(a[i], floor)
    return out


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
# finds the KL one. Each solver takes an (R, K) array of rows w and solves
# every row on its own: a row's result does not depend on the other rows.


def _upper_level(w: np.ndarray, c: np.ndarray, ratio: np.ndarray, mass: float) -> np.ndarray:
    """Per row of w, the level h > 0 with sum((w/h - c)_+) = mass > 0, by
    sorting the ratio w/c."""
    order = (-ratio).argsort(axis=1)
    rows = np.arange(w.shape[0])[:, None]
    levels = w[rows, order].cumsum(axis=1) / (c[order].cumsum(axis=1) + mass)
    above = ratio[rows, order] > levels
    # the top ratio always counts: a mass below the rounding of c leaves no
    # ratio above its level
    above[:, 0] = True
    return levels[rows[:, 0], w.shape[1] - 1 - above[:, ::-1].argmax(axis=1)]


def _floor_fill(v: np.ndarray, floor: float) -> np.ndarray:
    """Per row, max(floor, v/lam) with lam making the sum one; rows of v are
    nonnegative with some mass."""
    x = v / v.sum(axis=1, keepdims=True)
    if x.min() < floor:
        low = x.min(axis=1) < floor
        size = x.shape[1]
        y = x[low]
        lam = _upper_level(y, np.full(size, floor), y / floor, 1.0 - size * floor)
        x[low] = np.maximum(floor, y / lam[:, None])
    return x


# Most (row, knot, symbol) entries one knot scan of the TV solver holds.
_SCAN_ENTRIES = 1 << 18


def _tv_block_argmin(w: np.ndarray, ball: DistortionBall) -> np.ndarray:
    """Per row of w, the common argmin over a TV ball of D(w || q) and of
    D(q || w).

    With rho = w/p, both optima take q_i = w_i/h where rho_i > h,
    q_i = max(f, w_i/l) where rho_i < l, and q_i = p_i otherwise. The up
    level h and the down level l each move r/2 of mass and come from
    independent water-fills. When l > h the budget is slack and only the
    floor binds.
    """
    p, floor, mass = ball.center.probs, ball.floor, 0.5 * ball.radius
    n, size = w.shape
    if mass == 0.0:
        return np.tile(p, (n, 1))
    step = max(1, _SCAN_ENTRIES // (size * (2 * size + 1)))
    if n > step:
        return np.concatenate([_tv_block_argmin(w[i:i + step], ball) for i in range(0, n, step)])
    room = p - floor
    with np.errstate(divide="ignore", invalid="ignore"):
        # x/0 is inf for x > 0, and nan, made 0, for x = 0
        rho, sigma = np.fmax(w / p, 0.0), np.fmax(w / floor, 0.0)
        high = _upper_level(w, p, rho, mass)[:, None]

        # The mass that level l moves below p, sum(clip(p - w/l, 0, p - f)),
        # is continuous and nondecreasing in l, with knots where a symbol
        # leaves p (rho) and where it reaches the floor (sigma). At l = 0,
        # w_i = 0 gives nan, which fmin makes p_i - f.
        knots = np.concatenate([rho, sigma, np.full((n, 1), math.inf)], axis=1)
        knots.sort(axis=1)
        moved = np.fmax(np.fmin(p - w[:, None, :] / knots[:, :, None], room), 0.0).sum(axis=2)
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
            gone = np.where(w[first] == 0.0, room, 0.0)
            shrunk = np.where(gone > 0.0, p - mass * gone / gone.sum(axis=1, keepdims=True), p)
            q[first] = np.where(rho[first] > high[first], q[first], shrunk)
    fill = ~reached[:, -1] | (low > high)[:, 0]
    if fill.any():
        q[fill] = _floor_fill(w[fill], floor)
    return q


def _bisect_level(point, level, radius: float, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect, for each row, a parameter between an infeasible `lo` and a
    feasible `hi` until level(point(s, rows)) = radius.

    point(s, rows) gives the points at parameters s of the listed rows, and
    level their levels. Every row stops on its own when its bracket is a few
    ulps wide, or at the cap; returns the points at the feasible ends, which
    rows stopped before the cap, and each row's steps.
    """
    n = lo.size
    rows, hi = np.arange(n), np.array(hi, dtype=float)
    a, b = np.array(lo, dtype=float), hi.copy()
    converged, steps = np.zeros(n, dtype=bool), np.full(n, _BISECTION_CAP)
    width = 4.0 * np.finfo(float).eps
    # brackets stay inside the first ones, so no row stops before its gap is this small
    near = width * max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    for it in range(1, _BISECTION_CAP + 1):
        mid = 0.5 * (a + b)
        inside = level(point(mid, rows)) <= radius
        a, b = np.where(inside, a, mid), np.where(inside, mid, b)
        gap = np.abs(b - a)
        if gap.min() > near:
            continue
        done = gap <= width * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        if done.any():
            stopped = rows[done]
            hi[stopped], converged[stopped], steps[stopped] = b[done], True, it
            rows, a, b = rows[~done], a[~done], b[~done]
            if rows.size == 0:
                break
    hi[rows] = b
    return point(hi, np.arange(n)), converged, steps


def _kl_from(p: np.ndarray):
    """The map from an (R, K) array q to D(p || q_r) for each row, +inf
    where q_r misses the support of p (with a divide warning)."""
    # take keeps the rows contiguous, and with them the summation order of each row
    support = np.flatnonzero(p > 0.0)
    ps = p[support]
    log_ps = np.log(ps)
    return lambda q: np.vecdot(ps, log_ps - np.log(q.take(support, axis=1)))


def _kl_reach_argmin(w: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, argmin of D(w || q) over a KL ball: the floored mixture of
    w and p.

    Stationarity gives q = (1-t) w + t p (Csiszar's mixture form), with t
    bisected on D(p || q(t)) = r. The bisection runs on log(1-t) so that a
    tiny radius keeps full relative precision in the weight on w.
    """
    p, floor, radius = ball.center.probs, ball.floor, ball.radius
    n = w.shape[0]
    converged, steps = np.ones(n, dtype=bool), np.zeros(n, dtype=int)
    if radius == 0.0:
        return np.tile(p, (n, 1)), converged, steps
    level = _kl_from(p)

    def mixture(s: np.ndarray, v: np.ndarray) -> np.ndarray:
        # expm1 keeps the weight on p to full relative precision when s is near 0
        return _floor_fill(np.exp(s)[:, None] * v - np.expm1(s)[:, None] * p, floor)

    with np.errstate(divide="ignore"):  # q = 0 on the support of p: D = inf
        q = mixture(np.zeros(n), w)  # w itself, floored
        out = np.flatnonzero(level(q) > radius)
        if out.size:
            far = w[out]
            # at the smallest normal weight the mixture is p to rounding: feasible
            q[out], converged[out], steps[out] = _bisect_level(
                lambda s, rows: mixture(s, far[rows]), level, radius,
                np.zeros(out.size), np.full(out.size, math.log(np.finfo(float).tiny)))
    return q, converged, steps


def _lambertw_exp(y: np.ndarray) -> np.ndarray:
    """W(exp(y)) on the principal branch, finite for every finite y."""
    big = y > 600.0
    if not big.any():
        return lambertw(np.exp(y)).real
    out = np.empty_like(y)
    out[~big] = lambertw(np.exp(y[~big])).real
    u = y[big]
    for _ in range(6):  # u = y - log u contracts by 1/u < 1/590
        u = y[big] - np.log(u)
    out[big] = u
    return out


def _kl_tilt_argmin(w: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, bool, int]:
    """argmin of D(x || w) over a KL ball, an I-projection of w.

    Stationarity gives x_i = mu p_i / W(mu p_i e^(1+lam) / w_i) with W the
    Lambert function, lam fixing the sum and mu the level. Writing
    c = mu e^(1+lam) turns this into x_i proportional to
    w_i exp(W(c p_i / w_i)), normalized and floored; log c is bisected on
    D(p || x) = r, with x = w at c -> 0 and x -> p as c grows.
    """
    p, floor, radius = ball.center.probs, ball.floor, ball.radius
    if radius == 0.0 or np.any(w[p > 0.0] == 0.0):
        # every feasible x has D(x || w) = inf when w misses p's support
        return p.copy(), True, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(p > 0.0, np.log(p) - np.log(w), -math.inf)
    top = float(log_ratio.max())

    def tilt(s: np.ndarray, rows=None) -> np.ndarray:
        lw = _lambertw_exp(s[:, None] + log_ratio)
        return _floor_fill(w * np.exp(lw - lw.max(axis=1, keepdims=True)), floor)

    level = _kl_from(p)  # w > 0 on the support of p, so x is too
    lo = -40.0 - top  # c p_i / w_i < e^-40: x equals w to rounding
    x = tilt(np.array([lo]))
    if level(x)[0] <= radius:
        return x[0], True, 0
    hi = 1.0 - lo
    for widen in range(1, _BRACKET_CAP + 1):
        if level(tilt(np.array([hi])))[0] <= radius:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return p.copy(), False, _BRACKET_CAP
    x, converged, steps = _bisect_level(tilt, level, radius, np.array([lo]), np.array([hi]))
    return x[0], bool(converged[0]), widen + int(steps[0])


def _first_block_argmin(w: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, bool, int]:
    """argmin of D(x || w) over x in the ball."""
    if ball.contains(w, slack=0.0):
        return w, True, 0
    if ball.measure is DistortionMeasure.TV_L1:
        return _tv_block_argmin(w[None, :], ball)[0], True, 0
    return _kl_tilt_argmin(w, ball)


def channel_from_output(source: Distribution, output: Distribution) -> Channel:
    """The rank-one channel sending every input symbol to the output law.

    Pushing `source` (or anything else) through it reproduces `output`
    exactly, which realizes any target output distribution.
    """
    if source.size != output.size:
        raise ShapeError("source and output must share one alphabet")
    return Channel(np.tile(output.probs, (source.size, 1)))


def _ball_reach(q0: np.ndarray, ball: DistortionBall) -> tuple[np.ndarray, np.ndarray,
                                                               np.ndarray, np.ndarray]:
    """The reach of every row of the (R, K) array q0: argmins, values,
    whether each solve converged, and its bisection steps. Rows inside the
    ball are their own argmin, at value zero."""
    n = q0.shape[0]
    if ball.size == 2:
        lo, hi = ball.interval
        t = q0[:, 0].tolist()
        tc = [min(max(a, lo), hi) for a in t]
        values = np.array([0.0 if b == a else _binary_kl(a, b) for a, b in zip(t, tc)])
        tc = np.array(tc)
        return np.column_stack([tc, 1.0 - tc]), values, np.ones(n, dtype=bool), np.zeros(n, dtype=int)

    p = ball.center.probs
    if ball.measure is DistortionMeasure.TV_L1:
        distortion = np.abs(q0 - p).sum(axis=1)
        solved, converged, steps = _tv_block_argmin(q0, ball), np.ones(n, dtype=bool), np.zeros(n, dtype=int)
    else:
        distortion = _kl_rows(p, q0)
        solved, converged, steps = _kl_reach_argmin(q0, ball)
    inside = (distortion <= ball.radius) & (q0.min(axis=1) >= ball.floor) & (q0.sum(axis=1) == 1.0)
    # D(q0 || q0) is exactly zero
    q = np.where(inside[:, None], q0, solved)
    return q, _kl_rows(q0, q), converged | inside, np.where(inside, 0, steps)


def min_divergence_to_ball(qhat, ball: DistortionBall,
                           options: SolverOptions | None = None) -> BallMinResult:
    """Minimize D(qhat || q) over the ball; the reach of one adversary.

    Value is zero exactly when qhat itself is feasible. Binary alphabets
    reduce to clamping qhat onto the feasible interval. Larger alphabets
    solve the KKT conditions exactly: a sorting water-fill for TV balls,
    and for KL balls the mixture of qhat and the center with its weight
    bisected. `iterations` counts bisection steps. The solve has no
    tolerance to tune; `options` is accepted for a uniform signature.
    """
    q0 = qhat.probs if isinstance(qhat, Distribution) else np.asarray(qhat, dtype=float)
    if q0.shape != ball.center.probs.shape:
        raise ShapeError("qhat alphabet does not match the ball center")
    q, value, converged, steps = _ball_reach(q0[None, :], ball)
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


def pairwise_min_divergence(ball_first: DistortionBall, ball_second: DistortionBall,
                            options: SolverOptions | None = None) -> PairMinResult:
    """Minimize D(q1 || q2) jointly over two balls.

    The objective is jointly convex and the feasible set is a product, so
    alternating exact block minimization reaches the global optimum. Each
    block is solved exactly: the q1 step is an I-projection of q2 onto the
    first ball, the q2 step the reach of q1 into the second. `iterations`
    counts alternation steps plus the blocks' bisection steps; `converged`
    is False when the alternation or any block hit its cap. The rounds stop
    on their running minimum, whose value (never below zero) and argmins are
    returned.
    """
    opts = options or _DEFAULT_OPTIONS
    if ball_first.size != ball_second.size:
        raise ShapeError("balls must share one alphabet")

    if ball_first.size == 2:
        a1, b1 = ball_first.interval
        a2, b2 = ball_second.interval
        lo, hi = max(a1, a2), min(b1, b2)
        if lo <= hi:  # overlapping reach: both adversaries meet at one law
            t = min(max(float(ball_first.center.probs[0]), lo), hi)
            shared = Distribution(np.array([t, 1.0 - t]))
            return PairMinResult(0.0, shared, shared, True, 0)
        if b1 < a2:
            t1, t2 = b1, a2
        else:
            t1, t2 = a1, b2
        value = _binary_kl(t1, t2)
        return PairMinResult(
            value,
            Distribution(np.array([t1, 1.0 - t1])),
            Distribution(np.array([t2, 1.0 - t2])),
            True,
            0,
        )

    q1 = ball_first.center.probs
    q2 = ball_second.center.probs
    best, best_pair = _kl_arrays(q1, q2), (q1, q2)
    quiet = 0
    converged = False
    blocks_converged = True
    total_iters = 0
    for _ in range(_BISECTION_CAP):
        q1, first_ok, it1 = _first_block_argmin(q2, ball_first)
        inner = min_divergence_to_ball(q1, ball_second)
        q2 = inner.argmin.probs
        total_iters += 1 + it1 + inner.iterations
        blocks_converged &= first_ok and inner.converged
        value = inner.value
        rel = (best - value) / max(abs(best), 1e-300)
        # the running minimum: rounding can leave the rounds cycling near zero
        if value <= best:
            best, best_pair = value, (q1, q2)
        quiet = quiet + 1 if rel < opts.tolerance else 0
        if quiet >= opts.patience:
            converged = True
            break
    return PairMinResult(max(best, 0.0), Distribution(best_pair[0]), Distribution(best_pair[1]),
                         converged and blocks_converged, total_iters)


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
    converged: bool
    iterations: int


def _converged_value(result: ChannelMinMaxResult) -> float:
    """The value of a min-max solve; ResourceError if its search hit the cap."""
    if not result.converged:
        raise ResourceError(f"channel min-max search hit its cap after {result.iterations} steps")
    return result.value


# Shrink factor of a golden-section bracket per step.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    """The binary common-channel game of (p0, p1, delta, measure, floor).

    The channel set comes in two orderings of the two laws: `_region(b)`
    puts p_b first, so its range of x is what the channels make of p_b.
    Each ordering is built once, on first use. Every solve takes the
    target t = qhat[0].
    """

    def __init__(self, p0: Distribution, p1: Distribution, delta: float,
                 measure: DistortionMeasure, floor: float = 1e-9) -> None:
        pa, pb = p0.probs, p1.probs
        if pa.shape != pb.shape:
            raise ShapeError("qhat, p0, p1 must share one alphabet")
        if pa.size != 2:
            raise ShapeError("the common-channel min-max applies to binary alphabets only")
        if not delta >= 0.0:  # also rejects NaN
            raise DomainError("delta must be nonnegative")
        if np.any(pa <= 0.0) or np.any(pb <= 0.0):
            raise DomainError("both hypothesis laws must have full support")
        self._laws = [(float(p.probs[0]), DistortionBall(p, delta, measure, floor).interval)
                      for p in (p0, p1)]
        self._regions: list[_CommonChannelSet | None] = [None, None]

    def _region(self, first: int) -> _CommonChannelSet:
        if self._regions[first] is None:
            (w, own), (v, rival) = self._laws[first], self._laws[1 - first]
            self._regions[first] = _CommonChannelSet(w, v - w, own, rival)
        return self._regions[first]

    def _clamp(self, t: float, target: int) -> float:
        region = self._region(target)
        return min(max(t, region.x_lo), region.x_hi)

    def _objective(self, t: float):
        """The min-max objective h(x) = max(D(t || x), min over feasible y
        of D(t || y))."""
        best_y = self._region(0).best_y

        def h(x: float) -> float:
            _, y = best_y(x, t)
            return max(_binary_kl(t, x), _binary_kl(t, y))

        return h

    def reach(self, t: float, target: int) -> float:
        """min over feasible channels of D(t || (p_target A)[0]): one
        branch, a clamp of t onto the output range of p_target."""
        return _binary_kl(t, self._clamp(t, target))

    def upper(self, t: float) -> float:
        """The min-max objective at the clamp of t for p0, a feasible
        channel; by weak duality at least the min-max value, which is at
        least each `reach`."""
        return self._objective(t)(self._clamp(t, 0))

    def single(self, t: float, target: int) -> ChannelMinMaxResult:
        """`reach` with the channel that attains it."""
        region = self._region(target)
        x = self._clamp(t, target)
        s, _ = region.best_y(x, t)
        return ChannelMinMaxResult(_binary_kl(t, x), region.channel(x, s), True, 0)

    def minmax(self, t: float) -> ChannelMinMaxResult:
        """min over feasible channels of the larger branch divergence: a
        golden-section search on the convex objective h; `iterations` counts
        its steps, and `converged` is False when it hit the cap."""
        region, h = self._region(0), self._objective(t)
        # golden section: the bracket [lo, hi] keeps the minimizer of convex h
        lo, hi = region.x_lo, region.x_hi
        mid_lo, mid_hi = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        h_lo, h_hi = h(mid_lo), h(mid_hi)
        converged, steps, width = False, 0, 4.0 * np.finfo(float).eps
        for steps in range(1, _BISECTION_CAP + 1):
            if hi - lo <= width:
                converged = True
                break
            if h_lo <= h_hi:
                hi, mid_hi, h_hi = mid_hi, mid_lo, h_lo
                mid_lo = hi - _GOLDEN * (hi - lo)
                h_lo = h(mid_lo)
            else:
                lo, mid_lo, h_lo = mid_lo, mid_hi, h_hi
                mid_hi = lo + _GOLDEN * (hi - lo)
                h_hi = h(mid_hi)
        value, x = min((h_lo, mid_lo), (h_hi, mid_hi))
        s, _ = region.best_y(x, t)
        return ChannelMinMaxResult(value, region.channel(x, s), converged, steps)


def min_max_divergence_over_channel(qhat, p0: Distribution, p1: Distribution, delta: float,
                                    measure: DistortionMeasure,
                                    options: SolverOptions | None = None,
                                    floor: float = 1e-9,
                                    branches: tuple[int, ...] = (0, 1)) -> ChannelMinMaxResult:
    """Minimize max over `branches` of D(qhat || p_b A) over binary channels
    A with d(p0, p0 A) <= delta and d(p1, p1 A) <= delta.

    Solved in output coordinates: the channels map affinely onto a polygon
    of output pairs (x, y) = ((p0 A)[0], (p1 A)[0]) inside the product of
    the two balls' intervals, whose floor keeps every output law at least
    `floor` entrywise. One branch is a clamp of qhat[0] onto the polygon's
    range. For both branches, h(x) = max(D(qhat || x), min over feasible
    y of D(qhat || y)) is convex, because minimizing a jointly convex
    function over some of its variables keeps it convex; a golden-section
    search on x finds its minimum to float precision, and `iterations`
    counts its steps. The solve has no tolerance to tune; `options` is
    accepted for a uniform signature. Larger alphabets raise ShapeError.
    """
    q = qhat.probs if isinstance(qhat, Distribution) else np.asarray(qhat, dtype=float)
    if q.shape != p0.probs.shape:
        raise ShapeError("qhat, p0, p1 must share one alphabet")
    game = _ChannelGame(p0, p1, delta, measure, floor)
    if not branches or any(b not in (0, 1) for b in branches):
        raise DomainError("branches must be a nonempty subset of (0, 1)")
    if len(set(branches)) == 1:
        return game.single(float(q[0]), branches[0])
    return game.minmax(float(q[0]))


def min_divergence_over_common_channels(qhat, target: int, p0: Distribution, p1: Distribution,
                                        delta: float, measure: DistortionMeasure,
                                        options: SolverOptions | None = None,
                                        floor: float = 1e-9) -> ChannelMinMaxResult:
    """Minimize D(qhat || p_target A) over channels feasible for both laws.

    Unlike `min_divergence_to_ball`, one channel must respect the distortion
    budget of both hypotheses at once, so the reach of `target` is smaller
    than its own ball.
    """
    if target not in (0, 1):
        raise DomainError("target selects one of the two laws, 0 or 1")
    return min_max_divergence_over_channel(
        qhat, p0, p1, delta, measure, options=options, floor=floor, branches=(target,),
    )
