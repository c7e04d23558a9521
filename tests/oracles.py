"""Brute-force oracles for the tests: lattice searches over balls and
binary channels, and a pattern descent on the simplex.

They are independent of the solvers in `seqgame.divopt` and exist only to
check them.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import xlogy

from seqgame.divopt import DistortionBall
from seqgame.errors import DomainError, InfeasibleError, ResourceError
from seqgame.prob import Channel, Distribution, DistortionMeasure


@functools.lru_cache(maxsize=None)
def simplex_lattice(size: int, resolution: int) -> np.ndarray:
    """All integer vectors of the given size summing to `resolution`; the
    array is cached, so it is read-only."""
    if size < 1 or resolution < 0:
        raise DomainError("size must be >= 1 and resolution >= 0")
    if size == 1:
        out = np.array([[resolution]], dtype=np.int64)
    else:
        blocks = []
        for first in range(resolution + 1):
            sub = simplex_lattice(size - 1, resolution - first)
            head = np.full((sub.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, sub]))
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def ball_lattice(ball: DistortionBall, step: float, max_points: int = 4_000_000) -> np.ndarray:
    """Lattice points of pitch `step` lying inside the ball."""
    n = int(round(1.0 / step))
    count = math.comb(n + ball.size - 1, ball.size - 1)
    if count > max_points:
        raise ResourceError(f"lattice would hold {count} points (limit {max_points})")
    pts = simplex_lattice(ball.size, n).astype(float) / n
    keep = np.all(pts >= ball.floor, axis=1)
    pts = pts[keep]
    c = ball.center.probs
    if ball.measure is DistortionMeasure.TV_L1:
        dist = np.abs(pts - c).sum(axis=1)
    else:
        with np.errstate(divide="ignore"):
            dist = xlogy(c, c / pts).sum(axis=1)
    return pts[dist <= ball.radius + 1e-12]


def grid_oracle_min(objective, ball: DistortionBall, step: float,
                    max_points: int = 4_000_000) -> tuple[float, Distribution]:
    """Exhaustive lattice minimization over a ball; alphabets up to size 3.

    `objective` receives an (N, K) array of candidate rows and must return
    N values. Intended as an independent check on the solvers.
    """
    if ball.size > 3:
        raise ResourceError("exhaustive ball grids support alphabets up to size 3")
    pts = ball_lattice(ball, step, max_points)
    if pts.shape[0] == 0:
        raise InfeasibleError("no lattice point falls inside the ball")
    values = np.asarray(objective(pts), dtype=float)
    idx = int(np.argmin(values))
    return float(values[idx]), Distribution(pts[idx])


def grid_oracle_min_channels(objective, feasible, step: float,
                             max_points: int = 4_000_000) -> tuple[float, Channel]:
    """Exhaustive search over binary-alphabet channels [[a,1-a],[1-b,b]].

    `objective` and `feasible` receive flat arrays of a, b values and return
    per-point values / booleans.
    """
    n = int(round(1.0 / step))
    if (n + 1) ** 2 > max_points:
        raise ResourceError(f"channel grid would hold {(n + 1) ** 2} points")
    g = np.linspace(0.0, 1.0, n + 1)
    a, b = np.meshgrid(g, g, indexing="ij")
    a = a.ravel()
    b = b.ravel()
    ok = np.asarray(feasible(a, b), dtype=bool)
    if not np.any(ok):
        raise InfeasibleError("no grid channel satisfies the distortion budget")
    a, b = a[ok], b[ok]
    values = np.asarray(objective(a, b), dtype=float)
    idx = int(np.argmin(values))
    rows = np.array([[a[idx], 1.0 - a[idx]], [1.0 - b[idx], b[idx]]])
    return float(values[idx]), Channel(rows)


def refine_simplex_min(objective, start, initial_step: float = 0.1,
                       final_step: float = 1e-5, feasible=None) -> tuple[float, np.ndarray]:
    """Pattern descent on the simplex along e_i - e_j moves with shrinking
    pitch. For a convex objective this converges to the global minimum from
    any start; used to sharpen coarse lattice searches.
    """
    x = np.asarray(start, dtype=float).copy()
    k = x.size
    moves = []
    for i in range(k):
        for j in range(k):
            if i != j:
                m = np.zeros(k)
                m[i] += 1.0
                m[j] -= 1.0
                moves.append(m)
    moves = np.array(moves)
    best = float(np.asarray(objective(x[None, :]))[0])
    h = initial_step
    while h >= final_step:
        improved = True
        while improved:
            cands = x[None, :] + h * moves
            ok = np.all(cands >= 0.0, axis=1)
            if feasible is not None:
                ok &= np.asarray(feasible(cands), dtype=bool)
            if not np.any(ok):
                break
            cands = cands[ok]
            vals = np.asarray(objective(cands), dtype=float)
            idx = int(np.argmin(vals))
            if vals[idx] < best - 1e-18:
                best = float(vals[idx])
                x = cands[idx]
            else:
                improved = False
        h *= 0.5
    return best, x
