"""Acceptance checks: solver cross-validation, error control, convergence,
concentration, reproducibility. Each test prints one `criterion NN` line
with its measured margin.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import xlogy

from seqgame.divopt import (
    DistortionBall,
    min_divergence_over_common_channels,
    min_divergence_to_ball,
)
from seqgame.equilibrium import (
    nonaware_achievable,
    nonaware_converse,
    solve_aware_equilibrium,
    solve_nonaware_adversary,
)
from seqgame.prob import Channel, DistortionMeasure, apply_channel
from seqgame.seqtest import ThresholdSchedule, threshold_constant
from seqgame.simharness import ScenarioConfig, alpha_sweep, monte_carlo

from oracles import _max_feasible_blend, bhattacharyya, binary_kl, normalize, refine_simplex_min

# series sum for decay exponent 0.85, frozen from a 30-digit bracket
C_ORACLE = 2593.3325570093630302


def _emit(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def _payoff_se(row) -> float:
    """Standard error of log(1/alpha)/mean_T by the delta method."""
    return row.log_inv_alpha * row.stderr_T / row.mean_T**2


# ScenarioConfig's default run cap: a test whose threshold has not fallen
# to the exponent by then can only stop by timing out
_STOP_SCAN_BOUND = 1_000_000


def _predicted_stop(alpha: float, exponent: float, spec) -> int:
    """First n at which the closed-form threshold falls to `exponent`.

    The threshold is log(C/alpha)/n + n^(-0.85) + (k*log(n+1) + log(M-1))/n
    with C = C_ORACLE, k the alphabet size and M the number of hypotheses.
    It decreases in n, and under the equilibrium pair the evidence for the
    true hypothesis settles at its exponent, so the test stops near this n
    and log(1/alpha)/n is the payoff the theory predicts at this alpha.
    As alpha -> 0, n*exponent/log(1/alpha) -> 1.
    """
    n = np.arange(1, _STOP_SCAN_BOUND + 1, dtype=float)
    extra = spec.alphabet_size * np.log(n + 1.0) + math.log(spec.num_hypotheses - 1.0)
    gamma = math.log(C_ORACLE / alpha) / n + n ** (-0.85) + extra / n
    cleared = np.flatnonzero(gamma <= exponent)
    if cleared.size == 0:
        pytest.fail(
            f"threshold at alpha {alpha:.3g} stays above the exponent "
            f"{exponent:.6g} for every n <= {_STOP_SCAN_BOUND}"
        )
    return int(cleared[0]) + 1


def _assert_payoff_convergence(tag: str, report, spec, tol: float) -> None:
    """At log(1/alpha) = 12 the payoff estimate lies within `tol` of the
    finite-alpha prediction log(1/alpha)/n*, relative to the prediction,
    and for each hypothesis the predicted gap |log(1/alpha)/n* - D|/D to
    the limiting exponent D shrinks strictly along the grid. The gap of
    the estimate to D itself is printed, not asserted."""
    to_prediction, to_limit, trends = [], [], []
    shrinking = True
    for hyp in range(spec.num_hypotheses):
        rows = sorted(
            (r for r in report.rows if r.hypothesis == hyp),
            key=lambda r: r.log_inv_alpha,
        )
        gaps = []
        for row in rows:
            exponent = row.theoretical_exponent
            predicted = row.log_inv_alpha / _predicted_stop(row.alpha, exponent, spec)
            gaps.append(abs(predicted - exponent) / exponent)
            if abs(row.log_inv_alpha - 12.0) < 1e-9:
                to_prediction.append(abs(row.payoff_estimate - predicted) / predicted)
                to_limit.append(abs(row.payoff_estimate - exponent) / exponent)
        shrinking = shrinking and all(b < a for a, b in zip(gaps, gaps[1:]))
        trends.append(" -> ".join(f"{g:.2f}" for g in gaps))
    worst = max(to_prediction)
    ok = worst <= tol and shrinking
    _emit(
        tag, ok,
        f"relative payoff gap to the finite-alpha prediction at log(1/alpha)=12 "
        f"is {worst:.3f}, tolerance {tol}; gap to the limiting exponent "
        f"{max(to_limit):.3f}; predicted gap to the limit along the grid "
        + ", ".join(trends),
    )
    assert shrinking
    assert worst <= tol


@pytest.fixture(scope="module")
def bernoulli_sweep(bernoulli_spec):
    grid = tuple(math.exp(-l) for l in (4, 6, 8, 10, 12))
    cfg = ScenarioConfig(bernoulli_spec, grid, 2000, 31)
    t0 = time.time()
    report = monte_carlo(cfg)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def digits_sweep(digits_spec):
    grid = tuple(math.exp(-l) for l in (4, 8, 12))
    cfg = ScenarioConfig(digits_spec, grid, 1000, 47)
    t0 = time.time()
    report = monte_carlo(cfg)
    return report, time.time() - t0


def test_criterion_01_equilibrium_exponents(bernoulli_spec):
    t0 = time.time()
    sol = solve_aware_equilibrium(bernoulli_spec)
    closed = np.array([binary_kl(0.405, 0.475), binary_kl(0.475, 0.405)])

    # independent lattice oracle on the two intervals, raw arrays only
    g0 = np.linspace(0.355, 0.405, 501)[:, None]
    g1 = np.linspace(0.475, 0.525, 501)[None, :]

    def pair_min(a, b):
        vals = xlogy(a, a / b) + xlogy(1.0 - a, (1.0 - a) / (1.0 - b))
        return float(vals.min())

    grid = np.array([pair_min(g0, g1), pair_min(g1.T, g0.T)])
    elapsed = time.time() - t0
    gap_closed = float(np.max(np.abs(sol.exponents - closed)))
    gap_grid = float(np.max(np.abs(sol.exponents - grid)))
    ok = gap_closed <= 1e-5 and gap_grid <= 1e-4 and elapsed < 5.0
    _emit("01", ok, f"closed-form gap {gap_closed:.2e}, grid gap {gap_grid:.2e}, {elapsed:.2f}s")
    assert gap_closed <= 1e-5
    assert gap_grid <= 1e-4
    assert elapsed < 5.0


def test_criterion_02_error_control(bernoulli_spec):
    t0 = time.time()
    cfg = ScenarioConfig(bernoulli_spec, (0.1, 0.05), 5000, 20240817)
    report = monte_carlo(cfg)
    elapsed = time.time() - t0
    margins = []
    for row in report.rows:
        se = math.sqrt(row.alpha * (1.0 - row.alpha) / row.replications)
        margins.append(row.error_rate - (row.alpha + 3.0 * se))
    worst = max(margins)
    ok = worst <= 0.0 and elapsed < 120.0
    _emit("02", ok, f"worst error margin {worst:+.4f}, {elapsed:.1f}s")
    assert worst <= 0.0
    assert elapsed < 120.0


def test_criterion_03a_payoff_monotone(bernoulli_sweep):
    report, elapsed = bernoulli_sweep
    worst = math.inf
    for hyp in (0, 1):
        rows = sorted(
            (r for r in report.rows if r.hypothesis == hyp),
            key=lambda r: r.log_inv_alpha,
        )
        for a, b in zip(rows, rows[1:]):
            slack = 2.0 * math.hypot(_payoff_se(a), _payoff_se(b))
            worst = min(worst, b.payoff_estimate - a.payoff_estimate + slack)
    ok = worst >= 0.0 and elapsed < 600.0
    _emit("03a", ok, f"smallest slack-adjusted increment {worst:+.2e}, {elapsed:.1f}s")
    assert worst >= 0.0
    assert elapsed < 600.0


def test_criterion_03b_payoff_convergence(bernoulli_spec, bernoulli_sweep):
    """At log(1/alpha) = 12 the payoff estimate log(1/alpha)/mean_T lies
    within 20% of the finite-alpha payoff log(1/alpha)/n* that the
    threshold implies, where n* is the first n at which the threshold
    falls to the equilibrium exponent. The predicted gap from that payoff
    to the exponent must shrink strictly along the grid, which ties the
    check to the alpha -> 0 limit."""
    report, _ = bernoulli_sweep
    _assert_payoff_convergence("03b", report, bernoulli_spec, 0.2)


def test_criterion_04_bhattacharyya_identity():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        q0 = normalize(rng.uniform(0.05, 1.0, k)).probs
        q1 = normalize(rng.uniform(0.05, 1.0, k)).probs
        target = 2.0 * bhattacharyya(q0, q1)

        def objective(pts):
            with np.errstate(divide="ignore"):
                return (xlogy(pts, pts / q0) + xlogy(pts, pts / q1)).sum(axis=1)

        start = normalize(0.5 * (q0 + q1)).probs
        val, _ = refine_simplex_min(objective, start, initial_step=0.1, final_step=1e-6)
        worst = max(worst, abs(val - target))
    elapsed = time.time() - t0
    ok = worst <= 2e-4 and elapsed < 60.0
    _emit("04", ok, f"worst |2B - solver| {worst:.2e} over 100 pairs, {elapsed:.1f}s")
    assert worst <= 2e-4
    assert elapsed < 60.0


def test_criterion_05_type_concentration():
    p = np.array([0.38, 0.62])
    eps = 0.1
    trials = 100_000
    rng = np.random.default_rng(5)
    t0 = time.time()
    details = []
    worst = -math.inf
    for n in (20, 50, 100):
        t = rng.multinomial(n, p, size=trials) / n
        div = xlogy(t, t / p).sum(axis=1)
        frac = float(np.mean(div > eps))
        bound = (n + 1) ** 2 * math.exp(-n * eps)
        se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / trials)
        worst = max(worst, frac - 3.0 * se - bound)
        details.append(f"n={n}: {frac:.4f} vs {bound:.4f}")
    elapsed = time.time() - t0
    ok = worst <= 0.0 and elapsed < 60.0
    _emit("05", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert worst <= 0.0
    assert elapsed < 60.0


def test_criterion_06_threshold_constant_and_formula():
    got = threshold_constant(0.85)
    const_gap = abs(got - C_ORACLE)
    formula_gap = 0.0
    for alpha, m, k in ((0.05, 2, 2), (0.01, 3, 4), (0.2, 5, 3)):
        sched = ThresholdSchedule(alpha, m, k, zeta=0.85)
        for n in (1, 10, 317, 10**5):
            hand = (
                math.log(sched.constant / alpha) / n
                + n ** (-0.85)
                + (k * math.log(n + 1.0) + math.log(m - 1.0)) / n
            )
            formula_gap = max(formula_gap, abs(sched.value(n) - hand))
    ok = const_gap <= 1e-6 and formula_gap <= 1e-12
    _emit("06", ok, f"constant gap {const_gap:.2e}, threshold formula gap {formula_gap:.2e}")
    assert const_gap <= 1e-6
    assert formula_gap <= 1e-12


def test_criterion_07_channel_route_consistency():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst = 0.0
    cases = (
        (DistortionMeasure.TV_L1, 0.2),
        (DistortionMeasure.KL, 0.02),
    )
    for trial in range(100):
        measure, dmax = cases[trial % 2]
        p = normalize(rng.uniform(0.1, 1.0, 2))
        q = normalize(rng.uniform(0.05, 1.0, 2))
        delta = float(rng.uniform(0.001, dmax))
        via_ball = min_divergence_to_ball(q, DistortionBall(p, delta, measure)).value
        via_channel = min_divergence_over_common_channels(q, 0, p, p, delta, measure).value
        worst = max(worst, abs(via_ball - via_channel))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    _emit("07", ok, f"worst route gap {worst:.2e} over 100 instances, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_08_nonaware_bounds(bernoulli_spec):
    t0 = time.time()
    p0, p1 = bernoulli_spec.hypotheses
    delta = bernoulli_spec.delta
    measure = bernoulli_spec.measure
    bounds = solve_nonaware_adversary(p0, p1, delta, measure)
    aware = solve_aware_equilibrium(bernoulli_spec).payoff
    floor_margin = bounds.achievable - (aware - 1e-6)

    rng = np.random.default_rng(8)
    worst_order = math.inf
    for _ in range(50):
        target = rng.dirichlet(np.ones(2), size=2)
        rows = _max_feasible_blend(p0, p1, target, delta, measure)
        chan = Channel(rows)
        ach = nonaware_achievable(p0, p1, chan, delta, measure)
        conv = nonaware_converse(p0, p1, chan, delta, measure)
        worst_order = min(worst_order, conv - ach)
    elapsed = time.time() - t0
    ok = floor_margin >= 0.0 and worst_order >= -1e-9 and elapsed < 300.0
    _emit(
        "08", ok,
        f"achievable {bounds.achievable:.6f} vs aware {aware:.6f}, "
        f"min converse-achievable gap {worst_order:.2e}, {elapsed:.1f}s",
    )
    assert floor_margin >= 0.0
    assert worst_order >= -1e-9
    assert elapsed < 300.0


def test_criterion_09a_digits_instance(digits_spec, digits_sweep):
    _, elapsed = digits_sweep
    sol = solve_aware_equilibrium(digits_spec)
    reference = (
        Channel([[0.94, 0.06], [0.461, 0.539]]),
        Channel([[0.9, 0.1], [0.645, 0.355]]),
    )
    outs = [apply_channel(digits_spec.hypotheses[i], reference[i]) for i in range(2)]
    feasible = all(
        digits_spec.measure.evaluate(digits_spec.hypotheses[i], outs[i])
        <= digits_spec.delta + 1e-9
        for i in range(2)
    )
    reference_payoff = sum(
        min(
            min_divergence_to_ball(outs[i], digits_spec.balls[j]).value
            for j in range(2)
            if j != i
        )
        for i in range(2)
    )
    ok = (
        sol.payoff > 0.0
        and feasible
        and sol.payoff <= reference_payoff + 1e-6
        and elapsed < 600.0
    )
    _emit(
        "09a", ok,
        f"solver payoff {sol.payoff:.6f} <= reference channels {reference_payoff:.6f}, "
        f"sweep {elapsed:.1f}s",
    )
    assert sol.payoff > 0.0
    assert feasible
    assert sol.payoff <= reference_payoff + 1e-6
    assert elapsed < 600.0


def test_criterion_09b_digits_convergence(digits_spec, digits_sweep):
    """Criterion 03b on the digits instance: at log(1/alpha) = 12 the
    payoff estimate lies within 25% of the finite-alpha payoff
    log(1/alpha)/n*, and the predicted gap to the equilibrium exponent
    shrinks strictly along the grid."""
    report, _ = digits_sweep
    _assert_payoff_convergence("09b", report, digits_spec, 0.25)


def test_criterion_10_reproducible_sweep(bernoulli_spec, tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    text_a = alpha_sweep(ScenarioConfig(bernoulli_spec, (0.1, 0.05), 50, 13))
    text_b = alpha_sweep(ScenarioConfig(bernoulli_spec, (0.1, 0.05), 50, 13))
    first.write_text(text_a)
    second.write_text(text_b)
    identical = text_a == text_b and first.read_bytes() == second.read_bytes()
    _emit("10", identical, f"{len(text_a)} bytes, byte-identical {identical}")
    assert identical
