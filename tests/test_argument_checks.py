"""Every public callable of the package, every public method of its
classes, and the command line's builders, returns a result or raises a
`SeqGameError` subclass, also when one of its arguments has the wrong type;
and numpy scalars pass wherever Python ints and floats do."""

import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqgame
from seqgame import (
    Channel,
    ConstructionError,
    DistortionBall,
    DistortionMeasure,
    DomainError,
    Distribution,
    GameSpec,
    ResourceError,
    ScenarioConfig,
    SeqGameError,
    SimulationReport,
    ThresholdSchedule,
    alpha_sweep,
    divopt,
    evidence_statistics,
    kl_divergence,
    min_max_divergence_over_channel,
    monte_carlo,
    nonaware_achievable,
    run_aware,
    run_replication,
    sample_through_channel,
    threshold_constant,
)
from seqgame import cli
from seqgame.prob import _binary_kl

P0, P1 = LAWS = Distribution([0.38, 0.62]), Distribution([0.5, 0.5])
TV = DistortionMeasure.TV_L1
SPEC = GameSpec((P0, P1), 0.05, TV)
BALL = DistortionBall(P0, 0.05, TV)
RIVAL = DistortionBall(P1, 0.05, TV)
SCHEDULE = ThresholdSchedule(0.1, 2, 2)
EYE = Channel(np.eye(2))
CONFIG = ScenarioConfig(SPEC, (0.1,), 2, 0, cap=300)
RUN_CONFIG = cli.parse_run_config("hypothesis_0 = 0.38, 0.62\nhypothesis_1 = 0.5, 0.5\n"
                                  "delta = 0.05\nmeasure = tv_l1\nalpha_grid = 0.1\n"
                                  "replications = 2\nseed = 0\ncap = 300\n")
GAME = {"p0": P0, "p1": P1, "delta": 0.05, "measure": TV}
STREAM = [0, 1, 1] * 150

# One valid call of each public callable, as keyword arguments; an error
# class takes its message. A callable that takes a second form of its
# arguments has a second call, named with the form in brackets.
VALID = {
    "Distribution": {"probs": [0.5, 0.5]},
    "Channel": {"rows": [[0.9, 0.1], [0.2, 0.8]]},
    "DistortionMeasure": {"value": "kl"},
    "apply_channel": {"dist": P0, "channel": EYE},
    "kl_divergence": {"p": P0, "q": [0.5, 0.5]},
    "DistortionBall": {"center": P0, "radius": 0.05, "measure": TV, "floor": 1e-9},
    "BallMinResult": {"value": 0.0, "argmin": P0, "converged": True, "iterations": 0},
    "PairMinResult": {"value": 0.0, "argmin_first": P0, "argmin_second": P1, "converged": True,
                      "iterations": 0},
    "ChannelMinMaxResult": {"value": 0.0, "channel": EYE},
    "channel_from_output": {"source": P0, "output": P1},
    "min_divergence_to_ball": {"qhat": [0.3, 0.7], "ball": BALL},
    "pairwise_min_divergence": {"ball_first": BALL, "ball_second": RIVAL},
    "pairwise_min_divergence[sequences]": {"ball_first": (BALL, RIVAL), "ball_second": [RIVAL, BALL]},
    "min_max_divergence_over_channel": {"qhat": [0.45, 0.55], **GAME},
    "min_divergence_over_common_channels": {"qhat": [0.45, 0.55], "target": 1, **GAME},
    "GameSpec": {"hypotheses": (P0, P1), "delta": 0.05, "measure": TV, "weights": (1.0, 2.0),
                 "support_floor": 1e-9},
    "EquilibriumSolution": {"q_star": (P0, P1), "divergence_matrix": np.zeros((2, 2)),
                            "exponents": np.zeros(2), "payoff": 0.0, "witness_channels": (EYE, EYE),
                            "converged": True},
    "NonAwareBounds": {"achievable": 0.0, "converse": 0.0, "channel": EYE},
    "solve_aware_equilibrium": {"spec": SPEC},
    "equilibrium_payoff": {"exponents": [0.1, 0.2], "weights": [1.0, 2.0]},
    "nonaware_achievable": {**GAME, "channel": EYE, "weight": 1.0},
    "nonaware_converse": {**GAME, "channel": EYE, "weight": 1.0},
    "solve_nonaware_adversary": {**GAME, "weight": 1.0, "num_starts": 1},
    "threshold_constant": {"zeta": 0.85},
    "ThresholdSchedule": {"alpha": 0.1, "num_hypotheses": 2, "alphabet_size": 2, "zeta": 0.85},
    "TestOutcome": {"stopping_time": 5, "decision": 0, "timed_out": False},
    "evidence_statistics": {"counts": [3, 5], "spec": SPEC},
    "run_aware": {"stream": STREAM, "schedule": SCHEDULE, "spec": SPEC, "cap": 400, "stride": 1},
    "run_aware[streams]": {"stream": (STREAM, STREAM[1:]), "schedule": SCHEDULE, "spec": SPEC,
                           "cap": 400, "stride": 1},
    "run_nonaware": {"stream": STREAM, "schedule": SCHEDULE, **GAME, "cap": 400, "stride": 1},
    "ScenarioConfig": {"spec": SPEC, "alpha_grid": (0.1,), "replications": 2, "seed": 0,
                       "adversary": "equilibrium", "cap": 300, "stride": 1, "zeta": 0.85,
                       "true_hypothesis": None},
    "ReportRow": {"alpha": 0.1, "log_inv_alpha": 2.3, "hypothesis": 0, "mean_T": 1.0,
                  "std_T": 0.0, "stderr_T": 0.0, "payoff_estimate": 1.0,
                  "theoretical_exponent": 1.0, "error_rate": 0.0, "timeouts": 0,
                  "replications": 1},
    "SimulationReport": {"rows": ()},
    "sample_through_channel": {"source": P0, "channel": EYE, "rng": np.random.default_rng(0),
                               "size": None},
    "run_replication": {"config": CONFIG, "alpha": 0.1, "hypothesis": 1, "replication_index": 0},
    "run_replication[sequences]": {"config": CONFIG, "alpha": 0.1, "hypothesis": (1, 0),
                                   "replication_index": [0, 1]},
    "monte_carlo": {"config": CONFIG},
    "alpha_sweep": {"config": CONFIG},
    "cli.build_game_spec": {"config": RUN_CONFIG},
    "cli.build_scenario": {"config": RUN_CONFIG, "seed_override": None},
}
ERRORS = list(seqgame.errors.__all__)
CALLABLES = sorted([*VALID, *ERRORS])


def _call(name: str, kwargs: dict):
    name = name.split("[")[0]
    fn = getattr(cli, name[4:]) if name.startswith("cli.") else getattr(seqgame, name)
    return fn(*kwargs.values()) if name in ERRORS else fn(**kwargs)


# One valid call of each public method of the public classes: the instance
# (the class, for a class method) and the keyword arguments.
METHODS = {
    "Distribution.is_fully_supported": (P0, {"floor": 1e-9}),
    "DistortionMeasure.evaluate": (TV, {"original": P0, "perturbed": [0.5, 0.5]}),
    "ThresholdSchedule.value": (SCHEDULE, {"n": 5}),
    "ThresholdSchedule.at": (SCHEDULE, {"steps": [1, 2]}),
    "ScenarioConfig.alpha_index": (CONFIG, {"alpha": 0.1}),
    "ScenarioConfig.schedule_for": (CONFIG, {"alpha": 0.1}),
    "ScenarioConfig.simulated_hypotheses": (CONFIG, {}),
    "SimulationReport.to_csv": (SimulationReport(()), {}),
}


def _call_method(name: str, kwargs: dict):
    owner, _ = METHODS[name]
    return getattr(owner, name.split(".")[1])(**kwargs)


def test_every_public_callable_has_a_valid_call():
    public = [name for name in seqgame.__all__ if callable(getattr(seqgame, name))]
    builders = [f"cli.{name}" for name in cli.__all__ if name.startswith("build_")]
    assert sorted([*public, *builders]) == sorted({name.split("[")[0] for name in CALLABLES})
    for name in VALID:
        _call(name, VALID[name])


def test_every_public_method_has_a_valid_call():
    classes = [getattr(seqgame, name) for name in seqgame.__all__]
    classes = [c for c in classes if isinstance(c, type) and not issubclass(c, BaseException)]
    methods = [f"{c.__name__}.{name}" for c in classes for name, attr in vars(c).items()
               if not name.startswith("_")
               and isinstance(attr, (types.FunctionType, classmethod, staticmethod))]
    assert sorted(methods) == sorted(METHODS)
    for name, (_, kwargs) in METHODS.items():
        _call_method(name, kwargs)


# Vectors of two entries that are not laws: a negative entry, and sums off 1.
NOT_LAWS = {"negative": [1.5, -0.5], "sum-0.6": [0.3, 0.3], "sum-1+2e-9": [0.5, 0.5 + 2e-9]}

# Lists hold any finite float: entries near 1e308 whose sum overflows are
# refused as laws, and counts beyond 2^53 as counts.
WRONG = st.one_of(
    st.sampled_from([None, "abc", "", True, False, math.nan, [], [0.5], [None, 1.0], ["x", "y"],
                     [[1.0], [1.0, 2.0]], np.zeros((2, 3)), np.zeros(0), np.zeros((1, 1, 1)),
                     np.float64(math.nan), np.True_, *NOT_LAWS.values()]),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                       st.just(math.nan), st.text(max_size=2)), max_size=3),
)


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("name", CALLABLES)
@given(data=st.data())
def test_a_wrong_typed_argument_returns_or_raises_a_typed_error(name, data):
    kwargs = dict(VALID.get(name, {"message": "text"}))
    key = data.draw(st.sampled_from(sorted(kwargs)), label="argument")
    kwargs[key] = data.draw(WRONG, label="value")
    start = time.perf_counter()
    try:
        _call(name, kwargs)
    except SeqGameError:
        pass
    assert time.perf_counter() - start < 1.0


@settings(max_examples=25, deadline=None)
@pytest.mark.parametrize("name", [name for name, (_, kwargs) in METHODS.items() if kwargs])
@given(data=st.data())
def test_a_wrong_typed_method_argument_returns_or_raises_a_typed_error(name, data):
    kwargs = dict(METHODS[name][1])
    key = data.draw(st.sampled_from(sorted(kwargs)), label="argument")
    kwargs[key] = data.draw(WRONG, label="value")
    start = time.perf_counter()
    try:
        _call_method(name, kwargs)
    except SeqGameError:
        pass
    assert time.perf_counter() - start < 1.0


# Each parameter that takes a law as a vector of numbers, besides the
# constructor of Distribution: a public callable or method, and the argument.
LAW_PARAMETERS = [("kl_divergence", "p"), ("kl_divergence", "q"),
                  ("DistortionMeasure.evaluate", "original"),
                  ("DistortionMeasure.evaluate", "perturbed"), ("min_divergence_to_ball", "qhat"),
                  ("min_max_divergence_over_channel", "qhat"),
                  ("min_divergence_over_common_channels", "qhat")]


@pytest.mark.parametrize("vector", NOT_LAWS.values(), ids=NOT_LAWS)
@pytest.mark.parametrize("name, key", LAW_PARAMETERS)
def test_a_non_law_vector_is_a_construction_error(name, key, vector):
    """Each of these used to be read as a law: kl_divergence([1.5, -0.5],
    [0.5, 0.5]) returned 1.648, and min_divergence_to_ball([0.3, 0.3], ball)
    0.0068 on the ball of hypothesis 0 of the Bernoulli TV game."""
    kwargs = {**(METHODS[name][1] if name in METHODS else VALID[name]), key: vector}
    with pytest.raises(ConstructionError):
        _call_method(name, kwargs) if name in METHODS else _call(name, kwargs)


@pytest.mark.parametrize("case", [
    "spec, delta and measure swapped", "spec, laws as lists", "spec, measure as a string",
    "distribution of a string", "schedule, alpha a string", "constant, zeta a list",
    "scenario, bare alpha", "scenario, no spec", "achievable, no channel",
    "min-max, laws as lists", "sample, source a list", "monte carlo, no config",
    "threshold at a string step", "thresholds at a string", "threshold at an infinite step",
    "thresholds at an infinite step", "support above a string floor", "counts as bools",
    "law summing past 1e308", "channel row summing past 1e308",
    "counts summing past 2^53", "draw size past 2^63", "draw size past the address space",
])
def test_named_wrong_calls_raise_typed_errors(case):
    calls = {
        "spec, delta and measure swapped": lambda: GameSpec(LAWS, TV, 0.05),
        "spec, laws as lists": lambda: GameSpec(([0.38, 0.62], [0.5, 0.5]), 0.05, TV),
        # "tv_l1" used to solve the KL game: every measure but TV_L1 read as KL
        "spec, measure as a string": lambda: GameSpec(LAWS, 0.001, "tv_l1"),
        "distribution of a string": lambda: Distribution("ab"),
        "schedule, alpha a string": lambda: ThresholdSchedule("x", 2, 2),
        "constant, zeta a list": lambda: threshold_constant([0.5]),
        "scenario, bare alpha": lambda: ScenarioConfig(SPEC, 0.1, 2, 0),
        # used to build, and fail at the first replication
        "scenario, no spec": lambda: ScenarioConfig(None, (0.1,), 2, 0),
        "achievable, no channel": lambda: nonaware_achievable(*LAWS, None, 0.05, TV),
        "min-max, laws as lists": lambda: min_max_divergence_over_channel(
            [0.44, 0.56], [0.38, 0.62], [0.5, 0.5], 0.05, TV),
        "sample, source a list": lambda: sample_through_channel(
            [0.38, 0.62], EYE, np.random.default_rng(0)),
        "monte carlo, no config": lambda: monte_carlo(None),
        # the next four raised TypeError, ValueError, UFuncTypeError and TypeError
        "threshold at a string step": lambda: SCHEDULE.value("x"),
        "thresholds at a string": lambda: SCHEDULE.at("x"),
        "support above a string floor": lambda: P0.is_fully_supported("x"),
        # nan, and nan with numpy's "invalid value encountered in divide"
        "threshold at an infinite step": lambda: SCHEDULE.value(math.inf),
        "thresholds at an infinite step": lambda: SCHEDULE.at([math.inf]),
        # read as the counts 1 and 0
        "counts as bools": lambda: evidence_statistics(np.array([True, False]), SPEC),
        # numpy's overflow warning escaped from the sum
        "law summing past 1e308": lambda: Distribution([1e308, 1e308]),
        "channel row summing past 1e308": lambda: Channel([[1e308, 1e308], [0.5, 0.5]]),
        # the int64 total wrapped around, and a result came back
        "counts summing past 2^53": lambda: evidence_statistics(np.array([2**62, 2**62]), SPEC),
        # numpy's ValueErrors, raised before anything is allocated
        "draw size past 2^63": lambda: sample_through_channel(
            P0, EYE, np.random.default_rng(0), size=10**30),
        "draw size past the address space": lambda: sample_through_channel(
            P0, EYE, np.random.default_rng(0), size=2**62),
    }
    with pytest.raises(SeqGameError):
        calls[case]()


def test_a_string_for_a_law_is_a_construction_error():
    """These used to raise numpy's ValueError."""
    for call in (lambda: Distribution("ab"), lambda: kl_divergence("ab", P1)):
        with pytest.raises(ConstructionError):
            call()


def test_threshold_constant_keeps_its_cache():
    """The value is cached per converted zeta, an unhashable argument is a
    typed error, and `cache_info` counts the calls."""
    before = threshold_constant.cache_info()
    assert threshold_constant(np.float64(0.85)) == threshold_constant(0.85)
    after = threshold_constant.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 2
    with pytest.raises(DomainError):
        threshold_constant(np.array([0.5, 0.6]))


# ---------------------------------------------------------------------------
# numpy scalars pass where Python ints and floats do


@pytest.mark.parametrize("real", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("integer", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_scalars_stay_accepted(real, integer):
    spec = GameSpec(LAWS, real(0.05), TV, weights=(real(1.0), integer(2)))
    assert spec.delta == float(real(0.05)) and spec.weights == (1.0, 2.0)
    schedule = ThresholdSchedule(real(0.1), integer(2), integer(2), real(0.85))
    assert schedule.value(10) == ThresholdSchedule(float(real(0.1)), 2, 2,
                                                   float(real(0.85))).value(10)
    config = ScenarioConfig(spec, (real(0.1), 0.05), integer(2), integer(0), cap=integer(300),
                            stride=integer(2), zeta=real(0.85), true_hypothesis=integer(1))
    assert config.alpha_grid == (float(real(0.1)), 0.05)
    plain = ScenarioConfig(GameSpec(LAWS, float(real(0.05)), TV, weights=(1.0, 2.0)),
                           (float(real(0.1)), 0.05), 2, 0, cap=300, stride=2,
                           zeta=float(real(0.85)), true_hypothesis=1)
    assert (run_replication(config, real(0.1), integer(1), integer(1))
            == run_replication(plain, float(real(0.1)), 1, 1))
    assert alpha_sweep(config) == alpha_sweep(plain)
    out = run_aware(STREAM, SCHEDULE, SPEC, cap=integer(400), stride=integer(3))
    assert out == run_aware(STREAM, SCHEDULE, SPEC, cap=400, stride=3)


# ---------------------------------------------------------------------------
# Pairwise minima on two sequences of balls: one block solve takes one
# measure, radius and floor per side


TERNARY = DistortionBall(Distribution([0.2, 0.3, 0.5]), 0.05, TV)


@pytest.mark.parametrize("firsts, seconds, error", [
    ((BALL, RIVAL), (RIVAL,), seqgame.ShapeError),
    ((BALL, TERNARY), (RIVAL, BALL), seqgame.ShapeError),
    ((BALL, TERNARY), (RIVAL, TERNARY), seqgame.ShapeError),
    ((BALL, P1), (RIVAL, BALL), DomainError),
    ((BALL, RIVAL), (RIVAL, None), DomainError),
    (BALL, (RIVAL,), DomainError),
    ((BALL,), RIVAL, DomainError),
    ((BALL, DistortionBall(P1, 0.05, DistortionMeasure.KL)), (RIVAL, BALL), DomainError),
    ((BALL, DistortionBall(P1, 0.01, TV)), (RIVAL, BALL), DomainError),
    ((BALL, DistortionBall(P1, 0.05, TV, floor=1e-6)), (RIVAL, BALL), DomainError),
    ((BALL, RIVAL), (RIVAL, DistortionBall(P0, 0.01, TV)), DomainError),
], ids=["unequal lengths", "mixed sizes in a sequence", "mixed sizes across sequences",
        "first entry not a ball", "second entry not a ball", "ball and sequence",
        "sequence and ball", "first measures", "first radii", "first floors", "second radii"])
def test_pair_sequences_raise_typed_errors(firsts, seconds, error):
    with pytest.raises(error):
        seqgame.pairwise_min_divergence(firsts, seconds)


def test_one_pair_of_unlike_balls_stays_valid():
    """The two balls of one pair may differ in measure, radius and floor; on
    two sequences only the balls of one side must agree."""
    unlike = DistortionBall(P1, 0.01, DistortionMeasure.KL, floor=1e-6)
    single = seqgame.pairwise_min_divergence(BALL, unlike)
    pairs = seqgame.pairwise_min_divergence([BALL, BALL], (unlike, unlike))
    assert [repr(r) for r in pairs] == [repr(single)] * 2  # Distribution compares by identity
    assert seqgame.pairwise_min_divergence((), []) == ()


# ---------------------------------------------------------------------------
# The edge of a binary KL ball


def test_kl_ball_edge_reaches_adjacent_floats_far_from_the_center():
    """D(0.5 || t) = 100 at t of about 3.5e-88, some 340 halvings from 0.5:
    the edge is the last float inside the budget, where 200 halvings left
    it at 3.11e-61 with D = 68.97."""
    lo, _ = DistortionBall(Distribution([0.5, 0.5]), 100.0, DistortionMeasure.KL,
                           floor=0.0).interval
    assert 3.4e-88 < lo < 3.6e-88
    assert _binary_kl(0.5, lo) <= 100.0 < _binary_kl(0.5, math.nextafter(lo, 0.0))


def test_kl_ball_edge_past_its_cap_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(divopt, "_EDGE_CAP", 10)
    with pytest.raises(ResourceError):
        DistortionBall(Distribution([0.5, 0.5]), 0.01, DistortionMeasure.KL).interval
