"""Sequential hypothesis testing against adversarial sample perturbation.

Core pieces: finite-alphabet probability objects (`prob`), constrained
divergence solvers over distortion balls and channels (`divopt`), the
worst-case adversary equilibrium (`equilibrium`), the universal sequential
test with its threshold schedule (`seqtest`), a reproducible Monte Carlo
harness (`simharness`), and a CLI (`cli`).
"""

from .divopt import (
    BallMinResult,
    ChannelMinMaxResult,
    DistortionBall,
    PairMinResult,
    channel_from_output,
    min_divergence_over_common_channels,
    min_divergence_to_ball,
    min_max_divergence_over_channel,
    pairwise_min_divergence,
)
from .equilibrium import (
    EquilibriumSolution,
    GameSpec,
    NonAwareBounds,
    equilibrium_payoff,
    min_pairwise_bhattacharyya,
    nonaware_achievable,
    nonaware_converse,
    solve_aware_equilibrium,
    solve_nonaware_adversary,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateGameError,
    DomainError,
    EmptyDataError,
    EmptySequenceError,
    FormatError,
    InfeasibleError,
    ResourceError,
    SeqGameError,
    ShapeError,
    StreamExhaustedError,
)
from .prob import (
    Channel,
    Distribution,
    DistortionMeasure,
    apply_channel,
    bhattacharyya,
    binary_kl,
    kl_divergence,
    normalize,
)
from .seqtest import (
    TestOutcome,
    ThresholdSchedule,
    TrajectoryRow,
    evidence_statistics,
    run_aware,
    run_nonaware,
    threshold_constant,
)
from .simharness import (
    ReportRow,
    ScenarioConfig,
    SimulationReport,
    alpha_sweep,
    monte_carlo,
    run_replication,
    sample_through_channel,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # prob
    "Distribution",
    "Channel",
    "DistortionMeasure",
    "normalize",
    "apply_channel",
    "kl_divergence",
    "binary_kl",
    "bhattacharyya",
    # divopt
    "DistortionBall",
    "BallMinResult",
    "PairMinResult",
    "ChannelMinMaxResult",
    "channel_from_output",
    "min_divergence_to_ball",
    "pairwise_min_divergence",
    "min_max_divergence_over_channel",
    "min_divergence_over_common_channels",
    # equilibrium
    "GameSpec",
    "EquilibriumSolution",
    "NonAwareBounds",
    "solve_aware_equilibrium",
    "equilibrium_payoff",
    "min_pairwise_bhattacharyya",
    "nonaware_achievable",
    "nonaware_converse",
    "solve_nonaware_adversary",
    # seqtest
    "threshold_constant",
    "ThresholdSchedule",
    "TestOutcome",
    "TrajectoryRow",
    "evidence_statistics",
    "run_aware",
    "run_nonaware",
    # simharness
    "ScenarioConfig",
    "ReportRow",
    "SimulationReport",
    "sample_through_channel",
    "run_replication",
    "monte_carlo",
    "alpha_sweep",
    # errors
    "SeqGameError",
    "ConstructionError",
    "ShapeError",
    "DomainError",
    "EmptySequenceError",
    "InfeasibleError",
    "ResourceError",
    "DegenerateGameError",
    "StreamExhaustedError",
    "ConfigError",
    "EmptyDataError",
    "FormatError",
]
