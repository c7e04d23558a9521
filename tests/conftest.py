import numpy as np
import pytest

from seqgame import Distribution, DistortionMeasure, GameSpec

from oracles import normalize


@pytest.fixture(scope="session")
def bernoulli_spec():
    """p0 = 0.38 vs the fair coin, TV budget 0.05. Balls [0.355, 0.405]
    and [0.475, 0.525] on the first coordinate."""
    return GameSpec(
        hypotheses=(Distribution([0.38, 0.62]), Distribution([0.5, 0.5])),
        delta=0.05,
        measure=DistortionMeasure.TV_L1,
    )


@pytest.fixture(scope="session")
def digits_spec():
    """Binarized two-digit instance: empirical pixel laws under a KL budget.

    The first law is renormalized from four-decimal estimates that sum to
    1.00005 after rounding.
    """
    return GameSpec(
        hypotheses=(normalize([0.9061, 0.09395]), Distribution([0.8481, 0.1519])),
        delta=0.001,
        measure=DistortionMeasure.KL,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(20240817))
