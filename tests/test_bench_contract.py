"""What the benchmark needs of the package.

`bench/tracing.py` wraps each function named in its `WRAPPED` table, and a
traced run fails when one of them is gone; `bench/child.py` passes
`num_starts` to `solve_nonaware_adversary`. The tracer is loaded by path
and never installed, since installing it patches the package in place.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import seqgame.cli  # noqa: F401  (the package does not import its command-line module)
from seqgame import Distribution, DistortionMeasure, solve_nonaware_adversary

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("name", sorted(_wrapped()))
def test_traced_name_is_a_seqgame_callable(name):
    modules = [m for key, m in sys.modules.items()
               if key == "seqgame" or key.startswith("seqgame.")]
    assert any(callable(getattr(m, name, None)) for m in modules)


def test_nonaware_search_takes_num_starts():
    p0, p1 = Distribution([0.38, 0.62]), Distribution([0.5, 0.5])
    inspect.signature(solve_nonaware_adversary).bind(
        p0, p1, 0.05, DistortionMeasure.TV_L1, num_starts=1)
