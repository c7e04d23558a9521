"""The package's public names, its dependencies, and a check for imports
that are never read."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import seqgame
from seqgame import divopt, equilibrium, errors, prob, seqtest, simharness
from seqgame.simharness import REPORT_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
MODULES = (prob, divopt, equilibrium, seqtest, simharness, errors)


def test_public_names_are_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(seqgame.__all__) == sorted(["__version__", *names])
    assert len(set(seqgame.__all__)) == len(seqgame.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(seqgame, name) is getattr(module, name)


def test_errors_lists_every_class():
    classes = [name for name, value in vars(errors).items() if isinstance(value, type)]
    assert sorted(errors.__all__) == sorted(classes)


def _unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name a file imports and never reads, counting
    the names of its `__all__` as read; an import line marked
    `# noqa: F401` is kept for its side effect."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unread_imports(path):
    assert _unread_imports(path) == []


def test_unread_import_check_on_a_sample(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
                      "__all__ = ['pi']\n")
    assert _unread_imports(sample) == [(1, "os"), (3, "tau")]


def test_the_library_runs_on_numpy_alone():
    """A fresh interpreter imports the package and its command line, runs a
    binary and a ternary TV sweep and solves a ternary KL game, whose tilt
    reaches the Lambert W, and loads no scipy module on the way. It finds
    numpy.random loaded with the package, so that no replication pays for
    the lazy import."""
    script = textwrap.dedent("""
        import sys
        import seqgame
        import seqgame.cli
        assert "numpy.random" in sys.modules
        from seqgame import Distribution, DistortionMeasure, GameSpec, ScenarioConfig, alpha_sweep
        binary = GameSpec((Distribution([0.38, 0.62]), Distribution([0.5, 0.5])), 0.05,
                          DistortionMeasure.TV_L1)
        alpha_sweep(ScenarioConfig(binary, (0.1,), 5, 0))
        laws = (Distribution([0.6, 0.25, 0.15]), Distribution([0.2, 0.6, 0.2]),
                Distribution([0.2, 0.2, 0.6]))
        alpha_sweep(ScenarioConfig(GameSpec(laws, 0.1, DistortionMeasure.TV_L1), (0.1,), 2, 0,
                                   stride=16))
        GameSpec(laws, 0.01, DistortionMeasure.KL).pairwise_minima
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


def test_the_readme_library_example_runs():
    """The first Python block under "## Library example" in README.md runs
    in a fresh interpreter and prints a report."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    script = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert ",".join(REPORT_COLUMNS) in run.stdout.splitlines()
