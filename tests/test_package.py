"""The package's public names, its dependencies, and checks for imports
and public names that are never read."""

import ast
import functools
import os
import re
import subprocess
import sys
import textwrap
import types
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


def _read_names(source: str) -> set[str]:
    """The names a module reads: each `Name` and attribute that is loaded,
    and each string constant outside an `__all__` assignment (so the keys
    of a table of names count). Definitions and imports are not reads."""
    tree = ast.parse(source)
    listed = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in assign.targets)
              for node in ast.walk(assign.value)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in listed:
            read.add(node.value)
    return read


def _public_surface() -> list[str]:
    """Each name of `seqgame.__all__`, and Class.member for each public
    method and property of its classes other than the errors."""
    members = (types.FunctionType, classmethod, staticmethod, property, functools.cached_property)
    names = list(seqgame.__all__)
    for name in seqgame.__all__:
        value = getattr(seqgame, name)
        if isinstance(value, type) and not issubclass(value, BaseException):
            names += [f"{name}.{member}" for member, attr in vars(value).items()
                      if not member.startswith("_") and isinstance(attr, members)]
    return names


def test_every_public_name_is_read_outside_the_tests():
    """A public name that no module of the library, no benchmark script and
    no Python example of the README reads is surface that only tests
    reach, and leaves the library."""
    readme = (ROOT / "README.md").read_text()
    sources = [path.read_text() for path in [*ROOT.glob("src/seqgame/*.py"), *ROOT.glob("bench/*.py")]]
    sources += re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    read = set().union(*map(_read_names, sources))
    assert [name for name in _public_surface() if name.split(".")[-1] not in read] == []


def test_read_names_on_a_sample():
    source = ("import os\nfrom math import pi\n__all__ = ['alpha', 'beta']\nWRAPPED = {'gamma': 1}\n"
              "def delta(): return os.sep + eps.zeta\nclass Eta: theta = 1\n")
    assert _read_names(source) == {"os", "eps", "zeta", "sep", "gamma"}


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


def test_a_binary_sweep_leaves_numpy_ma_unloaded():
    """The boundary search builds its knots without `np.unique`, which
    imports numpy.ma (about 11 ms and 1.3 MB in every binary sweep)."""
    script = textwrap.dedent("""
        import sys
        from seqgame import Distribution, DistortionMeasure, GameSpec, ScenarioConfig, alpha_sweep
        binary = GameSpec((Distribution([0.38, 0.62]), Distribution([0.5, 0.5])), 0.05,
                          DistortionMeasure.TV_L1)
        alpha_sweep(ScenarioConfig(binary, (0.1, 0.001), 5, 0))
        assert "numpy.ma" not in sys.modules
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
