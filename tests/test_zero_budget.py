"""A zero distortion budget on a ternary alphabet, and on a binary one,
also with a zero support floor.

Every adversary is then pinned to its hypothesis, so each pairwise minimum
is the plain divergence between two hypotheses. Each case runs in a fresh
interpreter with a timeout, so a solver that loops forever fails the test
instead of stalling the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqgame

SRC = str(Path(seqgame.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)
TIMEOUT_S = 30
HYPOTHESES = ((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6))
BINARY = ((0.38, 0.62), (0.5, 0.5))
MEASURES = ("tv_l1", "kl")


def _run(args: list[str], cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=TIMEOUT_S, env=env, cwd=cwd)


def _run_json(code: str):
    done = _run(["-c", code])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("measure", MEASURES)
def test_game_spec_pairwise_minima_are_plain_divergences(measure):
    """On the ternary game and on a binary one. The binary KL ball of
    radius 0 must be its center alone, though D(c || t) rounds to zero at
    some t != c: a bisection to those t puts the minima 1.3e-7 below."""
    got = _run_json(f"""
import json
from seqgame import Distribution, DistortionMeasure, GameSpec, kl_divergence
games = []
for laws in ({HYPOTHESES!r}, {BINARY!r}):
    hyps = tuple(Distribution(h) for h in laws)
    spec = GameSpec(hyps, 0.0, DistortionMeasure({measure!r}))
    games.append([[r.value, kl_divergence(hyps[i], hyps[j]), r.converged]
                  for (i, j), r in spec.pairwise_minima.items()])
print(json.dumps(games))
""")
    assert [len(pairs) for pairs in got] == [6, 2]
    for value, plain, converged in got[0] + got[1]:
        assert value == pytest.approx(plain, rel=1e-12)
        assert converged


@pytest.mark.parametrize("measure", MEASURES)
def test_cli_solve_exits_cleanly(measure, tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("".join(f"hypothesis_{i} = " + ", ".join(map(repr, h)) + "\n"
                           for i, h in enumerate(HYPOTHESES))
                   + f"delta = 0.0\nmeasure = {measure}\n")
    done = _run(["-m", "seqgame.cli", "solve", "--config", str(cfg)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert "payoff" in done.stdout


@pytest.mark.parametrize("measure", MEASURES)
def test_bhattacharyya_pair_min_at_zero_radius(measure):
    """The oracle separation that `test_horizon.py` trusts, on two points."""
    got, plain = _run_json(f"""
import json, sys
sys.path.insert(0, {TESTS!r})
from oracles import bhattacharyya, bhattacharyya_full_patience
from seqgame import Distribution, DistortionBall, DistortionMeasure
a, b = (Distribution(h) for h in {HYPOTHESES[:2]!r})
m = DistortionMeasure({measure!r})
got = bhattacharyya_full_patience(DistortionBall(a, 0.0, m), DistortionBall(b, 0.0, m))
print(json.dumps([got, bhattacharyya(a, b)]))
""")
    assert got == pytest.approx(plain, rel=1e-12)


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep"])
def test_zero_floor_binary_exits_cleanly(command, tmp_path):
    """A hypothesis with a zero entry under support_floor = 0: one rival
    ball is the point (0, 1), so its divergence from the other is +inf."""
    cfg = tmp_path / "game.cfg"
    cfg.write_text("hypothesis_0 = 0.0, 1.0\nhypothesis_1 = 0.5, 0.5\ndelta = 0.0\n"
                   "measure = tv_l1\nsupport_floor = 0.0\n"
                   "alpha_grid = 0.1\nreplications = 2\nseed = 3\ncap = 300\n")
    done = _run(["-m", "seqgame.cli", command, "--config", str(cfg),
                 "--out", str(tmp_path / "out.csv")], cwd=tmp_path)
    assert done.returncode in (0, 3), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_zero_floor_binary_runs_without_warnings(command, tmp_path):
    """The binary engine on a zero-floor game, where a clamp onto an end of
    the interval at 0 or 1 divides 0 by 0 before np.where drops it."""
    cfg = tmp_path / "game.cfg"
    cfg.write_text("hypothesis_0 = 0.0, 1.0\nhypothesis_1 = 0.5, 0.5\ndelta = 0.0\n"
                   "measure = tv_l1\nsupport_floor = 0.0\n"
                   "alpha_grid = 0.05\nreplications = 3\nseed = 0\n")
    done = _run(["-m", "seqgame.cli", command, "--config", str(cfg),
                 "--out", str(tmp_path / "out.csv")], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
