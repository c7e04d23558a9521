"""Malformed and zero-budget inputs through every CLI command.

Each run must end with one of the documented exit codes (0 success,
2 malformed configuration, 3 infeasible or degenerate game, 4 I/O or data
failure) and never with a traceback. Configs are kept small (few
replications, a low cap) so that a run which is accepted finishes quickly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seqgame
from seqgame.cli import main

SRC = str(Path(seqgame.__file__).resolve().parents[1])
EXIT_CODES = {0, 2, 3, 4}
TIMEOUT_S = 60

BASE = {
    "hypothesis_0": "0.38, 0.62",
    "hypothesis_1": "0.5, 0.5",
    "delta": "0.05",
    "measure": "tv_l1",
    "alpha_grid": "0.1",
    "replications": "2",
    "seed": "3",
    "cap": "300",
}
TERNARY = {
    "hypothesis_0": "0.6, 0.25, 0.15",
    "hypothesis_1": "0.2, 0.6, 0.2",
    "hypothesis_2": "0.2, 0.2, 0.6",
}
JUNK = ("", "abc", "0", "-1", "2", "0.5", "nan", "inf", "-inf", "1e-300",
        "0.5, 0.5", "1, 0", "0.3, 0.3, 0.3", "1,,2", "=", "tv_l1", "kl", "channels")
KEYS = tuple(BASE) + ("weights", "support_floor", "zeta", "stride", "true_hypothesis",
                      "adversary", "channel", "channel_0", "hypothesis_2", "mystery")
# laws with zero entries, which only a zero support floor admits
ZERO_LAWS = {
    2: ("0.0, 1.0", "1, 0"),
    3: ("0, 0.5, 0.5", "0.3, 0.0, 0.7", "0, 0, 1"),
}


def _render(pairs: dict[str, str], extra_lines: list[str]) -> str:
    return "\n".join([f"{k} = {v}" for k, v in pairs.items()] + extra_lines) + "\n"


@st.composite
def _configs(draw):
    pairs = dict(BASE)
    if draw(st.booleans()):
        pairs.update(TERNARY)
    pairs["measure"] = draw(st.sampled_from(["tv_l1", "kl"]))
    if draw(st.booleans()):
        pairs["support_floor"] = draw(st.sampled_from(["0", "0.0"]))
        laws = [k for k in pairs if k.startswith("hypothesis_")]
        for key in draw(st.lists(st.sampled_from(laws), max_size=len(laws), unique=True)):
            pairs[key] = draw(st.sampled_from(ZERO_LAWS[len(laws)]))
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3)):
        if draw(st.booleans()):
            pairs.pop(key, None)
        else:
            pairs[key] = draw(st.sampled_from(JUNK))
    extra = draw(st.lists(st.sampled_from(["delta = 0", "no equals sign", "= 1", "# note"]),
                          max_size=1))
    return _render(pairs, extra)


def _check(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_configs(), command=st.sampled_from(["solve", "simulate", "sweep"]))
def test_malformed_configs(tmp_path, capsys, text, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    _check([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")], capsys)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.sampled_from(["", "1 2 3", "60 oops", "-5 10", "300", "0 255 128", "\n\n"]),
       threshold=st.sampled_from(["50", "-1", "x", "1e3"]))
def test_malformed_ingest(tmp_path, capsys, data, threshold):
    pixels = tmp_path / "pixels.txt"
    pixels.write_text(data)
    _check(["ingest", "--data", str(pixels), "--threshold", threshold], capsys)


def _zero_budget_configs():
    for measure in ("tv_l1", "kl"):
        for hyps in ({}, TERNARY):
            pairs = {**BASE, **hyps, "delta": "0", "measure": measure}
            yield pytest.param(_render(pairs, []),
                               id=f"{measure}-k{2 if not hyps else 3}")


@pytest.mark.parametrize("command", ["solve", "simulate", "sweep"])
@pytest.mark.parametrize("text", list(_zero_budget_configs()))
def test_zero_budget_configs_in_process(tmp_path, capsys, text, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    _check([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")], capsys)


@pytest.mark.parametrize("args", [
    ["solve", "--config", "{cfg}"],
    ["sweep", "--config", "{cfg}", "--seed", "5"],
    ["simulate", "--config", "{bad}"],
    ["ingest", "--data", "{bad}", "--threshold", "50"],
    ["ingest", "--data", "{missing}", "--threshold", "50"],
    ["sweep"],
], ids=["solve", "sweep", "simulate-malformed", "ingest-malformed", "ingest-missing",
        "no-config"])
def test_command_line_exit_codes(tmp_path, args):
    """The installed entry point, in a fresh interpreter, on zero-budget and
    malformed inputs."""
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(_render({**BASE, **TERNARY, "delta": "0", "measure": "kl"}, []))
    bad = tmp_path / "bad.txt"
    bad.write_text("hypothesis_0 = 1, oops\n")
    paths = {"cfg": cfg, "bad": bad, "missing": tmp_path / "absent.txt"}
    argv = [a.format(**paths) for a in args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "seqgame.cli", *argv], capture_output=True,
                          text=True, timeout=TIMEOUT_S, env=env, cwd=tmp_path)
    assert done.returncode in EXIT_CODES, done.stderr
    assert "Traceback" not in done.stderr
