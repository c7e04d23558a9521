import csv
import io
from pathlib import Path

import numpy as np
import pytest

from seqgame.cli import (
    RunConfig,
    build_game_spec,
    build_scenario,
    dump_run_config,
    ingest_histogram,
    main,
    parse_run_config,
    solution_csv,
)
from seqgame.equilibrium import solve_aware_equilibrium
from seqgame.errors import (
    ConfigError,
    DegenerateGameError,
    EmptyDataError,
    FormatError,
)
from seqgame.prob import DistortionMeasure
from seqgame.simharness import REPORT_COLUMNS

MINIMAL = """\
hypothesis_0 = 0.2, 0.8
hypothesis_1 = 0.8, 0.2
delta = 0.05
measure = tv_l1
"""

SIMULATE = MINIMAL + """\
alpha_grid = 0.1
replications = 2
seed = 3
"""

SWEEP = MINIMAL + """\
alpha_grid = 0.2, 0.1
replications = 3
seed = 5
"""


class TestParseRunConfig:
    def test_minimal_defaults(self):
        cfg = parse_run_config(MINIMAL)
        assert cfg.hypotheses == ((0.2, 0.8), (0.8, 0.2))
        assert cfg.delta == 0.05
        assert cfg.measure == "tv_l1"
        assert cfg.weights is None
        assert cfg.support_floor == 1e-9
        assert cfg.zeta == 0.85
        assert cfg.cap == 1_000_000
        assert cfg.stride == 1
        assert cfg.adversary == "equilibrium"
        assert cfg.alpha_grid is None

    def test_comments_and_spacing(self):
        text = "\n".join([
            "# leading comment",
            "",
            "hypothesis_0   =  0.2 , 0.8   # inline",
            "hypothesis_1=0.8,0.2",
            "delta= 0.05",
            "measure =tv_l1",
        ])
        cfg = parse_run_config(text)
        assert cfg.hypotheses == ((0.2, 0.8), (0.8, 0.2))

    def test_all_keys(self):
        text = MINIMAL + "\n".join([
            "weights = 2.0, 0.5",
            "support_floor = 1e-8",
            "zeta = 0.7",
            "alpha_grid = 0.1, 0.05",
            "replications = 10",
            "seed = 42",
            "cap = 5000",
            "stride = 2",
            "true_hypothesis = 1",
        ])
        cfg = parse_run_config(text)
        assert cfg.weights == (2.0, 0.5)
        assert cfg.zeta == 0.7
        assert cfg.alpha_grid == (0.1, 0.05)
        assert cfg.replications == 10
        assert cfg.seed == 42
        assert cfg.cap == 5000
        assert cfg.stride == 2
        assert cfg.true_hypothesis == 1

    def test_common_channel(self):
        text = MINIMAL + "adversary = channels\nchannel = 0.9, 0.1, 0.05, 0.95\n"
        cfg = parse_run_config(text)
        assert cfg.channel == (0.9, 0.1, 0.05, 0.95)
        assert cfg.channels is None

    def test_per_hypothesis_channels(self):
        text = MINIMAL + (
            "adversary = channels\n"
            "channel_0 = 1.0, 0.0, 0.0, 1.0\n"
            "channel_1 = 0.9, 0.1, 0.05, 0.95\n"
        )
        cfg = parse_run_config(text)
        assert cfg.channel is None
        assert len(cfg.channels) == 2

    @pytest.mark.parametrize("mutation", [
        "not a key value line",
        "delta =",
        "measure = hellinger",
        "adversary = worst",
        "mystery_key = 3",
        "channel = 1.0, 0.0, 0.0, 1.0",  # channels require the marker
        "replications = 2.5",
        "delta = soon",
        "solver_max_iterations = 500",  # no solver reads an iteration cap
    ])
    def test_rejects(self, mutation):
        with pytest.raises(ConfigError):
            parse_run_config(MINIMAL + mutation + "\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_run_config(MINIMAL + "delta = 0.01\n")

    def test_requires_two_hypotheses(self):
        with pytest.raises(ConfigError):
            parse_run_config("hypothesis_0 = 0.5, 0.5\ndelta = 0.01\nmeasure = tv_l1\n")

    def test_gapped_indices(self):
        text = (
            "hypothesis_0 = 0.2, 0.8\nhypothesis_2 = 0.8, 0.2\n"
            "delta = 0.05\nmeasure = tv_l1\n"
        )
        with pytest.raises(ConfigError):
            parse_run_config(text)

    def test_channel_marker_needs_channels(self):
        with pytest.raises(ConfigError):
            parse_run_config(MINIMAL + "adversary = channels\n")
        both = MINIMAL + (
            "adversary = channels\n"
            "channel = 1.0, 0.0, 0.0, 1.0\n"
            "channel_0 = 1.0, 0.0, 0.0, 1.0\n"
            "channel_1 = 1.0, 0.0, 0.0, 1.0\n"
        )
        with pytest.raises(ConfigError):
            parse_run_config(both)


class TestDumpRunConfig:
    def test_round_trip_identity(self):
        cfg = parse_run_config(SWEEP)
        text = dump_run_config(cfg)
        assert text.startswith("# seqgame configuration\n")
        assert parse_run_config(text) == cfg
        assert dump_run_config(parse_run_config(text)) == text

    def test_round_trip_with_channels(self):
        src = MINIMAL + (
            "adversary = channels\n"
            "channel_0 = 1.0, 0.0, 0.0, 1.0\n"
            "channel_1 = 0.9, 0.1, 0.05, 0.95\n"
        )
        cfg = parse_run_config(src)
        assert parse_run_config(dump_run_config(cfg)) == cfg

    def test_every_key_pinned(self):
        """The text the parser's key table gives, pinned for a config that
        sets every field; the order is that of RunConfig's fields."""
        identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        cfg = RunConfig(
            hypotheses=((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)),
            delta=0.01, measure="kl", weights=(2.0, 0.5, 1.0), support_floor=1e-8,
            zeta=0.7, alpha_grid=(0.1, 0.05), replications=10, seed=42, cap=5000,
            stride=2, true_hypothesis=1, adversary="channels", channel=identity,
            channels=(identity, identity, (0.9, 0.05, 0.05, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)),
        )
        assert dump_run_config(cfg) == """\
# seqgame configuration
hypothesis_0 = 0.6, 0.25, 0.15
hypothesis_1 = 0.2, 0.6, 0.2
hypothesis_2 = 0.2, 0.2, 0.6
delta = 0.01
measure = kl
weights = 2.0, 0.5, 1.0
support_floor = 1e-08
zeta = 0.7
alpha_grid = 0.1, 0.05
replications = 10
seed = 42
cap = 5000
stride = 2
true_hypothesis = 1
adversary = channels
channel = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
channel_0 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
channel_1 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
channel_2 = 0.9, 0.05, 0.05, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
"""


class TestBuilders:
    def test_build_game_spec(self):
        spec = build_game_spec(parse_run_config(MINIMAL))
        assert spec.num_hypotheses == 2
        assert spec.measure is DistortionMeasure.TV_L1
        assert spec.delta == 0.05

    def test_invalid_distribution_is_config_error(self):
        bad = RunConfig(hypotheses=((0.2, 0.9), (0.8, 0.2)), delta=0.05, measure="tv_l1")
        with pytest.raises(ConfigError):
            build_game_spec(bad)

    def test_degenerate_budget_passes_through(self):
        cfg = parse_run_config(MINIMAL.replace("delta = 0.05", "delta = 0.9"))
        with pytest.raises(DegenerateGameError):
            build_game_spec(cfg)

    def test_solver_options(self):
        # the solvers' stop rule is fixed, so a config cannot set it
        with pytest.raises(ConfigError, match="unknown keys: solver_tolerance"):
            parse_run_config(MINIMAL + "solver_tolerance = 1e-8\n")

    def test_build_scenario(self):
        scenario = build_scenario(parse_run_config(SIMULATE))
        assert scenario.alpha_grid == (0.1,)
        assert scenario.replications == 2
        assert scenario.seed == 3

    def test_build_scenario_requires_simulation_keys(self):
        cfg = parse_run_config(MINIMAL)
        with pytest.raises(ConfigError):
            build_scenario(cfg)
        with pytest.raises(ConfigError):
            build_scenario(parse_run_config(MINIMAL + "alpha_grid = 0.1\nreplications = 2\n"))

    def test_seed_override(self):
        cfg = parse_run_config(MINIMAL + "alpha_grid = 0.1\nreplications = 2\n")
        scenario = build_scenario(cfg, seed_override=17)
        assert scenario.seed == 17
        also = build_scenario(parse_run_config(SIMULATE), seed_override=17)
        assert also.seed == 17

    def test_channel_entry_count_checked(self):
        text = MINIMAL + "adversary = channels\nchannel = 0.9, 0.1\n" + (
            "alpha_grid = 0.1\nreplications = 2\nseed = 3\n"
        )
        with pytest.raises(ConfigError):
            build_scenario(parse_run_config(text))

    def test_common_channel_scenario(self):
        text = SIMULATE + "adversary = channels\nchannel = 1.0, 0.0, 0.0, 1.0\n"
        scenario = build_scenario(parse_run_config(text))
        assert np.allclose(scenario.channels[0].rows, np.eye(2))


class TestIngestHistogram(object):
    def test_binarization_rule(self, tmp_path):
        data = tmp_path / "pixels.txt"
        data.write_text("60 40 50 255\n")
        # strictly greater than the threshold counts as high
        dist = ingest_histogram(data, 50)
        assert dist.probs[0] == pytest.approx(0.5)
        assert dist.probs[1] == pytest.approx(0.5)

    def test_extremes(self, tmp_path):
        low = tmp_path / "low.txt"
        low.write_text("50 50 50")
        assert ingest_histogram(low, 50).probs[1] == 0.0
        high = tmp_path / "high.txt"
        high.write_text("255 255")
        assert ingest_histogram(high, 50).probs[0] == 0.0

    def test_errors(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("   \n")
        with pytest.raises(EmptyDataError):
            ingest_histogram(empty, 50)
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("12 zebra")
        with pytest.raises(FormatError):
            ingest_histogram(alpha, 50)
        wild = tmp_path / "wild.txt"
        wild.write_text("300")
        with pytest.raises(FormatError):
            ingest_histogram(wild, 50)
        with pytest.raises(OSError):
            ingest_histogram(tmp_path / "missing.txt", 50)


class TestSolutionCsv:
    def test_layout(self):
        spec = build_game_spec(parse_run_config(MINIMAL))
        solution = solve_aware_equilibrium(spec)
        text = solution_csv(solution)
        header, row, trailer = text.split("\n")
        assert trailer == ""
        assert header == (
            "payoff,exponent_0,exponent_1,"
            "q_star_0_0,q_star_0_1,q_star_1_0,q_star_1_1"
        )
        cells = row.split(",")
        assert cells[0] == format(solution.payoff, ".12g")
        assert cells[3] == format(float(solution.q_star[0].probs[0]), ".12g")


class TestMain:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_solve(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL)
        out = tmp_path / "solution.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "payoff" in shown and "converged True" in shown
        spec = build_game_spec(parse_run_config(MINIMAL))
        assert out.read_text() == solution_csv(solve_aware_equilibrium(spec))

    def test_solve_dump_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL)
        assert main(["solve", "--config", cfg, "--dump-config"]) == 0
        shown = capsys.readouterr().out
        assert shown.startswith("# seqgame configuration\n")
        assert parse_run_config(shown) == parse_run_config(MINIMAL)

    def test_simulate(self, tmp_path):
        cfg = self.write(tmp_path, SIMULATE)
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 3  # both hypotheses at one alpha

    def test_simulate_rejects_grid(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SWEEP)
        assert main(["simulate", "--config", cfg]) == 2
        assert "alpha_grid" in capsys.readouterr().err

    def test_simulate_is_a_one_alpha_sweep(self, tmp_path):
        cfg = self.write(tmp_path, SIMULATE)
        simulated, swept = tmp_path / "simulate.csv", tmp_path / "sweep.csv"
        assert main(["simulate", "--config", cfg, "--out", str(simulated)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(swept)]) == 0
        assert simulated.read_text() == swept.read_text()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_repeated_alpha_exits_2(self, tmp_path, capsys, command):
        cfg = self.write(tmp_path, SWEEP.replace("0.2, 0.1", "0.1, 0.1"))
        assert main([command, "--config", cfg]) == 2
        assert "alpha values must be distinct" in capsys.readouterr().err

    def test_sweep_deterministic(self, tmp_path):
        cfg = self.write(tmp_path, SWEEP)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(first)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        assert first.read_text().splitlines()[0] == ",".join(REPORT_COLUMNS)

    def test_sweep_seed_override_changes_draws(self, tmp_path):
        cfg = self.write(tmp_path, SWEEP)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert a.read_text() != b.read_text()

    def test_exit_code_config_error(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL + "mystery = 1\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solver_tolerance_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL + "solver_tolerance = 1e-8\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "unknown keys: solver_tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("game", [
        MINIMAL.replace("0.2, 0.8", "0.38, 0.62").replace("0.8, 0.2", "0.5, 0.5"),
        "hypothesis_0 = 0.6, 0.25, 0.15\nhypothesis_1 = 0.2, 0.6, 0.2\n"
        "hypothesis_2 = 0.2, 0.2, 0.6\ndelta = 0.01\nmeasure = kl\n",
    ], ids=["bernoulli_tv", "ternary_kl"])
    def test_solve_and_sweep_print_the_same_exponents(self, tmp_path, capsys, game):
        """`solve` and `sweep` solve the game the same way, so the exponent
        cells of one are the theoretical_exponent cells of the other."""
        cfg = self.write(tmp_path, game + "alpha_grid = 0.5\nreplications = 1\nseed = 0\n"
                                          "cap = 64\nstride = 16\n")
        solved, swept = tmp_path / "solution.csv", tmp_path / "sweep.csv"
        assert main(["solve", "--config", cfg, "--out", str(solved)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(swept)]) == 0
        capsys.readouterr()
        header, cells = (line.split(",") for line in solved.read_text().splitlines())
        exponents = dict(zip(header, cells))
        rows = list(csv.DictReader(io.StringIO(swept.read_text())))
        assert len(rows) == game.count("hypothesis_")
        for row in rows:
            assert row["theoretical_exponent"] == exponents[f"exponent_{row['hypothesis']}"]

    def test_readme_config_solves(self, tmp_path, capsys):
        """The example config of the README's command-line section."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        cfg = self.write(tmp_path, section.split("```\n")[1])
        assert main(["solve", "--config", cfg]) == 0
        assert "converged True" in capsys.readouterr().out

    def test_exit_code_degenerate(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL.replace("delta = 0.05", "delta = 0.9"))
        assert main(["solve", "--config", cfg]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("measure", ["tv_l1", "kl"])
    def test_exit_code_nan_budget(self, tmp_path, capsys, measure):
        text = MINIMAL.replace("delta = 0.05", "delta = nan")
        cfg = self.write(tmp_path, text.replace("measure = tv_l1", f"measure = {measure}"))
        assert main(["solve", "--config", cfg]) == 2
        assert "delta must be nonnegative" in capsys.readouterr().err

    def test_exit_code_io(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 4
        capsys.readouterr()

    def test_ingest(self, tmp_path, capsys):
        data = tmp_path / "pixels.txt"
        data.write_text("60 40 50 255")
        out = tmp_path / "dist.csv"
        code = main(["ingest", "--data", str(data), "--threshold", "50", "--out", str(out)])
        assert code == 0
        assert out.read_text() == "symbol,probability\n0,0.5\n1,0.5\n"

    def test_ingest_bad_data(self, tmp_path, capsys):
        data = tmp_path / "pixels.txt"
        data.write_text("60 oops")
        assert main(["ingest", "--data", str(data), "--threshold", "50"]) == 4
        capsys.readouterr()
