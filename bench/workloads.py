"""Workload definitions for the seqgame benchmark.

Each workload turns the benchmark seed into a seqgame configuration file,
names the layers its traced run must reach, and knows how to check the
program's output against the references stored in `bench/reference/`.
The reasons behind each workload are in `bench/NOTES.md`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The seed whose sweep CSVs are committed under reference/.
DEFAULT_SEED = 0
# Most repeats one run may make; it also spaces the seeds of fresh inputs.
MAX_REPEATS = 20
# SHA-256 of each closed-form sweep's CSV at seeds 0 .. DIGEST_SEEDS - 1.
DIGESTS = REFERENCE_DIR / "sweep_sha256.json"
DIGEST_SEEDS = 100

# Relative tolerance on the equilibrium exponents of a sweep. Binary games
# use closed forms; larger alphabets go through iterative reach solvers,
# which an exact solver may legitimately move in the sixth digit.
CLOSED_FORM_RTOL = 1e-9
ITERATIVE_RTOL = 1e-4

# At another seed, a sweep row's mean stopping time may differ from the
# reference row by this many combined standard errors, plus one stride.
# Rows with fewer replications have no usable standard error and skip it.
MEAN_T_SIGMAS = 5.0
MIN_REPLICATIONS_FOR_SE = 30


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" runs the sweep command's steps; "nonaware" the common-channel test
    hypotheses: tuple[tuple[float, ...], ...]
    delta: float
    measure: str
    alpha_grid: tuple[float, ...]
    replications: int
    stride: int
    expected_layers: tuple[str, ...]
    channel: tuple[float, ...] | None = None
    # True: each repeat of a run draws its own inputs (see program_seed),
    # so a run averages stopping times over several input sets. False: every
    # repeat runs the same inputs and must write the same CSV.
    fresh_inputs: bool = False

    def program_seed(self, seed: int, repeat: int) -> int:
        """The seed in the config of repeat `repeat` of a run at `seed`."""
        if not self.fresh_inputs:
            return seed
        if not 0 <= repeat < MAX_REPEATS:
            raise ValueError(f"repeat {repeat} outside 0 .. {MAX_REPEATS - 1}")
        return seed * MAX_REPEATS + repeat

    def config_text(self, seed: int) -> str:
        """The seqgame config the program receives; only `seed` varies."""
        lines = [f"# benchmark workload {self.name}"]
        for i, h in enumerate(self.hypotheses):
            lines.append(f"hypothesis_{i} = " + ", ".join(repr(p) for p in h))
        lines += [
            f"delta = {self.delta!r}",
            f"measure = {self.measure}",
            "alpha_grid = " + ", ".join(repr(a) for a in self.alpha_grid),
            f"replications = {self.replications}",
            f"stride = {self.stride}",
            f"seed = {seed}",
        ]
        if self.channel is not None:
            lines += ["adversary = channels",
                      "channel = " + ", ".join(repr(c) for c in self.channel)]
        return "\n".join(lines) + "\n"

    @property
    def closed_form(self) -> bool:
        """Binary games solve every divergence problem in closed form."""
        return len(self.hypotheses[0]) == 2


def _exp_grid(*log_inv_alphas: int) -> tuple[float, ...]:
    return tuple(math.exp(-l) for l in log_inv_alphas)


_SWEEP_LAYERS = (
    "cli.parse", "cli.build_scenario", "cli.report_write",
    "divopt.pair", "divopt.reach", "equilibrium.solve",
    "seqtest.threshold_constant", "simharness.replication",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="bernoulli_tv",
        kind="sweep",
        hypotheses=((0.38, 0.62), (0.5, 0.5)),
        delta=0.05,
        measure="tv_l1",
        alpha_grid=_exp_grid(4, 6, 8, 10, 12),
        replications=200,
        stride=1,
        expected_layers=_SWEEP_LAYERS,
    ),
    Workload(
        name="ternary3_tv",
        kind="sweep",
        hypotheses=((0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)),
        delta=0.1,
        measure="tv_l1",
        alpha_grid=_exp_grid(4, 8),
        replications=2,
        stride=16,
        expected_layers=_SWEEP_LAYERS + (
            "simharness.sample", "seqtest.run", "seqtest.evidence",
        ),
        fresh_inputs=True,
    ),
    Workload(
        name="nonaware_bernoulli_tv",
        kind="nonaware",
        hypotheses=((0.38, 0.62), (0.5, 0.5)),
        delta=0.05,
        measure="tv_l1",
        alpha_grid=(0.05,),
        replications=5,
        stride=1024,
        # distortions 0.0484 and 0.0469 under the budget of 0.05
        channel=(0.7781, 0.2219, 0.175, 0.825),
        expected_layers=(
            "cli.parse", "cli.build_scenario", "divopt.pair", "divopt.minmax",
            "equilibrium.nonaware_search", "equilibrium.bounds",
            "seqtest.threshold_constant", "seqtest.run", "simharness.sample",
        ),
        fresh_inputs=True,
    ),
)}


# ---------------------------------------------------------------------------
# Output checks


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def reference_csv(workload: Workload) -> str:
    return (REFERENCE_DIR / f"{workload.name}.csv").read_text()


def error_rate_limit(alpha: float, replications: int) -> float:
    """alpha plus three binomial standard errors at the nominal rate."""
    return alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / replications)


def csv_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_sweep(workload: Workload, seed: int, text: str) -> list[str]:
    """Problems with a sweep CSV; an empty list means it passed.

    A closed-form (binary) sweep at a seed below DIGEST_SEEDS must match
    its reference byte for byte. Otherwise the rows are compared with the
    default seed's reference: at every seed the exponents must match and
    the error rate of each row must stay within alpha + 3 se; each mean
    stopping time must be within one stride at the default seed, and
    statistically compatible with the reference row at other seeds.
    """
    if workload.closed_form and seed < DIGEST_SEEDS:
        if csv_digest(text) == json.loads(DIGESTS.read_text())[workload.name][seed]:
            return []
        return [f"{workload.name}: CSV differs from the reference of seed {seed}"]
    ref_text = reference_csv(workload)
    problems = []
    header, ref_header = text.split("\n", 1)[0], ref_text.split("\n", 1)[0]
    if header != ref_header:
        return [f"{workload.name}: CSV header {header!r} != {ref_header!r}"]
    rows, ref_rows = _rows(text), _rows(ref_text)
    if len(rows) != len(ref_rows):
        return [f"{workload.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        where = f"{workload.name} alpha={row['alpha']} hypothesis={row['hypothesis']}"
        if (row["alpha"], row["hypothesis"]) != (ref["alpha"], ref["hypothesis"]):
            problems.append(f"{where}: row order differs from the reference")
            continue
        exp, ref_exp = float(row["theoretical_exponent"]), float(ref["theoretical_exponent"])
        rtol = CLOSED_FORM_RTOL if workload.closed_form else ITERATIVE_RTOL
        if not math.isclose(exp, ref_exp, rel_tol=rtol, abs_tol=0.0):
            problems.append(f"{where}: exponent {exp!r}, reference {ref_exp!r}")
        reps = int(row["replications"])
        if reps != workload.replications:
            problems.append(f"{where}: {reps} replications, configured {workload.replications}")
        limit = error_rate_limit(float(row["alpha"]), reps)
        if float(row["error_rate"]) > limit:
            problems.append(f"{where}: error rate {row['error_rate']} above {limit:.6g}")
        mean_t, ref_mean = float(row["mean_T"]), float(ref["mean_T"])
        if seed == DEFAULT_SEED:
            tol = workload.stride
        elif reps >= MIN_REPLICATIONS_FOR_SE:
            se = math.hypot(float(row["stderr_T"]), float(ref["stderr_T"]))
            tol = MEAN_T_SIGMAS * se + workload.stride
        else:
            continue
        if not abs(mean_t - ref_mean) <= tol:
            problems.append(f"{where}: mean_T {mean_t!r}, reference {ref_mean!r} (tolerance {tol:.4g})")
    return problems


def check_nonaware(workload: Workload, result: dict, outcomes_csv: str | None) -> list[str]:
    """Problems with a common-channel run; an empty list means it passed.

    The achievable bound never exceeds the converse, at the fixed channel
    and at the searched one. The converse has a closed form and must match
    its reference; the achievable bound is a minimum, so a better solver may
    lower it but never raise it above the reference. When the test ran,
    each hypothesis's error rate stays within alpha + 3 se.
    """
    ref = _rows(reference_csv(workload))[0]
    problems = []
    for label in ("fixed", "search"):
        ach, conv = result[f"{label}_achievable"], result[f"{label}_converse"]
        if not (0.0 <= ach <= conv and math.isfinite(conv)):
            problems.append(f"{workload.name}: {label} channel achievable {ach!r} > converse {conv!r}")
    conv, ref_conv = result["fixed_converse"], float(ref["fixed_converse"])
    if not math.isclose(conv, ref_conv, rel_tol=CLOSED_FORM_RTOL, abs_tol=0.0):
        problems.append(f"{workload.name}: converse {conv!r}, reference {ref_conv!r}")
    ach, ref_ach = result["fixed_achievable"], float(ref["fixed_achievable"])
    if ach > ref_ach * (1.0 + 1e-6):
        problems.append(f"{workload.name}: achievable {ach!r} above reference {ref_ach!r}")
    if outcomes_csv is None:
        return problems
    limit = error_rate_limit(workload.alpha_grid[0], workload.replications)
    outcomes = _rows(outcomes_csv)
    for hyp in sorted({o["hypothesis"] for o in outcomes}):
        wrong = sum(o["decision"] != hyp for o in outcomes
                    if o["hypothesis"] == hyp and o["timed_out"] == "0")
        if wrong / workload.replications > limit:
            problems.append(f"{workload.name}: hypothesis {hyp} error rate above {limit:.6g}")
    return problems
