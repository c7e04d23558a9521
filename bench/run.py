"""The seqgame benchmark: one workload, one seed, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed becomes a seqgame config (see
workloads.py); every repeat runs in a fresh interpreter (child.py) with
numerical libraries pinned to one thread, one repeat after another.

--trace 0 repeats set-up plus the timed phase while another repeat fits in
S seconds, at least MIN_REPEATS times, and reports the median of each
end-to-end metric over the repeats. --trace 1 runs the workload once
untraced and once traced, and reports the per-layer metrics of the traced
run. Both modes check the program's output. The metric names and units
come from BENCHMARK.json. The last line of standard output is one JSON
object; everything the run produced, with the versions and machine it ran
on, is kept under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import MAX_REPEATS, WORKLOADS, check_nonaware, check_sweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_REPEATS = 3
# Every child must finish within this many seconds of the run's start.
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A repeat failed or a traced run missed a layer; the run has no result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _select(values: dict[str, float], units: dict[str, str]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json lists, in its order, with their units."""
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    return {name: (values[name], unit) for name, unit in units.items()}


class Runner:
    """Starts child.py repeats for one workload and collects their output."""

    def __init__(self, workload, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, phase: str, repeat: int, trace: bool = False) -> dict:
        """One fresh interpreter on the inputs of repeat `repeat` of the run."""
        seed = self.workload.program_seed(self.seed, repeat)
        config_path = self.out_dir / f"game-seed{seed}.cfg"
        config_path.write_text(self.workload.config_text(seed))
        tag = f"{self.count:02d}-{phase}{'-traced' if trace else ''}"
        self.count += 1
        paths = {k: self.out_dir / f"{tag}.{k}" for k in ("json", "csv", "spans")}
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload.name,
               "--config", str(config_path), "--phase", phase, "--trace", str(int(trace)),
               "--result", str(paths["json"]), "--csv", str(paths["csv"])]
        if trace:
            cmd += ["--spans", str(paths["spans"])]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"no time left for repeat {tag}")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repeat {tag} did not finish within {DEADLINE_S:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"repeat {tag} exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(paths["json"].read_text())
        result["seed"] = seed
        if phase == "full":
            result["csv"] = paths["csv"].read_text()
        if trace:
            result["spans"] = json.loads(paths["spans"].read_text())
        return result


def _problems(workload, results: list[dict]) -> list[str]:
    """Output checks over every repeat of one run."""
    problems = []
    outputs: dict[int, set[str]] = {}
    for r in results:
        if "csv" in r:
            outputs.setdefault(r["seed"], set()).add(r["csv"])
    if any(len(texts) > 1 for texts in outputs.values()):
        problems.append(f"{workload.name}: repeats on the same inputs wrote different CSVs")
    for r in results:
        if workload.kind == "nonaware":
            problems += check_nonaware(workload, r, r.get("csv"))
        elif "csv" in r:
            problems += check_sweep(workload, r["seed"], r["csv"])
    return sorted(set(problems))


def measure(runner: Runner, seconds: int, units: dict[str, str]) -> tuple[dict, list[dict]]:
    """End-to-end metrics, tracing off: medians over fresh repeats."""
    full = []
    begin = time.monotonic()
    while len(full) < MAX_REPEATS:
        start = time.monotonic()
        full.append(runner.run("full", len(full)))
        now = time.monotonic()
        # stop when one more repeat as long as the last would overrun
        if len(full) >= MIN_REPEATS and (now - begin) + (now - start) > seconds:
            break
    median = statistics.median
    values = {
        "wall_s": median(r["wall_s"] for r in full),
        "setup_s": median(r["setup_s"] for r in full),
        "replications_per_s": median(r["attempted"] / r["wall_s"] for r in full),
        "samples_per_s": median(r["samples"] / r["wall_s"] for r in full),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in full),
    }
    inputs = len({r["seed"] for r in full})
    print(f"# {len(full)} repeats on {inputs} input set(s), each in a fresh interpreter,"
          f" {time.monotonic() - begin:.1f} s")
    metrics = _select(values, units)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics, full


def trace_layers(runner: Runner, units: dict[str, str]) -> tuple[dict, list[dict]]:
    """Per-layer metrics from one traced repeat, next to one untraced."""
    plain = runner.run("full", 0)
    traced = runner.run("full", 0, trace=True)
    layers = tracing.Layers(traced.pop("spans"))
    missing = layers.missing(runner.workload.expected_layers)
    if missing:
        raise BenchError(f"traced run recorded no spans in layer(s) {', '.join(missing)}")
    overhead = ((traced["setup_s"] + traced["wall_s"])
                / (plain["setup_s"] + plain["wall_s"]))
    metrics = _select(layers.metrics(overhead), units)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for layer, share in layers.shares().items():
        print(f"# share of traced wall in {layer}: {share:.3f}")
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running repeat
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "seqgame" / "__init__.py").is_file():
        print(f"error: no seqgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = BENCH / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, out_dir)
    env = {"python": platform.python_version(), "nproc": _nproc(), "cpu": _cpu_model()}
    print(f"# workload {workload.name}, seed {args.seed}, trace {args.trace}")
    try:
        end_to_end, per_layer = _load_metrics()
        if args.trace:
            metrics, results = trace_layers(runner, per_layer)
        else:
            metrics, results = measure(runner, args.seconds, end_to_end)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(numpy=results[0]["numpy"], scipy=results[0]["scipy"])
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))

    problems = _problems(workload, results)
    for problem in problems:
        print(f"# check failed: {problem}")
    timed = [r for r in results if "attempted" in r]
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    print(f"failed_share = {failed / attempted:.6g} share ({failed} of {attempted} replications)")
    print(f"# output checks: {'passed' if not problems else 'FAILED'}")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(summary, environment=env, problems=problems,
                  repeats=[{k: v for k, v in r.items() if k != "csv"} for r in results])
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
