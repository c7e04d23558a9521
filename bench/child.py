"""One benchmark repeat in a fresh interpreter: set up, then the timed phase.

run.py starts this script with the thread count of the numerical
libraries pinned to 1 and the checkout's `src/` on PYTHONPATH, so caches
such as the threshold constant start cold in every repeat. It writes one
JSON result, the program's CSV output, and with tracing on the span list.

    python3 bench/child.py --workload NAME --config FILE --phase setup|full \
        --trace 0|1 --result FILE --csv FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class _Untraced:
    def span(self, name):
        return contextlib.nullcontext()

    def replication_id(self, key):
        return contextlib.nullcontext()


def _sweep(text: str, phase: str, tracer, csv_path: Path) -> dict:
    """The sweep command's steps: parse, build, solve, simulate, write."""
    from seqgame import cli, simharness

    start = time.perf_counter()
    with tracer.span("setup"):
        config = cli.parse_run_config(text)
        scenario = cli.build_scenario(config)
        scenario.solution
        for alpha in scenario.alpha_grid:
            scenario.schedule_for(alpha)  # the cold threshold constant
    result = {"setup_s": time.perf_counter() - start}
    if phase == "setup":
        return result

    start = time.perf_counter()
    with tracer.span("timed"):
        report = simharness.monte_carlo(scenario)
        with tracer.span("report_write"):
            csv_path.write_text(report.to_csv())
    result["wall_s"] = time.perf_counter() - start
    rows = report.rows
    timeouts = sum(r.timeouts for r in rows)
    finished = sum(r.mean_T * (r.replications - r.timeouts) for r in rows if r.timeouts < r.replications)
    result.update(
        attempted=sum(r.replications for r in rows),
        failed=timeouts,
        samples=round(finished) + timeouts * scenario.cap,
    )
    return result


def _nonaware(text: str, phase: str, tracer, csv_path: Path) -> dict:
    """Common-channel search and bounds, then the common-channel test on
    streams through the configured channel."""
    from seqgame import cli, equilibrium, seqtest, simharness

    start = time.perf_counter()
    with tracer.span("setup"):
        config = cli.parse_run_config(text)
        scenario = cli.build_scenario(config)
        spec = scenario.spec
        p0, p1 = spec.hypotheses
        game = (spec.delta, spec.measure)
        search = equilibrium.solve_nonaware_adversary(p0, p1, *game, num_starts=1)
        channel = scenario.channels[0]
        achievable = equilibrium.nonaware_achievable(p0, p1, channel, *game)
        converse = equilibrium.nonaware_converse(p0, p1, channel, *game)
        (alpha,) = scenario.alpha_grid
        schedule = scenario.schedule_for(alpha)
    result = {
        "setup_s": time.perf_counter() - start,
        "fixed_achievable": achievable,
        "fixed_converse": converse,
        "search_achievable": search.achievable,
        "search_converse": search.converse,
    }
    if phase == "setup":
        return result

    def stream(source, channel, rng):
        while True:
            yield simharness.sample_through_channel(source, channel, rng)

    lines = ["hypothesis,replication,stopping_time,decision,timed_out"]
    samples = failed = 0
    start = time.perf_counter()
    with tracer.span("timed"):
        for hyp in scenario.simulated_hypotheses():
            for rep in range(scenario.replications):
                rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, hyp, rep]))
                symbols = stream(spec.hypotheses[hyp], scenario.channels[hyp], rng)
                with tracer.replication_id((0, hyp, rep)):
                    outcome = seqtest.run_nonaware(symbols, schedule, p0, p1, *game,
                                                   cap=scenario.cap, stride=scenario.stride)
                decision = "" if outcome.decision is None else outcome.decision
                lines.append(f"{hyp},{rep},{outcome.stopping_time},{decision},{int(outcome.timed_out)}")
                samples += outcome.stopping_time
                failed += outcome.timed_out
        csv_path.write_text("\n".join(lines) + "\n")
    result.update(
        wall_s=time.perf_counter() - start,
        attempted=len(lines) - 1,
        failed=failed,
        samples=samples,
    )
    return result


RUNNERS = {"sweep": _sweep, "nonaware": _nonaware}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--phase", required=True, choices=("setup", "full"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--csv", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    import seqgame
    import seqgame.cli  # the package does not import its command-line module

    source = Path(seqgame.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: seqgame imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = _Untraced()
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]
    result = RUNNERS[workload.kind](args.config.read_text(), args.phase, tracer, args.csv)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    args.result.write_text(json.dumps(result))
    if args.trace:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
