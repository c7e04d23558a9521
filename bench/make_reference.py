"""Regenerate bench/reference/ from the program in this checkout.

    python3 bench/make_reference.py

Writes each sweep's CSV and the common-channel bounds at the default seed,
and the SHA-256 of each closed-form sweep's CSV at seeds 0 .. DIGEST_SEEDS-1.
References pin the program's current outputs, so only a change that
redefines the benchmark should run this.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import BENCH, Runner
from workloads import DEFAULT_SEED, DIGEST_SEEDS, DIGESTS, REFERENCE_DIR, WORKLOADS, csv_digest


def _run(workload, seed: int) -> dict:
    out_dir = BENCH / "results" / "reference" / f"{workload.name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    phase = "full" if workload.kind == "sweep" else "setup"
    return Runner(workload, seed, out_dir).run(phase, 0)


def main() -> int:
    for workload in WORKLOADS.values():
        result = _run(workload, DEFAULT_SEED)
        if workload.kind == "sweep":
            text = result["csv"]
        else:
            text = ("fixed_achievable,fixed_converse\n"
                    f"{result['fixed_achievable']!r},{result['fixed_converse']!r}\n")
        (REFERENCE_DIR / f"{workload.name}.csv").write_text(text)
    digests = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for workload in WORKLOADS.values():
            if workload.closed_form and workload.kind == "sweep":
                results = pool.map(lambda s, w=workload: _run(w, s), range(DIGEST_SEEDS))
                digests[workload.name] = [csv_digest(r["csv"]) for r in results]
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
