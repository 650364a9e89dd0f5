"""Re-measure the reference figures of README.md.

    python3 perfbench/reference.py

For each workload of BENCHMARK.json: run.py on seeds 1 to 10 untraced,
then once traced on seed 1.  Prints, per end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median of the ten values, and the
per-layer time shares of the traced run.  Takes about 40 s per run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# self-time parts of one traced solve; on library workloads the last two
# are set-up, not solve
LAYER_PARTS = [
    "neighbors.build_index.s", "neighbors.neighbor_csr.s", "neighbors.cluster_count_csr.s",
    "estimators.linear.s", "estimators.constant.s", "diagnostics.s", "dynamics.run.self_s",
    "io.read_samples_csv.s", "io.write_pairs_csv.s",
    "io.write_diagnostics_jsonl.s", "io.write_manifest.s",
    "epsilon.auto_epsilon.s", "core.new_ensemble.s",
]


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [_run(workload, seed, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"## {workload}: {attempted} operations, {failed} failed")
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{metric['name']:>22} {med:12.5g} {metric['unit']:<4} "
                  f"spread {(q3 - q1) / med:.3f} (bound {metric['bound']})")
        layers = _run(workload, 1, 1)["metrics"]
        parts = LAYER_PARTS if WORKLOADS[workload].kind == "cli" else LAYER_PARTS[:-2]
        total = sum(layers[p]["value"] or 0.0 for p in parts)
        print("traced seed 1, share of the traced solve:")
        for part in parts:
            value = layers[part]["value"]
            if value:
                print(f"{part:>32} {value:9.4f} s {100.0 * value / total:5.1f} %")
        print(f"{'trace.overhead_s':>32} {layers['trace.overhead_s']['value']:9.4f} s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
