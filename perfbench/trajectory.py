"""Measure every workload on ten seeds and append a point to trajectory.json.

    python3 perfbench/trajectory.py --label "<commit or change>"

Per workload this makes ten untraced runs through ``run.py``, on seeds 0 to
9, each as long as ``run_seconds`` in BENCHMARK.json, and a traced run right
after the untraced run of seeds 4 and 9.  Every point is taken the same way,
so points compare with each other.  A point holds, for each end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median.  It also holds the per-layer metrics of each traced run, the tracing
overhead (traced minus untraced ``command_s`` on the same seed, median of the
two) and the failed and attempted command counts.  It takes about 20 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"
RUNS = 10
TRACED_SEEDS = (4, 9)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: " + json.dumps(result)[:200], file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def measure(workload: str, seconds: int) -> dict:
    results, traced, overhead = [], {}, []
    for seed in range(RUNS):
        results.append(bench(workload, seed, seconds, trace=0))
        if seed in TRACED_SEEDS:
            traced[seed] = bench(workload, seed, seconds, trace=1)
            overhead.append(
                traced[seed]["metrics"]["trace.command_s"]["value"]
                - results[-1]["metrics"]["command_s"]["value"]
            )
    point = {
        name: summarize([r["metrics"][name]["value"] for r in results])
        for name in results[0]["metrics"]
    }
    everything = results + list(traced.values())
    return {
        "end_to_end": point,
        "per_layer_by_seed": {
            seed: {name: m["value"] for name, m in t["metrics"].items()} for seed, t in traced.items()
        },
        "trace_overhead_s": statistics.median(overhead),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "correct": all(r["correct"] for r in everything),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    point = {
        "label": args.label,
        "runs": RUNS,
        "seconds": seconds,
        "environment": run.environment(),
        "workloads": {w: measure(w, seconds) for w in workloads.WORKLOADS},
    }
    trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.is_file() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
