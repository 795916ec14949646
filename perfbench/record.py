"""Record the reference digests that ``run.py`` checks outputs against.

    python3 perfbench/record.py

For every input set of every workload, this builds the inputs, runs the command once and stores the SHA-256 digest of
every data output, plus the printed mean CV score, in ``reference.json``.
Run it only for a commit whose outputs are known to be right: every later
run is judged against what it writes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    for workload in workloads.WORKLOADS:
        work_dir = run.WORK / f"record-{workload}"
        sets: dict[str, dict] = {}
        for index in range(workloads.INPUT_SETS):
            shutil.rmtree(work_dir / "inputs", ignore_errors=True)
            workloads.write_inputs(workload, index, work_dir / "inputs")
            result = run.run_command(workload, work_dir, trace=False, timeout=run.RUN_BUDGET_S)
            if result["exit"] != 0 or not result["digests"]:
                print(f"{workload} input set {index}: command failed: {result.get('error')}", file=sys.stderr)
                return 1
            sets[str(index)] = {"mean_score": result["mean_score"], "outputs": result["digests"]}
            print(
                f"{workload} input set {index}: {result['command_s']:.3f} s, "
                f"{len(result['digests'])} outputs, mean score={result['mean_score']}"
            )
        reference = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.is_file() else {}
        reference[workload] = sets
        run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
