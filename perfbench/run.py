"""Benchmark blendfuse's CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload fuse-20k --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark builds the workload's
inputs from the seed (timed as ``setup_s``, repeated and reported as a
median), then runs the workload's CLI command as a closed loop: one client,
each command in a fresh child process, the next one only after the previous
one returned, until ``--seconds`` have passed.  Every command's data outputs
(``run_meta.json`` excluded) must match the SHA-256 digests in
``reference.json``; a mismatch or a non-zero exit is a failed command.

The last line of standard output is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones (``command_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` the commands run under the span tracer
and the metrics are the per-layer ones (see ``tracer.py``).
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy loads; child processes inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# A run must end well inside three minutes, whatever the commands do.
RUN_BUDGET_S = 170.0
# Set-up repeats at least this often, and more while it stays cheap.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 40
SETUP_SECONDS = 4.0

MEAN_SCORE = re.compile(r"mean score=([0-9.]+)")


class BenchError(RuntimeError):
    """The benchmark cannot run here: program or reference data missing."""


def import_program() -> None:
    """Import blendfuse from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "blendfuse" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'blendfuse'} is missing")
    sys.path.insert(0, str(SRC))
    import blendfuse

    if Path(blendfuse.__file__).resolve().parent != (SRC / "blendfuse").resolve():
        raise BenchError(f"blendfuse imported from {blendfuse.__file__}, not {SRC}")


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing reference digests {REFERENCE}")
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every data output; ``run_meta.json`` holds a timestamp."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def command_ok(result: dict, expected: dict[str, str]) -> bool:
    """A command passes only if it exited 0 and every data output matches."""
    return result["exit"] == 0 and result["digests"] == expected


def run_command(workload: str, work_dir: Path, trace: bool, timeout: float) -> dict:
    """One CLI command in a fresh child; adds ``digests`` (None if it did not finish)."""
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    result_path = work_dir / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(work_dir), str(result_path), str(int(trace))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timed out after {timeout:.0f} s", "digests": None}
    if not result_path.is_file():
        return {"exit": proc.returncode, "error": proc.stderr[-2000:], "digests": None}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit"] != 0 and not result["error"]:
        result["error"] = proc.stderr[-2000:]
    out_dir = work_dir / "out"
    result["digests"] = output_digests(out_dir) if out_dir.is_dir() else None
    match = MEAN_SCORE.search(result.get("stdout", ""))
    result["mean_score"] = match.group(1) if match else None
    return result


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    index = workloads.input_set(seed)
    try:
        expected = load_reference()[workload][str(index)]["outputs"]
    except KeyError:
        raise BenchError(f"{REFERENCE} has no digests for {workload} input set {index}") from None
    deadline = time.perf_counter() + RUN_BUDGET_S
    work_dir = WORK / workload

    setup_times: list[float] = []
    while True:
        # Clearing the previous inputs is not part of set-up.
        shutil.rmtree(work_dir / "inputs", ignore_errors=True)
        start = time.perf_counter()
        workloads.write_inputs(workload, seed, work_dir / "inputs")
        setup_times.append(time.perf_counter() - start)
        if trace or len(setup_times) >= SETUP_MAX_REPS:
            break
        if len(setup_times) >= SETUP_MIN_REPS and sum(setup_times) >= SETUP_SECONDS:
            break

    results: list[dict] = []
    failed = 0
    loop_start = time.perf_counter()
    while not results or time.perf_counter() - loop_start < seconds:
        result = run_command(workload, work_dir, trace, deadline - time.perf_counter())
        ok = command_ok(result, expected)
        failed += not ok
        results.append(result)
        note = "outputs match" if ok else f"FAILED (exit {result['exit']}) {result.get('error') or 'outputs differ from reference'}"
        print(
            f"{workload} seed {seed} (input set {index}) command {len(results)}: "
            f"{result.get('command_s', float('nan')):.3f} s, {note}"
            + (f", mean score={result['mean_score']}" if result.get("mean_score") else "")
        )
        if result["exit"] is None:
            break

    timed = [r for r in results if "command_s" in r]
    if not timed:
        raise BenchError(f"no {workload} command finished: {results[-1]['error']}")
    if trace:
        units = tracer.metric_units()
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in timed), "unit": unit}
            for name, unit in units.items()
        }
        metrics["trace.command_s"] = {"value": statistics.median(r["command_s"] for r in timed), "unit": "s"}
    else:
        metrics = {
            "command_s": {"value": statistics.median(r["command_s"] for r in timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed), "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import_program()
        print("environment: " + json.dumps(environment()))
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
