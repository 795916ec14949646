"""Run one workload command in a fresh process and report how it went.

Usage: python3 child.py <workload> <work_dir> <result.json> <trace 0|1>

Imports happen before the clock starts; ``command_s`` covers only
``cli.main(argv)``.  Peak resident memory is this process's ``ru_maxrss``.
With tracing on, the span arrays go to ``<work_dir>/spans.npz`` and the
per-layer summary into the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blendfuse import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main(workload: str, work_dir: Path, result_path: Path, trace: bool) -> None:
    os.chdir(work_dir)
    argv = workloads.command(workload)
    spans = tracer.Tracer() if trace else None
    if spans is not None:
        spans.install()
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed command, reported to the parent
        code = 1
        error = traceback.format_exc()
    command_s = time.perf_counter() - start
    result = {
        "exit": code,
        "command_s": command_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": captured.getvalue(),
        "error": error,
    }
    if spans is not None:
        spans.uninstall()
        spans.write_spans(work_dir / "spans.npz")
        result["layers"] = spans.summary()
    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1")
