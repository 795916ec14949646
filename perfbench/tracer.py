"""Spans around blendfuse's public functions, installed from outside the program.

A function is replaced by a timing wrapper in every ``blendfuse`` module
namespace that binds it by name, so calls through ``from .x import f``
bindings and lazy in-function imports are caught as well.  Spans (name,
start, end, parent) are kept in flat arrays in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Public functions traced, by defining module.
TRACED: dict[str, tuple[str, ...]] = {
    "core": ("load_predictions", "load_labels", "average_clips"),
    "fusion": ("fuse", "optimize_weights"),
    "postprocess": ("search_thresholds", "point_counts", "discretize"),
    "evaluation": ("cross_validate", "evaluate"),
    "features": ("load_feature_file", "aggregate_sequence"),
    "mlp": ("train", "loss_and_gradients", "predict_proba", "save_model"),
    "plots": ("surface_heatmap_svg",),
}

Counter = Callable[[tuple, dict, Any], int]


def _path_arg(args: tuple, kwargs: dict) -> str:
    return args[0] if args else kwargs["path"]


# Work counts read off a traced call's arguments or result: (name, unit, counter).
COUNTERS: dict[str, tuple[str, str, Counter]] = {
    "fusion.optimize_weights": ("candidates", "count", lambda a, k, r: len(r[1])),
    "postprocess.search_thresholds": ("cells", "count", lambda a, k, r: r.score.size * r.n),
    "evaluation.cross_validate": ("folds", "count", lambda a, k, r: len(r.folds)),
    "features.load_feature_file": ("bytes", "B", lambda a, k, r: os.path.getsize(_path_arg(a, k))),
    "mlp.train": ("epochs", "count", lambda a, k, r: len(r.log)),
}

# Time per unit of work: (metric, timed function, counter).
DERIVED = (
    ("evaluation.fold_s", "evaluation.cross_validate", "evaluation.cross_validate.folds"),
    ("mlp.epoch_s", "mlp.train", "mlp.train.epochs"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced command reports, with its unit."""
    units: dict[str, str] = {}
    for module, names in TRACED.items():
        for fn in names:
            name = f"{module}.{fn}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.s"] = "s"
            units[f"{name}.self_s"] = "s"
            if name in COUNTERS:
                counter, unit, _ = COUNTERS[name]
                units[f"{name}.{counter}"] = unit
    for metric, _, _ in DERIVED:
        units[metric] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[2](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded blendfuse modules."""
        import blendfuse

        modules = [m for n, m in sys.modules.items() if n == "blendfuse" or n.startswith("blendfuse.")]
        for short, names in TRACED.items():
            defining = getattr(blendfuse, short)
            for fn_name in names:
                original = getattr(defining, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, counters and derived times."""
        n_names = len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(name_id, minlength=n_names)
        inclusive = np.bincount(name_id, weights=dur, minlength=n_names)
        self_time = np.bincount(name_id, weights=dur - child_time, minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(inclusive[i])
            out[f"{name}.self_s"] = float(self_time[i])
            if name in COUNTERS:
                key = f"{name}.{COUNTERS[name][0]}"
                out[key] = self.counts.get(key, 0)
        for metric, timed, count in DERIVED:
            out[metric] = out[f"{timed}.s"] / out[count] if out[count] else 0.0
        return out
