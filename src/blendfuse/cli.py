"""Command-line surface wiring the pipeline stages into reproducible runs.

Subcommands: split, encode-labels, aggregate, train-mlp, fuse-evaluate,
sensitivity, synth, verify-identities.  Every run is deterministic under a
fixed config and seed: data outputs are byte-identical across reruns, and
wall-clock timestamps live only in the run_meta.json sidecar, which also
records the config hash each output was produced under.

Exit codes: 0 success, 2 bad input data, 3 configuration error, 4 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import core, features, fusion, labels as labels_mod, mlp, plots, synth
from .core import ValidationError
from .evaluation import (
    RESULTS_HEADER,
    CrossValReport,
    cross_validate,
    load_folds,
    save_folds,
    save_results,
    split_actors,
)
from .fusion import MAX_GRID_VALUES, CrossValConfig, FusionDataset, fold_surfaces
from .mlp import NumericError
from .postprocess import ThresholdPair, ThresholdSurface

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Bad run configuration: unknown keys, missing paths, invalid values."""


class _Parser(argparse.ArgumentParser):
    # Flag mistakes are configuration errors, not data errors.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise ConfigError(message)

    def _parse_optional(self, arg_string: str) -> Any:
        # No flag holds a comma, so an argument that does before any "=" is a
        # value, as the list "-1,4" is, which argparse would take for a flag.
        if "," in arg_string.partition("=")[0]:
            return None
        return super()._parse_optional(arg_string)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class _Run:
    """A command's run record, made once its flags and config pass their
    checks: it makes the output directory ``out`` (``name`` is its flag or
    run-config key), names the outputs under it, times stages, counts the
    input cache's use, and writes all of it as ``run_meta.json``."""

    def __init__(self, command: str, out: str, resolved: dict[str, Any], name: str = "--out") -> None:
        self.command, self.resolved, self.out = command, resolved, Path(out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"{name} cannot be made a directory: {out!r}: {reason}") from None
        # output_dir influences no computed content, so it is not part of the run's identity.
        blob = json.dumps({k: v for k, v in resolved.items() if k != "output_dir"},
                          sort_keys=True, separators=(",", ":")).encode()
        self.config_hash = hashlib.sha256(blob).hexdigest()
        self.outputs: list[Path] = []
        self.timings: dict[str, Any] = {}
        self.counters: dict[str, Any] = {}
        self.cache_use: Counter[str] = Counter(hits=0, misses=0)

    def path(self, name: str) -> Path:
        """``out / name``, recorded as an output."""
        self.outputs.append(self.out / name)
        return self.outputs[-1]

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the block into ``timings[name]``, or append to it when it is a list."""
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        if isinstance(self.timings.get(name), list):
            self.timings[name].append(seconds)
        else:
            self.timings[name] = seconds

    def write(self) -> None:
        """Write ``run_meta.json`` without the records that are empty, as
        ``input_cache`` is when no input was read through the cache."""
        records = {"counters": self.counters, "timings": self.timings,
                   "input_cache": self.cache_use if self.cache_use.total() else {}}
        meta = {
            "command": self.command,
            "config_hash": self.config_hash,
            "resolved_config": self.resolved,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "outputs": {str(p.relative_to(self.out)): _sha256_file(p) for p in self.outputs},
            **{key: record for key, record in records.items() if record},
        }
        _write_json(self.out / "run_meta.json", meta)


def _manifest_actors(path: Path) -> Sequence[str]:
    """The actor of each clip of a labels file or a feature manifest."""
    with core.csv_reader(path) as reader:
        header = next(reader, None)
    if header == core.LABELS_HEADER:
        return core.load_labels(path).actor_ids
    if header == features.MANIFEST_HEADER:
        return [actor_id for _, actor_id, _ in features.load_feature_manifest(path)]
    raise ValidationError(f"{path}: unrecognized manifest header {header!r}")


def _require_paths(*flags: tuple[str, Optional[str]]) -> None:
    """ConfigError naming the flag (or run-config key) and path of the first
    input that is missing."""
    for flag, path in flags:
        if path is not None and not Path(path).exists():
            raise ConfigError(f"{flag} does not exist: {path!r}")


def _feature_dir(value: str) -> Path:
    """The ``--features`` directory, checked to hold a manifest.csv."""
    _require_paths(("--features", value))
    manifest = Path(value) / "manifest.csv"
    if not manifest.is_file():
        raise ConfigError(f"--features has no manifest.csv: {str(manifest)!r}")
    return Path(value)


def _is_number(value: Any) -> bool:
    """An int or a float; a bool is neither here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _unit_values(values: Sequence[Any], name: str) -> tuple[float, ...]:
    """Floats of ``values``: at most MAX_GRID_VALUES, each a finite number in [0, 1]."""
    if len(values) > MAX_GRID_VALUES:
        raise ConfigError(f"{name} has more than {MAX_GRID_VALUES} values")
    if not all(map(_is_number, values)):
        raise ConfigError(f"{name} values must be numbers: {values!r}")
    # Compared before conversion: an int too large for a float is out of range, too.
    if not all(0.0 <= v <= 1.0 for v in values):  # also false for NaN
        raise ConfigError(f"{name} values must be finite and lie in [0, 1]: {values!r}")
    return tuple(float(v) for v in values)


def _parse_grid(value: Any, name: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError(f"{name} must not be empty")
        return _unit_values(value, name)
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
        missing = [k for k in ("start", "stop", "step") if k not in value]
        if missing:
            raise ConfigError(f"{name} object is missing {', '.join(map(repr, missing))}")
        bounds = [value[k] for k in ("start", "stop", "step")]
        if not all(map(_is_number, bounds)):
            raise ConfigError(f"{name} start/stop/step must be numbers: {value!r}")
        # Also false for NaN, infinities and ints too large for a float.
        if not all(abs(v) <= sys.float_info.max for v in bounds) or bounds[2] <= 0 or bounds[1] < bounds[0]:
            raise ConfigError(f"bad grid spec for {name}: {value!r}")
        start, stop, step = map(float, bounds)
        span = (stop - start) / step  # inf when step is tiny against stop - start
        if span > MAX_GRID_VALUES:
            raise ConfigError(f"{name} has more than {MAX_GRID_VALUES} values: {value!r}")
        count = int(round(span)) + 1
        return _unit_values([round(start + i * step, 12) for i in range(count)], name)
    raise ConfigError(f"{name} must be a list or a start/stop/step object")


# ---------------------------------------------------------------------------
# fuse-evaluate run configuration
# ---------------------------------------------------------------------------

# The type each value must have; a bool is not an int, an int is a float.
_RUN_CONFIG_KEYS: dict[str, Any] = {
    "predictions_dir": str,
    "labels_file": str,
    "folds_file": str,
    "output_dir": str,
    "seed": int,
    "alpha_grid": object,
    "beta_grid": object,
    "fusion_strategy": str,
    "threshold_strategy": str,
    "neutral_index": (int, type(None)),
    "renormalize_before_beta": bool,
    "joint_threshold_search": bool,
    "initial_thresholds": object,
    "exhaustive_step": float,
    "emit_plots": bool,
}

# CrossValConfig owns the defaults of the keys that are its fields.
_RUN_CONFIG_DEFAULTS: dict[str, Any] = {"seed": 0, "emit_plots": True}


def _has_declared_type(value: Any, declared: Any) -> bool:
    if declared is object:
        return True
    if isinstance(value, bool):
        return declared is bool
    return isinstance(value, (int, float) if declared is float else declared)


def _build(cls: Any, **settings: Any) -> Any:
    """``cls`` from the settings that are not None, the other fields at their
    defaults; a bad value is a ConfigError."""
    try:
        return cls(**{k: v for k, v in settings.items() if v is not None})
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _plain(value: Any) -> Any:
    """A config field value as JSON holds it: tuples and threshold pairs as lists."""
    if isinstance(value, ThresholdPair):
        return [value.alpha, value.beta]
    return list(value) if isinstance(value, tuple) else value


class _Flag(NamedTuple):
    """A flag that sets one config field; ``parse``, if any, turns its text into the value."""

    flag: str
    field: str
    kind: Callable[[str], Any] = str
    parse: Optional[Callable[[str, "_Flag"], Any]] = None
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _comma_list(kind: Callable[[str], Any]) -> Callable[[str, _Flag], tuple[Any, ...]]:
    """A parser of comma-separated values, each converted by ``kind``."""

    def parse(text: str, flag: _Flag) -> tuple[Any, ...]:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise ConfigError(
                f"{flag.flag} must be comma-separated {kind.__name__} values, got {text!r}"
            ) from None

    return parse


def _grid(text: str, flag: _Flag) -> tuple[float, ...]:
    try:
        return _parse_grid(json.loads(text), flag.dest)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter when nested too deeply
        raise ConfigError(f"bad {flag.dest}: {exc}") from None


# The flags of each config class.  A command names its class when it runs, so
# a patched-in class with other defaults is the one that is built.
_AGGREGATION_FLAGS = (
    _Flag("--layer-lo", "layer_lo", int),
    _Flag("--layer-hi", "layer_hi", int),
    _Flag("--segments", "segments", int),
    _Flag("--stats", "stats", parse=_comma_list(str.strip), help="comma-separated statistic names"),
)
_MLP_FLAGS = (
    _Flag("--hidden", "hidden_dims", parse=_comma_list(int), help="comma-separated layer widths"),
    _Flag("--dropout", "dropout", float),
    _Flag("--lr", "lr", float),
    _Flag("--epochs", "max_epochs", int),
    _Flag("--patience", "patience", int),
    _Flag("--batch-size", "batch_size", int),
    _Flag("--seed", "seed", int),
)
_SYNTH_FLAGS = (
    _Flag("--actors", "n_actors", int),
    _Flag("--clips", "clips_per_actor", int),
    _Flag("--mix", "label_mix", parse=_comma_list(float),
          help="single, 50/50 and 70/30 shares, comma-separated"),
    _Flag("--noise-sigma", "noise_sigma", float),
    _Flag("--seed", "seed", int),
)
_CROSS_VAL_FLAGS = (
    _Flag("--alpha-grid", "alpha_grid", parse=_grid, help="JSON list or start/stop/step object"),
    _Flag("--beta-grid", "beta_grid", parse=_grid),
    _Flag("--neutral-index", "neutral_index", int),
)


def _add_flags(p: argparse.ArgumentParser, *tables: Sequence[_Flag]) -> None:
    for table in tables:
        for f in table:
            p.add_argument(f.flag, type=f.kind, help=f.help)


def _config(
    cls: Any, table: Sequence[_Flag], args: argparse.Namespace, **settings: Any
) -> tuple[Any, dict[str, Any]]:
    """``cls`` built from ``settings`` and the flags of ``table`` that were
    given, and the resolved value of each flag by its argparse dest."""
    for f in table:
        value = getattr(args, f.dest)
        settings[f.field] = value if value is None or f.parse is None else f.parse(value, f)
    cfg = _build(cls, **settings)
    return cfg, {f.dest: _plain(getattr(cfg, f.field)) for f in table}


def _record(args: argparse.Namespace, **resolved: Any) -> dict[str, Any]:
    """A command's resolved config: its flags as given, ``--out`` aside, with
    the config flags at their ``resolved`` values."""
    return {**{k: v for k, v in vars(args).items() if k not in ("func", "out")}, **resolved}


def load_run_config(path: Path, overrides: dict[str, Any]) -> tuple[dict[str, Any], CrossValConfig]:
    """Parse, override and validate a fuse-evaluate run config: the resolved
    config and the fusion settings it declares.  Keys that name a
    CrossValConfig field set that field; an omitted one keeps its default."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: run config must be a JSON object")
    unknown = set(raw) - set(_RUN_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(_RUN_CONFIG_DEFAULTS)
    cfg.update(raw)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key in ("predictions_dir", "labels_file", "folds_file", "output_dir"):
        if key not in cfg or cfg[key] is None:
            raise ConfigError(f"missing required config key {key!r}")
    for key, value in cfg.items():
        declared = _RUN_CONFIG_KEYS[key]
        if not _has_declared_type(value, declared):
            names = [t.__name__ for t in (declared if isinstance(declared, tuple) else (declared,))]
            raise ConfigError(f"{key} must be of type {' or '.join(names)}, got {value!r}")
    _require_paths(*((key, cfg[key]) for key in ("predictions_dir", "labels_file", "folds_file")))
    fields = [f.name for f in dataclasses.fields(CrossValConfig)]
    settings = {key: cfg[key] for key in fields if key in cfg}
    for key in ("alpha_grid", "beta_grid"):
        if key in settings:
            settings[key] = _parse_grid(settings[key], key)
    if "initial_thresholds" in settings:
        init = settings["initial_thresholds"]
        if not (isinstance(init, (list, tuple)) and len(init) == 2):
            raise ConfigError(f"initial_thresholds must be [alpha, beta]: {init!r}")
        settings["initial_thresholds"] = ThresholdPair(*_unit_values(init, "initial_thresholds"))
    cv_cfg = _build(CrossValConfig, **settings)
    cfg.update((key, _plain(getattr(cv_cfg, key))) for key in fields)
    return cfg, cv_cfg


def _load_prediction_tables(predictions_dir: Path, cache_use: Counter[str]) -> list[core.PredictionTable]:
    files = sorted(predictions_dir.glob("*.csv"))
    if not files:
        raise ValidationError(f"no prediction files under {predictions_dir}")
    return [core.load_prediction_table(f, cache_use) for f in files]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise ConfigError(f"need at least 2 folds, got k={args.k}")
    _require_paths(("--manifest", args.manifest))
    run = _Run("split", args.out, _record(args))
    manifest = Path(args.manifest)
    actor_ids = _manifest_actors(manifest)
    with core.located(manifest):  # too few actors for k folds
        assignment = split_actors(actor_ids, args.k)
    folds_path = run.path("folds.csv")
    save_folds(assignment, folds_path)
    run.write()
    print(f"wrote {folds_path} ({assignment.k} folds, {len(assignment.folds)} actors)")
    return EXIT_OK


def cmd_encode_labels(args: argparse.Namespace) -> int:
    _require_paths(("--labels", args.labels))
    run = _Run("encode-labels", args.out, _record(args))
    labels = core.load_labels(Path(args.labels))
    path = run.path("soft_labels.csv")
    targets = labels_mod.soft_label_rows(labels.primary, labels.secondary, labels.salience)
    rows = ([vid, *map(repr, row)] for vid, row in zip(labels.video_ids, targets.tolist()))
    core.write_csv_rows(path, ["video_id"] + [f"y_{e.label}" for e in core.EMOTIONS], rows)
    run.write()
    print(f"wrote {path} ({len(labels.video_ids)} rows)")
    return EXIT_OK


def _aggregate_directory(
    feature_dir: Path, cfg: features.AggregationConfig, cache_use: Counter[str]
) -> tuple[list[str], list[str], np.ndarray]:
    """Video ids, actor ids and the ``(videos, D)`` matrix of aggregated
    vectors of a feature directory, in manifest order, counting the input
    cache's hits and misses in ``cache_use``.  A file whose vector is not as
    wide as the first file's is a ValidationError naming both."""
    manifest = features.load_feature_manifest(feature_dir / "manifest.csv")
    matrix = np.empty((len(manifest), 0))
    for row, (video_id, _, rel_path) in enumerate(manifest):
        path = feature_dir / rel_path
        sequence = features.load_feature_file(path, video_id, cache_use)
        with core.located(path):  # a shape that does not fit cfg
            vector = features.aggregate_sequence(sequence, cfg)
        if row == 0:
            matrix = np.empty((len(manifest), vector.size))
        elif vector.size != matrix.shape[1]:
            first = feature_dir / manifest[0][2]
            raise ValidationError(
                f"{path}: aggregates to {vector.size} values, but {first} to {matrix.shape[1]}"
            )
        matrix[row] = vector
    return [e[0] for e in manifest], [e[1] for e in manifest], matrix


def cmd_aggregate(args: argparse.Namespace) -> int:
    cfg, resolved = _config(features.AggregationConfig, _AGGREGATION_FLAGS, args)
    feature_dir = _feature_dir(args.features)
    run = _Run("aggregate", args.out, _record(args, **resolved))
    video_ids, actor_ids, matrix = _aggregate_directory(feature_dir, cfg, run.cache_use)
    path = run.path("aggregated.csv")
    dim = matrix.shape[1]
    rows = ([vid, actor, *map(repr, row)] for vid, actor, row in zip(video_ids, actor_ids, matrix.tolist()))
    core.write_csv_rows(path, ["video_id", "actor_id"] + [f"f{i}" for i in range(dim)], rows)
    run.write()
    print(f"wrote {path} ({len(video_ids)} videos, {dim} dims)")
    return EXIT_OK


def _train_fold(
    fold: int, rows: dict[int, np.ndarray], matrix: np.ndarray, targets: np.ndarray,
    cfg: mlp.MlpConfig, videos: list[tuple[str, str]], run: _Run,
) -> tuple[list[tuple[str, str, list[float]]], int, int]:
    """Train fold ``fold``'s head on the feature and target ``rows`` of the
    other folds, write its checkpoint, log and held-out predictions (one row
    per ``(video, actor)`` of ``videos``) as outputs of ``run`` and return
    those rows, the epochs run and the best epoch.  The head dies on return:
    one is alive at a time."""
    train_folds = [f for f in rows if f != fold]
    # The lowest-index remaining fold gates early stopping; the rest train,
    # or it does both when k == 2 leaves no other.
    val = rows[train_folds[0]]
    train = np.concatenate([rows[f] for f in train_folds[1:]] or [val])
    result = mlp.train((matrix[train], targets[train]), (matrix[val], targets[val]), cfg)
    mlp.save_model(result.model, run.path(f"mlp_fold{fold}.npz"))
    mlp.save_train_log(result.log, run.path(f"mlp_fold{fold}_log.csv"))
    probs = mlp.predict_proba(result.model, matrix[rows[fold]])
    probs /= probs.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValidationError(f"fold {fold}: non-finite probability in the held-out predictions")
    fold_rows = [(vid, actor, row) for (vid, actor), row in zip(videos, probs.tolist())]
    core.write_prediction_rows(run.path(f"mlp_fold{fold}.csv"), fold_rows)
    print(
        f"fold {fold}: best epoch {result.best_epoch}, val KL {result.best_val_loss:.6f}, "
        f"{len(videos)} held-out predictions"
    )
    return fold_rows, len(result.log), result.best_epoch


def cmd_train_mlp(args: argparse.Namespace) -> int:
    agg_cfg, agg_resolved = _config(features.AggregationConfig, _AGGREGATION_FLAGS, args)
    mlp_cfg, mlp_resolved = _config(mlp.MlpConfig, _MLP_FLAGS, args)
    feature_dir = _feature_dir(args.features)
    _require_paths(("--labels", args.labels), ("--folds", args.folds))
    run = _Run("train-mlp", args.out, _record(args, **agg_resolved, **mlp_resolved))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with run.stage("ingest_s"):
        labels = core.load_label_table(Path(args.labels), run.cache_use)
        assignment = load_folds(Path(args.folds), labels.actor_ids)
        video_ids, _, matrix = _aggregate_directory(feature_dir, agg_cfg, run.cache_use)

        row_of = dict(zip(video_ids, range(len(video_ids))))
        missing = [vid for vid in labels.video_ids if vid not in row_of]
        if missing:
            raise ValidationError(f"{feature_dir / 'manifest.csv'}: missing features for labeled videos: {missing}")
        # Each labeled video's feature row, and its soft-label target on that row.
        feature_row = np.array([row_of[vid] for vid in labels.video_ids], dtype=np.intp)
        targets = np.zeros((len(video_ids), core.N_EMOTIONS))
        targets[feature_row] = labels_mod.soft_label_rows(labels.primary, labels.secondary, labels.salience)
        positions = assignment.fold_positions(labels.actor_ids)
        # The labeled videos of each fold, in file order, in ascending fold order.
        by_fold = {f: np.flatnonzero(positions == i) for i, f in enumerate(assignment.fold_indices())}
        rows = {f: feature_row[held_out] for f, held_out in by_fold.items()}

    oof: list[tuple[str, str, list[float]]] = []
    layout = mlp.param_layout(matrix.shape[1], mlp_cfg)
    run.counters = {"videos": len(video_ids), "feature_dim": matrix.shape[1], "epochs": [],
                    "parameters": sum(map(math.prod, layout.values())), "best_epoch": []}
    run.timings["train_s"] = []
    for fold in rows:
        cfg = dataclasses.replace(mlp_cfg, seed=mlp_cfg.seed + fold)
        videos = [(labels.video_ids[i], labels.actor_ids[i]) for i in by_fold[fold].tolist()]
        with run.stage("train_s"):
            fold_rows, epochs, best_epoch = _train_fold(fold, rows, matrix, targets, cfg, videos, run)
        oof += fold_rows
        run.counters["epochs"].append(epochs)
        run.counters["best_epoch"].append(best_epoch)

    oof_path = run.path("mlp_oof.csv")
    core.write_prediction_rows(oof_path, sorted(oof))  # by video id, which is unique
    run.counters["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    run.write()
    print(f"wrote {oof_path}")
    return EXIT_OK


def cmd_fuse_evaluate(args: argparse.Namespace) -> int:
    cfg, cv_cfg = load_run_config(Path(args.config), {"output_dir": args.out})
    run = _Run("fuse-evaluate", cfg["output_dir"], cfg, "output_dir" if args.out is None else "--out")
    with run.stage("ingest_s"):
        tables = _load_prediction_tables(Path(cfg["predictions_dir"]), run.cache_use)
        labels = core.load_label_table(Path(cfg["labels_file"]), run.cache_use)
        assignment = load_folds(Path(cfg["folds_file"]), labels.actor_ids)
    with run.stage("build_s"):
        data = FusionDataset.build(tables, labels, assignment)
    if len(data.fold_ids) < 2:  # cross-validation holds out each fold in turn
        raise ValidationError(f"{cfg['folds_file']}: fold {data.fold_ids[0]} would leave no training data")
    with run.stage("fit_s"):
        weights, search_log, surfaces, chosen, _ = fusion.fit(data, cv_cfg)

    weights_path = run.path("weights.csv")
    fusion.save_weights(weights, weights_path)
    fusion.save_search_log(search_log, run.path("weight_search_log.csv"))
    per_fold = _fold_report(surfaces, run if cfg["emit_plots"] else None)
    report = {
        "config_hash": run.config_hash,
        "strategy": cfg["threshold_strategy"],
        "alpha": chosen.alpha,
        "beta": chosen.beta,
        **per_fold,
    }
    _write_json(run.path("thresholds.json"), report)

    cv_report = cross_validate(data, cv_cfg)
    save_results(cv_report, run.path("results.csv"))
    _write_json(run.path("results.json"), _report_payload(cv_report, run.config_hash))

    run.counters = {"videos": len(data.video_ids), "encoders": len(data.encoders),
                    "candidates_scored": sum(data.requests.values()), "distinct_candidates": len(data.scored)}
    run.timings["cv_fold_s"] = [o.seconds for o in cv_report.folds]
    run.write()
    print(
        f"weights={weights_path} thresholds=({chosen.alpha:.4f},{chosen.beta:.4f}) "
        f"mean score={cv_report.mean.score:.4f}"
    )
    return EXIT_OK


def _fold_report(surfaces: Mapping[int, ThresholdSurface], run: Optional[_Run]) -> dict[str, Any]:
    """The ``per_fold`` best cells and the fold beta spread of ``surfaces``,
    after writing the mean-surface heatmap and fold-beta bars as outputs of
    ``run`` (none when it is None)."""
    pairs = [s.argmax_pair() for s in surfaces.values()]
    betas = [p.beta for p in pairs]
    lo, hi = min(betas), max(betas)
    if run is not None:
        first = next(iter(surfaces.values()))
        mean_score = np.mean([s.score for s in surfaces.values()], axis=0)
        plots.surface_heatmap_svg(mean_score, first.alpha_grid, first.beta_grid, run.path("score_surface.svg"))
        plots.fold_beta_bars_svg(pairs, run.path("fold_beta.svg"))
    return {
        "per_fold": [
            {"fold": f, "alpha": p.alpha, "beta": p.beta, "best_score": s.best_score()}
            for (f, s), p in zip(surfaces.items(), pairs)
        ],
        "beta_min": lo,
        "beta_max": hi,
        "beta_ratio": (hi / lo) if lo > 0 else None,
    }


def _report_payload(report: CrossValReport, chash: str) -> dict[str, Any]:
    return {
        "config_hash": chash,
        "folds": [
            {"fold": o.fold, **dataclasses.asdict(o.result), "weights": dict(o.weights),
             **dataclasses.asdict(o.thresholds)}
            for o in report.folds
        ],
        "mean": {k: v for k, v in dataclasses.asdict(report.mean).items() if k != "n"},
        "std": dict(zip(("acc_p", "acc_s", "score"), report.std)),
        "pooled": dataclasses.asdict(report.pooled),
    }


def cmd_sensitivity(args: argparse.Namespace) -> int:
    _require_paths(
        ("--predictions", args.predictions),
        ("--labels", args.labels),
        ("--folds", args.folds),
        ("--weights", args.weights),
    )
    cfg, cfg_resolved = _config(CrossValConfig, _CROSS_VAL_FLAGS, args)
    run = _Run("sensitivity", args.out, _record(args, **cfg_resolved))
    with run.stage("ingest_s"):
        pred_path = Path(args.predictions)
        if pred_path.is_dir():
            tables = _load_prediction_tables(pred_path, run.cache_use)
        else:
            tables = [core.load_prediction_table(pred_path, run.cache_use)]
        labels = core.load_label_table(Path(args.labels), run.cache_use)
        assignment = load_folds(Path(args.folds), labels.actor_ids)
        names = [t.encoder_name for t in tables]
        if args.weights:
            weights = fusion.load_weights(Path(args.weights))
            unknown = sorted(weights.weights.keys() - set(names))
            if unknown:
                raise ValidationError(
                    f"{args.weights}: encoder {unknown[0]!r} has no predictions in {args.predictions}"
                )
        else:
            weights = fusion.WeightVector.uniform(names)
    # Only the weighted encoders need to cover the labeled videos.
    used = [t for t in tables if t.encoder_name in weights.weights]
    with run.stage("build_s"):
        data = FusionDataset.build(used, labels, assignment)
    with run.stage("surfaces_s"):
        surfaces = fold_surfaces(data, fusion.fuse(data, weights.weights), cfg)
    per_fold = _fold_report(surfaces, run)
    alphas = [e["alpha"] for e in per_fold["per_fold"]]
    report = {
        "config_hash": run.config_hash,
        **per_fold,
        "alpha_min": min(alphas),
        "alpha_max": max(alphas),
    }
    _write_json(run.path("sensitivity.json"), report)
    run.write()
    ratio = per_fold["beta_ratio"]
    print(
        f"beta spread: min={per_fold['beta_min']:.2f} max={per_fold['beta_max']:.2f} "
        f"ratio={ratio if ratio is not None else 'inf'}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    # --gap-lo and --gap-hi set one field; an omitted end keeps its default.
    lo, hi = synth.SynthConfig.actor_gap_range
    gap = (lo if args.gap_lo is None else args.gap_lo, hi if args.gap_hi is None else args.gap_hi)
    cfg, cfg_resolved = _config(synth.SynthConfig, _SYNTH_FLAGS, args, actor_gap_range=gap)
    gap_lo, gap_hi = cfg.actor_gap_range
    run = _Run("synth", args.out, _record(args, **cfg_resolved, gap_lo=gap_lo, gap_hi=gap_hi))
    dataset = synth.generate(cfg)
    labels_path = run.path("labels.csv")
    core.save_labels(dataset.records, labels_path)
    pred_path = run.path(f"predictions/{synth.ENCODER_NAME}.csv")
    pred_path.parent.mkdir(exist_ok=True)
    core.save_predictions(dataset.predictions, pred_path)
    _write_json(run.path("actor_gaps.json"), {"config_hash": run.config_hash, "gaps": dict(dataset.actor_gaps)})
    run.write()
    print(f"wrote {labels_path} and {pred_path} ({len(dataset.records)} clips)")
    return EXIT_OK


def cmd_verify_identities(args: argparse.Namespace) -> int:
    for flag, tol in (("--tol", args.tol), ("--tol-simplex", args.tol_simplex)):
        if not 0.0 <= tol < math.inf:  # also false for NaN
            raise ConfigError(f"{flag} must be finite and >= 0, got {tol!r}")
    ok = True
    _require_paths(("--results", args.results), ("--weights", args.weights))
    if args.results:
        for lineno, row in core.read_csv_rows(Path(args.results), RESULTS_HEADER):
            if row[0] == "summary":
                continue
            try:
                acc_p, acc_s, score = map(float, row[1:4])
            except ValueError:
                raise ValidationError(
                    f"{args.results}:{lineno}: acc_p, acc_s and score must be numbers, got {row[1:4]!r}"
                ) from None
            diff = abs(0.5 * (acc_p + acc_s) - score)
            passed = diff <= args.tol
            ok &= passed
            print(
                f"{'PASS' if passed else 'FAIL'} row {row[0]}: "
                f"0.5*({acc_p}+{acc_s}) vs {score} (diff {diff:.6f})"
            )
    if args.weights:
        try:
            fusion.load_weights(Path(args.weights), tol=args.tol_simplex)
            print(f"PASS weights {args.weights}: simplex within {args.tol_simplex}")
        except ValidationError as exc:
            ok = False
            print(f"FAIL weights {args.weights}: {exc}")
    if not args.results and not args.weights:
        raise ConfigError("verify-identities needs --results and/or --weights")
    return EXIT_OK if ok else EXIT_DATA


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blendfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="actor-disjoint fold split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("encode-labels", help="soft-label encoding of a labels file")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_labels)

    p = sub.add_parser("aggregate", help="layer-average and pool a feature directory")
    p.add_argument("--features", required=True)
    _add_flags(p, _AGGREGATION_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train-mlp", help="per-fold classifier heads on features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", required=True)
    _add_flags(p, _AGGREGATION_FLAGS, _MLP_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_mlp)

    p = sub.add_parser("fuse-evaluate", help="weight search, thresholds, cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuse_evaluate)

    p = sub.add_parser("sensitivity", help="per-fold threshold search report")
    p.add_argument("--predictions", required=True, help="predictions file or directory")
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--weights")
    _add_flags(p, _CROSS_VAL_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="deterministic synthetic dataset")
    _add_flags(p, _SYNTH_FLAGS)
    p.add_argument("--gap-lo", type=float)
    p.add_argument("--gap-hi", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify-identities", help="score and simplex identity checks")
    p.add_argument("--results")
    p.add_argument("--weights")
    p.add_argument("--tol", type=float, default=5e-4)
    p.add_argument("--tol-simplex", type=float, default=fusion.ROUNDING_TOLERANCE)
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        # Input reads raise ValidationError, so this came from writing an output.
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
