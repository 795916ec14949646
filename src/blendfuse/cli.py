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
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from . import core, features, fusion, labels as labels_mod, mlp, plots, synth
from .core import SampleRecord, ValidationError
from .evaluation import (
    MAX_GRID_VALUES,
    RESULTS_HEADER,
    CrossValConfig,
    CrossValReport,
    FusionDataset,
    cross_validate,
    fold_surfaces,
    load_folds,
    save_folds,
    save_results,
    split_actors,
)
from .mlp import NumericError
from .postprocess import ThresholdPair, ThresholdSurface, fold_beta_spread

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


# Execution details that do not influence any computed content are not part
# of a run's identity.
_NON_SEMANTIC_KEYS = ("output_dir",)


def _config_hash(resolved: dict[str, Any]) -> str:
    hashed = {k: v for k, v in resolved.items() if k not in _NON_SEMANTIC_KEYS}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_run_meta(out_dir: Path, command: str, resolved: dict[str, Any], outputs: Sequence[Path]) -> None:
    meta = {
        "command": command,
        "config_hash": _config_hash(resolved),
        "resolved_config": resolved,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "outputs": {str(p.relative_to(out_dir)): _sha256_file(p) for p in outputs},
    }
    _write_json(out_dir / "run_meta.json", meta)


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_manifest_records(path: Path) -> list[SampleRecord]:
    """Accept either a labels file or a feature manifest as the clip list."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if header == core.LABELS_HEADER:
        return core.load_labels(path)
    if header == features.MANIFEST_HEADER:
        return [
            SampleRecord(video_id, actor_id, None)
            for video_id, actor_id, _ in features.load_feature_manifest(path)
        ]
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


def _number_list(flag: str, value: Optional[str], kind: type) -> Optional[tuple[Any, ...]]:
    """The comma-separated numbers of a flag's value, or None when the flag was not given."""
    if value is None:
        return None
    try:
        return tuple(kind(v) for v in value.split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated {kind.__name__} values, got {value!r}") from None


def _unit_values(values: Sequence[Any], name: str) -> tuple[float, ...]:
    """Floats of ``values``: at most MAX_GRID_VALUES, each a finite number in [0, 1]."""
    if len(values) > MAX_GRID_VALUES:
        raise ConfigError(f"{name} has more than {MAX_GRID_VALUES} values")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{name} values must be numbers: {values!r}")
    floats = tuple(float(v) for v in values)
    if not all(0.0 <= v <= 1.0 for v in floats):  # also false for NaN
        raise ConfigError(f"{name} values must be finite and lie in [0, 1]: {values!r}")
    return floats


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
        try:
            start, stop, step = (float(value[k]) for k in ("start", "stop", "step"))
        except (TypeError, ValueError):
            raise ConfigError(f"{name} start/stop/step must be numbers: {value!r}") from None
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ConfigError(f"bad grid spec for {name}: {value!r}")
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


def load_run_config(path: Path, overrides: dict[str, Any]) -> tuple[dict[str, Any], CrossValConfig]:
    """Parse, override and validate a fuse-evaluate run config: the resolved
    config and the fusion settings it declares.  Keys that name a
    CrossValConfig field set that field; an omitted one keeps its default."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
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


def _load_prediction_tables(predictions_dir: Path) -> list[core.PredictionTable]:
    files = sorted(predictions_dir.glob("*.csv"))
    if not files:
        raise ValidationError(f"no prediction files under {predictions_dir}")
    return [core.load_prediction_table(f) for f in files]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise ConfigError(f"need at least 2 folds, got k={args.k}")
    _require_paths(("--manifest", args.manifest))
    records = _load_manifest_records(Path(args.manifest))
    assignment = split_actors(records, args.k)
    out = _out_dir(args.out)
    folds_path = out / "folds.csv"
    save_folds(assignment, folds_path)
    resolved = {"command": "split", "manifest": str(args.manifest), "k": args.k}
    _write_run_meta(out, "split", resolved, [folds_path])
    print(f"wrote {folds_path} ({assignment.k} folds, {len(assignment.folds)} actors)")
    return EXIT_OK


def cmd_encode_labels(args: argparse.Namespace) -> int:
    _require_paths(("--labels", args.labels))
    records = core.load_labels(Path(args.labels))
    out = _out_dir(args.out)
    path = out / "soft_labels.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id"] + [f"y_{e.label}" for e in core.EMOTIONS])
        for rec in records:
            soft = labels_mod.encode_soft_label(rec.annotation)
            writer.writerow([rec.video_id] + [repr(v) for v in soft.values])
    resolved = {"command": "encode-labels", "labels": str(args.labels)}
    _write_run_meta(out, "encode-labels", resolved, [path])
    print(f"wrote {path} ({len(records)} rows)")
    return EXIT_OK


def _aggregation_config(args: argparse.Namespace) -> features.AggregationConfig:
    stats = tuple(s.strip() for s in args.stats.split(",")) if args.stats else None
    return _build(
        features.AggregationConfig,
        layer_lo=args.layer_lo, layer_hi=args.layer_hi, segments=args.segments, stats=stats,
    )


def _aggregate_directory(
    feature_dir: Path, cfg: features.AggregationConfig
) -> tuple[list[str], dict[str, str], dict[str, np.ndarray]]:
    manifest = features.load_feature_manifest(feature_dir / "manifest.csv")
    video_ids: list[str] = []
    actors: dict[str, str] = {}
    vectors: dict[str, np.ndarray] = {}
    for video_id, actor_id, rel_path in manifest:
        seq = features.load_feature_file(feature_dir / rel_path, video_id)
        vectors[video_id] = features.aggregate_sequence(seq, cfg)
        actors[video_id] = actor_id
        video_ids.append(video_id)
    return video_ids, actors, vectors


def cmd_aggregate(args: argparse.Namespace) -> int:
    cfg = _aggregation_config(args)
    video_ids, actors, vectors = _aggregate_directory(_feature_dir(args.features), cfg)
    out = _out_dir(args.out)
    path = out / "aggregated.csv"
    dim = len(next(iter(vectors.values()))) if vectors else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "actor_id"] + [f"f{i}" for i in range(dim)])
        for vid in video_ids:
            writer.writerow([vid, actors[vid]] + [repr(float(v)) for v in vectors[vid]])
    resolved = {
        "command": "aggregate",
        "features": str(args.features),
        "layer_lo": cfg.layer_lo,
        "layer_hi": cfg.layer_hi,
        "segments": cfg.segments,
        "stats": list(cfg.stats),
    }
    _write_run_meta(out, "aggregate", resolved, [path])
    print(f"wrote {path} ({len(video_ids)} videos, {dim} dims)")
    return EXIT_OK


def _mlp_config(args: argparse.Namespace) -> mlp.MlpConfig:
    return _build(
        mlp.MlpConfig,
        hidden_dims=_number_list("--hidden", args.hidden, int),
        dropout=args.dropout,
        lr=args.lr,
        max_epochs=args.epochs,
        patience=args.patience,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def cmd_train_mlp(args: argparse.Namespace) -> int:
    agg_cfg = _aggregation_config(args)
    mlp_cfg = _mlp_config(args)
    feature_dir = _feature_dir(args.features)
    _require_paths(("--labels", args.labels), ("--folds", args.folds))
    records = core.load_labels(Path(args.labels))
    assignment = load_folds(Path(args.folds))
    _, _, vectors = _aggregate_directory(feature_dir, agg_cfg)

    missing = [r.video_id for r in records if r.video_id not in vectors]
    if missing:
        raise ValidationError(f"missing features for labeled videos: {missing}")

    by_fold = assignment.videos_by_fold(records)
    record_of = {r.video_id: r for r in records}
    out = _out_dir(args.out)
    outputs: list[Path] = []
    merged_preds: dict[str, tuple[core.EmotionDistribution, ...]] = {}
    merged_actors: dict[str, str] = {}

    def arrays_for(vids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        x = np.stack([vectors[v] for v in vids])
        y = np.stack(
            [labels_mod.encode_soft_label(record_of[v].annotation).as_array() for v in vids]
        )
        return x, y

    for fold in assignment.fold_indices():
        held_out = by_fold[fold]
        train_folds = [f for f in assignment.fold_indices() if f != fold]
        # The lowest-index remaining fold gates early stopping; the rest train.
        val_fold = train_folds[0]
        train_vids = [v for f in train_folds[1:] for v in by_fold[f]]
        if not train_vids:  # k == 2 leaves one fold for both roles
            train_vids = list(by_fold[val_fold])
        cfg = dataclasses.replace(mlp_cfg, seed=mlp_cfg.seed + fold)
        result = mlp.train(arrays_for(train_vids), arrays_for(by_fold[val_fold]), cfg)

        ckpt = out / f"mlp_fold{fold}.npz"
        mlp.save_model(result.model, ckpt)
        log_path = out / f"mlp_fold{fold}_log.csv"
        mlp.save_train_log(result.log, log_path)

        probs = mlp.predict_proba(result.model, np.stack([vectors[v] for v in held_out]))
        probs = probs / probs.sum(axis=1, keepdims=True)
        fold_rows = {
            vid: (core.EmotionDistribution(tuple(float(x) for x in row)),)
            for vid, row in zip(held_out, probs)
        }
        fold_actors = {vid: record_of[vid].actor_id for vid in held_out}
        pred_path = out / f"mlp_fold{fold}.csv"
        core.save_predictions(
            core.EncoderPredictionSet("mlp", fold_rows, fold_actors), pred_path
        )
        merged_preds.update(fold_rows)
        merged_actors.update(fold_actors)
        outputs += [ckpt, log_path, pred_path]
        print(
            f"fold {fold}: best epoch {result.best_epoch}, val KL {result.best_val_loss:.6f}, "
            f"{len(held_out)} held-out predictions"
        )

    oof_rows = {vid: merged_preds[vid] for vid in sorted(merged_preds)}
    oof_path = out / "mlp_oof.csv"
    core.save_predictions(core.EncoderPredictionSet("mlp", oof_rows, merged_actors), oof_path)
    outputs.append(oof_path)
    resolved = {
        "command": "train-mlp",
        "features": str(args.features),
        "labels": str(args.labels),
        "folds": str(args.folds),
        "hidden": list(mlp_cfg.hidden_dims),
        "dropout": mlp_cfg.dropout,
        "lr": mlp_cfg.lr,
        "epochs": mlp_cfg.max_epochs,
        "patience": mlp_cfg.patience,
        "batch_size": mlp_cfg.batch_size,
        "seed": mlp_cfg.seed,
        "layer_lo": agg_cfg.layer_lo,
        "layer_hi": agg_cfg.layer_hi,
        "segments": agg_cfg.segments,
        "stats": list(agg_cfg.stats),
    }
    _write_run_meta(out, "train-mlp", resolved, outputs)
    print(f"wrote {oof_path}")
    return EXIT_OK


def cmd_fuse_evaluate(args: argparse.Namespace) -> int:
    cfg, cv_cfg = load_run_config(Path(args.config), {"output_dir": args.out})
    out = _out_dir(cfg["output_dir"])
    chash = _config_hash(cfg)

    tables = _load_prediction_tables(Path(cfg["predictions_dir"]))
    records = core.load_labels(Path(cfg["labels_file"]))
    assignment = load_folds(Path(cfg["folds_file"]))
    data = FusionDataset.build(tables, records, assignment)
    weights, search_log, surfaces, chosen = fusion.fit(data, cv_cfg)

    weights_path = out / "weights.csv"
    fusion.save_weights(weights, weights_path)
    log_path = out / "weight_search_log.csv"
    fusion.save_search_log(search_log, log_path)
    per_fold, svgs = _fold_report(surfaces, out if cfg["emit_plots"] else None)
    report = {
        "config_hash": chash,
        "strategy": cfg["threshold_strategy"],
        "alpha": chosen.alpha,
        "beta": chosen.beta,
        **per_fold,
    }
    thresholds_path = out / "thresholds.json"
    _write_json(thresholds_path, report)

    cv_report = cross_validate(tables, records, data, cv_cfg)
    results_path = out / "results.csv"
    save_results(cv_report, results_path)
    results_json = out / "results.json"
    _write_json(results_json, _report_payload(cv_report, chash))

    outputs = [weights_path, log_path, thresholds_path, results_path, results_json, *svgs]
    _write_run_meta(out, "fuse-evaluate", cfg, outputs)
    print(
        f"weights={weights_path} thresholds=({chosen.alpha:.4f},{chosen.beta:.4f}) "
        f"mean score={cv_report.mean.score:.4f}"
    )
    return EXIT_OK


def _fold_report(
    surfaces: Mapping[int, ThresholdSurface], svg_dir: Optional[Path]
) -> tuple[dict[str, Any], list[Path]]:
    """The ``per_fold`` best cells and the fold beta spread of ``surfaces``,
    and the paths of the mean-surface heatmap and fold-beta bars written
    under ``svg_dir`` (none when it is None)."""
    pairs = [s.argmax_pair() for s in surfaces.values()]
    fields = {
        "per_fold": [
            {"fold": f, "alpha": p.alpha, "beta": p.beta, "best_score": s.best_score()}
            for (f, s), p in zip(surfaces.items(), pairs)
        ],
        **fold_beta_spread(pairs),
    }
    if svg_dir is None:
        return fields, []
    heat_path = svg_dir / "score_surface.svg"
    plots.surface_heatmap_svg(plots.surface_mean(list(surfaces.values())), heat_path)
    bars_path = svg_dir / "fold_beta.svg"
    plots.fold_beta_bars_svg(pairs, bars_path)
    return fields, [heat_path, bars_path]


def _report_payload(report: CrossValReport, chash: str) -> dict[str, Any]:
    return {
        "config_hash": chash,
        "folds": [
            {
                "fold": o.fold,
                "acc_p": o.result.acc_p,
                "acc_s": o.result.acc_s,
                "score": o.result.score,
                "n": o.result.n,
                "weights": dict(o.weights),
                "alpha": o.thresholds.alpha,
                "beta": o.thresholds.beta,
            }
            for o in report.folds
        ],
        "mean": {
            "acc_p": report.mean.acc_p,
            "acc_s": report.mean.acc_s,
            "score": report.mean.score,
        },
        "std": {"acc_p": report.std[0], "acc_s": report.std[1], "score": report.std[2]},
        "pooled": {
            "acc_p": report.pooled.acc_p,
            "acc_s": report.pooled.acc_s,
            "score": report.pooled.score,
            "n": report.pooled.n,
        },
    }


def cmd_sensitivity(args: argparse.Namespace) -> int:
    _require_paths(
        ("--predictions", args.predictions),
        ("--labels", args.labels),
        ("--folds", args.folds),
        ("--weights", args.weights),
    )

    def parse_grid_flag(raw: Optional[str], name: str) -> Optional[tuple[float, ...]]:
        if not raw:
            return None
        try:
            return _parse_grid(json.loads(raw), name)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad {name}: {exc}") from None

    cfg = _build(
        CrossValConfig,
        alpha_grid=parse_grid_flag(args.alpha_grid, "alpha_grid"),
        beta_grid=parse_grid_flag(args.beta_grid, "beta_grid"),
        neutral_index=args.neutral_index,
    )
    pred_path = Path(args.predictions)
    if pred_path.is_dir():
        tables = _load_prediction_tables(pred_path)
    else:
        tables = [core.load_prediction_table(pred_path)]
    records = core.load_labels(Path(args.labels))
    assignment = load_folds(Path(args.folds))
    if args.weights:
        weights = fusion.load_weights(Path(args.weights))
    else:
        weights = fusion.WeightVector.uniform([t.encoder_name for t in tables])
    # Only the weighted encoders need to cover the labeled videos.
    used = [t for t in tables if t.encoder_name in weights.weights]
    data = FusionDataset.build(used, records, assignment)
    surfaces = fold_surfaces(data, data.fuse(weights.weights), cfg)
    resolved = {
        "command": "sensitivity",
        "predictions": str(args.predictions),
        "labels": str(args.labels),
        "folds": str(args.folds),
        "weights": str(args.weights) if args.weights else None,
        "alpha_grid": list(cfg.alpha_grid),
        "beta_grid": list(cfg.beta_grid),
        "neutral_index": cfg.neutral_index,
    }
    out = _out_dir(args.out)
    per_fold, svgs = _fold_report(surfaces, out)
    alphas = [e["alpha"] for e in per_fold["per_fold"]]
    report = {
        "config_hash": _config_hash(resolved),
        **per_fold,
        "alpha_min": min(alphas),
        "alpha_max": max(alphas),
    }
    report_path = out / "sensitivity.json"
    _write_json(report_path, report)
    _write_run_meta(out, "sensitivity", resolved, [report_path, *svgs])
    ratio = per_fold["beta_ratio"]
    print(
        f"beta spread: min={per_fold['beta_min']:.2f} max={per_fold['beta_max']:.2f} "
        f"ratio={ratio if ratio is not None else 'inf'}"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    # --gap-lo and --gap-hi set one field; an omitted end keeps its default.
    gap = tuple(
        default if flag is None else flag
        for flag, default in zip((args.gap_lo, args.gap_hi), synth.SynthConfig.actor_gap_range)
    )
    cfg = _build(
        synth.SynthConfig,
        n_actors=args.actors,
        clips_per_actor=args.clips,
        label_mix=_number_list("--mix", args.mix, float),
        actor_gap_range=gap,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    dataset = synth.generate(cfg)
    out = _out_dir(args.out)
    labels_path = out / "labels.csv"
    core.save_labels(dataset.records, labels_path)
    pred_dir = out / "predictions"
    pred_dir.mkdir(exist_ok=True)
    pred_path = pred_dir / f"{cfg.encoder_name}.csv"
    core.save_predictions(dataset.predictions, pred_path)
    resolved = {
        "command": "synth",
        "actors": cfg.n_actors,
        "clips": cfg.clips_per_actor,
        "mix": list(cfg.label_mix),
        "gap_lo": cfg.actor_gap_range[0],
        "gap_hi": cfg.actor_gap_range[1],
        "noise_sigma": cfg.noise_sigma,
        "seed": cfg.seed,
    }
    gaps_path = out / "actor_gaps.json"
    _write_json(gaps_path, {"config_hash": _config_hash(resolved), "gaps": dict(dataset.actor_gaps)})
    _write_run_meta(out, "synth", resolved, [labels_path, pred_path, gaps_path])
    print(f"wrote {labels_path} and {pred_path} ({len(dataset.records)} clips)")
    return EXIT_OK


def cmd_verify_identities(args: argparse.Namespace) -> int:
    ok = True
    _require_paths(("--results", args.results), ("--weights", args.weights))
    if args.results:
        for lineno, row in core.read_csv_rows(Path(args.results), RESULTS_HEADER):
            if len(row) != len(RESULTS_HEADER):
                raise ValidationError(
                    f"{args.results}:{lineno}: expected {len(RESULTS_HEADER)} fields, got {len(row)}"
                )
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


def _add_aggregation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layer-lo", type=int)
    p.add_argument("--layer-hi", type=int)
    p.add_argument("--segments", type=int)
    p.add_argument("--stats", type=str, help="comma-separated statistic names")


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
    _add_aggregation_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train-mlp", help="per-fold classifier heads on features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--folds", required=True)
    _add_aggregation_flags(p)
    p.add_argument("--hidden", type=str, help="comma-separated layer widths")
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--alpha-grid", help="JSON list or start/stop/step object")
    p.add_argument("--beta-grid")
    p.add_argument("--neutral-index", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="deterministic synthetic dataset")
    p.add_argument("--actors", type=int)
    p.add_argument("--clips", type=int)
    p.add_argument("--mix", type=str, help="single, 50/50 and 70/30 shares, comma-separated")
    p.add_argument("--gap-lo", type=float)
    p.add_argument("--gap-hi", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int)
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


if __name__ == "__main__":
    raise SystemExit(main())
