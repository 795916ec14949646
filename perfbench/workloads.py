"""Seeded workload inputs and the CLI commands the benchmark runs on them.

Every input is written by the program's own writers (``core.save_labels``,
``core.save_predictions``, ``features.save_feature_file``, the ``split``
command), so the program only ever reads files it could have produced
itself.  The same input set always gives byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blendfuse import cli, core, features, labels, synth

# The workload seed selects one of this many input sets.  Reference digests
# of every data output are recorded for each set in ``reference.json``, so a
# run on any seed can check its outputs.
INPUT_SETS = 16


@dataclass(frozen=True)
class EncoderSpec:
    """One synthetic encoder: the synth rows pushed through log-space noise."""

    name: str
    noise_sigma: float
    clip_rows: int = 1


@dataclass(frozen=True)
class FusionInputs:
    actors: int
    clips: int
    run_config: dict  # keys added to the default fuse-evaluate config


@dataclass(frozen=True)
class FeatureInputs:
    actors: int
    clips: int
    layers: int
    frames: int
    dims: int


SYNTH_NOISE_SIGMA = 0.4
FRAME_NOISE_SIGMA = 0.5

# One encoder is exact, two are noisier, and the middle one emits three clip
# rows per video so that clip averaging does real work.
ENCODERS = (
    EncoderSpec("enc_a", 0.0),
    EncoderSpec("enc_b", 0.3, clip_rows=3),
    EncoderSpec("enc_c", 0.6),
)

WORKLOADS: dict[str, FusionInputs | FeatureInputs] = {
    "fuse-20k": FusionInputs(200, 100, {}),
    # The exhaustive weight grid evaluates the same number of candidates for
    # every input set.  Coordinate ascent's count, and the work with it,
    # ranged from 302 to 356 over eight input sets.
    "joint-1k": FusionInputs(
        25, 40, {"joint_threshold_search": True, "fusion_strategy": "exhaustive", "exhaustive_step": 0.2}
    ),
    "mlp-train": FeatureInputs(25, 12, layers=13, frames=8, dims=128),
}

# Patience equal to the epoch count: every fold trains for exactly MLP_EPOCHS.
MLP_EPOCHS = 10
MLP_FLAGS = (
    "--layer-lo", "6", "--layer-hi", "12", "--epochs", str(MLP_EPOCHS), "--patience", str(MLP_EPOCHS)
)


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _split(labels_path: Path, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["split", "--manifest", str(labels_path), "--k", "5", "--out", str(out)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"split exited with {code}")


def encoder_predictions(
    base: core.EncoderPredictionSet, spec: EncoderSpec, rng: np.random.Generator
) -> core.EncoderPredictionSet:
    """Perturb every base row in log space; emit ``clip_rows`` rows per video."""
    video_ids = base.video_ids()
    clean = np.array([base.rows[v][0].values for v in video_ids])  # (V, 6)
    noise = rng.normal(0.0, spec.noise_sigma, (len(video_ids), spec.clip_rows, clean.shape[1]))
    logits = np.log(clean)[:, None, :] + noise
    shifted = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs = shifted / shifted.sum(axis=2, keepdims=True)
    rows = {
        vid: tuple(core.EmotionDistribution(tuple(row.tolist())) for row in probs[v])
        for v, vid in enumerate(video_ids)
    }
    return core.EncoderPredictionSet(spec.name, rows, dict(base.actors))


def write_fusion_inputs(spec: FusionInputs, index: int, root: Path) -> None:
    """labels.csv, predictions/<encoder>.csv, folds/folds.csv and run.json."""
    data = synth.generate(
        synth.SynthConfig(
            n_actors=spec.actors,
            clips_per_actor=spec.clips,
            noise_sigma=SYNTH_NOISE_SIGMA,
            seed=index,
        )
    )
    labels_path = root / "labels.csv"
    core.save_labels(data.records, labels_path)
    pred_dir = root / "predictions"
    pred_dir.mkdir()
    for e, enc in enumerate(ENCODERS):
        rng = np.random.default_rng([index, e])
        preds = encoder_predictions(data.predictions, enc, rng)
        core.save_predictions(preds, pred_dir / f"{enc.name}.csv")
    _split(labels_path, root / "folds")
    config = {
        "predictions_dir": "inputs/predictions",
        "labels_file": "inputs/labels.csv",
        "folds_file": "inputs/folds/folds.csv",
        "output_dir": "out",
        **spec.run_config,
    }
    (root / "run.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def write_feature_inputs(spec: FeatureInputs, index: int, root: Path) -> None:
    """labels.csv, features/ (one text .feat per video plus manifest.csv) and folds/.

    Every frame of layer ``l`` is the video's soft label projected through a
    fixed per-layer matrix, plus Gaussian noise.
    """
    data = synth.generate(
        synth.SynthConfig(n_actors=spec.actors, clips_per_actor=spec.clips, seed=index)
    )
    labels_path = root / "labels.csv"
    core.save_labels(data.records, labels_path)
    rng = np.random.default_rng([index, 1000])
    projection = rng.normal(0.0, 1.0, (spec.layers, core.N_EMOTIONS, spec.dims))
    feat_dir = root / "features"
    feat_dir.mkdir()
    manifest = []
    for rec in data.records:
        y = labels.encode_soft_label(rec.annotation).as_array()
        mean = np.einsum("k,lkd->ld", y, projection)[:, None, :]
        noise = rng.normal(0.0, FRAME_NOISE_SIGMA, (spec.layers, spec.frames, spec.dims))
        seq = features.FrameFeatureSequence(rec.video_id, mean + noise)
        path = features.save_feature_file(seq, feat_dir)
        manifest.append((rec.video_id, rec.actor_id, path.name))
    features.save_feature_manifest(manifest, feat_dir / "manifest.csv")
    _split(labels_path, root / "folds")


def write_inputs(workload: str, seed: int, root: Path) -> None:
    """Build the inputs of ``workload`` for ``seed`` under ``root``, which must not exist yet."""
    root.mkdir(parents=True)
    spec = WORKLOADS[workload]
    if isinstance(spec, FusionInputs):
        write_fusion_inputs(spec, input_set(seed), root)
    else:
        write_feature_inputs(spec, input_set(seed), root)


def command(workload: str) -> list[str]:
    """CLI argv for ``workload``, relative to a work directory holding ``inputs/``."""
    if isinstance(WORKLOADS[workload], FusionInputs):
        return ["fuse-evaluate", "--config", "inputs/run.json"]
    return [
        "train-mlp",
        "--features", "inputs/features",
        "--labels", "inputs/labels.csv",
        "--folds", "inputs/folds/folds.csv",
        *MLP_FLAGS,
        "--out", "out",
    ]
