"""Shared deterministic fixtures for fusion, synth and acceptance tests."""

import functools

import numpy as np

from oracles import videos_by_fold

from blendfuse.core import (
    BlendAnnotation,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    FoldAssignment,
    SampleRecord,
)
from blendfuse.evaluation import evaluate
from blendfuse.labels import encode_soft_label
from blendfuse.postprocess import PostprocessConfig, ThresholdPair, discretize

UNIFORM_ROW = tuple([1 / 6] * 6)

# Operating point of the expressiveness-ladder fixture below.
LADDER_THRESHOLDS = ThresholdPair(0.10, 0.15)


def exact_oracle_fixture(rng: np.random.Generator, n_actors=6, clips_per_actor=9):
    """Labels plus an encoder that reproduces the soft labels exactly."""
    emotions = list(Emotion)
    records = []
    for a in range(n_actors):
        actor = f"a{a:02d}"
        for c in range(clips_per_actor):
            vid = f"{actor}_v{c:02d}"
            kind = c % 3
            i, j = (int(x) for x in rng.choice(6, size=2, replace=False))
            if kind == 0:
                ann = BlendAnnotation(emotions[i], None, 100)
            elif kind == 1:
                lo, hi = sorted((i, j))
                ann = BlendAnnotation(emotions[lo], emotions[hi], 50)
            else:
                ann = BlendAnnotation(emotions[i], emotions[j], 70)
            records.append(SampleRecord(vid, actor, ann))
    rows = {
        r.video_id: (EmotionDistribution(encode_soft_label(r.annotation).values),)
        for r in records
    }
    actors = {r.video_id: r.actor_id for r in records}
    oracle = EncoderPredictionSet("oracle", rows, actors)
    folds = FoldAssignment({f"a{a:02d}": a % 2 for a in range(n_actors)}, 2)
    return records, oracle, folds


def uniform_encoder(name: str, records) -> EncoderPredictionSet:
    rows = {r.video_id: (EmotionDistribution(UNIFORM_ROW),) for r in records}
    actors = {r.video_id: r.actor_id for r in records}
    return EncoderPredictionSet(name, rows, actors)


def ladder_fixture(n_uniform: int):
    """An informative encoder whose per-actor 70/30 gap is laid out so that
    every mass move toward it crosses at least one new clip's salience flip.

    Actor i's 70/30 clips flip from a 50/50 to the correct 70/30 prediction
    once the informative encoder's weight exceeds 0.34 + 0.02 * i; single
    clips flip once the diluted off-target mass drops below alpha.  The
    informative encoder alone scores 1.0 at LADDER_THRESHOLDS.
    """
    beta = LADDER_THRESHOLDS.beta
    emotions = list(Emotion)
    records = []
    rows = {}
    for i in range(32):
        actor = f"a{i:02d}"
        flip_w = 0.34 + 0.02 * i
        gap = beta / flip_w
        e1 = emotions[i % 6]
        e2 = emotions[(i + 1) % 6]
        single = emotions[(i + 2) % 6]
        pair_lo, pair_hi = sorted((emotions[(i + 3) % 6], emotions[(i + 4) % 6]))

        vid = f"{actor}_blend"
        records.append(SampleRecord(vid, actor, BlendAnnotation(e1, e2, 70)))
        values = [0.025] * 6
        values[e1] = (0.9 + gap) / 2
        values[e2] = (0.9 - gap) / 2
        rows[vid] = (EmotionDistribution(tuple(values)),)

        vid = f"{actor}_single"
        records.append(SampleRecord(vid, actor, BlendAnnotation(single, None, 100)))
        values = [0.02] * 6
        values[single] = 0.9
        rows[vid] = (EmotionDistribution(tuple(values)),)

        vid = f"{actor}_even"
        records.append(SampleRecord(vid, actor, BlendAnnotation(pair_lo, pair_hi, 50)))
        values = [0.025] * 6
        values[pair_lo] = values[pair_hi] = 0.45
        rows[vid] = (EmotionDistribution(tuple(values)),)

    actors = {r.video_id: r.actor_id for r in records}
    oracle = EncoderPredictionSet("oracle", rows, actors)
    others = [uniform_encoder(f"u{k}", records) for k in range(n_uniform)]
    folds = FoldAssignment({f"a{i:02d}": i % 2 for i in range(32)}, 2)
    return records, [oracle, *others], folds


def write_feature_dir(base_path, records, rng, frames=4):
    """Feature files whose frames linearly encode each clip's soft label."""
    from blendfuse import features

    feat_dir = base_path / "features"
    feat_dir.mkdir(exist_ok=True)
    entries = []
    for rec in records:
        y = encode_soft_label(rec.annotation).as_array()
        data = (np.tile(y, (frames, 1)) + rng.normal(0, 0.01, size=(frames, 6)))[None, :, :]
        features.save_feature_file(features.FrameFeatureSequence(rec.video_id, data), feat_dir)
        entries.append((rec.video_id, rec.actor_id, f"{rec.video_id}.feat"))
    features.save_feature_manifest(entries, feat_dir / "manifest.csv")
    return feat_dir


def outputs_of(directory):
    """Bytes of every data output under a run directory, keyed by relative
    path; run_meta.json holds the timestamp and is excluded."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


@functools.lru_cache(maxsize=None)
def beta_instability_run(gap_lo: float, gap_hi: float, k: int = 5):
    """Per-fold optimal (alpha, beta) for a gap-sorted-actor partition of a
    fixed synthetic population; shared by the synth and acceptance suites."""
    from blendfuse.postprocess import search_thresholds
    from blendfuse.synth import SynthConfig, generate

    cfg = SynthConfig(
        n_actors=25,
        clips_per_actor=240,
        actor_gap_range=(gap_lo, gap_hi),
        noise_sigma=0.4,
        seed=0,
    )
    dataset = generate(cfg)
    actors_sorted = sorted(dataset.actor_gaps, key=lambda a: dataset.actor_gaps[a])
    chunk = len(actors_sorted) // k
    truth = {r.video_id: r.annotation for r in dataset.records}
    alphas, betas = [], []
    for f in range(k):
        hi = (f + 1) * chunk if f < k - 1 else None
        fold_actors = set(actors_sorted[f * chunk : hi])
        vids = [r.video_id for r in dataset.records if r.actor_id in fold_actors]
        fused = {v: dataset.predictions.distribution_for(v) for v in vids}
        surface = search_thresholds(fused, {v: truth[v] for v in vids})
        pair = surface.argmax_pair()
        alphas.append(pair.alpha)
        betas.append(pair.beta)
    return alphas, betas


def independent_objective(preds, records, folds, weights, thresholds, neutral_index=None):
    """Mean fold score recomputed clip by clip through the scalar pipeline,
    independent of the optimizer's vectorized objective."""
    cfg = PostprocessConfig(thresholds, neutral_index)
    by_name = {p.encoder_name: p for p in preds}
    by_fold = videos_by_fold(folds, records)
    truth = {r.video_id: r.annotation for r in records}
    scores = []
    for f in sorted(by_fold):
        vids = by_fold[f]
        if not vids:
            continue
        fold_preds = {}
        for vid in vids:
            acc = np.zeros(6)
            for name, w in weights.weights.items():
                acc += w * np.asarray(by_name[name].distribution_for(vid).values)
            fold_preds[vid] = discretize(EmotionDistribution(tuple(acc)), cfg)
        result = evaluate(fold_preds, {v: truth[v] for v in vids})
        scores.append(result.score)
    return sum(scores) / len(scores)
