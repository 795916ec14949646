"""Metrics, fold splitting, and the cross-validation driver."""

import numpy as np
import pytest

from oracles import label_table, prediction_tables

from blendfuse.core import (
    BlendAnnotation,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    FoldAssignment,
    SampleRecord,
    ValidationError,
)
from blendfuse.evaluation import EvalResult, cross_validate, evaluate, load_folds, save_folds, split_actors
from blendfuse.fusion import MAX_GRID_VALUES, CrossValConfig, FusionDataset, _simplex_grid
from blendfuse.labels import encode_soft_label
from blendfuse.postprocess import DEFAULT_GRID

ANGER, DISGUST, FEAR, HAPPY = Emotion.ANGER, Emotion.DISGUST, Emotion.FEAR, Emotion.HAPPINESS


class TestEvaluate:
    def test_set_match_without_split_counts_presence_only(self):
        preds = {"v": BlendAnnotation(ANGER, FEAR, 70)}
        labels = {"v": BlendAnnotation(ANGER, FEAR, 50)}
        result = evaluate(preds, labels)
        assert (result.acc_p, result.acc_s) == (1.0, 0.0)

    def test_published_rows_identity(self):
        assert EvalResult.from_accuracies(0.340, 0.140, 5).score == pytest.approx(0.240, abs=5e-4)
        assert EvalResult.from_accuracies(0.391, 0.168, 5).score == pytest.approx(0.2795, abs=1e-12)

    def test_perfect_match(self):
        ann = BlendAnnotation(ANGER, FEAR, 70)
        result = evaluate({"v": ann}, {"v": ann})
        assert (result.acc_p, result.acc_s, result.score) == (1.0, 1.0, 1.0)

    def test_direction_matters_for_7030(self):
        preds = {"v": BlendAnnotation(FEAR, ANGER, 70)}
        labels = {"v": BlendAnnotation(ANGER, FEAR, 70)}
        result = evaluate(preds, labels)
        assert (result.acc_p, result.acc_s) == (1.0, 0.0)

    def test_missing_prediction_rejected(self):
        with pytest.raises(ValidationError):
            evaluate({}, {"v": BlendAnnotation(ANGER, None, 100)})

    def test_score_identity_and_ordering(self):
        rng = np.random.default_rng(12)
        emotions = list(Emotion)
        for _ in range(50):
            preds, labels = {}, {}
            for v in range(rng.integers(1, 30)):
                vid = f"v{v}"
                for target in (preds, labels):
                    i, j = rng.choice(6, size=2, replace=False)
                    kind = rng.integers(3)
                    if kind == 0:
                        target[vid] = BlendAnnotation(emotions[i], None, 100)
                    elif kind == 1:
                        lo, hi = sorted((i, j))
                        target[vid] = BlendAnnotation(emotions[lo], emotions[hi], 50)
                    else:
                        target[vid] = BlendAnnotation(emotions[i], emotions[j], 70)
            result = evaluate(preds, labels)
            assert result.score == 0.5 * (result.acc_p + result.acc_s)
            assert 0.0 <= result.acc_s <= result.acc_p <= 1.0


def clip_actors(counts):
    """The actor of each clip; counts: actor -> clip count."""
    return [actor for actor, n in counts.items() for _ in range(n)]


class TestSplitActors:
    def test_actor_disjoint_and_balanced(self):
        rng = np.random.default_rng(1)
        counts = {f"a{i:02d}": int(rng.integers(20, 90)) for i in range(43)}
        assignment = split_actors(clip_actors(counts), 5)
        assert assignment.k == 5
        assert set(assignment.folds) == set(counts)
        loads = [0] * 5
        for actor, fold in assignment.folds.items():
            loads[fold] += counts[actor]
        assert max(loads) - min(loads) <= max(counts.values())

    def test_one_actor_per_fold_when_k_equals_actors(self):
        counts = {f"a{i}": 3 for i in range(4)}
        assignment = split_actors(clip_actors(counts), 4)
        assert sorted(assignment.folds.values()) == [0, 1, 2, 3]

    def test_deterministic(self):
        counts = {f"a{i}": 5 + i % 3 for i in range(12)}
        actors = clip_actors(counts)
        a = split_actors(actors, 3)
        b = split_actors(actors, 3)
        assert a == b

    def test_k_larger_than_actor_count_rejected(self):
        with pytest.raises(ValidationError):
            split_actors(clip_actors({"a": 2, "b": 2}), 3)

    def test_never_splits_an_actor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            counts = {f"a{i}": int(rng.integers(1, 30)) for i in range(int(rng.integers(4, 20)))}
            k = int(rng.integers(2, len(counts) + 1))
            assignment = split_actors(clip_actors(counts), k)
            assert len(assignment.folds) == len(counts)  # one entry per actor

    def test_folds_file_roundtrip(self, tmp_path):
        assignment = split_actors(clip_actors({f"a{i}": 4 for i in range(6)}), 3)
        path = tmp_path / "folds.csv"
        save_folds(assignment, path)
        assert load_folds(path) == assignment


def oracle_predictions(records, name="oracle"):
    """Encoder whose rows are exactly the soft labels."""
    rows = {}
    actors = {}
    for rec in records:
        soft = encode_soft_label(rec.annotation)
        rows[rec.video_id] = (EmotionDistribution(soft.values),)
        actors[rec.video_id] = rec.actor_id
    return EncoderPredictionSet(name, rows, actors)


def blended_records(rng, actors, clips_per_actor=12):
    emotions = list(Emotion)
    records = []
    for actor in actors:
        for c in range(clips_per_actor):
            vid = f"{actor}_v{c}"
            kind = rng.integers(3)
            i, j = rng.choice(6, size=2, replace=False)
            if kind == 0:
                ann = BlendAnnotation(emotions[i], None, 100)
            elif kind == 1:
                lo, hi = sorted((i, j))
                ann = BlendAnnotation(emotions[lo], emotions[hi], 50)
            else:
                ann = BlendAnnotation(emotions[i], emotions[j], 70)
            records.append(SampleRecord(vid, actor, ann))
    return records


def dataset(preds, records, folds):
    """The FusionDataset of the prediction sets ``preds`` over the labeled ``records``."""
    return FusionDataset.build(prediction_tables(preds, records), label_table(records), folds)


class TestCrossValidate:
    def test_perfect_oracle_scores_one_everywhere(self):
        rng = np.random.default_rng(31)
        actors = [f"a{i}" for i in range(6)]
        records = blended_records(rng, actors)
        folds = split_actors([r.actor_id for r in records], 3)
        preds = [oracle_predictions(records)]
        report = cross_validate(dataset(preds, records, folds), CrossValConfig())
        for outcome in report.folds:
            assert outcome.result == EvalResult(1.0, 1.0, 1.0, outcome.result.n)
        assert report.std == (0.0, 0.0, 0.0)
        assert report.pooled.score == 1.0

    def test_pooled_equals_clip_weighted_average(self):
        rng = np.random.default_rng(37)
        actors = [f"a{i}" for i in range(5)]
        # uneven clips per actor so fold sizes differ
        records = []
        for i, actor in enumerate(actors):
            records.extend(blended_records(rng, [actor], clips_per_actor=6 + 4 * i))
        folds = split_actors([r.actor_id for r in records], 2)
        preds = [oracle_predictions(records)]
        # corrupt one encoder row so scores differ between folds
        report = cross_validate(dataset(preds, records, folds), CrossValConfig())
        total = sum(o.result.n for o in report.folds)
        weighted = sum(o.result.score * o.result.n for o in report.folds) / total
        assert report.pooled.score == pytest.approx(weighted, abs=1e-12)

    def test_symmetric_two_folds_identical(self):
        # two actors with mirrored identical clip sets
        records = []
        for actor in ("a0", "a1"):
            records.append(SampleRecord(f"{actor}_v0", actor, BlendAnnotation(ANGER, FEAR, 70)))
            records.append(SampleRecord(f"{actor}_v1", actor, BlendAnnotation(HAPPY, None, 100)))
            records.append(SampleRecord(f"{actor}_v2", actor, BlendAnnotation(ANGER, DISGUST, 50)))
        folds = FoldAssignment({"a0": 0, "a1": 1}, 2)
        preds = [oracle_predictions(records)]
        report = cross_validate(dataset(preds, records, folds), CrossValConfig())
        assert report.folds[0].result == report.folds[1].result

    def test_empty_fold_rejected(self):
        records = blended_records(np.random.default_rng(0), ["a0", "a1"], 4)
        folds = FoldAssignment({"a0": 0, "a1": 1, "ghost": 2}, 3)
        preds = [oracle_predictions(records)]
        with pytest.raises(ValidationError):
            cross_validate(dataset(preds, records, folds), CrossValConfig())

    def test_dataset_with_an_empty_fold_rejected(self):
        records = blended_records(np.random.default_rng(0), ["a0", "a1"], 4)
        folds = FoldAssignment({"a0": 0, "ghost": 1, "a1": 2}, 3)
        with pytest.raises(ValidationError, match="^fold 1 holds no labeled videos$"):
            dataset([oracle_predictions(records)], records, folds)

    def test_fold_positions_reject_an_empty_fold(self):
        folds = FoldAssignment({"a0": 0, "a1": 3, "ghost": 2}, 4)
        with pytest.raises(ValidationError, match="^fold 2 holds no labeled videos$"):
            folds.fold_positions(["a1", "a0"])
        with pytest.raises(ValidationError, match="^actor 'a2' has no fold assignment$"):
            folds.fold_positions(["a0", "a2", "a1", "ghost"])
        assert FoldAssignment({"a0": 0, "a1": 3}, 4).fold_positions(["a1", "a0", "a1"]).tolist() == [1, 0, 1]


class TestCrossValConfig:
    def test_grids_default_to_default_grid(self):
        cfg = CrossValConfig()
        assert cfg.alpha_grid == cfg.beta_grid == DEFAULT_GRID

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"fusion_strategy": "anneal"}, "fusion_strategy"),
            ({"threshold_strategy": "median"}, "threshold_strategy"),
            ({"exhaustive_step": 0.3}, "exhaustive_step"),
            ({"exhaustive_step": 0.0}, "exhaustive_step"),
            ({"exhaustive_step": 1e-6}, "exhaustive_step"),  # divides 1, too many grid points
            ({"exhaustive_step": 5e-324}, "exhaustive_step"),  # 1 / step overflows
            ({"exhaustive_step": 10**400}, "exhaustive_step"),  # too large for a float
            ({"neutral_index": 6}, "neutral_index"),
            ({"neutral_index": -1}, "neutral_index"),
        ],
    )
    def test_bad_setting_names_its_run_config_key(self, settings, key):
        with pytest.raises(ValidationError, match=key):
            CrossValConfig(**settings)

    def test_exhaustive_grid_bound_admits_a_grid_below_it(self):
        step = 1 / 128  # 129 * 130 / 2 = 8385 points; 1 / 160 would give 13041
        CrossValConfig(fusion_strategy="exhaustive", exhaustive_step=step)
        assert len(_simplex_grid(3, step)) == 8385 <= MAX_GRID_VALUES
