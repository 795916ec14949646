"""The array data path (prediction tables, FusionDataset, per-fold surfaces,
CV over tables) against the scalar oracle: average_clips, fuse, discretize,
search_thresholds and evaluate."""

import csv
import json

import numpy as np
import pytest

from blendfuse import core
from blendfuse.cli import EXIT_OK, main
from blendfuse.evaluation import (
    CrossValConfig,
    FoldAssignment,
    FusionDataset,
    cross_validate,
    evaluate,
    fold_surfaces,
    save_folds,
    split_actors,
)
from blendfuse.fusion import (
    WeightVector,
    fit,
    fuse,
    load_weights,
    optimize_weights,
    save_search_log,
    save_weights,
)
from blendfuse.postprocess import PostprocessConfig, ThresholdPair, discretize, search_thresholds
from blendfuse.synth import SynthConfig, generate

GRID = [i / 20 for i in range(11)]
NEUTRAL = int(core.Emotion.FEAR)
# Rows are deliberately not in sorted encoder order.
WEIGHTS_CSV = "encoder,weight\nenc_c,0.2\nenc_a,0.5\nenc_b,0.3\n"


def _perturbed(rows, rng, sigma, clips):
    logits = np.log(rows)[:, None, :] + rng.normal(0.0, sigma, (rows.shape[0], clips, 6))
    shifted = np.exp(logits - logits.max(axis=2, keepdims=True))
    return shifted / shifted.sum(axis=2, keepdims=True)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Three encoders (enc_b with three clip rows per video, one of them
    renormalized on load), labels, 3 folds and a weights file."""
    root = tmp_path_factory.mktemp("array_path")
    data = generate(SynthConfig(n_actors=9, clips_per_actor=12, noise_sigma=0.4, seed=3))
    video_ids = data.predictions.video_ids()
    base = np.array([data.predictions.rows[v][0].values for v in video_ids])
    rng = np.random.default_rng(5)
    pred_dir = root / "predictions"
    pred_dir.mkdir()
    for name, sigma, clips in (("enc_a", 0.0, 1), ("enc_b", 0.3, 3), ("enc_c", 0.6, 1)):
        probs = base[:, None, :] if sigma == 0.0 else _perturbed(base, rng, sigma, clips)
        rows = {
            vid: tuple(core.EmotionDistribution(tuple(r.tolist())) for r in probs[v])
            for v, vid in enumerate(video_ids)
        }
        core.save_predictions(
            core.EncoderPredictionSet(name, rows, dict(data.predictions.actors)),
            pred_dir / f"{name}.csv",
        )
    # A fourth clip of one video, off by 4e-4 in its sum: renormalized with a warning.
    vid = video_ids[0]
    drifted = [repr(v * 1.0004) for v in base[0].tolist()]
    with open(pred_dir / "enc_b.csv", "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([vid, data.predictions.actors[vid], *drifted])
    labels = root / "labels.csv"
    core.save_labels(data.records, labels)
    folds = split_actors(data.records, 3)
    save_folds(folds, root / "folds.csv")
    (root / "weights.csv").write_text(WEIGHTS_CSV, encoding="utf-8")
    with pytest.warns(UserWarning, match="renormalizing"):
        tables = [core.load_prediction_table(pred_dir / f"enc_{c}.csv") for c in "abc"]
        preds = [core.load_predictions(pred_dir / f"enc_{c}.csv") for c in "abc"]
    return root, data.records, folds, tables, preds


def test_tables_match_average_clips(inputs):
    _, _, _, tables, preds = inputs
    for table, pset in zip(tables, preds):
        assert list(table.row_of) == list(pset.rows)
        assert list(table.row_of.values()) == list(range(len(pset.rows)))
        expected = np.array([pset.distribution_for(v).values for v in table.row_of])
        assert np.array_equal(table.probs, expected)
        for vid in table.row_of:
            assert table.distribution_for(vid) == pset.distribution_for(vid)
    assert len(preds[1].rows[next(iter(tables[1].row_of))]) == 4
    with pytest.raises(core.ValidationError, match="encoder 'enc_a' has no prediction for video 'nope'"):
        tables[0].distribution_for("nope")


def test_dataset_matches_object_build(inputs):
    _, records, folds, tables, preds = inputs
    a = FusionDataset.build(tables, records, folds)
    b = FusionDataset.build(preds, records, folds)
    assert a.encoders == b.encoders == ("enc_a", "enc_b", "enc_c")
    assert a.video_ids == b.video_ids == tuple(sorted(r.video_id for r in records))
    assert np.array_equal(a.probs, b.probs)
    assert a.fold_ids == b.fold_ids == tuple(folds.fold_indices())
    assert np.array_equal(a.fold_position, b.fold_position)


def test_without_fold_matches_the_dataset_of_the_other_folds(inputs):
    _, records, folds, tables, _ = inputs
    odd = FoldAssignment({actor: 2 * f + 1 for actor, f in folds.folds.items()}, 2 * folds.k)
    data = FusionDataset.build(tables, records, odd)
    assert data.fold_ids == (1, 3, 5)  # so positions and fold ids differ
    for position, fold in enumerate(data.fold_ids):
        rest = FoldAssignment({a: f for a, f in odd.folds.items() if f != fold}, odd.k)
        expected = FusionDataset.build(tables, [r for r in records if r.actor_id in rest.folds], rest)
        train = data.without_fold(position)
        assert (train.video_ids, train.fold_ids) == (expected.video_ids, expected.fold_ids)
        for a, b in (
            (train.probs, expected.probs),
            (train.fold_position, expected.fold_position),
            (train.truth.set_code, expected.truth.set_code),
            (train.truth.sal_code, expected.truth.sal_code),
        ):
            assert np.array_equal(a, b)


def test_fused_rows_and_surfaces_match_scalar_path(inputs):
    root, records, folds, tables, preds = inputs
    data = FusionDataset.build(tables, records, folds)
    weights = load_weights(root / "weights.csv")
    assert list(weights.weights) == ["enc_c", "enc_a", "enc_b"]
    fused = data.fuse(weights.weights)
    for v, vid in enumerate(data.video_ids):
        assert tuple(fused[v].tolist()) == fuse(preds, weights, vid).values

    cfg = PostprocessConfig(ThresholdPair(0.1, 0.1), NEUTRAL, renormalize_before_beta=True)
    surfaces = fold_surfaces(
        data,
        fused,
        CrossValConfig(
            alpha_grid=GRID, beta_grid=GRID, neutral_index=NEUTRAL, renormalize_before_beta=True
        ),
    )
    truth = core.annotations_by_video(records)
    by_fold = folds.videos_by_fold(records)
    assert list(surfaces) == sorted(by_fold)
    for f, surface in surfaces.items():
        fold_fused = {vid: fuse(preds, weights, vid) for vid in by_fold[f]}
        oracle = search_thresholds(fold_fused, {v: truth[v] for v in by_fold[f]}, GRID, GRID, cfg)
        assert np.array_equal(surface.acc_p, oracle.acc_p)
        assert np.array_equal(surface.acc_s, oracle.acc_s)
        assert surface.n == oracle.n


def _scalar_fold_result(preds, records, folds, fold, weights, thresholds):
    cfg = PostprocessConfig(thresholds, NEUTRAL, renormalize_before_beta=True)
    truth = {r.video_id: r.annotation for r in records if folds.fold_of(r.actor_id) == fold}
    w = WeightVector(weights)
    return evaluate({vid: discretize(fuse(preds, w, vid), cfg) for vid in truth}, truth)


def test_cross_validation_matches_scalar_path(inputs):
    _, records, folds, tables, preds = inputs
    cfg = CrossValConfig(
        alpha_grid=tuple(GRID), beta_grid=tuple(GRID), neutral_index=NEUTRAL,
        renormalize_before_beta=True,
    )
    report = cross_validate(tables, records, FusionDataset.build(tables, records, folds), cfg)
    assert report == cross_validate(preds, records, FusionDataset.build(preds, records, folds), cfg)
    for outcome in report.folds:
        oracle = _scalar_fold_result(
            preds, records, folds, outcome.fold, outcome.weights, outcome.thresholds
        )
        assert outcome.result == oracle


def _table(name, rows):
    return core.PredictionTable(name, {vid: i for i, vid in enumerate(rows)}, np.array(list(rows.values())))


def test_dataset_checks_clip_means_of_labeled_videos_only():
    """A clip mean is checked like average_clips checks it, on the videos
    the dataset takes; an unlabeled video's mean is not read."""
    records = [
        core.SampleRecord(f"v{i}", f"a{i}", core.BlendAnnotation(core.Emotion.ANGER, None, 100))
        for i in range(2)
    ]
    folds = split_actors(records, 2)
    good = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    drifted = [0.5, 0.5 + 3e-6, 0.0, 0.0, 0.0, 0.0]
    data = FusionDataset.build([_table("enc", {"v0": good, "v1": good, "extra": drifted})], records, folds)
    assert data.video_ids == ("v0", "v1")
    with pytest.raises(core.ValidationError) as exc:
        FusionDataset.build([_table("enc", {"v0": good, "v1": drifted})], records, folds)
    assert str(exc.value).startswith("encoder 'enc', video 'v1': probabilities sum to ")


def test_fuse_evaluate_cli_matches_scalar_path(inputs, tmp_path):
    root, records, folds, _, preds = inputs
    config = {
        "predictions_dir": str(root / "predictions"),
        "labels_file": str(root / "labels.csv"),
        "folds_file": str(root / "folds.csv"),
        "output_dir": str(tmp_path / "run"),
        "alpha_grid": GRID,
        "beta_grid": GRID,
        "neutral_index": NEUTRAL,
        "renormalize_before_beta": True,
    }
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    with pytest.warns(UserWarning, match="renormalizing"):
        assert main(["fuse-evaluate", "--config", str(tmp_path / "run.json")]) == EXIT_OK
    weights, _ = optimize_weights(
        FusionDataset.build(preds, records, folds),
        CrossValConfig(
            initial_thresholds=ThresholdPair(0.1, 0.1), neutral_index=NEUTRAL,
            renormalize_before_beta=True,
        ),
    )
    cfg = PostprocessConfig(ThresholdPair(0.1, 0.1), NEUTRAL, renormalize_before_beta=True)
    truth = core.annotations_by_video(records)
    report = json.loads((tmp_path / "run" / "thresholds.json").read_text())
    for entry in report["per_fold"]:
        vids = folds.videos_by_fold(records)[entry["fold"]]
        fused = {vid: fuse(preds, weights, vid) for vid in vids}
        oracle = search_thresholds(fused, {v: truth[v] for v in vids}, GRID, GRID, cfg)
        pair = oracle.argmax_pair()
        assert (entry["alpha"], entry["beta"], entry["best_score"]) == (
            pair.alpha, pair.beta, oracle.best_score()
        )
    results = json.loads((tmp_path / "run" / "results.json").read_text())
    for fold in results["folds"]:
        oracle = _scalar_fold_result(
            preds, records, folds, fold["fold"], fold["weights"],
            ThresholdPair(fold["alpha"], fold["beta"]),
        )
        assert (fold["acc_p"], fold["acc_s"], fold["n"]) == (oracle.acc_p, oracle.acc_s, oracle.n)


def test_fuse_evaluate_reports_one_fit_of_all_data_and_of_each_training_split(inputs, tmp_path):
    root, records, folds, tables, _ = inputs
    config = {
        "predictions_dir": str(root / "predictions"),
        "labels_file": str(root / "labels.csv"),
        "folds_file": str(root / "folds.csv"),
        "output_dir": str(tmp_path / "run"),
        "alpha_grid": GRID,
        "beta_grid": GRID,
        "neutral_index": NEUTRAL,
        "renormalize_before_beta": True,
    }
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    with pytest.warns(UserWarning, match="renormalizing"):
        assert main(["fuse-evaluate", "--config", str(tmp_path / "run.json")]) == EXIT_OK
    cfg = CrossValConfig(
        alpha_grid=tuple(GRID), beta_grid=tuple(GRID), neutral_index=NEUTRAL,
        renormalize_before_beta=True,
    )
    data = FusionDataset.build(tables, records, folds)
    weights, log, surfaces, chosen = fit(data, cfg)
    save_weights(weights, tmp_path / "weights.csv")
    save_search_log(log, tmp_path / "log.csv")
    run = tmp_path / "run"
    assert (run / "weights.csv").read_bytes() == (tmp_path / "weights.csv").read_bytes()
    assert (run / "weight_search_log.csv").read_bytes() == (tmp_path / "log.csv").read_bytes()
    report = json.loads((run / "thresholds.json").read_text())
    assert (report["alpha"], report["beta"]) == (chosen.alpha, chosen.beta)
    assert [e["best_score"] for e in report["per_fold"]] == [s.best_score() for s in surfaces.values()]
    results = json.loads((run / "results.json").read_text())
    for fold in results["folds"]:
        fold_weights, _, _, fold_thresholds = fit(data.without_fold(data.fold_ids.index(fold["fold"])), cfg)
        assert (fold["weights"], fold["alpha"], fold["beta"]) == (
            fold_weights.weights, fold_thresholds.alpha, fold_thresholds.beta
        )


def test_sensitivity_cli_matches_scalar_path(inputs, tmp_path):
    root, records, folds, _, preds = inputs
    out = tmp_path / "sens"
    grid = json.dumps(GRID)
    with pytest.warns(UserWarning, match="renormalizing"):
        code = main([
            "sensitivity", "--predictions", str(root / "predictions"),
            "--labels", str(root / "labels.csv"), "--folds", str(root / "folds.csv"),
            "--weights", str(root / "weights.csv"), "--neutral-index", str(NEUTRAL),
            "--alpha-grid", grid, "--beta-grid", grid, "--out", str(out),
        ])
    assert code == EXIT_OK
    weights = load_weights(root / "weights.csv")
    cfg = PostprocessConfig(ThresholdPair(0.0, 0.0), NEUTRAL)
    truth = core.annotations_by_video(records)
    by_fold = folds.videos_by_fold(records)
    report = json.loads((out / "sensitivity.json").read_text())
    assert [e["fold"] for e in report["per_fold"]] == sorted(by_fold)
    for entry in report["per_fold"]:
        vids = by_fold[entry["fold"]]
        fused = {vid: fuse(preds, weights, vid) for vid in vids}
        oracle = search_thresholds(fused, {v: truth[v] for v in vids}, GRID, GRID, cfg)
        pair = oracle.argmax_pair()
        assert (entry["alpha"], entry["beta"], entry["best_score"]) == (
            pair.alpha, pair.beta, oracle.best_score()
        )
