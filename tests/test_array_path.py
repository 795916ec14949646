"""The array data path (prediction tables, FusionDataset, per-fold surfaces,
CV over tables) against the scalar oracle: average_clips, fuse, discretize,
search_thresholds and evaluate."""

import csv
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fuse_video,
    label_rows,
    label_table,
    label_table_bits,
    prediction_tables,
    records_dataset,
    videos_by_fold,
)

from blendfuse import core, fusion
from blendfuse.cli import EXIT_OK, main
from blendfuse.core import FoldAssignment
from blendfuse.evaluation import cross_validate, evaluate, save_folds, split_actors
from blendfuse.fusion import (
    CrossValConfig,
    FusionDataset,
    fit,
    fold_surfaces,
    fuse,
    load_weights,
    optimize_weights,
    save_search_log,
    save_weights,
)
from blendfuse.postprocess import (
    PostprocessConfig,
    ThresholdPair,
    discretize,
    search_thresholds,
    threshold_surface,
)
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
    folds = split_actors([r.actor_id for r in data.records], 3)
    save_folds(folds, root / "folds.csv")
    (root / "weights.csv").write_text(WEIGHTS_CSV, encoding="utf-8")
    with pytest.warns(UserWarning, match="renormalizing"):
        tables = [core.load_prediction_table(pred_dir / f"enc_{c}.csv") for c in "abc"]
        preds = [core.load_predictions(pred_dir / f"enc_{c}.csv") for c in "abc"]
    return root, data.records, folds, tables, preds


def _other_folds(tables, records, folds, fold):
    """The dataset of every fold but ``fold``, built from its records alone."""
    rest = FoldAssignment({a: f for a, f in folds.folds.items() if f != fold}, folds.k)
    return FusionDataset.build(tables, label_table([r for r in records if r.actor_id in rest.folds]), rest)


def test_tables_match_average_clips(inputs):
    _, _, _, tables, preds = inputs
    for table, pset in zip(tables, preds):
        assert list(table.row_of) == list(pset.rows)
        assert list(table.row_of.values()) == list(range(len(pset.rows)))
        expected = np.array([core.average_clips(pset.rows[v]).values for v in table.row_of])
        assert np.array_equal(table.probs, expected)
    assert len(preds[1].rows[next(iter(tables[1].row_of))]) == 4


def test_dataset_matches_object_build(inputs):
    _, records, folds, tables, preds = inputs
    a = FusionDataset.build(tables, label_table(records), folds)
    b = FusionDataset.build(prediction_tables(preds, records), label_table(records), folds)
    assert a.encoders == b.encoders == ("enc_a", "enc_b", "enc_c")
    assert a.video_ids == b.video_ids == tuple(sorted(r.video_id for r in records))
    assert np.array_equal(a.probs, b.probs)
    assert a.fold_ids == b.fold_ids == tuple(folds.fold_indices())
    assert np.array_equal(a.fold_position, b.fold_position)


EMOTION_NAMES = [e.label for e in core.EMOTIONS]


@st.composite
def fusion_files(draw):
    """Rows of a labels file in no particular order (raw annotations, some
    30/70 or capitalized), the rows of one to three predictions files, and a
    folds mapping.  A predictions file lists each video over one to three
    clips, in shuffled order, with videos no label lists, and may lack one
    labeled video.  The folds mapping lists the labeled actors, and
    sometimes one more in a fold of its own, which holds no labeled video."""
    videos = draw(st.lists(st.text("ab1_é", min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
    actor_of = {v: draw(st.sampled_from(["a0", "a1", "a2", "a3"])) for v in videos}
    labels = []
    for video in draw(st.permutations(videos)):
        primary = draw(st.sampled_from(EMOTION_NAMES))
        salience = draw(st.sampled_from(["100", "70", "50", "30"]))
        secondary = "" if salience == "100" else draw(st.sampled_from([e for e in EMOTION_NAMES if e != primary]))
        if draw(st.booleans()):
            primary = primary.capitalize()
        labels.append([video, actor_of[video], primary, secondary, salience])
    encoders = []
    for _ in range(draw(st.integers(1, 3))):
        covered = videos + draw(st.lists(st.sampled_from(["x0", "x1"]), unique=True))
        if draw(st.integers(0, 19)) == 0:
            covered.remove(draw(st.sampled_from(videos)))
        rows = []
        for video in covered:
            for _ in range(draw(st.integers(1, 3))):
                weights = draw(st.lists(st.integers(0, 9), min_size=6, max_size=6).filter(any))
                rows.append((video, actor_of.get(video, "ax"), [w / sum(weights) for w in weights]))
        encoders.append(draw(st.permutations(rows)))
    folds = {a: draw(st.integers(0, 3)) for a in sorted(set(actor_of.values()))}
    if draw(st.integers(0, 7)) == 0:
        folds["ghost"] = 4
    return labels, encoders, FoldAssignment(folds, max(2, max(folds.values()) + 1))


def dataset_bits(build, *args):
    """Every field of the dataset ``build(*args)`` as bytes, or its error message."""
    try:
        data = build(*args)
    except core.ValidationError as exc:
        return str(exc)
    arrays = (data.probs, data.truth.set_code, data.truth.sal_code, data.fold_position)
    return data.encoders, data.video_ids, data.fold_ids, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(files=fusion_files())
def test_build_from_a_label_table_equals_the_records_build(files):
    labels, encoders, folds = files
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        core.write_csv_rows(path, core.LABELS_HEADER, labels)
        for e, rows in enumerate(encoders):
            core.write_prediction_rows(Path(tmp) / f"enc{e}.csv", rows)
        tables = [core.load_prediction_table(Path(tmp) / f"enc{e}.csv") for e in range(len(encoders))]
        cache_use = Counter()
        parsed, served = (core.load_label_table(path, cache_use) for _ in range(2))
        assert cache_use == {"misses": 1, "hits": 1}
        expected = dataset_bits(records_dataset, tables, label_rows(path), folds)
    assert label_table_bits(served) == label_table_bits(parsed)
    assert dataset_bits(FusionDataset.build, tables, parsed, folds) == expected
    assert dataset_bits(FusionDataset.build, tables, served, folds) == expected


def test_array_dataclasses_compare_by_identity(inputs):
    # Generated field-wise == would compare ndarrays and raise ValueError.
    _, records, folds, tables, _ = inputs
    a, b = (FusionDataset.build(tables, label_table(records), folds) for _ in range(2))
    fused = fuse(a, {name: 1.0 / len(a.encoders) for name in a.encoders})
    fold = np.zeros(len(a.video_ids), dtype=np.intp)
    s, t = (
        threshold_surface(fused, a.truth, GRID, GRID, PostprocessConfig(), fold)[0] for _ in range(2)
    )
    for x, y in ((a, b), (a.truth, b.truth), (s, t)):
        assert (x == y) is False
        assert (x == x) is True


def test_without_fold_matches_the_dataset_of_the_other_folds(inputs):
    _, records, folds, tables, _ = inputs
    odd = FoldAssignment({actor: 2 * f + 1 for actor, f in folds.folds.items()}, 2 * folds.k)
    data = FusionDataset.build(tables, label_table(records), odd)
    assert data.fold_ids == (1, 3, 5)  # so positions and fold ids differ
    for position, fold in enumerate(data.fold_ids):
        rest = FoldAssignment({a: f for a, f in odd.folds.items() if f != fold}, odd.k)
        labels = label_table([r for r in records if r.actor_id in rest.folds])
        expected = FusionDataset.build(tables, labels, rest)
        keep = data.fold_position != position
        video_ids = tuple(v for v, k in zip(data.video_ids, keep) if k)
        fold_ids = tuple(f for f in data.fold_ids if f != fold)
        assert (video_ids, fold_ids) == (expected.video_ids, expected.fold_ids)
        for a, b in (
            (data.probs[:, keep], expected.probs),
            (np.array(data.fold_ids)[data.fold_position[keep]], np.array(expected.fold_ids)[expected.fold_position]),
            (data.truth.set_code[keep], expected.truth.set_code),
            (data.truth.sal_code[keep], expected.truth.sal_code),
        ):
            assert np.array_equal(a, b)


def test_fused_rows_and_surfaces_match_scalar_path(inputs):
    root, records, folds, tables, preds = inputs
    data = FusionDataset.build(tables, label_table(records), folds)
    weights = load_weights(root / "weights.csv")
    assert list(weights.weights) == ["enc_c", "enc_a", "enc_b"]
    fused = fuse(data, weights.weights)
    for v, vid in enumerate(data.video_ids):
        assert tuple(fused[v].tolist()) == fuse_video(preds, weights.weights, vid).values

    cfg = PostprocessConfig(ThresholdPair(0.1, 0.1), NEUTRAL, renormalize_before_beta=True)
    surfaces = fold_surfaces(
        data,
        fused,
        CrossValConfig(
            alpha_grid=GRID, beta_grid=GRID, neutral_index=NEUTRAL, renormalize_before_beta=True
        ),
    )
    truth = {r.video_id: r.annotation for r in records}
    by_fold = videos_by_fold(folds, records)
    assert list(surfaces) == sorted(by_fold)
    for f, surface in surfaces.items():
        fold_fused = {vid: fuse_video(preds, weights.weights, vid) for vid in by_fold[f]}
        oracle = search_thresholds(fold_fused, {v: truth[v] for v in by_fold[f]}, GRID, GRID, cfg)
        assert np.array_equal(surface.acc_p, oracle.acc_p)
        assert np.array_equal(surface.acc_s, oracle.acc_s)
        assert surface.n == oracle.n


def _scalar_fold_result(preds, records, folds, fold, weights, thresholds):
    cfg = PostprocessConfig(thresholds, NEUTRAL, renormalize_before_beta=True)
    truth = {r.video_id: r.annotation for r in records if folds.fold_of(r.actor_id) == fold}
    return evaluate({vid: discretize(fuse_video(preds, weights, vid), cfg) for vid in truth}, truth)


def test_cross_validation_matches_scalar_path(inputs):
    _, records, folds, tables, preds = inputs
    cfg = CrossValConfig(
        alpha_grid=tuple(GRID), beta_grid=tuple(GRID), neutral_index=NEUTRAL,
        renormalize_before_beta=True,
    )
    labels = label_table(records)
    report = cross_validate(FusionDataset.build(tables, labels, folds), cfg)
    assert report == cross_validate(FusionDataset.build(prediction_tables(preds, records), labels, folds), cfg)
    for outcome in report.folds:
        oracle = _scalar_fold_result(
            preds, records, folds, outcome.fold, outcome.weights, outcome.thresholds
        )
        assert outcome.result == oracle


def _table(name, rows):
    return core.PredictionTable(Path(f"{name}.csv"), {vid: i for i, vid in enumerate(rows)}, np.array(list(rows.values())))


def test_label_table_rejects_unlabeled_and_repeated_records():
    anger = core.BlendAnnotation(core.Emotion.ANGER, None, 100)
    records = [core.SampleRecord("v0", "a0", anger), core.SampleRecord("v1", "a0", anger)]
    with pytest.raises(core.ValidationError, match="^record 'v2' is unlabeled$"):
        label_table([*records, core.SampleRecord("v2", "a1")])
    with pytest.raises(core.ValidationError, match="^video 'v1' is listed twice$"):
        label_table([*records, core.SampleRecord("v1", "a1", anger)])


def test_dataset_checks_clip_means_of_labeled_videos_only():
    """A clip mean is checked like average_clips checks it, on the videos
    the dataset takes; an unlabeled video's mean is not read."""
    records = [
        core.SampleRecord(f"v{i}", f"a{i}", core.BlendAnnotation(core.Emotion.ANGER, None, 100))
        for i in range(2)
    ]
    folds = split_actors([r.actor_id for r in records], 2)
    good = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    drifted = [0.5, 0.5 + 3e-6, 0.0, 0.0, 0.0, 0.0]
    labels = label_table(records)
    data = FusionDataset.build([_table("enc", {"v0": good, "v1": good, "extra": drifted})], labels, folds)
    assert data.video_ids == ("v0", "v1")
    with pytest.raises(core.ValidationError) as exc:
        FusionDataset.build([_table("enc", {"v0": good, "v1": drifted})], labels, folds)
    assert str(exc.value).startswith("enc.csv: encoder 'enc', video 'v1': probabilities sum to ")


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
        FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
        CrossValConfig(
            initial_thresholds=ThresholdPair(0.1, 0.1), neutral_index=NEUTRAL,
            renormalize_before_beta=True,
        ),
    )
    cfg = PostprocessConfig(ThresholdPair(0.1, 0.1), NEUTRAL, renormalize_before_beta=True)
    truth = {r.video_id: r.annotation for r in records}
    report = json.loads((tmp_path / "run" / "thresholds.json").read_text())
    for entry in report["per_fold"]:
        vids = videos_by_fold(folds, records)[entry["fold"]]
        fused = {vid: fuse_video(preds, weights.weights, vid) for vid in vids}
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
    data = FusionDataset.build(tables, label_table(records), folds)
    weights, log, surfaces, chosen, _ = fit(data, cfg)
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
        fold_weights, _, _, fold_thresholds, _ = fit(_other_folds(tables, records, folds, fold["fold"]), cfg)
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
    truth = {r.video_id: r.annotation for r in records}
    by_fold = videos_by_fold(folds, records)
    report = json.loads((out / "sensitivity.json").read_text())
    assert [e["fold"] for e in report["per_fold"]] == sorted(by_fold)
    for entry in report["per_fold"]:
        vids = by_fold[entry["fold"]]
        fused = {vid: fuse_video(preds, weights.weights, vid) for vid in vids}
        oracle = search_thresholds(fused, {v: truth[v] for v in vids}, GRID, GRID, cfg)
        pair = oracle.argmax_pair()
        assert (entry["alpha"], entry["beta"], entry["best_score"]) == (
            pair.alpha, pair.beta, oracle.best_score()
        )


MEMO_CASES = {
    "coordinate_ascent": {},
    "joint_exhaustive": dict(joint_threshold_search=True, fusion_strategy="exhaustive", exhaustive_step=0.2),
    "neutral_renormalized": dict(neutral_index=NEUTRAL, renormalize_before_beta=True),
}


@pytest.mark.parametrize("settings", MEMO_CASES.values(), ids=list(MEMO_CASES))
def test_fit_with_a_held_out_fold_matches_a_fit_on_the_other_folds(inputs, settings):
    _, records, folds, tables, _ = inputs
    cfg = CrossValConfig(**settings)
    data = FusionDataset.build(tables, label_table(records), folds)
    fit(data, cfg)  # fills the memo first, as fuse-evaluate does
    for position, fold in enumerate(data.fold_ids):
        weights, log, surfaces, thresholds, fused = fit(data, cfg, position)
        expected = fit(_other_folds(tables, records, folds, fold), cfg)
        assert weights.weights == expected[0].weights
        assert fused.tobytes() == fuse(data, weights.weights).tobytes()
        assert [(e.step, e.candidate_id, e.objective.hex()) for e in log] == [
            (e.step, e.candidate_id, e.objective.hex()) for e in expected[1]
        ]
        assert {f: s.best_score() for f, s in surfaces.items()} == {
            f: s.best_score() for f, s in expected[2].items()
        }
        assert thresholds == expected[3]


def _fuse_evaluate(root, tmp_path, folds_path, **settings):
    """Run fuse-evaluate on the fixture's inputs; its run_meta.json."""
    config = {
        "predictions_dir": str(root / "predictions"),
        "labels_file": str(root / "labels.csv"),
        "folds_file": str(folds_path),
        "output_dir": str(tmp_path / "run"),
        **settings,
    }
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    with pytest.warns(UserWarning, match="renormalizing"):
        assert main(["fuse-evaluate", "--config", str(tmp_path / "run.json")]) == EXIT_OK
    return json.loads((tmp_path / "run" / "run_meta.json").read_text())


def test_fuse_evaluate_scores_each_distinct_candidate_once(inputs, tmp_path, monkeypatch):
    # Six searches over the same 21 grid points plus uniform; each fit adds
    # the surfaces at its chosen weights.
    root, records, _, _, _ = inputs
    save_folds(split_actors([r.actor_id for r in records], 5), tmp_path / "folds.csv")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return threshold_surface(*args, **kwargs)

    monkeypatch.setattr(fusion, "threshold_surface", counted)
    meta = _fuse_evaluate(
        root, tmp_path, tmp_path / "folds.csv",
        joint_threshold_search=True, fusion_strategy="exhaustive", exhaustive_step=0.2,
    )
    assert len(calls) == 22 + 6
    assert meta["counters"] == {
        "videos": len(records), "encoders": 3, "candidates_scored": 6 * 22, "distinct_candidates": 22,
    }


def test_run_meta_counts_the_candidates_of_all_six_searches(inputs, tmp_path):
    root, records, folds, tables, _ = inputs
    counters = _fuse_evaluate(root, tmp_path, root / "folds.csv")["counters"]
    cfg = CrossValConfig()
    logs = [fit(FusionDataset.build(tables, label_table(records), folds), cfg)[1]]
    logs += [fit(_other_folds(tables, records, folds, f), cfg)[1] for f in folds.fold_indices()]
    assert counters["candidates_scored"] == sum(map(len, logs))
    assert 0 < counters["distinct_candidates"] < counters["candidates_scored"]


def test_run_meta_times_the_ingest_the_fit_and_each_held_out_fold(inputs, tmp_path):
    root, _, folds, _, _ = inputs
    timings = _fuse_evaluate(root, tmp_path, root / "folds.csv")["timings"]
    assert timings.keys() == {"ingest_s", "build_s", "fit_s", "cv_fold_s"}
    assert len(timings["cv_fold_s"]) == len(folds.fold_indices())
    for seconds in (timings["ingest_s"], timings["build_s"], timings["fit_s"], *timings["cv_fold_s"]):
        assert type(seconds) is float and seconds >= 0
