"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the module tests.
"""

import json

import numpy as np
import pytest

from fixtures_util import (
    LADDER_THRESHOLDS,
    beta_instability_run,
    independent_objective,
    ladder_fixture,
    outputs_of,
    write_feature_dir,
)
from oracles import label_rows, label_table, prediction_tables
from test_mlp import finite_difference_gradients, full_gradients, max_relative_error, random_soft_rows
from test_postprocess import as_tuple, random_distribution, reference_discretize

from blendfuse import core
from blendfuse.cli import EXIT_OK, main as cli_main
from blendfuse.evaluation import evaluate
from blendfuse.features import AggregationConfig, aggregate_temporal
from blendfuse.fusion import CrossValConfig, FusionDataset, optimize_weights, validate_simplex
from blendfuse.labels import kl_grad_logits, kl_loss, mean_kl, softmax
from blendfuse.mlp import MlpConfig, MlpModel, predict_proba, train
from blendfuse.postprocess import PostprocessConfig, ThresholdPair, discretize, search_thresholds
from blendfuse.synth import SynthConfig, generate

# Published (presence, salience, combined) operating points, as printed to
# three decimals in the system report's result tables.  One further row of
# the same tables is internally inconsistent with the combined-score formula
# by 5.5e-3 and is excluded.
REPORTED_OPERATING_POINTS = [
    (0.340, 0.140, 0.240),
    (0.291, 0.144, 0.218),
    (0.294, 0.120, 0.207),
    (0.259, 0.131, 0.195),
    (0.264, 0.104, 0.184),
    (0.234, 0.088, 0.161),
    (0.298, 0.180, 0.239),
    (0.290, 0.130, 0.210),
    (0.265, 0.121, 0.193),
    (0.273, 0.106, 0.190),
    (0.332, 0.114, 0.223),
    (0.327, 0.114, 0.221),
    (0.268, 0.180, 0.224),
    (0.327, 0.159, 0.243),
    (0.357, 0.168, 0.262),
    (0.391, 0.168, 0.279),
    (0.340, 0.140, 0.240),
    (0.357, 0.175, 0.266),
    (0.414, 0.205, 0.309),
    (0.418, 0.204, 0.311),
]

# Reported fusion weights of the 9-encoder and 12-encoder configurations,
# rounded to three decimals (sums 0.999 and 1.000).
REPORTED_WEIGHTS_9 = [0.094, 0.170, 0.261, 0.156, 0.050, 0.071, 0.041, 0.092, 0.064]
REPORTED_WEIGHTS_12 = [0.117, 0.111, 0.192, 0.090, 0.110, 0.103, 0.124, 0.079, 0.042, 0.032]

SCORE_TOL = 5e-4 + 1e-9  # three-decimal rounding plus float representation slack


def test_criterion_01_score_identity(tmp_path):
    assert len(REPORTED_OPERATING_POINTS) >= 16
    for acc_p, acc_s, score in REPORTED_OPERATING_POINTS:
        assert abs(0.5 * (acc_p + acc_s) - score) <= SCORE_TOL, (acc_p, acc_s, score)
    # same data through the CLI identity checker
    results = tmp_path / "reported.csv"
    rows = ["fold,acc_p,acc_s,score,n"] + [
        f"{i},{p},{s},{sc},1" for i, (p, s, sc) in enumerate(REPORTED_OPERATING_POINTS)
    ]
    results.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert cli_main(["verify-identities", "--results", str(results), "--tol", str(SCORE_TOL)]) == EXIT_OK
    print(f"\nACCEPTANCE 1 PASS: {len(REPORTED_OPERATING_POINTS)} reported "
          f"operating points satisfy score = (acc_p + acc_s) / 2 within 5e-4")


def test_criterion_02_weight_simplex():
    names9 = {f"e{i}": w for i, w in enumerate(REPORTED_WEIGHTS_9)}
    names12 = {f"e{i}": w for i, w in enumerate(REPORTED_WEIGHTS_12)}
    validate_simplex(names9, tol=5e-3)
    validate_simplex(names12, tol=5e-3)
    print("\nACCEPTANCE 2 PASS: both reported weight columns lie on the "
          "simplex within 5e-3 (sums 0.999 and 1.000)")


def test_criterion_03_discretization_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        p = random_distribution(rng)
        alpha = float(rng.choice([0.0, 0.01, 0.1, 0.25, 0.5, rng.random()]))
        beta = float(rng.choice([0.0, 0.05, 0.2, 0.5, 1.0, rng.random()]))
        neutral = None if rng.random() < 0.5 else int(rng.integers(6))
        cfg = PostprocessConfig(ThresholdPair(alpha, beta), neutral)
        got = as_tuple(discretize(p, cfg))
        want = reference_discretize(p.values, alpha, beta, neutral)
        mismatches += got != want
    assert mismatches == 0
    print("\nACCEPTANCE 3 PASS: 10,000 random (distribution, alpha, beta, "
          "neutral) tuples match the brute-force four-step reference exactly")


def test_criterion_04_threshold_surface_consistency():
    cfg = SynthConfig(n_actors=10, clips_per_actor=50, noise_sigma=0.4, seed=11)
    dataset = generate(cfg)
    assert len(dataset.records) == 500
    truth = {r.video_id: r.annotation for r in dataset.records}
    fused = {v: core.average_clips(dataset.predictions.rows[v]) for v in truth}
    surface = search_thresholds(fused, truth)
    rng = np.random.default_rng(12)
    for _ in range(10):
        ai = int(rng.integers(len(surface.alpha_grid)))
        bi = int(rng.integers(len(surface.beta_grid)))
        pp = PostprocessConfig(ThresholdPair(surface.alpha_grid[ai], surface.beta_grid[bi]))
        preds = {vid: discretize(p, pp) for vid, p in fused.items()}
        result = evaluate(preds, truth)
        cell = (surface.acc_p[ai, bi], surface.acc_s[ai, bi], surface.score[ai, bi])
        assert cell == (result.acc_p, result.acc_s, result.score)
    print("\nACCEPTANCE 4 PASS: 10 random surface cells on a 500-clip synthetic "
          "set equal independent single-point evaluations exactly")


def test_criterion_05_beta_instability():
    alphas_het, betas_het = beta_instability_run(0.05, 0.45)
    ratio = max(betas_het) / min(betas_het)
    assert min(betas_het) > 0
    assert ratio >= 3.0
    assert max(alphas_het) - min(alphas_het) <= 0.05
    alphas_deg, betas_deg = beta_instability_run(0.25, 0.25)
    assert max(betas_deg) - min(betas_deg) <= 0.01 + 1e-12
    assert max(alphas_deg) - min(alphas_deg) <= 0.05
    print(f"\nACCEPTANCE 5 PASS: gap-sorted folds give beta spread {min(betas_het)}"
          f"..{max(betas_het)} (ratio {ratio:.2f} >= 3), degenerate gaps give "
          f"spread <= one grid step, alpha stable in both runs")


def test_criterion_06_gradient_suite():
    rng = np.random.default_rng(606)
    h = 1e-5
    for _ in range(100):
        y = np.zeros(6)
        i = int(rng.integers(6))
        j = int((i + 1 + rng.integers(5)) % 6)
        kind = rng.integers(3)
        if kind == 0:
            y[i] = 1.0
        elif kind == 1:
            y[i], y[j] = 0.7, 0.3
        else:
            y[i], y[j] = 0.5, 0.5
        z = rng.uniform(-3, 3, 6)
        analytic = kl_grad_logits(y, z)
        numeric = np.empty(6)
        for k in range(6):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            numeric[k] = (kl_loss(y, softmax(zp)) - kl_loss(y, softmax(zm))) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5

    for case in range(100):
        model = MlpModel.initialize(3, MlpConfig(hidden_dims=(2,), dropout=0.0, seed=case))
        x = rng.normal(size=(4, 3))
        y = random_soft_rows(rng, 4)
        _, analytic = full_gradients(model, x, y)
        numeric = finite_difference_gradients(model, x, y, h=1e-4)
        assert max_relative_error(analytic, numeric) <= 1e-4
    print("\nACCEPTANCE 6 PASS: 100 KL logit gradients within 1e-5 and 100 "
          "full-network parameter gradients within 1e-4 of central differences")


def test_criterion_07_overfit_capacity():
    rng = np.random.default_rng(707)
    x = rng.normal(size=(50, 8))
    y = random_soft_rows(rng, 50)
    cfg = MlpConfig(hidden_dims=(32, 16), dropout=0.0, lr=0.1, max_epochs=500,
                    patience=500, batch_size=50, seed=7)
    result = train((x, y), (x, y), cfg)
    final_kl = mean_kl(y, predict_proba(result.model, x))
    assert final_kl < 0.01
    assert len(result.log) <= 500

    # a worsening validation set forces a genuine early stop; the returned
    # snapshot must be the logged minimum, not the final epoch
    y_val = y[rng.permutation(50)]
    stop_cfg = MlpConfig(hidden_dims=(32, 16), dropout=0.0, lr=0.1, max_epochs=500,
                         patience=10, batch_size=50, seed=7)
    stopped = train((x, y), (x, y_val), stop_cfg)
    assert len(stopped.log) < 500
    assert stopped.best_val_loss == min(e.val_loss for e in stopped.log)
    assert stopped.log[stopped.best_epoch].val_loss == stopped.best_val_loss
    returned_val = mean_kl(y_val, predict_proba(stopped.model, x))
    assert returned_val == pytest.approx(stopped.best_val_loss, abs=1e-12)
    assert stopped.log[-1].val_loss >= stopped.best_val_loss
    print(f"\nACCEPTANCE 7 PASS: train KL {final_kl:.5f} < 0.01 within "
          f"{len(result.log)} epochs; early stopping returned the logged "
          f"best-validation snapshot (epoch {stopped.best_epoch})")


def test_criterion_08_fusion_oracle_recovery():
    for n_uniform in (1, 2):
        records, preds, folds = ladder_fixture(n_uniform=n_uniform)
        ca_w, _ = optimize_weights(
            FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
            CrossValConfig(fusion_strategy="coordinate_ascent", initial_thresholds=LADDER_THRESHOLDS),
        )
        ex_w, _ = optimize_weights(
            FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
            CrossValConfig(
                fusion_strategy="exhaustive", initial_thresholds=LADDER_THRESHOLDS,
                exhaustive_step=0.05,
            ),
        )
        assert ca_w["oracle"] >= 0.9, (n_uniform, ca_w.weights)
        ca_obj = independent_objective(preds, records, folds, ca_w, LADDER_THRESHOLDS)
        ex_obj = independent_objective(preds, records, folds, ex_w, LADDER_THRESHOLDS)
        assert ca_obj == ex_obj, (n_uniform, ca_obj, ex_obj)
    print("\nACCEPTANCE 8 PASS: coordinate ascent gives the informative encoder "
          ">= 0.9 weight and exactly matches the exhaustive step-0.05 grid "
          "optimum for 2 and 3 encoders")


def test_criterion_09_aggregation_dimensionality():
    cfg = AggregationConfig()
    assert cfg.output_dim(1024) == 7168
    rng = np.random.default_rng(909)
    frames_big = rng.normal(size=(9, 1024))
    pooled = aggregate_temporal(frames_big, AggregationConfig(layer_lo=0, layer_hi=0))
    assert pooled.shape == (7168,)

    frames = np.array([[0, 0], [2, 2], [4, 4], [6, 6], [8, 8], [10, 10]], dtype=float)
    out = aggregate_temporal(frames, AggregationConfig(layer_lo=0, layer_hi=0, segments=3))
    expected = np.array([1, 1, 1, 1, 5, 5, 1, 1, 9, 9, 1, 1, 5, 5], dtype=float)
    assert np.array_equal(out, expected)
    print("\nACCEPTANCE 9 PASS: default aggregation of 1024-dim features is "
          "exactly 7168-dim; the worked 6x2 example matches bit-for-bit")


def test_criterion_10_cli_determinism(tmp_path):
    def run(*argv):
        return cli_main([str(a) for a in argv])

    def twice(out_name, *argv):
        snapshots = []
        for _ in range(2):
            out = tmp_path / out_name
            code = run(*argv, "--out", out)
            assert code == EXIT_OK
            snapshots.append(outputs_of(out))
            for rel in snapshots[-1]:
                (out / rel).unlink()
        assert snapshots[0] == snapshots[1], f"{out_name} outputs differ between reruns"
        return snapshots[0]

    data = tmp_path / "data"
    twice("data", "synth", "--actors", 6, "--clips", 12, "--noise-sigma", 0.3,
          "--gap-lo", 0.15, "--gap-hi", 0.4, "--seed", 3)
    # recreate the data for downstream commands (snapshots were unlinked)
    run("synth", "--actors", 6, "--clips", 12, "--noise-sigma", 0.3,
        "--gap-lo", 0.15, "--gap-hi", 0.4, "--seed", 3, "--out", data)

    twice("folds", "split", "--manifest", data / "labels.csv", "--k", 2)
    run("split", "--manifest", data / "labels.csv", "--k", 2, "--out", tmp_path / "folds")
    folds = tmp_path / "folds" / "folds.csv"

    twice("enc", "encode-labels", "--labels", data / "labels.csv")

    records = label_rows(data / "labels.csv")
    feat_dir = write_feature_dir(tmp_path, records, np.random.default_rng(1))
    twice("agg", "aggregate", "--features", feat_dir, "--layer-lo", 0, "--layer-hi", 0)

    twice("mlp", "train-mlp", "--features", feat_dir, "--labels", data / "labels.csv",
          "--folds", folds, "--layer-lo", 0, "--layer-hi", 0, "--hidden", "8",
          "--dropout", 0.0, "--lr", 0.1, "--epochs", 40, "--patience", 40,
          "--batch-size", 16, "--seed", 2)

    run_cfg = {
        "predictions_dir": str(data / "predictions"),
        "labels_file": str(data / "labels.csv"),
        "folds_file": str(folds),
        "output_dir": str(tmp_path / "fuse"),
        "seed": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run_cfg), encoding="utf-8")
    twice("fuse", "fuse-evaluate", "--config", cfg_path)

    twice("sens", "sensitivity", "--predictions", data / "predictions" / "synth.csv",
          "--labels", data / "labels.csv", "--folds", folds)

    # verify-identities writes no data files; reruns must at least agree on
    # the verdict
    results = tmp_path / "reported.csv"
    results.write_text("fold,acc_p,acc_s,score,n\n0,0.340,0.140,0.240,1\n", encoding="utf-8")
    codes = {run("verify-identities", "--results", results) for _ in range(2)}
    assert codes == {EXIT_OK}
    print("\nACCEPTANCE 10 PASS: synth, split, encode-labels, aggregate, "
          "train-mlp, fuse-evaluate and sensitivity reruns are byte-identical")
