"""Late fusion, simplex weights, and the weight search strategies."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_util import (
    LADDER_THRESHOLDS,
    exact_oracle_fixture,
    independent_objective,
    ladder_fixture,
    uniform_encoder,
)
from oracles import fuse_video, label_table, prediction_tables

from blendfuse.core import (
    BlendAnnotation,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    FoldAssignment,
    PredictionTable,
    SampleRecord,
    ValidationError,
)
from blendfuse.fusion import (
    COORDINATE_DELTAS,
    SIMPLEX_TOLERANCE,
    CrossValConfig,
    FusionDataset,
    WeightVector,
    _simplex_grid,
    fuse,
    load_weights,
    optimize_weights,
    save_search_log,
    save_weights,
    validate_simplex,
)
from blendfuse.postprocess import ThresholdPair, TruthArrays, point_counts, threshold_surface

# Reported fusion weights of the two ensemble configurations, rounded to
# three decimals (sums 0.999 and 1.000).
WEIGHTS_9ENC = {
    f"enc{i}": w
    for i, w in enumerate([0.094, 0.170, 0.261, 0.156, 0.050, 0.071, 0.041, 0.092, 0.064])
}
WEIGHTS_12ENC = {
    f"enc{i}": w
    for i, w in enumerate(
        [0.117, 0.111, 0.192, 0.090, 0.110, 0.103, 0.124, 0.079, 0.042, 0.032]
    )
}


def two_video_dataset(rows_by_encoder):
    """The FusionDataset of two labeled videos, v0 and v1, each its own
    actor's and fold's, from ``{encoder: [row of v0, row of v1]}``."""
    records = [SampleRecord(f"v{i}", f"a{i}", BlendAnnotation(Emotion.ANGER, None, 100)) for i in range(2)]
    tables = [
        PredictionTable(Path(f"{name}.csv"), {"v0": 0, "v1": 1}, np.array(rows, dtype=float))
        for name, rows in rows_by_encoder.items()
    ]
    return FusionDataset.build(tables, label_table(records), FoldAssignment({"a0": 0, "a1": 1}, 2))


class TestWeightVector:
    def test_uniform_is_exact_simplex(self):
        for m in (1, 2, 3, 7, 12):
            w = WeightVector.uniform([f"e{i}" for i in range(m)])
            assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            WeightVector({"a": -0.1, "b": 1.1})

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            WeightVector({"a": 0.5, "b": 0.6})

    def test_published_columns_pass_rounding_validator(self):
        validate_simplex(WEIGHTS_9ENC, tol=5e-3)  # sums to 0.999
        validate_simplex(WEIGHTS_12ENC, tol=5e-3)  # sums to 1.000
        with pytest.raises(ValidationError):
            validate_simplex(WEIGHTS_9ENC, tol=5e-4)

    def test_weights_file_roundtrip(self, tmp_path):
        w = WeightVector.uniform(["a", "b", "c"])
        path = tmp_path / "weights.csv"
        save_weights(w, path)
        loaded = load_weights(path)
        for name in w.weights:
            assert loaded[name] == pytest.approx(w[name], abs=1e-6)
        assert sum(loaded.weights.values()) == pytest.approx(1.0, abs=1e-12)


class TestFuse:
    def test_single_encoder_identity(self):
        rows = [[0.4, 0.1, 0.2, 0.1, 0.1, 0.1], [0.0, 0.0, 0.5, 0.5, 0.0, 0.0]]
        assert np.array_equal(fuse(two_video_dataset({"e": rows}), {"e": 1.0}), rows)

    def test_two_one_hots_blend(self):
        data = two_video_dataset({"a": [[1, 0, 0, 0, 0, 0]] * 2, "b": [[0, 1, 0, 0, 0, 0]] * 2})
        assert np.array_equal(fuse(data, {"a": 0.5, "b": 0.5}), [[0.5, 0.5, 0, 0, 0, 0]] * 2)

    def test_convexity_fixed_point(self):
        values = [0.3, 0.2, 0.2, 0.1, 0.1, 0.1]
        data = two_video_dataset({f"e{i}": [values] * 2 for i in range(3)})
        fused = fuse(data, {"e0": 0.6, "e1": 0.3, "e2": 0.1})
        assert np.allclose(fused, [values] * 2, atol=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        rows = {f"e{i}": rng.dirichlet(np.ones(6), size=2) for i in range(4)}
        w = {"e0": 0.1, "e1": 0.2, "e2": 0.3, "e3": 0.4}
        fwd = fuse(two_video_dataset(rows), w)
        rev = fuse(two_video_dataset(dict(reversed(rows.items()))), w)
        assert np.array_equal(fwd, rev)

    def test_missing_video_rejected(self):
        records = [SampleRecord(f"v{i}", f"a{i}", BlendAnnotation(Emotion.ANGER, None, 100)) for i in range(2)]
        table = PredictionTable(Path("e.csv"), {"v0": 0}, np.array([[1.0, 0, 0, 0, 0, 0]]))
        with pytest.raises(ValidationError, match="^e.csv: encoder 'e' has no prediction for video 'v1'$"):
            FusionDataset.build([table], label_table(records), FoldAssignment({"a0": 0, "a1": 1}, 2))

    def test_missing_encoder_rejected(self):
        data = two_video_dataset({"e": [[1, 0, 0, 0, 0, 0]] * 2})
        with pytest.raises(ValidationError, match="^no prediction set for encoder 'other'$"):
            fuse(data, {"other": 1.0})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_fused_rows_match_the_scalar_oracle_bit_for_bit(data):
    m = data.draw(st.integers(1, 5), label="encoders")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = {f"e{i}": rng.dirichlet(np.full(6, 0.5), size=2) for i in range(m)}
    raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m), label="raw weights")
    total = math.fsum(raw)
    simplex = [w / total for w in raw] if total > 0 else [1.0 / m] * m
    order = data.draw(st.permutations(range(m)), label="key order")
    weights = {f"e{i}": simplex[i] for i in order}
    dataset = two_video_dataset(rows)
    sets = [
        EncoderPredictionSet(name, {vid: (EmotionDistribution(tuple(r[v].tolist())),) for v, vid in enumerate(("v0", "v1"))})
        for name, r in rows.items()
    ]
    fused = fuse(dataset, weights)
    for v, vid in enumerate(dataset.video_ids):
        assert tuple(fused[v].tolist()) == fuse_video(sets, weights, vid).values


class TestOptimizeWeights:
    def test_single_encoder_degenerate(self):
        rng = np.random.default_rng(1)
        records, oracle, folds = exact_oracle_fixture(rng)
        w, log = optimize_weights(
            FusionDataset.build(prediction_tables([oracle], records), label_table(records), folds),
            CrossValConfig(initial_thresholds=ThresholdPair(0.1, 0.2)),
        )
        assert w.weights == {"oracle": 1.0}
        assert len(log) == 1

    def test_exact_oracle_exhaustive_recovery(self):
        # singles need w > 0.91 and 70/30 salience needs w > 0.925 at this
        # operating point, so only grid weights 0.95 and 1.0 are perfect;
        # the uniform-closeness tie rule picks 0.95
        rng = np.random.default_rng(2)
        records, oracle, folds = exact_oracle_fixture(rng)
        uni = uniform_encoder("uniform", records)
        thresholds = ThresholdPair(0.015, 0.37)
        w, _ = optimize_weights(
            FusionDataset.build(prediction_tables([oracle, uni], records), label_table(records), folds),
            CrossValConfig(fusion_strategy="exhaustive", initial_thresholds=thresholds),
        )
        assert w["oracle"] >= 0.9
        objective = independent_objective([oracle, uni], records, folds, w, thresholds)
        oracle_alone = independent_objective(
            [oracle, uni], records, folds, WeightVector({"oracle": 1.0, "uniform": 0.0}), thresholds
        )
        assert objective == oracle_alone == 1.0

    def test_exhaustive_matches_independent_reevaluation(self):
        rng = np.random.default_rng(3)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=4, clips_per_actor=6)
        uni = uniform_encoder("uniform", records)
        thresholds = ThresholdPair(0.1, 0.2)
        w, log = optimize_weights(
            FusionDataset.build(prediction_tables([oracle, uni], records), label_table(records), folds),
            CrossValConfig(fusion_strategy="exhaustive", initial_thresholds=thresholds),
        )
        grid_objs = []
        for k in range(21):
            cand = WeightVector({"oracle": k * 0.05, "uniform": 1.0 - k * 0.05})
            grid_objs.append(
                independent_objective([oracle, uni], records, folds, cand, thresholds)
            )
        returned = independent_objective([oracle, uni], records, folds, w, thresholds)
        assert returned == max(grid_objs)

    def test_exhaustive_limited_to_three(self):
        rng = np.random.default_rng(4)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=2, clips_per_actor=3)
        encs = [oracle] + [uniform_encoder(f"u{k}", records) for k in range(3)]
        with pytest.raises(ValidationError):
            optimize_weights(
                data=FusionDataset.build(
                    labels=label_table(records), tables=prediction_tables(encs, records), folds=folds
                ),
                cfg=CrossValConfig(
                    fusion_strategy="exhaustive", initial_thresholds=ThresholdPair(0.1, 0.2)
                ),
            )

    def test_coordinate_ascent_ladder_recovery(self):
        records, preds, folds = ladder_fixture(n_uniform=2)
        w, log = optimize_weights(
            FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
            CrossValConfig(initial_thresholds=LADDER_THRESHOLDS),
        )
        assert w["oracle"] >= 0.9
        obj = independent_objective(preds, records, folds, w, LADDER_THRESHOLDS)
        assert obj == 1.0

    def test_objective_never_below_uniform(self):
        rng = np.random.default_rng(6)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=4, clips_per_actor=6)
        noisy_rows = {}
        for r in records:
            raw = rng.dirichlet(np.ones(6))
            noisy_rows[r.video_id] = (EmotionDistribution(tuple(raw / raw.sum())),)
        noisy = EncoderPredictionSet("noisy", noisy_rows, {r.video_id: r.actor_id for r in records})
        preds = [oracle, noisy]
        thresholds = ThresholdPair(0.1, 0.2)
        uniform_obj = independent_objective(
            preds, records, folds, WeightVector.uniform(["oracle", "noisy"]), thresholds
        )
        for strategy in ("coordinate_ascent", "exhaustive"):
            w, _ = optimize_weights(
                FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
                CrossValConfig(fusion_strategy=strategy, initial_thresholds=thresholds),
            )
            obj = independent_objective(preds, records, folds, w, thresholds)
            assert obj >= uniform_obj

    def test_joint_threshold_search_objective(self):
        # per-candidate threshold re-optimization makes even the uniform mix
        # perfectly separable here, so the tie rule keeps uniform weights
        rng = np.random.default_rng(7)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=4, clips_per_actor=6)
        uni = uniform_encoder("uniform", records)
        w, log = optimize_weights(
            FusionDataset.build(prediction_tables([oracle, uni], records), label_table(records), folds),
            CrossValConfig(
                fusion_strategy="exhaustive", initial_thresholds=ThresholdPair(0.1, 0.2),
                joint_threshold_search=True,
                alpha_grid=(0.0, 0.05, 0.1, 0.2), beta_grid=(0.0, 0.1, 0.2, 0.4),
            ),
        )
        assert max(e.objective for e in log) == 1.0
        assert w["oracle"] == 0.5
        # without re-optimization the same fixed thresholds are imperfect at
        # uniform weights, so the flag demonstrably changes the objective
        _, fixed_log = optimize_weights(
            FusionDataset.build(prediction_tables([oracle, uni], records), label_table(records), folds),
            CrossValConfig(fusion_strategy="exhaustive", initial_thresholds=ThresholdPair(0.1, 0.2)),
        )
        fixed_uniform = next(e.objective for e in fixed_log if e.candidate_id == "uniform")
        joint_uniform = next(e.objective for e in log if e.candidate_id == "uniform")
        assert joint_uniform > fixed_uniform

    def test_returned_vector_is_simplex(self):
        records, preds, folds = ladder_fixture(n_uniform=1)
        w, _ = optimize_weights(
            FusionDataset.build(prediction_tables(preds, records), label_table(records), folds),
            CrossValConfig(initial_thresholds=LADDER_THRESHOLDS),
        )
        validate_simplex(w.weights, tol=1e-9)

    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(8)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=2, clips_per_actor=3)
        with pytest.raises(ValidationError):
            optimize_weights(
                FusionDataset.build(prediction_tables([oracle], records), label_table(records), folds),
                CrossValConfig(fusion_strategy="anneal", initial_thresholds=ThresholdPair(0.1, 0.2)),
            )

    def test_search_log_records_candidates(self, tmp_path):
        rng = np.random.default_rng(9)
        records, oracle, folds = exact_oracle_fixture(rng, n_actors=2, clips_per_actor=3)
        uni = uniform_encoder("uniform", records)
        _, log = optimize_weights(
            FusionDataset.build(prediction_tables([oracle, uni], records), label_table(records), folds),
            CrossValConfig(fusion_strategy="exhaustive", initial_thresholds=ThresholdPair(0.1, 0.2)),
        )
        assert len(log) == 22  # uniform + 21 grid points
        path = tmp_path / "log.csv"
        save_search_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,candidate_id,objective"
        assert len(lines) == 23


def reference_search(data, cfg):
    """The weight search written out on its own: fold rows sliced here, and
    one hand-written tie-break loop per strategy.  Returns the weights and
    the log as (step, candidate id, objective) triples."""
    fold_rows = [np.flatnonzero(data.fold_position == i) for i in range(len(data.fold_ids))]
    fold_truths = [TruthArrays(data.truth.set_code[idx], data.truth.sal_code[idx]) for idx in fold_rows]
    pp_cfg = cfg.postprocess_config(cfg.initial_thresholds)

    def evaluate(weights):
        fused = np.tensordot(weights, data.probs, axes=(0, 0))
        scores = []
        for idx, truth in zip(fold_rows, fold_truths):
            sub, one_fold = fused[idx], np.zeros(len(idx), np.intp)
            if cfg.joint_threshold_search:
                (surface,) = threshold_surface(sub, truth, cfg.alpha_grid, cfg.beta_grid, pp_cfg, one_fold)
                scores.append(surface.best_score())
            else:
                (cp,), (cs,) = point_counts(sub, truth, pp_cfg, one_fold)
                n = len(idx)
                scores.append(0.5 * (cp / n + cs / n))
        return sum(scores) / len(scores)

    def l1_to_uniform(weights):
        return float(np.abs(weights - 1.0 / weights.size).sum())

    names = data.encoders
    m = len(names)
    log = []
    if m == 1:
        log.append((0, "single", evaluate(np.array([1.0]))))
        return {names[0]: 1.0}, log

    if cfg.fusion_strategy == "exhaustive":
        candidates = [("uniform", np.full(m, 1.0 / m))]
        for i, pt in enumerate(_simplex_grid(m, cfg.exhaustive_step)):
            candidates.append((f"grid:{i}", np.asarray(pt)))
        best_w, best_obj, best_l1 = None, -math.inf, math.inf
        for step, (cid, w) in enumerate(candidates):
            obj = evaluate(w)
            log.append((step, cid, obj))
            l1 = l1_to_uniform(w)
            if obj > best_obj or (obj == best_obj and l1 < best_l1):
                best_w, best_obj, best_l1 = w, obj, l1
        return dict(zip(names, best_w.tolist())), log

    current = np.full(m, 1.0 / m)
    current_obj = evaluate(current)
    log.append((0, "uniform", current_obj))
    step = 1
    for delta in COORDINATE_DELTAS:
        improved = True
        while improved:
            improved = False
            best_move = None
            for i in range(m):
                if current[i] < delta - SIMPLEX_TOLERANCE:
                    continue
                for j in range(m):
                    if i == j:
                        continue
                    cand = current.copy()
                    cand[i] -= delta
                    if cand[i] < 1e-12:
                        cand[i] = 0.0
                    cand[j] += delta
                    cid = f"move:{names[i]}->{names[j]}:{delta}"
                    obj = evaluate(cand)
                    log.append((step, cid, obj))
                    step += 1
                    if obj <= current_obj:
                        continue
                    l1 = l1_to_uniform(cand)
                    if best_move is None or obj > best_move[1] or (
                        obj == best_move[1] and l1 < best_move[2]
                    ):
                        best_move = (cand, obj, l1)
            if best_move is not None:
                current, current_obj = best_move[0], best_move[1]
                improved = True
    return dict(zip(names, current.tolist())), log


def _oracle_and_uniform(n_actors=4, clips_per_actor=6, with_uniform=True):
    records, oracle, folds = exact_oracle_fixture(
        np.random.default_rng(11), n_actors=n_actors, clips_per_actor=clips_per_actor
    )
    preds = [oracle, uniform_encoder("uniform", records)] if with_uniform else [oracle]
    return FusionDataset.build(prediction_tables(preds, records), label_table(records), folds)


JOINT_GRIDS = dict(
    joint_threshold_search=True, alpha_grid=(0.0, 0.05, 0.1, 0.2), beta_grid=(0.0, 0.1, 0.2, 0.4)
)
FIXED = ThresholdPair(0.1, 0.2)

# (case, dataset builder, search settings)
SEARCH_CASES = [
    ("single", lambda: _oracle_and_uniform(with_uniform=False), dict(initial_thresholds=FIXED)),
    ("coordinate_ascent", lambda: FusionDataset.build(*_ladder(1)),
     dict(initial_thresholds=LADDER_THRESHOLDS)),
    ("exhaustive", _oracle_and_uniform,
     dict(fusion_strategy="exhaustive", initial_thresholds=FIXED)),
    ("joint_exhaustive", _oracle_and_uniform,
     dict(fusion_strategy="exhaustive", initial_thresholds=FIXED, **JOINT_GRIDS)),
    ("joint_coordinate_ascent", lambda: FusionDataset.build(*_ladder(1)),
     dict(initial_thresholds=LADDER_THRESHOLDS, **JOINT_GRIDS)),
    ("tied_moves", lambda: FusionDataset.build(*_ladder(2)),
     dict(initial_thresholds=LADDER_THRESHOLDS)),
    ("tied_grid", lambda: FusionDataset.build(*_ladder(2)),
     dict(fusion_strategy="exhaustive", exhaustive_step=0.1, initial_thresholds=LADDER_THRESHOLDS)),
]


def _ladder(n_uniform):
    records, preds, folds = ladder_fixture(n_uniform=n_uniform)
    return prediction_tables(preds, records), label_table(records), folds


class TestSearchMatchesReference:
    """The shared objective and candidate rule reproduce the written-out
    search: the same weights and, entry by entry, the same log."""

    @pytest.mark.parametrize("build, settings", [c[1:] for c in SEARCH_CASES], ids=[c[0] for c in SEARCH_CASES])
    def test_weights_and_log_match(self, build, settings):
        data = build()
        cfg = CrossValConfig(**settings)
        expected_weights, expected_log = reference_search(data, cfg)
        weights, log = optimize_weights(data, cfg)
        assert weights.weights == expected_weights
        assert [(e.step, e.candidate_id, e.objective.hex()) for e in log] == [
            (step, cid, obj.hex()) for step, cid, obj in expected_log
        ]

    def test_tied_moves_case_ties(self):
        # Moving mass from either of two identical encoders scores the same
        # at the same L1 distance, so only the first-candidate rule decides.
        data = FusionDataset.build(*_ladder(2))
        _, log = reference_search(data, CrossValConfig(initial_thresholds=LADDER_THRESHOLDS))
        first_round = {cid: obj for _, cid, obj in log[1:7]}
        assert first_round["move:u0->oracle:0.1"] == first_round["move:u1->oracle:0.1"]
        assert first_round["move:u0->oracle:0.1"] > log[0][2]
