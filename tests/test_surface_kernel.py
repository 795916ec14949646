"""The vectorized kernels against the scalar oracle, on every cell and fold.

``discretize`` plus ``evaluate`` scores one threshold pair one row at a
time; ``threshold_surface`` scores a whole grid at once by sorting the grids
and sweeping cumulative sums, and ``point_counts`` scores one pair for every
fold in one pass.  The property tests below draw inputs where these are
easiest to get wrong: unsorted and duplicate grid values, grid values equal
to a row's second entry or to its salience gap, zero entries and ties, rows
in any fold order, with and without neutral collapse and gap
renormalization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blendfuse.core import BlendAnnotation, Emotion, EmotionDistribution, ValidationError
from blendfuse.evaluation import evaluate
from blendfuse.fusion import CrossValConfig, FusionDataset, fold_surfaces
from blendfuse.postprocess import (
    PostprocessConfig,
    ThresholdPair,
    TruthArrays,
    _precompute,
    discretize,
    point_counts,
    threshold_surface,
)

# Small integer weights make ties, zero entries and repeated gaps common.
_row_weights = st.lists(st.integers(0, 4), min_size=6, max_size=6).filter(lambda w: sum(w) > 0)


@st.composite
def _truth(draw):
    t1 = draw(st.integers(0, 5))
    salience = draw(st.sampled_from((100, 70, 50)))
    if salience == 100:
        return BlendAnnotation(Emotion(t1), None, 100)
    t2 = draw(st.integers(0, 5).filter(lambda j: j != t1))
    if salience == 50:
        return BlendAnnotation(Emotion(min(t1, t2)), Emotion(max(t1, t2)), 50)
    return BlendAnnotation(Emotion(t1), Emotion(t2), 70)


def _critical_values(rows):
    """Grid candidates at which some row changes outcome: every entry (so
    every p2) and both the raw and the renormalized salience gap."""
    values = {0.0, 1.0}
    for row in rows:
        top = sorted(row, reverse=True)
        values.update(row)
        values.add(top[0] - top[1])
        values.add((top[0] - top[1]) / (top[0] + top[1]))
    return sorted(v for v in values if 0.0 <= v <= 1.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_every_cell_matches_scalar_discretize(data):
    weights = data.draw(st.lists(_row_weights, min_size=1, max_size=8), label="weights")
    rows = [tuple(w / sum(ws) for w in ws) for ws in weights]
    truths = [data.draw(_truth(), label="truth") for _ in rows]
    candidates = _critical_values(rows) + [i / 20 for i in range(21)]
    grid = st.lists(st.sampled_from(candidates), min_size=1, max_size=6)
    alpha_grid = data.draw(grid, label="alpha_grid")
    beta_grid = data.draw(grid, label="beta_grid")
    neutral_index = data.draw(st.none() | st.integers(0, 5), label="neutral_index")
    renormalize = data.draw(st.booleans(), label="renormalize_before_beta")

    cfg = PostprocessConfig(
        ThresholdPair(0.0, 0.0), neutral_index=neutral_index, renormalize_before_beta=renormalize
    )
    (surface,) = threshold_surface(
        np.array(rows, dtype=np.float64),
        TruthArrays.from_annotations(truths),
        alpha_grid,
        beta_grid,
        cfg,
        np.zeros(len(rows), np.intp),
    )
    dists = {f"v{i}": EmotionDistribution(row) for i, row in enumerate(rows)}
    labels = {f"v{i}": truth for i, truth in enumerate(truths)}
    for ai, alpha in enumerate(alpha_grid):
        for bi, beta in enumerate(beta_grid):
            point = PostprocessConfig(
                ThresholdPair(alpha, beta),
                neutral_index=neutral_index,
                renormalize_before_beta=renormalize,
            )
            result = evaluate({vid: discretize(p, point) for vid, p in dists.items()}, labels)
            cell = (surface.acc_p[ai, bi], surface.acc_s[ai, bi], surface.score[ai, bi])
            assert cell == (result.acc_p, result.acc_s, result.score)


def _unchecked(row):
    """``row`` as a distribution without the checks: an all-zero row is none,
    but the kernels take any non-negative matrix, and discretize reads only
    the values."""
    dist = object.__new__(EmotionDistribution)
    object.__setattr__(dist, "values", tuple(row))
    return dist


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_point_counts_match_scalar_discretize_per_fold(data):
    # An all-zero row is drawn on purpose: its renormalized gap would be 0/0.
    row = st.just([0] * 6) | st.lists(st.integers(0, 4), min_size=6, max_size=6)
    weights = data.draw(st.lists(row, min_size=1, max_size=12))
    rows = [tuple(w / sum(ws) if sum(ws) else 0.0 for w in ws) for ws in weights]
    truths = [data.draw(_truth(), label="truth") for _ in rows]
    fold = data.draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)), label="fold")
    candidates = _critical_values([r for r in rows if sum(r)]) + [i / 20 for i in range(21)]
    alpha = data.draw(st.sampled_from(candidates), label="alpha")
    beta = data.draw(st.sampled_from(candidates), label="beta")
    cfg = PostprocessConfig(
        ThresholdPair(alpha, beta),
        neutral_index=data.draw(st.none() | st.integers(0, 5), label="neutral_index"),
        renormalize_before_beta=data.draw(st.booleans(), label="renormalize_before_beta"),
    )

    expected = np.zeros((2, max(fold) + 1), dtype=np.int64)
    for row, truth, f in zip(rows, truths, fold):
        result = evaluate({"v": discretize(_unchecked(row), cfg)}, {"v": truth})
        expected[:, f] += (int(result.acc_p), int(result.acc_s))
    matrix = np.array(rows, dtype=np.float64)
    truth_arrays = TruthArrays.from_annotations(truths)
    per_fold = point_counts(matrix, truth_arrays, cfg, np.array(fold))
    pooled = point_counts(matrix, truth_arrays, cfg, np.zeros(len(rows), np.intp))
    assert [c.tolist() for c in per_fold] == expected.tolist()
    assert [c.tolist() for c in pooled] == expected.sum(axis=1, keepdims=True).tolist()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 300), st.just(6)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
    )
)
def test_top2_matches_stable_descending_sort_at_any_row_count(matrix):
    order = np.argsort(-matrix, axis=1, kind="stable")
    pre = _precompute(matrix, PostprocessConfig())
    np.testing.assert_array_equal(pre.i1, order[:, 0])
    np.testing.assert_array_equal(pre.i2, order[:, 1])
    np.testing.assert_array_equal(pre.p2, matrix[np.arange(len(matrix)), order[:, 1]])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_fold_surfaces_match_per_fold_threshold_surface(data):
    weights = data.draw(st.lists(_row_weights, min_size=3, max_size=12), label="weights")
    rows = np.array([[w / sum(ws) for w in ws] for ws in weights])
    truth = TruthArrays.from_annotations([data.draw(_truth(), label="truth") for _ in rows])
    # Fold ids need not be 0..k-1; every fold holds at least one row.
    fold_ids = data.draw(st.sets(st.integers(0, 6), min_size=1, max_size=3).map(sorted), label="fold_ids")
    fold = data.draw(
        st.lists(st.sampled_from(fold_ids), min_size=len(rows), max_size=len(rows)).filter(
            lambda f: set(f) == set(fold_ids)
        ),
        label="fold",
    )
    candidates = _critical_values(rows.tolist()) + [i / 20 for i in range(21)]
    grid = st.lists(st.sampled_from(candidates), min_size=1, max_size=6).map(tuple)
    cfg = CrossValConfig(
        alpha_grid=data.draw(grid, label="alpha_grid"),
        beta_grid=data.draw(grid, label="beta_grid"),
        neutral_index=data.draw(st.none() | st.integers(0, 5), label="neutral_index"),
        renormalize_before_beta=data.draw(st.booleans(), label="renormalize_before_beta"),
    )
    dataset = FusionDataset(
        ("enc",), tuple(f"v{i}" for i in range(len(rows))), rows[None], truth, tuple(fold_ids),
        np.searchsorted(fold_ids, fold),
    )
    surfaces = fold_surfaces(dataset, rows, cfg)
    assert list(surfaces) == fold_ids
    pp_cfg = cfg.postprocess_config(cfg.initial_thresholds)
    for f, surface in surfaces.items():
        idx = np.flatnonzero(np.array(fold) == f)
        (alone,) = threshold_surface(
            rows[idx], TruthArrays(truth.set_code[idx], truth.sal_code[idx]), cfg.alpha_grid, cfg.beta_grid, pp_cfg, np.zeros(idx.size, np.intp)
        )
        assert (surface.alpha_grid, surface.beta_grid, surface.n) == (alone.alpha_grid, alone.beta_grid, idx.size)
        for name in ("acc_p", "acc_s", "score"):
            np.testing.assert_array_equal(getattr(surface, name), getattr(alone, name))


def test_top2_matches_stable_descending_sort():
    rng = np.random.default_rng(3)
    m = rng.integers(0, 4, size=(500, 6)).astype(np.float64)
    m[:50] = 0.0  # all-zero rows: every entry ties
    m[50:100, 1:] = 0.0  # one non-zero entry, five tied zeros
    order = np.argsort(-m, axis=1, kind="stable")
    pre = _precompute(m, PostprocessConfig())
    np.testing.assert_array_equal(pre.i1, order[:, 0])
    np.testing.assert_array_equal(pre.i2, order[:, 1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("axis", ["alpha", "beta"])
def test_non_finite_grid_value_rejected(bad, axis):
    grids = {"alpha": [0.1, 0.2], "beta": [0.1, 0.2]}
    grids[axis] = [0.1, bad]
    truth = TruthArrays.from_annotations([BlendAnnotation(Emotion.ANGER, None, 100)])
    with pytest.raises(ValidationError, match=f"{axis} grid"):
        threshold_surface(
            np.array([[1.0, 0, 0, 0, 0, 0]]),
            truth,
            grids["alpha"],
            grids["beta"],
            PostprocessConfig(),
            np.zeros(1, np.intp),
        )
