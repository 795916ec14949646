"""Discretization pipeline, threshold surfaces, and selection strategies.

``reference_discretize`` re-implements the four post-processing steps as a
literal, unoptimized enumeration and serves as the oracle for the library
implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendfuse.core import BlendAnnotation, Emotion, EmotionDistribution, ValidationError
from blendfuse.evaluation import evaluate
from blendfuse.postprocess import (
    DEFAULT_GRID,
    PostprocessConfig,
    ThresholdPair,
    ThresholdSurface,
    discretize,
    search_thresholds,
    select_thresholds,
)


def dist(*values):
    return EmotionDistribution(tuple(values))


def reference_discretize(values, alpha, beta, neutral_index=None, renormalize=False):
    """Literal step-by-step reference: top-2 mask, alpha suppression,
    neutral collapse, beta salience split, argmax fallback."""
    values = list(values)
    order = sorted(range(6), key=lambda i: (-values[i], i))
    masked = [0.0] * 6
    for i in order[:2]:
        masked[i] = values[i]
    for i in range(6):
        if masked[i] < alpha:
            masked[i] = 0.0
    survivors = [i for i in range(6) if masked[i] > 0.0]
    if neutral_index is not None and neutral_index in survivors:
        others = [i for i in survivors if i != neutral_index]
        winner = others[0] if others else neutral_index
        return (winner, None, 100)
    if len(survivors) == 2:
        a, b = survivors
        pa, pb = masked[a], masked[b]
        hi, lo = (a, b) if pa >= pb else (b, a)
        gap = abs(pa - pb)
        if renormalize:
            gap = gap / (pa + pb)
        if gap <= beta:
            return (min(a, b), max(a, b), 50)
        return (hi, lo, 70)
    if len(survivors) == 1:
        return (survivors[0], None, 100)
    best = max(range(6), key=lambda i: (values[i], -i))
    return (best, None, 100)


def as_tuple(pred: BlendAnnotation):
    return (
        int(pred.primary),
        None if pred.secondary is None else int(pred.secondary),
        pred.salience_primary,
    )


def random_distribution(rng):
    kind = rng.integers(4)
    if kind == 0:
        raw = rng.dirichlet(np.ones(6))
    elif kind == 1:
        raw = rng.dirichlet(np.ones(6) * 0.3)  # spiky
    elif kind == 2:  # exact ties are common in practice after masking
        raw = np.zeros(6)
        i, j = rng.choice(6, size=2, replace=False)
        raw[i] = raw[j] = 0.4
        raw[(i + 3) % 6] += 0.2
    else:
        raw = np.zeros(6)
        raw[rng.integers(6)] = 1.0
    raw = raw / raw.sum()
    return EmotionDistribution(tuple(float(v) for v in raw))


@st.composite
def edge_cases(draw):
    """A row in sixteenths (so sums and gaps are exact) with ties, signed
    zeros and, often, an alpha equal to one of its entries and a beta equal
    to the raw or renormalized gap of two of them."""
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=5, max_size=5)))
    units = [b - a for a, b in zip([0, *cuts], [*cuts, 16])]
    values = [u / 16 if u or not draw(st.booleans()) else -0.0 for u in units]
    renormalize = draw(st.booleans())
    i, j = draw(st.permutations(range(6)))[:2]
    hi, lo = max(values[i], values[j]), min(values[i], values[j])
    gap = hi - lo
    if renormalize and hi > 0.0:
        gap /= hi + lo
    alpha = draw(st.sampled_from([values[i], values[j], 0.0, 1 / 16, 0.25, 0.5]))
    beta = draw(st.sampled_from([gap, hi - lo, 0.0, 0.125, 0.5, 1.0]))
    neutral = draw(st.none() | st.integers(0, 5))
    return values, alpha, beta, neutral, renormalize


class TestDiscretize:
    def test_handtrace_5050(self):
        p = dist(0.40, 0.05, 0.35, 0.10, 0.05, 0.05)
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.10))
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 50)

    def test_handtrace_alpha_suppression(self):
        p = dist(0.60, 0.05, 0.15, 0.10, 0.05, 0.05)
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.10))
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, None, 100)

    def test_one_hot_any_thresholds(self):
        p = dist(1, 0, 0, 0, 0, 0)
        for alpha in (0.0, 0.2, 0.7, 0.99):
            for beta in (0.0, 0.5, 1.0):
                cfg = PostprocessConfig(ThresholdPair(alpha, beta))
                assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, None, 100)

    def test_handtrace_7030(self):
        p = dist(0.50, 0.30, 0.10, 0.05, 0.03, 0.02)
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.15))
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, Emotion.DISGUST, 70)

    def test_neutral_collapse_pair(self):
        p = dist(0.45, 0.40, 0.05, 0.05, 0.03, 0.02)
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.5), neutral_index=0)
        assert discretize(p, cfg) == BlendAnnotation(Emotion.DISGUST, None, 100)

    def test_neutral_alone(self):
        p = dist(0.80, 0.10, 0.04, 0.03, 0.02, 0.01)
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.5), neutral_index=0)
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, None, 100)

    def test_zero_survivor_fallback(self):
        p = dist(0.3, 0.25, 0.15, 0.1, 0.1, 0.1)
        cfg = PostprocessConfig(ThresholdPair(0.9, 0.1))
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, None, 100)

    def test_zero_survivor_tie_prefers_lower_index(self):
        p = dist(0.25, 0.25, 0.25, 0.25, 0, 0)
        cfg = PostprocessConfig(ThresholdPair(0.3, 0.1))
        assert discretize(p, cfg) == BlendAnnotation(Emotion.ANGER, None, 100)

    def test_matches_reference_on_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            p = random_distribution(rng)
            alpha = float(rng.choice([0.0, 0.01, 0.1, 0.25, rng.random()]))
            beta = float(rng.choice([0.0, 0.05, 0.2, 1.0, rng.random()]))
            neutral = None if rng.random() < 0.5 else int(rng.integers(6))
            renorm = bool(rng.random() < 0.5)
            cfg = PostprocessConfig(ThresholdPair(alpha, beta), neutral, renorm)
            got = as_tuple(discretize(p, cfg))
            want = reference_discretize(p.values, alpha, beta, neutral, renorm)
            assert got == want, (p.values, alpha, beta, neutral, renorm)

    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(case=edge_cases())
    def test_matches_reference_at_ties_zeros_and_threshold_edges(self, case):
        values, alpha, beta, neutral, renormalize = case
        cfg = PostprocessConfig(ThresholdPair(alpha, beta), neutral, renormalize)
        got = discretize(EmotionDistribution(values), cfg)
        first, second, salience = reference_discretize(values, alpha, beta, neutral, renormalize)
        assert got == BlendAnnotation(Emotion(first), None if second is None else Emotion(second), salience)

    def test_equal_outcomes_share_one_instance(self):
        cfg = PostprocessConfig(ThresholdPair(0.2, 0.1))
        a = discretize(dist(0.40, 0.05, 0.35, 0.10, 0.05, 0.05), cfg)
        b = discretize(dist(0.35, 0.05, 0.40, 0.10, 0.05, 0.05), cfg)
        assert a == BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 50)
        assert a is b

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = random_distribution(rng)
            beta = float(rng.random())
            alphas = sorted(rng.random(4))
            was_single = False
            for alpha in alphas:
                pred = discretize(p, PostprocessConfig(ThresholdPair(alpha, beta)))
                if was_single:
                    assert pred.secondary is None
                was_single = was_single or pred.secondary is None

    def test_beta_one_never_7030(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = random_distribution(rng)
            pred = discretize(p, PostprocessConfig(ThresholdPair(0.0, 1.0)))
            assert pred.salience_primary != 70

    def test_beta_zero_5050_only_on_exact_tie(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = random_distribution(rng)
            pred = discretize(p, PostprocessConfig(ThresholdPair(0.0, 0.0)))
            if pred.salience_primary == 50:
                assert p.values[pred.primary] == p.values[pred.secondary]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(6))
            # distinct entries keep the lower-index tie rule out of play
            if len(set(np.round(raw, 12))) < 6:
                continue
            p = EmotionDistribution(tuple(raw / raw.sum()))
            alpha, beta = float(rng.random() * 0.5), float(rng.random() * 0.5)
            cfg = PostprocessConfig(ThresholdPair(alpha, beta))
            perm = rng.permutation(6)
            permuted = np.empty(6)
            permuted[perm] = raw / raw.sum()
            p2 = EmotionDistribution(tuple(permuted))
            base = discretize(p, cfg)
            mapped = discretize(p2, cfg)
            assert int(mapped.primary) == perm[int(base.primary)] or base.salience_primary == 50
            assert {int(e) for e in mapped.emotion_set} == {
                int(perm[int(e)]) for e in base.emotion_set
            }
            assert mapped.salience_primary == base.salience_primary


def build_labelled_set(rng, n=60):
    """Random fused rows with truths derived by a fixed rule, for surface tests."""
    fused = {}
    labels = {}
    for v in range(n):
        vid = f"v{v:03d}"
        fused[vid] = random_distribution(rng)
        kind = rng.integers(3)
        i = int(rng.integers(6))
        j = int((i + 1 + rng.integers(5)) % 6)
        if kind == 0:
            labels[vid] = BlendAnnotation(Emotion(i), None, 100)
        elif kind == 1:
            labels[vid] = BlendAnnotation(Emotion(min(i, j)), Emotion(max(i, j)), 50)
        else:
            labels[vid] = BlendAnnotation(Emotion(i), Emotion(j), 70)
    return fused, labels


class TestSearchThresholds:
    def test_perfect_onehots_pick_smallest_pair(self):
        fused = {}
        labels = {}
        for i in range(6):
            vid = f"v{i}"
            values = [0.0] * 6
            values[i] = 1.0
            fused[vid] = dist(*values)
            labels[vid] = BlendAnnotation(Emotion(i), None, 100)
        surface = search_thresholds(fused, labels)
        assert np.all(surface.score == 1.0)
        assert surface.argmax_pair() == ThresholdPair(DEFAULT_GRID[0], DEFAULT_GRID[0])

    def test_all_5050_smallest_covering_beta(self):
        fused = {}
        labels = {}
        for k, gap in enumerate((0.02, 0.06, 0.10)):
            vid = f"v{k}"
            values = [0.025] * 6
            values[0] = 0.45 + gap / 2
            values[1] = 0.45 - gap / 2
            fused[vid] = dist(*values)
            labels[vid] = BlendAnnotation(Emotion.ANGER, Emotion.DISGUST, 50)
        surface = search_thresholds(fused, labels)
        best = surface.argmax_pair()
        assert best.beta == pytest.approx(0.10)
        assert best.alpha == 0.0
        assert surface.best_score() == 1.0

    def test_cells_match_single_point_evaluation(self):
        rng = np.random.default_rng(55)
        fused, labels = build_labelled_set(rng)
        surface = search_thresholds(fused, labels)
        for _ in range(10):
            ai = int(rng.integers(len(surface.alpha_grid)))
            bi = int(rng.integers(len(surface.beta_grid)))
            cfg = PostprocessConfig(
                ThresholdPair(surface.alpha_grid[ai], surface.beta_grid[bi])
            )
            preds = {vid: discretize(p, cfg) for vid, p in fused.items()}
            result = evaluate(preds, labels)
            acc_p, acc_s, score = surface.acc_p[ai, bi], surface.acc_s[ai, bi], surface.score[ai, bi]
            assert acc_p == result.acc_p
            assert acc_s == result.acc_s
            assert score == result.score

    def test_cells_match_with_neutral_and_renorm(self):
        rng = np.random.default_rng(77)
        fused, labels = build_labelled_set(rng)
        cfg_base = PostprocessConfig(ThresholdPair(0, 0), neutral_index=2, renormalize_before_beta=True)
        surface = search_thresholds(fused, labels, cfg=cfg_base)
        for _ in range(10):
            ai = int(rng.integers(len(surface.alpha_grid)))
            bi = int(rng.integers(len(surface.beta_grid)))
            cfg = PostprocessConfig(
                ThresholdPair(surface.alpha_grid[ai], surface.beta_grid[bi]),
                neutral_index=2,
                renormalize_before_beta=True,
            )
            preds = {vid: discretize(p, cfg) for vid, p in fused.items()}
            result = evaluate(preds, labels)
            cell = (surface.acc_p[ai, bi], surface.acc_s[ai, bi], surface.score[ai, bi])
            assert cell == (result.acc_p, result.acc_s, result.score)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValidationError):
            search_thresholds({}, {})

    def test_bad_grid_rejected(self):
        fused = {"v": dist(1, 0, 0, 0, 0, 0)}
        labels = {"v": BlendAnnotation(Emotion.ANGER, None, 100)}
        with pytest.raises(ValidationError):
            search_thresholds(fused, labels, alpha_grid=[1.5])
        with pytest.raises(ValidationError):
            search_thresholds(fused, labels, alpha_grid=[])


def make_surface(alpha_grid, beta_grid, score, acc_p=None, acc_s=None, n=10):
    score = np.asarray(score, dtype=float)
    acc_p = score if acc_p is None else np.asarray(acc_p, dtype=float)
    acc_s = score if acc_s is None else np.asarray(acc_s, dtype=float)
    return ThresholdSurface(tuple(alpha_grid), tuple(beta_grid), acc_p, acc_s, score, n)


class TestSelectThresholds:
    def test_single_fold_all_strategies_agree(self):
        rng = np.random.default_rng(3)
        surface = make_surface((0.0, 0.1, 0.2), (0.0, 0.1), rng.random((3, 2)))
        expected = surface.argmax_pair()
        for strategy in ("per_fold_average", "decoupled", "best_fold"):
            got = select_thresholds([surface], strategy)
            if strategy == "decoupled":
                continue  # optimizes marginals, not the joint argmax
            assert got == expected

    def test_per_fold_average_arithmetic(self):
        grid_a, grid_b = (0.10, 0.14), (0.05, 0.43)
        fold1 = make_surface(grid_a, grid_b, [[1.0, 0.0], [0.0, 0.0]])
        fold2 = make_surface(grid_a, grid_b, [[0.0, 0.0], [0.0, 1.0]])
        pair = select_thresholds([fold1, fold2], "per_fold_average")
        assert pair.alpha == pytest.approx(0.12, abs=1e-12)
        assert pair.beta == pytest.approx(0.24, abs=1e-12)

    def test_best_fold_prefers_higher_score(self):
        grid = (0.0, 0.1)
        fold1 = make_surface(grid, grid, [[0.30, 0.0], [0.0, 0.0]])
        fold2 = make_surface(grid, grid, [[0.0, 0.0], [0.0, 0.25]])
        pair = select_thresholds([fold1, fold2], "best_fold")
        assert pair == ThresholdPair(0.0, 0.0)

    def test_best_fold_second_fold_wins(self):
        grid = (0.0, 0.1)
        fold1 = make_surface(grid, grid, [[0.25, 0.0], [0.0, 0.0]])
        fold2 = make_surface(grid, grid, [[0.0, 0.0], [0.0, 0.30]])
        assert select_thresholds([fold1, fold2], "best_fold") == ThresholdPair(0.1, 0.1)

    def test_best_fold_tie_goes_to_earlier_fold(self):
        grid = (0.0, 0.1)
        fold1 = make_surface(grid, grid, [[0.0, 0.0], [0.30, 0.0]])
        fold2 = make_surface(grid, grid, [[0.0, 0.30], [0.0, 0.0]])
        assert select_thresholds([fold1, fold2], "best_fold") == ThresholdPair(0.1, 0.0)
        assert select_thresholds([fold2, fold1], "best_fold") == ThresholdPair(0.0, 0.1)

    def test_decoupled_marginalization(self):
        grid_a, grid_b = (0.0, 0.1), (0.0, 0.1)
        # alpha row maxima: fold means favor alpha=0.1; at that alpha the
        # mean salience accuracy favors beta=0.0
        acc_p1 = [[0.2, 0.1], [0.6, 0.5]]
        acc_s1 = [[0.1, 0.2], [0.5, 0.3]]
        fold1 = make_surface(grid_a, grid_b, acc_p1, acc_p1, acc_s1)
        pair = select_thresholds([fold1], "decoupled")
        assert pair == ThresholdPair(0.1, 0.0)

    def test_decoupled_two_folds_pick_a_pair_neither_fold_picks(self):
        grid = (0.0, 0.1, 0.2)
        # Alone, fold 1 picks (0.0, 0.0) and fold 2 picks (0.2, 0.2).  The
        # fold-mean alpha row maxima (0.5, 0.8, 0.5) pick alpha=0.1, where
        # the fold-mean salience accuracies (0.45, 0.45, 0.5) pick beta=0.2.
        acc_p1 = [[1.0, 0.2, 0.1], [0.8, 0.3, 0.2], [0.0, 0.0, 0.0]]
        acc_s1 = [[0.5, 0.1, 0.0], [0.9, 0.0, 0.5], [0.0, 0.0, 0.0]]
        acc_p2 = [[0.0, 0.0, 0.0], [0.3, 0.8, 0.2], [0.1, 0.2, 1.0]]
        acc_s2 = [[0.0, 0.0, 0.0], [0.0, 0.9, 0.5], [0.0, 0.1, 0.5]]
        fold1 = make_surface(grid, grid, acc_p1, acc_p1, acc_s1)
        fold2 = make_surface(grid, grid, acc_p2, acc_p2, acc_s2)
        assert select_thresholds([fold1], "decoupled") == ThresholdPair(0.0, 0.0)
        assert select_thresholds([fold2], "decoupled") == ThresholdPair(0.2, 0.2)
        assert select_thresholds([fold1, fold2], "decoupled") == ThresholdPair(0.1, 0.2)

    def test_decoupled_rejects_mismatched_grids(self):
        fold1 = make_surface((0.0, 0.1), (0.0, 0.1), [[0.1, 0.2], [0.3, 0.4]])
        for alpha_grid, beta_grid in (((0.0, 0.2), (0.0, 0.1)), ((0.0, 0.1), (0.0, 0.2))):
            fold2 = make_surface(alpha_grid, beta_grid, [[0.1, 0.2], [0.3, 0.4]])
            with pytest.raises(ValidationError, match="^decoupled selection requires identical grids$"):
                select_thresholds([fold1, fold2], "decoupled")

    def test_unknown_strategy_rejected(self):
        surface = make_surface((0.0,), (0.0,), [[1.0]])
        with pytest.raises(ValidationError):
            select_thresholds([surface], "magic")

    def test_single_fold_decoupled_consistency(self):
        # with one fold and score == acc_p == acc_s the decoupled pick also
        # maximizes the joint surface
        score = [[0.1, 0.3], [0.2, 0.25]]
        surface = make_surface((0.0, 0.1), (0.0, 0.1), score)
        pair = select_thresholds([surface], "decoupled")
        assert pair == ThresholdPair(0.0, 0.1)
