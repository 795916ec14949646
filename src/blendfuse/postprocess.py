"""Discretization of fused probabilities and threshold calibration.

A continuous 6-dim probability vector becomes a discrete single-or-blend
prediction through four steps: keep the top-2 entries, suppress entries
below the presence threshold alpha, collapse to a single emotion when a
configured neutral class survives, and split salience 50/50 versus 70/30
by comparing the surviving-probability gap against the salience threshold
beta.  The (alpha, beta) operating point is picked by exhaustive grid
search on validation data; three selection strategies combine per-fold
search surfaces into one final pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    N_EMOTIONS,
    BlendAnnotation,
    DiscretePrediction,
    Emotion,
    EmotionDistribution,
    ValidationError,
)

THRESHOLD_STRATEGIES = ("per_fold_average", "decoupled", "best_fold")

# Default search grid 0.00..0.50 in steps of 0.01; i/100 keeps the values
# exactly representable and stable across runs.
DEFAULT_GRID: tuple[float, ...] = tuple(i / 100 for i in range(51))


@dataclass(frozen=True)
class ThresholdPair:
    """The (alpha, beta) operating point of the discretization pipeline."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not np.isfinite(v) or v < 0.0 or v > 1.0:
                raise ValidationError(f"{name} must be a finite value in [0, 1], got {v!r}")


DEFAULT_THRESHOLDS = ThresholdPair(0.1, 0.1)


@dataclass(frozen=True)
class PostprocessConfig:
    """Thresholds plus the optional neutral-class handling.

    ``neutral_index`` marks one of the six classes as neutral, enabling the
    collapse step; leave it None (the default) when the label set has no
    neutral class.  ``renormalize_before_beta`` switches the salience gap to
    the survivor-renormalized probabilities instead of the raw ones.
    """

    thresholds: ThresholdPair = DEFAULT_THRESHOLDS
    neutral_index: Optional[int] = None
    renormalize_before_beta: bool = False

    def __post_init__(self) -> None:
        if self.neutral_index is not None and self.neutral_index not in range(N_EMOTIONS):
            raise ValidationError(f"neutral_index out of range: {self.neutral_index!r}")


def _top2_indices(values: Sequence[float]) -> tuple[int, int]:
    # Two largest entries, ties resolved toward the lower index.
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return order[0], order[1]


def discretize(p: EmotionDistribution, cfg: PostprocessConfig) -> DiscretePrediction:
    """Convert one probability vector into a discrete prediction.

    Steps, in order: top-2 masking, alpha suppression, neutral collapse,
    beta salience split.  A kept entry survives only if it is non-zero and
    at least alpha; if nothing survives, the argmax is emitted as a single
    emotion so a prediction always exists.
    """
    alpha, beta = cfg.thresholds.alpha, cfg.thresholds.beta
    i1, i2 = _top2_indices(p.values)
    kept = {i1: p.values[i1], i2: p.values[i2]}

    survivors = {i: v for i, v in kept.items() if v > 0.0 and v >= alpha}

    if cfg.neutral_index is not None and cfg.neutral_index in survivors:
        others = [i for i in survivors if i != cfg.neutral_index]
        if others:
            return BlendAnnotation(Emotion(others[0]), None, 100)
        return BlendAnnotation(Emotion(cfg.neutral_index), None, 100)

    if len(survivors) == 2:
        p1, p2 = p.values[i1], p.values[i2]
        gap = (p1 - p2) / (p1 + p2) if cfg.renormalize_before_beta else p1 - p2
        if gap <= beta:
            lo, hi = min(i1, i2), max(i1, i2)
            return BlendAnnotation(Emotion(lo), Emotion(hi), 50)
        return BlendAnnotation(Emotion(i1), Emotion(i2), 70)
    if len(survivors) == 1:
        only = next(iter(survivors))
        return BlendAnnotation(Emotion(only), None, 100)
    return BlendAnnotation(p.argmax(), None, 100)


# ---------------------------------------------------------------------------
# Vectorized pipeline for scoring many videos at many thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _VideoPrecompute:
    """Per-video quantities that fully determine the prediction at any
    (alpha, beta): top-2 indices, their probabilities, and the salience gap."""

    i1: np.ndarray
    i2: np.ndarray
    p2: np.ndarray
    gap: np.ndarray
    neutral_top2: np.ndarray  # True where the neutral class is in the top-2
    single_other: np.ndarray  # emitted single when neutral survives in a pair


def _precompute(matrix: np.ndarray, cfg: PostprocessConfig) -> _VideoPrecompute:
    # argmax returns the first maximum, so two passes give the same top-2
    # (ties toward the lower index) as a stable descending sort.
    n = np.arange(matrix.shape[0])
    i1 = np.argmax(matrix, axis=1)
    rest = np.array(matrix, dtype=np.float64)
    rest[n, i1] = -np.inf
    i2 = np.argmax(rest, axis=1)
    p1, p2 = matrix[n, i1], matrix[n, i2]
    if cfg.renormalize_before_beta:
        gap = (p1 - p2) / (p1 + p2)
    else:
        gap = p1 - p2
    if cfg.neutral_index is None:
        neutral_top2 = np.zeros(matrix.shape[0], dtype=bool)
        single_other = i1.copy()
    else:
        is_n1 = i1 == cfg.neutral_index
        is_n2 = i2 == cfg.neutral_index
        neutral_top2 = is_n1 | is_n2
        single_other = np.where(is_n1, i2, i1)
    return _VideoPrecompute(i1, i2, p2, gap, neutral_top2, single_other)


@dataclass(frozen=True)
class TruthArrays:
    """Canonical ground truth of a video set as parallel integer arrays."""

    t1: np.ndarray  # primary emotion
    t2: np.ndarray  # secondary emotion, -1 for a single emotion
    sal: np.ndarray  # salience of the primary: 100, 70 or 50

    @classmethod
    def from_annotations(cls, truths: Sequence[BlendAnnotation]) -> "TruthArrays":
        return cls(
            np.array([t.primary for t in truths], dtype=np.int64),
            np.array([-1 if t.secondary is None else int(t.secondary) for t in truths], dtype=np.int64),
            np.array([t.salience_primary for t in truths], dtype=np.int64),
        )

    def take(self, idx: np.ndarray) -> "TruthArrays":
        return TruthArrays(self.t1[idx], self.t2[idx], self.sal[idx])


@dataclass(frozen=True)
class _OutcomeTable:
    """Presence/salience correctness of every possible discrete outcome of a
    video: single(i1), single(other-than-neutral), 50/50 blend, 70/30 blend.
    A single outcome that matches presence matches salience too."""

    ok_single_i1: np.ndarray
    ok_single_other: np.ndarray
    okp_blend: np.ndarray
    oks_blend50: np.ndarray
    oks_blend70: np.ndarray


def _outcome_table(pre: _VideoPrecompute, truth: TruthArrays) -> _OutcomeTable:
    t1, t2, sal = truth.t1, truth.t2, truth.sal
    truth_single = t2 < 0
    tlo = np.where(truth_single, t1, np.minimum(t1, t2))
    thi = np.where(truth_single, t1, np.maximum(t1, t2))
    plo = np.minimum(pre.i1, pre.i2)
    phi = np.maximum(pre.i1, pre.i2)
    okp_blend = ~truth_single & (tlo == plo) & (thi == phi)
    return _OutcomeTable(
        ok_single_i1=truth_single & (t1 == pre.i1),
        ok_single_other=truth_single & (t1 == pre.single_other),
        okp_blend=okp_blend,
        oks_blend50=okp_blend & (sal == 50),
        # 70/30 credit requires the dominant emotion to match the truth's dominant.
        oks_blend70=~truth_single & (sal == 70) & (t1 == pre.i1) & (t2 == pre.i2),
    )


@dataclass(frozen=True)
class ThresholdSurface:
    """Score/ACC_P/ACC_S over a full (alpha, beta) grid for one video set."""

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    acc_p: np.ndarray
    acc_s: np.ndarray
    score: np.ndarray
    n: int

    def argmax_pair(self) -> ThresholdPair:
        """Grid point with the highest score, ties toward smaller alpha then beta."""
        best = np.unravel_index(int(np.argmax(self.score)), self.score.shape)
        # np.argmax already returns the first (row-major) maximum, which is
        # exactly the smallest-alpha-then-smallest-beta tie rule.
        return ThresholdPair(self.alpha_grid[best[0]], self.beta_grid[best[1]])

    def best_score(self) -> float:
        return float(np.max(self.score))

    def cell(self, ai: int, bi: int) -> tuple[float, float, float]:
        return float(self.acc_p[ai, bi]), float(self.acc_s[ai, bi]), float(self.score[ai, bi])


def _surface_counts(
    matrix: np.ndarray,
    truth: TruthArrays,
    alpha_grid: np.ndarray,
    beta_grid: np.ndarray,
    cfg: PostprocessConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Presence/salience hit counts at every (alpha, beta) grid cell.

    A video's outcome changes only where alpha crosses p2 and where beta
    crosses the gap, so the surface is its "single i1" base count plus
    histograms of outcome deltas over the sorted grid positions of those two
    crossings, swept by cumulative sums (as an ROC curve is built).  The
    grids may be unsorted or hold duplicates: the sweep runs on the sorted
    unique values and its cells are mapped back to grid order.
    """
    pre = _precompute(matrix, cfg)
    table = _outcome_table(pre, truth)
    a_sorted, a_inv = np.unique(alpha_grid, return_inverse=True)
    b_sorted, b_inv = np.unique(beta_grid, return_inverse=True)
    n_a, n_b = a_sorted.size, b_sorted.size

    # Both top-2 entries survive exactly at sorted alpha indices < k.
    k = np.where(pre.p2 > 0.0, np.searchsorted(a_sorted, pre.p2, side="right"), 0)
    # The 50/50 split holds exactly at sorted beta indices >= m.
    m = np.searchsorted(b_sorted, pre.gap, side="left")

    neutral = pre.neutral_top2
    ok_single = table.ok_single_i1.astype(np.int64)
    d_p = np.where(neutral, table.ok_single_other, table.okp_blend) - ok_single
    d_s70 = np.where(neutral, table.ok_single_other, table.oks_blend70) - ok_single
    d_s50 = np.where(neutral, 0, table.oks_blend50.astype(np.int64) - table.oks_blend70)

    def histogram(bins: np.ndarray, delta: np.ndarray, size: int) -> np.ndarray:
        # Deltas are -1, 0 or 1, so the float sums are exact integers.
        return np.bincount(bins, weights=delta, minlength=size).astype(np.int64)

    def above(hist: np.ndarray) -> np.ndarray:
        # Row j sums the histogram over k > j: the videos whose pair survives alpha j.
        return np.cumsum(hist[::-1], axis=0)[::-1][1:]

    p_alpha = above(histogram(k, d_p, n_a + 1))
    s_alpha = above(histogram(k, d_s70, n_a + 1))
    s_50 = histogram(k * (n_b + 1) + m, d_s50, (n_a + 1) * (n_b + 1)).reshape(n_a + 1, n_b + 1)
    s_50 = np.cumsum(above(s_50), axis=1)[:, :n_b]

    count_p = np.broadcast_to(ok_single.sum() + p_alpha[:, None], (n_a, n_b))
    count_s = ok_single.sum() + s_alpha[:, None] + s_50
    return count_p[a_inv][:, b_inv], count_s[a_inv][:, b_inv]


def point_counts(
    matrix: np.ndarray,
    truth: TruthArrays,
    cfg: PostprocessConfig,
) -> tuple[int, int]:
    """Presence/salience hit counts for a stack of fused rows at one
    threshold pair; agrees exactly with per-row :func:`discretize` plus
    counting."""
    alpha, beta = cfg.thresholds.alpha, cfg.thresholds.beta
    pre = _precompute(matrix, cfg)
    table = _outcome_table(pre, truth)
    both = (pre.p2 > 0.0) & (pre.p2 >= alpha)
    is50 = pre.gap <= beta
    blend_s = np.where(is50, table.oks_blend50, table.oks_blend70)
    # Both entries survive as a blend unless one is neutral, which leaves a single.
    blend = both & ~pre.neutral_top2
    single = np.where(both, table.ok_single_other, table.ok_single_i1)
    okp = np.where(blend, table.okp_blend, single)
    oks = np.where(blend, blend_s, single)
    return int(okp.sum()), int(oks.sum())


def threshold_surface(
    matrix: np.ndarray,
    truth: TruthArrays,
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    cfg: PostprocessConfig,
) -> ThresholdSurface:
    """Score surface over the (alpha, beta) grid for a stack of fused rows
    (one per video, in the order of ``truth``)."""
    a = np.asarray(list(alpha_grid), dtype=np.float64)
    b = np.asarray(list(beta_grid), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("threshold grids must be non-empty")
    for grid, name in ((a, "alpha"), (b, "beta")):
        if not np.all((grid >= 0.0) & (grid <= 1.0)):  # also rejects NaN
            raise ValidationError(f"{name} grid values must be finite and lie in [0, 1]")
    count_p, count_s = _surface_counts(matrix, truth, a, b, cfg)
    n = matrix.shape[0]
    acc_p = count_p / n
    acc_s = count_s / n
    score = 0.5 * (acc_p + acc_s)
    return ThresholdSurface(tuple(a.tolist()), tuple(b.tolist()), acc_p, acc_s, score, n)


def search_thresholds(
    fused: Mapping[str, EmotionDistribution],
    labels: Mapping[str, BlendAnnotation],
    alpha_grid: Sequence[float] = DEFAULT_GRID,
    beta_grid: Sequence[float] = DEFAULT_GRID,
    cfg: Optional[PostprocessConfig] = None,
) -> ThresholdSurface:
    """Evaluate every grid point and return the full score surface.

    The returned surface's argmax pair is the selected operating point;
    ties break toward the smaller alpha, then the smaller beta.
    """
    if not labels:
        raise ValidationError("threshold search needs at least one labeled video")
    video_ids = sorted(labels)
    missing = [vid for vid in video_ids if vid not in fused]
    if missing:
        raise ValidationError(f"no fused prediction for videos: {missing[:5]!r}")
    matrix = np.array([fused[vid].values for vid in video_ids], dtype=np.float64)
    truth = TruthArrays.from_annotations([labels[vid] for vid in video_ids])
    return threshold_surface(
        matrix, truth, alpha_grid, beta_grid, cfg if cfg is not None else PostprocessConfig()
    )


def select_thresholds(
    surfaces: Sequence[ThresholdSurface], strategy: str
) -> ThresholdPair:
    """Combine per-fold search surfaces into one operating point.

    Strategies: ``per_fold_average`` takes the mean of the per-fold argmax
    pairs; ``decoupled`` picks alpha by mean presence accuracy (each alpha
    row marginalized over beta by its max), then beta by mean salience
    accuracy at that alpha; ``best_fold`` returns the argmax pair of the
    fold with the highest fold-level score.
    """
    if not surfaces:
        raise ValidationError("need at least one fold surface")
    if strategy not in THRESHOLD_STRATEGIES:
        raise ValidationError(f"unknown threshold strategy {strategy!r}")

    if strategy == "per_fold_average":
        pairs = [s.argmax_pair() for s in surfaces]
        return ThresholdPair(
            sum(p.alpha for p in pairs) / len(pairs),
            sum(p.beta for p in pairs) / len(pairs),
        )

    if strategy == "decoupled":
        first = surfaces[0]
        for s in surfaces[1:]:
            if s.alpha_grid != first.alpha_grid or s.beta_grid != first.beta_grid:
                raise ValidationError("decoupled selection requires identical grids")
        row_max_p = np.mean([s.acc_p.max(axis=1) for s in surfaces], axis=0)
        ai = int(np.argmax(row_max_p))  # first maximum = smallest alpha
        mean_s_at_alpha = np.mean([s.acc_s[ai, :] for s in surfaces], axis=0)
        bi = int(np.argmax(mean_s_at_alpha))
        return ThresholdPair(first.alpha_grid[ai], first.beta_grid[bi])

    best_idx = 0
    best_score = surfaces[0].best_score()
    for i, s in enumerate(surfaces[1:], start=1):
        if s.best_score() > best_score:
            best_idx, best_score = i, s.best_score()
    return surfaces[best_idx].argmax_pair()


def fold_beta_spread(pairs: Sequence[ThresholdPair]) -> dict:
    """Min/max/ratio summary of per-fold optimal betas for the sensitivity report."""
    betas = [p.beta for p in pairs]
    lo, hi = min(betas), max(betas)
    return {
        "beta_min": lo,
        "beta_max": hi,
        "beta_ratio": (hi / lo) if lo > 0 else None,
    }
