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

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    EMOTIONS,
    N_EMOTIONS,
    BlendAnnotation,
    DiscretePrediction,
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


# The 51 canonical outcomes, each built (and so checked) once: 6 single
# emotions, and the 15 50/50 and 30 70/30 blends of top-2 entries i1, i2 at
# ``6 * i1 + i2`` as in _pair_outcomes (None where i1 == i2).
_SINGLES = tuple(BlendAnnotation(e, None, 100) for e in EMOTIONS)
_HALVES = {(a, b): BlendAnnotation(a, b, 50) for a in EMOTIONS for b in EMOTIONS if a < b}
_BLENDS_50 = tuple(_HALVES.get((min(a, b), max(a, b))) for a in EMOTIONS for b in EMOTIONS)
_BLENDS_70 = tuple(BlendAnnotation(a, b, 70) if a != b else None for a in EMOTIONS for b in EMOTIONS)


def discretize(p: EmotionDistribution, cfg: PostprocessConfig) -> DiscretePrediction:
    """Convert one probability vector into a discrete prediction.

    Steps, in order: top-2 masking, alpha suppression, neutral collapse,
    beta salience split.  A kept entry survives only if it is non-zero and
    at least alpha; if nothing survives, the top entry (the lower index on
    a tie) is emitted as a single emotion so a prediction always exists.
    The result is one shared instance per outcome.
    """
    alpha, beta = cfg.thresholds.alpha, cfg.thresholds.beta
    values = p.values
    # The sort is stable, so ties (-0.0 with 0.0, too) go to the lower index.
    i1, i2 = sorted(range(N_EMOTIONS), key=values.__getitem__, reverse=True)[:2]
    survivors = [i for i in (i1, i2) if values[i] > 0.0 and values[i] >= alpha]

    if cfg.neutral_index in survivors:
        others = [i for i in survivors if i != cfg.neutral_index]
        return _SINGLES[others[0] if others else cfg.neutral_index]

    if len(survivors) == 2:
        p1, p2 = values[i1], values[i2]
        gap = (p1 - p2) / (p1 + p2) if cfg.renormalize_before_beta else p1 - p2
        return (_BLENDS_50 if gap <= beta else _BLENDS_70)[N_EMOTIONS * i1 + i2]
    # i2 survives only along with i1, so a lone survivor is i1.
    return _SINGLES[i1]


# ---------------------------------------------------------------------------
# Vectorized pipeline for scoring many videos at many thresholds
# ---------------------------------------------------------------------------


# Bit of each emotion in a set code, and the lowest set bit (the first
# emotion) of every 6-bit mask.
_BIT = 1 << np.arange(N_EMOTIONS, dtype=np.uint8)
_LOWEST_BIT = np.array([0] + [(c & -c).bit_length() - 1 for c in range(1, 1 << N_EMOTIONS)])


def _outcome_codes(
    first: np.ndarray, second: np.ndarray, salience: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Set and salience codes of outcomes ``(first, second, salience)``,
    ``second`` -1 for a single emotion.  Two outcomes have equal set codes
    exactly when their emotion sets match, and equal salience codes exactly
    when they also match in split and, for 70/30, in direction.  A single
    emotion's salience code is its set code."""
    set_code = _BIT[first] | np.where(second >= 0, _BIT[second], 0)
    blend = np.where(salience == 50, 64 + set_code, 128 + 8 * first + second)
    return set_code, np.where(salience == 100, set_code, blend).astype(np.uint8)


@functools.cache
def _pair_outcomes(neutral_index: Optional[int]) -> tuple[np.ndarray, ...]:
    """Set code and 50/50 and 70/30 salience codes of the outcome when both
    top-2 entries survive alpha, at ``6 * i1 + i2``: the blend, or the single
    non-neutral entry when the other one is neutral.  Built once, read-only."""
    i1, i2 = np.divmod(np.arange(N_EMOTIONS**2), N_EMOTIONS)
    set_code, sal50 = _outcome_codes(i1, i2, np.full(i1.size, 50))
    codes = (set_code, sal50, _outcome_codes(i1, i2, np.full(i1.size, 70))[1])
    if neutral_index is not None:
        collapse = (i1 == neutral_index) | (i2 == neutral_index)
        single = _BIT[np.where(i1 == neutral_index, i2, i1)]
        codes = tuple(np.where(collapse, single, code) for code in codes)
    for code in codes:
        code.flags.writeable = False
    return codes


@dataclass(frozen=True)
class _VideoPrecompute:
    """Per-video quantities that fully determine the prediction at any
    (alpha, beta): the top-2 indices, p2, the salience gap, and the codes of
    the outcomes: single(i1) unless p2 survives alpha, else the pair outcome
    at a 50/50 or a 70/30 split."""

    i1: np.ndarray
    i2: np.ndarray
    p2: np.ndarray
    gap: np.ndarray
    single: np.ndarray  # set and salience code of single(i1)
    pair_set: np.ndarray
    pair_sal50: np.ndarray
    pair_sal70: np.ndarray


def _first_max(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of every column and the first row holding it."""
    top = cols.max(axis=0)
    mask = ((cols == top) * _BIT[:, None]).sum(axis=0, dtype=np.uint8)
    return top, _LOWEST_BIT.take(mask)


def _precompute(matrix: np.ndarray, cfg: PostprocessConfig) -> _VideoPrecompute:
    # Emotion-major copy, so each pass compares six contiguous rows; ties go
    # to the lower index, as in a stable descending sort.
    cols = np.array(matrix.T, dtype=np.float64, order="C")
    p1, i1 = _first_max(cols)
    cols[i1, np.arange(cols.shape[1])] = -np.inf
    p2, i2 = _first_max(cols)
    gap = p1 - p2
    if cfg.renormalize_before_beta:
        # An all-zero row would divide 0 by 0; its p2 is 0, so no count reads its gap.
        gap = np.divide(gap, p1 + p2, out=np.zeros_like(gap), where=p1 > 0.0)
    pair = N_EMOTIONS * i1 + i2
    pair_set, sal50, sal70 = (code[pair] for code in _pair_outcomes(cfg.neutral_index))
    return _VideoPrecompute(i1, i2, p2, gap, _BIT[i1], pair_set, sal50, sal70)


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class TruthArrays:
    """Canonical ground truth of a video set as outcome codes (see
    :func:`_outcome_codes`), computed once and compared per candidate."""

    set_code: np.ndarray
    sal_code: np.ndarray

    @classmethod
    def from_codes(cls, first: Sequence[int], second: Sequence[int], salience: Sequence[int]) -> "TruthArrays":
        """The truth of outcomes ``(first, second, salience)``, ``second`` -1 for a single emotion."""
        return cls(*_outcome_codes(*(np.asarray(a, dtype=np.int64) for a in (first, second, salience))))

    @classmethod
    def from_annotations(cls, truths: Sequence[BlendAnnotation]) -> "TruthArrays":
        return cls.from_codes(
            [t.primary for t in truths],
            [-1 if t.secondary is None else int(t.secondary) for t in truths],
            [t.salience_primary for t in truths],
        )


def _pick(cond: np.ndarray, if_true: np.ndarray, if_false: np.ndarray) -> np.ndarray:
    # np.where for bool arrays; several times faster on irregular conditions.
    return (cond & if_true) | (~cond & if_false)


def _bin_sums(bins: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    # Weights are -1, 0 or 1, so the float sums are exact integers.
    return np.bincount(bins, weights=weights, minlength=size).astype(np.int64)


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
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


def _surface_counts(
    matrix: np.ndarray,
    truth: TruthArrays,
    alpha_grid: np.ndarray,
    beta_grid: np.ndarray,
    cfg: PostprocessConfig,
    fold: np.ndarray,
    n_folds: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Presence/salience hit counts of every fold at every (alpha, beta)
    grid cell, as ``(fold, alpha, beta)`` arrays.

    A video's outcome changes only where alpha crosses p2 and where beta
    crosses the gap, so the surface is its "single i1" base count plus
    histograms of outcome deltas over the sorted grid positions of those two
    crossings, swept by cumulative sums (as an ROC curve is built).  The
    fold is the histograms' leading dimension.  The grids may be unsorted or
    hold duplicates: the sweep runs on the sorted unique values and its
    cells are mapped back to grid order.
    """
    pre = _precompute(matrix, cfg)
    a_sorted, a_inv = np.unique(alpha_grid, return_inverse=True)
    b_sorted, b_inv = np.unique(beta_grid, return_inverse=True)
    n_a, n_b = a_sorted.size, b_sorted.size

    # Both top-2 entries survive exactly at sorted alpha indices < k.
    k = np.where(pre.p2 > 0.0, np.searchsorted(a_sorted, pre.p2, side="right"), 0)
    # The 50/50 split holds exactly at sorted beta indices >= m.
    m = np.searchsorted(b_sorted, pre.gap, side="left")

    ok_single = (truth.set_code == pre.single).view(np.int8)
    ok_s70 = (truth.sal_code == pre.pair_sal70).view(np.int8)
    d_p = (truth.set_code == pre.pair_set).view(np.int8) - ok_single
    d_s50 = (truth.sal_code == pre.pair_sal50).view(np.int8) - ok_s70

    def above(hist: np.ndarray) -> np.ndarray:
        # Row j of a fold sums its histogram over k > j: the videos whose pair survives alpha j.
        return np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:]

    fold_k = fold * (n_a + 1) + k
    shape = (n_folds, n_a + 1)
    p_alpha = above(_bin_sums(fold_k, d_p, n_folds * (n_a + 1)).reshape(shape))
    s_alpha = above(_bin_sums(fold_k, ok_s70 - ok_single, n_folds * (n_a + 1)).reshape(shape))
    s_50 = _bin_sums(fold_k * (n_b + 1) + m, d_s50, n_folds * (n_a + 1) * (n_b + 1))
    s_50 = np.cumsum(above(s_50.reshape(*shape, n_b + 1)), axis=2)[:, :, :n_b]

    base = _bin_sums(fold, ok_single, n_folds)[:, None, None]
    count_p = np.broadcast_to(base + p_alpha[:, :, None], (n_folds, n_a, n_b))
    count_s = base + s_alpha[:, :, None] + s_50
    return count_p[:, a_inv][:, :, b_inv], count_s[:, a_inv][:, :, b_inv]


def point_counts(
    matrix: np.ndarray, truth: TruthArrays, cfg: PostprocessConfig, fold: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Presence/salience hit counts for a stack of fused rows at one
    threshold pair, as two arrays with one entry per fold position, where
    ``fold`` is the position (0, 1, ...) of each row's fold; agrees exactly
    with per-row :func:`discretize` plus counting."""
    alpha, beta = cfg.thresholds.alpha, cfg.thresholds.beta
    pre = _precompute(matrix, cfg)
    both = (pre.p2 > 0.0) & (pre.p2 >= alpha)
    is50 = pre.gap <= beta
    ok_single = truth.set_code == pre.single
    ok_pair_s = _pick(is50, truth.sal_code == pre.pair_sal50, truth.sal_code == pre.pair_sal70)
    okp = _pick(both, truth.set_code == pre.pair_set, ok_single)
    oks = _pick(both, ok_pair_s, ok_single)
    return _bin_sums(fold, okp, 0), _bin_sums(fold, oks, 0)


def threshold_surface(
    matrix: np.ndarray,
    truth: TruthArrays,
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    cfg: PostprocessConfig,
    fold: np.ndarray,
) -> list[ThresholdSurface]:
    """Score surfaces over the (alpha, beta) grid for a stack of fused rows
    (one per video, in the order of ``truth``), one per fold position from
    one sweep, where ``fold`` is the position (0, 1, ...) of each row's fold."""
    a = np.asarray(list(alpha_grid), dtype=np.float64)
    b = np.asarray(list(beta_grid), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("threshold grids must be non-empty")
    for grid, name in ((a, "alpha"), (b, "beta")):
        if not np.all((grid >= 0.0) & (grid <= 1.0)):  # also rejects NaN
            raise ValidationError(f"{name} grid values must be finite and lie in [0, 1]")
    sizes = np.bincount(fold)
    count_p, count_s = _surface_counts(matrix, truth, a, b, cfg, fold, sizes.size)
    acc_p = count_p / sizes[:, None, None]
    acc_s = count_s / sizes[:, None, None]
    score = 0.5 * (acc_p + acc_s)
    grids = tuple(a.tolist()), tuple(b.tolist())
    return [ThresholdSurface(*grids, acc_p[f], acc_s[f], score[f], n) for f, n in enumerate(sizes.tolist())]


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
    pp_cfg = cfg if cfg is not None else PostprocessConfig()
    return threshold_surface(matrix, truth, alpha_grid, beta_grid, pp_cfg, np.zeros(len(video_ids), np.intp))[0]


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

    return max(surfaces, key=ThresholdSurface.best_score).argmax_pair()  # first maximum on ties
