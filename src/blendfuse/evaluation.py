"""Presence/salience metrics, actor-disjoint folds, and cross-validation.

The challenge metric is Score = 0.5 * ACC_P + 0.5 * ACC_S, where ACC_P is
the fraction of clips whose predicted emotion set matches the ground-truth
set and ACC_S the fraction that also matches the salience split exactly
(including the 70/30 direction).  Folds are built per actor so that no
actor appears in both a training and a validation fold.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    N_EMOTIONS,
    SUM_TOLERANCE,
    BlendAnnotation,
    DiscretePrediction,
    EmotionDistribution,
    PredictionTable,
    SampleRecord,
    ValidationError,
    annotations_by_video,
    located,
    read_csv_rows,
    write_csv_rows,
)
from .postprocess import (
    DEFAULT_GRID,
    DEFAULT_THRESHOLDS,
    THRESHOLD_STRATEGIES,
    PostprocessConfig,
    ThresholdPair,
    ThresholdSurface,
    TruthArrays,
    discretize,
    point_counts,
    threshold_surface,
)


@dataclass(frozen=True)
class EvalResult:
    """Presence accuracy, salience accuracy and their combined score."""

    acc_p: float
    acc_s: float
    score: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.acc_s <= self.acc_p <= 1.0:
            raise ValidationError(
                f"accuracies out of order: acc_s={self.acc_s!r}, acc_p={self.acc_p!r}"
            )
        if self.score != 0.5 * (self.acc_p + self.acc_s):
            raise ValidationError(f"score {self.score!r} violates the combination formula")

    @classmethod
    def from_accuracies(cls, acc_p: float, acc_s: float, n: int) -> "EvalResult":
        return cls(acc_p, acc_s, 0.5 * (acc_p + acc_s), n)


def evaluate(
    preds: Mapping[str, DiscretePrediction],
    labels: Mapping[str, BlendAnnotation],
) -> EvalResult:
    """Score a set of discrete predictions against ground truth.

    Every labeled video must have a prediction; extra predictions are
    ignored.
    """
    if not labels:
        raise ValidationError("cannot evaluate against an empty label set")
    count_p = 0
    count_s = 0
    for video_id, truth in labels.items():
        pred = preds.get(video_id)
        if pred is None:
            raise ValidationError(f"missing prediction for labeled video {video_id!r}")
        if pred.emotion_set == truth.emotion_set:
            count_p += 1
            if (
                pred.primary == truth.primary
                and pred.secondary == truth.secondary
                and pred.salience_primary == truth.salience_primary
            ):
                count_s += 1
    n = len(labels)
    return EvalResult.from_accuracies(count_p / n, count_s / n, n)


@dataclass(frozen=True)
class FoldAssignment:
    """Actor-to-fold mapping; actor disjointness is structural."""

    folds: Mapping[str, int]
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValidationError(f"need at least 2 folds, got {self.k}")
        bad = {a: f for a, f in self.folds.items() if not 0 <= f < self.k}
        if bad:
            raise ValidationError(f"fold indices out of range: {bad!r}")

    def fold_of(self, actor_id: str) -> int:
        try:
            return self.folds[actor_id]
        except KeyError:
            raise ValidationError(f"actor {actor_id!r} has no fold assignment") from None

    def fold_indices(self) -> list[int]:
        return sorted(set(self.folds.values()))

    def videos_by_fold(self, records: Sequence[SampleRecord]) -> dict[int, list[str]]:
        """Video ids of ``records`` per fold; every fold must hold one."""
        out: dict[int, list[str]] = {f: [] for f in self.fold_indices()}
        for rec in records:
            out[self.fold_of(rec.actor_id)].append(rec.video_id)
        for f, vids in out.items():
            if not vids:
                raise ValidationError(f"fold {f} holds no labeled videos")
        return out


def split_actors(records: Sequence[SampleRecord], k: int) -> FoldAssignment:
    """Greedy balanced actor-disjoint split.

    Actors are sorted by descending clip count (ties by actor id) and each
    is assigned to the currently lightest fold (ties by fold index).  The
    procedure is fully deterministic.
    """
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.actor_id] = counts.get(rec.actor_id, 0) + 1
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if k > len(counts):
        raise ValidationError(f"cannot make {k} folds from {len(counts)} actors")
    ordered = sorted(counts, key=lambda a: (-counts[a], a))
    loads = [0] * k
    assignment: dict[str, int] = {}
    for actor in ordered:
        fold = min(range(k), key=lambda f: (loads[f], f))
        assignment[actor] = fold
        loads[fold] += counts[actor]
    return FoldAssignment(assignment, k)


# ---------------------------------------------------------------------------
# Labeled fusion inputs as arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class FusionDataset:
    """Everything weight search, threshold search and cross-validation read,
    loaded once: clip-averaged encoder rows, ground truth and folds of the
    labeled videos, and the fold scores of the candidates scored on them.
    :func:`blendfuse.fusion.fuse` gives its fused rows at given weights."""

    encoders: tuple[str, ...]  # sorted
    video_ids: tuple[str, ...]  # sorted
    probs: np.ndarray  # (encoders, videos, 6)
    truth: TruthArrays
    fold_ids: tuple[int, ...]  # every fold, each holding at least one video
    fold_position: np.ndarray  # position in fold_ids of each video's fold
    # fold_scores by (cfg, weight bytes), and how often each was asked for.
    scored: dict = field(default_factory=dict, init=False, repr=False)
    requests: Counter = field(default_factory=Counter, init=False, repr=False)

    @classmethod
    def build(
        cls,
        tables: Sequence[PredictionTable],
        records: Sequence[SampleRecord],
        folds: FoldAssignment,
    ) -> "FusionDataset":
        """Clip means of the labeled ``records`` from every encoder's table.
        Every fold of ``folds`` must hold a labeled video."""
        if not tables:
            raise ValidationError("need at least one encoder prediction set")
        truth = annotations_by_video(records)
        video_ids = sorted(truth)
        by_name = {t.encoder_name: t for t in tables}
        if len(by_name) != len(tables):
            raise ValidationError("duplicate encoder names in prediction sets")
        encoders = tuple(sorted(by_name))
        probs = np.empty((len(encoders), len(video_ids), N_EMOTIONS))
        for e, name in enumerate(encoders):
            row_of = by_name[name].row_of
            rows = [row_of.get(vid, -1) for vid in video_ids]
            if -1 in rows:
                missing = video_ids[rows.index(-1)]
                raise ValidationError(f"encoder {name!r} has no prediction for video {missing!r}")
            probs[e] = by_name[name].probs[rows]
            # A mean of clip rows near the sum tolerance can drift past it,
            # which average_clips rejects.
            near_limit = np.abs(probs[e].sum(axis=1) - 1.0) > SUM_TOLERANCE / 2
            for v in np.flatnonzero(near_limit).tolist():
                try:
                    EmotionDistribution(tuple(probs[e, v].tolist()))
                except ValidationError as exc:
                    raise ValidationError(
                        f"encoder {name!r}, video {video_ids[v]!r}: {exc}"
                    ) from None
        by_fold = folds.videos_by_fold(records)  # in ascending fold order
        position_of = {vid: i for i, vids in enumerate(by_fold.values()) for vid in vids}
        return cls(
            encoders,
            tuple(video_ids),
            probs,
            TruthArrays.from_annotations([truth[vid] for vid in video_ids]),
            tuple(by_fold),
            np.array([position_of[vid] for vid in video_ids], dtype=np.intp),
        )

    def fold_scores(self, weights: np.ndarray, cfg: CrossValConfig) -> tuple[float, ...]:
        """Weight-search score of every fold (``fold_ids`` order) at fused
        ``weights``: its best surface score with ``cfg.joint_threshold_search``,
        else its score at ``cfg.initial_thresholds``.  A fold's score reads its
        own rows only.  Kept per candidate, so each is scored once per dataset."""
        key = (cfg, weights.tobytes())
        self.requests[key] += 1
        if key not in self.scored:
            fused = np.tensordot(weights, self.probs, axes=(0, 0))
            if cfg.joint_threshold_search:
                scores = tuple(s.best_score() for s in fold_surfaces(self, fused, cfg).values())
            else:
                pp_cfg = cfg.postprocess_config(cfg.initial_thresholds)
                cp, cs = point_counts(fused, self.truth, pp_cfg, self.fold_position)
                sizes = np.bincount(self.fold_position)
                scores = tuple((0.5 * (cp / sizes + cs / sizes)).tolist())
            self.scored[key] = scores
        return self.scored[key]


def fold_surfaces(
    data: FusionDataset, fused: np.ndarray, cfg: CrossValConfig
) -> dict[int, ThresholdSurface]:
    """Threshold surface over ``cfg``'s grids of every fold of ``data``, from
    ``fused``, the fused row of each of its videos, in one sweep."""
    pp_cfg = cfg.postprocess_config(cfg.initial_thresholds)
    surfaces = threshold_surface(
        fused, data.truth, cfg.alpha_grid, cfg.beta_grid, pp_cfg, data.fold_position
    )
    return dict(zip(data.fold_ids, surfaces))


# ---------------------------------------------------------------------------
# Cross-validation driver
# ---------------------------------------------------------------------------


FUSION_STRATEGIES = ("coordinate_ascent", "exhaustive")

# Grids larger than this would make each fold surface hold millions of
# cells, or the exhaustive weight search score as many candidates.
MAX_GRID_VALUES = 10_001


def grid_units(step: float) -> int:
    """Steps from 0 to 1 of the exhaustive weight grid; ``step`` must divide 1
    evenly, into a three-encoder grid of at most MAX_GRID_VALUES points."""
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"exhaustive_step {step!r} must be a positive number")
    if (1.0 / step + 1) * (1.0 / step + 2) / 2 > MAX_GRID_VALUES:  # inf when step is tiny
        raise ValidationError(
            f"exhaustive_step {step!r} makes a three-encoder grid of more than {MAX_GRID_VALUES} points"
        )
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9:
        raise ValidationError(f"exhaustive_step {step!r} must divide 1 evenly")
    return units


@dataclass(frozen=True)
class CrossValConfig:
    """Every fusion setting: of the weight search, the threshold selection
    and the post-processing.  Checked on construction; a bad value is a
    :class:`ValidationError` naming its run-config key."""

    fusion_strategy: str = "coordinate_ascent"
    threshold_strategy: str = "per_fold_average"
    initial_thresholds: ThresholdPair = DEFAULT_THRESHOLDS
    alpha_grid: tuple[float, ...] = DEFAULT_GRID
    beta_grid: tuple[float, ...] = DEFAULT_GRID
    neutral_index: Optional[int] = None
    renormalize_before_beta: bool = False
    exhaustive_step: float = 0.05
    joint_threshold_search: bool = False

    def __post_init__(self) -> None:
        if self.fusion_strategy not in FUSION_STRATEGIES:
            raise ValidationError(f"unknown fusion_strategy {self.fusion_strategy!r}")
        if self.threshold_strategy not in THRESHOLD_STRATEGIES:
            raise ValidationError(f"unknown threshold_strategy {self.threshold_strategy!r}")
        grid_units(self.exhaustive_step)
        self.postprocess_config(self.initial_thresholds)  # checks neutral_index

    def postprocess_config(self, thresholds: ThresholdPair) -> PostprocessConfig:
        return PostprocessConfig(
            thresholds=thresholds,
            neutral_index=self.neutral_index,
            renormalize_before_beta=self.renormalize_before_beta,
        )


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    result: EvalResult
    weights: Mapping[str, float]
    thresholds: ThresholdPair
    seconds: float = field(default=0.0, compare=False)  # wall time to fit and score the fold


@dataclass(frozen=True)
class CrossValReport:
    folds: tuple[FoldOutcome, ...]
    mean: EvalResult
    std: tuple[float, float, float]  # population std of (acc_p, acc_s, score)
    pooled: EvalResult


def _population_std(values: Sequence[float]) -> float:
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def cross_validate(
    records: Sequence[SampleRecord],
    data: FusionDataset,
    cfg: CrossValConfig,
) -> CrossValReport:
    """Fit weights and thresholds on k-1 folds, evaluate on the held-out fold.

    Returns per-fold results, their mean and population std, and the pooled
    result over all held-out clips (a clip-weighted average of the folds).
    ``data``, the :class:`FusionDataset` of ``records``, is fitted with each
    fold held out in turn, and the fits share its fold scores.  Each
    held-out video is scored by ``discretize`` on its row of ``fuse`` at the
    fitted weights, and each fold by one :func:`evaluate`.
    """
    from .fusion import fit, fuse

    truth = annotations_by_video(records)
    outcomes = []
    for position, fold in enumerate(data.fold_ids):
        start = time.perf_counter()
        weights, _, _, thresholds = fit(data, cfg, position)
        final_cfg = cfg.postprocess_config(thresholds)
        rows = np.flatnonzero(data.fold_position == position)
        test_ids = [data.video_ids[i] for i in rows.tolist()]
        fused = fuse(data, weights.weights)[rows].tolist()
        test_preds = {
            vid: discretize(EmotionDistribution(tuple(row)), final_cfg) for vid, row in zip(test_ids, fused)
        }
        result = evaluate(test_preds, {vid: truth[vid] for vid in test_ids})
        seconds = time.perf_counter() - start
        outcomes.append(FoldOutcome(fold, result, dict(weights.weights), thresholds, seconds))

    accs_p = [o.result.acc_p for o in outcomes]
    accs_s = [o.result.acc_s for o in outcomes]
    scores = [o.result.score for o in outcomes]
    total_n = sum(o.result.n for o in outcomes)
    mean = EvalResult.from_accuracies(
        sum(accs_p) / len(accs_p), sum(accs_s) / len(accs_s), total_n
    )
    std = (_population_std(accs_p), _population_std(accs_s), _population_std(scores))
    pooled_p = sum(o.result.acc_p * o.result.n for o in outcomes) / total_n
    pooled_s = sum(o.result.acc_s * o.result.n for o in outcomes) / total_n
    pooled = EvalResult.from_accuracies(pooled_p, pooled_s, total_n)
    return CrossValReport(tuple(outcomes), mean, std, pooled)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

FOLDS_HEADER = ["actor_id", "fold"]
RESULTS_HEADER = ["fold", "acc_p", "acc_s", "score", "n"]


def save_folds(assignment: FoldAssignment, path: str | Path) -> None:
    write_csv_rows(path, FOLDS_HEADER, sorted(assignment.folds.items()))  # by actor, which is unique


def load_folds(path: str | Path, actors: Iterable[str] = ()) -> FoldAssignment:
    """The folds file at ``path``.  The first of ``actors`` (those of a labels
    file, say) that it does not list is a ValidationError naming both."""
    folds = {}
    for lineno, row in read_csv_rows(path, FOLDS_HEADER):
        with located(f"{path}:{lineno}"):
            actor, fold = row[0], int(row[1])
        if actor in folds:
            raise ValidationError(f"{path}:{lineno}: actor {actor!r} is listed twice")
        if fold < 0:
            raise ValidationError(f"{path}:{lineno}: fold index must be >= 0, got {fold}")
        folds[actor] = fold
    with located(path):
        assignment = FoldAssignment(folds, max(folds.values(), default=-1) + 1)
    unlisted = next((a for a in actors if a not in folds), None)
    if unlisted is not None:
        raise ValidationError(f"{path}: actor {unlisted!r} has no fold assignment")
    return assignment


def save_results(report: CrossValReport, path: str | Path) -> None:
    """Write the per-fold results table with a trailing mean +/- std summary row."""
    rows = [
        [
            str(o.fold),
            repr(o.result.acc_p),
            repr(o.result.acc_s),
            repr(o.result.score),
            str(o.result.n),
        ]
        for o in report.folds
    ]
    summary = [
        "summary",
        f"{report.mean.acc_p!r}±{report.std[0]!r}",
        f"{report.mean.acc_s!r}±{report.std[1]!r}",
        f"{report.mean.score!r}±{report.std[2]!r}",
        str(report.mean.n),
    ]
    write_csv_rows(path, RESULTS_HEADER, [*rows, summary])
