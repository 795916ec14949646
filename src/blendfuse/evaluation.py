"""Presence/salience metrics, actor-disjoint folds, and the CV driver.

The challenge metric is Score = 0.5 * ACC_P + 0.5 * ACC_S, where ACC_P is
the fraction of clips whose predicted emotion set matches the ground-truth
set and ACC_S the fraction that also matches the salience split exactly
(including the 70/30 direction).  Folds are built per actor so that no
actor appears in both a training and a validation fold.  :func:`cross_validate`
reads its data and settings from :mod:`blendfuse.fusion`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    BlendAnnotation,
    DiscretePrediction,
    EmotionDistribution,
    FoldAssignment,
    SampleRecord,
    ValidationError,
    located,
    read_csv_rows,
    write_csv_rows,
)
from .fusion import CrossValConfig, FusionDataset, fit
from .postprocess import ThresholdPair, TruthArrays, discretize


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
# Cross-validation driver
# ---------------------------------------------------------------------------


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


def cross_validate(data: FusionDataset, cfg: CrossValConfig) -> CrossValReport:
    """Fit weights and thresholds on k-1 folds, evaluate on the held-out fold.

    Returns per-fold results, their mean and population std, and the pooled
    result over all held-out clips (a clip-weighted average of the folds).
    ``data`` is fitted with each fold held out in turn, and the fits share its
    fold scores.  Each held-out video is scored by ``discretize`` on its row
    of the fit's fused rows, and a fold's hits are the held-out videos whose
    outcome codes equal those of ``data.truth``.
    """
    outcomes = []
    for position, fold in enumerate(data.fold_ids):
        start = time.perf_counter()
        weights, _, _, thresholds, fused = fit(data, cfg, position)
        final_cfg = cfg.postprocess_config(thresholds)
        rows = np.flatnonzero(data.fold_position == position)
        preds = TruthArrays.from_annotations(
            [discretize(EmotionDistribution(row), final_cfg) for row in fused[rows].tolist()]
        )
        hits_p = int(np.count_nonzero(preds.set_code == data.truth.set_code[rows]))
        hits_s = int(np.count_nonzero(preds.sal_code == data.truth.sal_code[rows]))
        result = EvalResult.from_accuracies(hits_p / rows.size, hits_s / rows.size, rows.size)
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


def load_folds(path: str | Path, actors: Optional[Iterable[str]] = None) -> FoldAssignment:
    """The folds file at ``path``.  Given ``actors`` (those of a labels file,
    say), the first of them that it does not list, or a fold that holds none
    of them, is a ValidationError naming the file."""
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
        if actors is not None:
            assignment.fold_positions(dict.fromkeys(actors))
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
