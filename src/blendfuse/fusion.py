"""Weighted late fusion of encoder probabilities and weight optimization.

Fused output is the convex combination p_fused = sum_m w_m * p_m over the
encoders' clip-averaged probability vectors, with the weights constrained
to the probability simplex.  Weights are searched to maximize the mean
validation-fold score after full post-processing: a deterministic
coordinate-ascent move schedule by default, or a true exhaustive simplex
grid for up to three encoders.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import (
    EmotionDistribution,
    EncoderPredictionSet,
    PredictionTable,
    ValidationError,
    read_csv_rows,
)
from .evaluation import CrossValConfig, FusionDataset, fold_surfaces, grid_units
from .postprocess import ThresholdPair, ThresholdSurface, point_counts, select_thresholds

SIMPLEX_TOLERANCE = 1e-9
# Published weight tables are rounded to 3 decimals; the loader accepts
# sums off by up to this much and renormalizes.
ROUNDING_TOLERANCE = 5e-3

COORDINATE_DELTAS = (0.10, 0.05, 0.02, 0.01)


def validate_simplex(weights: Mapping[str, float], tol: float) -> None:
    """Check non-negativity and sum-to-one within ``tol``."""
    if not weights:
        raise ValidationError("empty weight vector")
    for name, w in weights.items():
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"weight for {name!r} must be finite and >= 0, got {w!r}")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"weights sum to {total!r}, outside tolerance {tol}")


@dataclass(frozen=True)
class WeightVector:
    """Simplex-constrained encoder weights."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        validate_simplex(self.weights, SIMPLEX_TOLERANCE)
        object.__setattr__(self, "weights", dict(self.weights))

    @classmethod
    def uniform(cls, names: Sequence[str]) -> "WeightVector":
        if not names:
            raise ValidationError("need at least one encoder")
        w = 1.0 / len(names)
        vec = {name: w for name in names}
        # Absorb float residue into the first entry so the sum is exact.
        first = next(iter(sorted(vec)))
        vec[first] += 1.0 - math.fsum(vec.values())
        return cls(vec)

    def __getitem__(self, name: str) -> float:
        return self.weights[name]


def fuse(
    preds: Sequence[EncoderPredictionSet | PredictionTable],
    w: WeightVector,
    video_id: str,
) -> EmotionDistribution:
    """Convex combination of the encoders' clip-averaged rows for one video."""
    by_name = {p.encoder_name: p for p in preds}
    acc = [0.0] * 6
    for name, weight in w.weights.items():
        if name not in by_name:
            raise ValidationError(f"no prediction set for encoder {name!r}")
        dist = by_name[name].distribution_for(video_id)
        for i, v in enumerate(dist.values):
            acc[i] += weight * v
    return EmotionDistribution(tuple(acc))


@dataclass(frozen=True)
class SearchLogEntry:
    step: int  # position in the search log
    candidate_id: str
    objective: float


def _l1_to_uniform(weights: np.ndarray) -> float:
    return float(np.abs(weights - 1.0 / weights.size).sum())


def _simplex_grid(m: int, step: float) -> list[tuple[float, ...]]:
    """All weight vectors with coordinates that are multiples of ``step``."""
    units = grid_units(step)
    points: list[tuple[float, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(tuple((*prefix, remaining)))
            return
        for u in range(remaining + 1):
            rec([*prefix, u], remaining - u, slots - 1)

    rec([], units, m)
    return [tuple(u * step for u in pt) for pt in points]


def optimize_weights(
    data: FusionDataset, cfg: CrossValConfig
) -> tuple[WeightVector, list[SearchLogEntry]]:
    """Search the weight simplex for the best mean validation-fold score.

    The objective fuses every video of ``data``, applies the full
    discretization at ``cfg.initial_thresholds``, and averages the fold
    scores.  With ``cfg.joint_threshold_search`` the thresholds are instead
    re-optimized per fold for every candidate.  ``coordinate_ascent``
    starts from uniform weights and repeatedly applies the best strictly
    improving mass move between two encoders, annealing the move size;
    ``exhaustive`` scans a full simplex grid of ``cfg.exhaustive_step`` (at
    most three encoders).  Both keep the first candidate with the highest
    objective, ties going to the one closest (L1) to uniform, and log every
    candidate they score.  Both strategies are deterministic.
    """
    names = data.encoders
    m = len(names)
    pp_cfg = cfg.postprocess_config(cfg.initial_thresholds)
    sizes = np.bincount(data.fold_position)
    log: list[SearchLogEntry] = []

    def objective(weights: np.ndarray) -> float:
        fused = np.tensordot(weights, data.probs, axes=(0, 0))
        if cfg.joint_threshold_search:
            scores = [surface.best_score() for surface in fold_surfaces(data, fused, cfg).values()]
        else:
            cp, cs = point_counts(fused, data.truth, pp_cfg, data.fold_position)
            scores = (0.5 * (cp / sizes + cs / sizes)).tolist()
        mean = sum(scores) / len(scores)
        if not math.isfinite(mean):
            raise ValidationError(f"objective is not finite: {mean!r}")
        return mean

    def best_of(candidates: Iterable[tuple[str, np.ndarray]]) -> tuple[Optional[np.ndarray], float]:
        """Log every candidate; the first with the highest ``(objective,
        -L1 to uniform)`` and its objective (None and -inf if there is none)."""
        best_key, best = (-math.inf, -math.inf), None
        for cid, weights in candidates:
            obj = objective(weights)
            log.append(SearchLogEntry(len(log), cid, obj))
            key = (obj, -_l1_to_uniform(weights))
            if key > best_key:
                best_key, best = key, weights
        return best, best_key[0]

    uniform = [("uniform", np.full(m, 1.0 / m))]
    if m == 1:
        current, _ = best_of([("single", np.ones(1))])
    elif cfg.fusion_strategy == "exhaustive":
        if m > 3:
            raise ValidationError("exhaustive strategy supports at most 3 encoders")
        grid = _simplex_grid(m, cfg.exhaustive_step)
        current, _ = best_of(uniform + [(f"grid:{i}", np.asarray(pt)) for i, pt in enumerate(grid)])
    else:
        current, current_obj = best_of(uniform)
        for delta in COORDINATE_DELTAS:
            while True:
                move, move_obj = best_of(_moves(current, delta, names))
                if move_obj <= current_obj:
                    break
                current, current_obj = move, move_obj
    return WeightVector(dict(zip(names, current.tolist()))), log


def _moves(current: np.ndarray, delta: float, names: Sequence[str]) -> Iterator[tuple[str, np.ndarray]]:
    """Every move of ``delta`` weight from one encoder to another, in
    schedule order."""
    for i in range(len(names)):
        if current[i] < delta - SIMPLEX_TOLERANCE:
            continue
        for j in range(len(names)):
            if i == j:
                continue
            cand = current.copy()
            cand[i] -= delta
            if cand[i] < 1e-12:
                cand[i] = 0.0
            cand[j] += delta
            yield f"move:{names[i]}->{names[j]}:{delta}", cand


def fit(
    data: FusionDataset, cfg: CrossValConfig
) -> tuple[WeightVector, list[SearchLogEntry], dict[int, ThresholdSurface], ThresholdPair]:
    """Fusion weights and ``(alpha, beta)`` fitted on ``data``: the weight
    search, the threshold surface of every fold at those weights, and the
    pair ``cfg.threshold_strategy`` selects from the surfaces."""
    weights, log = optimize_weights(data, cfg)
    surfaces = fold_surfaces(data, data.fuse(weights.weights), cfg)
    thresholds = select_thresholds(list(surfaces.values()), cfg.threshold_strategy)
    return weights, log, surfaces, thresholds


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

WEIGHTS_HEADER = ["encoder", "weight"]


def save_weights(w: WeightVector, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHTS_HEADER)
        for name in sorted(w.weights):
            writer.writerow([name, f"{w.weights[name]:.6f}"])


def load_weights(path: str | Path, tol: float = ROUNDING_TOLERANCE) -> WeightVector:
    """Read a weights file, accepting rounded sums within ``tol`` and
    renormalizing to an exact simplex."""
    path = Path(path)
    weights: dict[str, float] = {}
    for lineno, row in read_csv_rows(path, WEIGHTS_HEADER):
        if len(row) != len(WEIGHTS_HEADER):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(WEIGHTS_HEADER)} fields, got {len(row)}"
            )
        if row[0] in weights:
            raise ValidationError(f"{path}:{lineno}: encoder {row[0]!r} is listed twice")
        try:
            weights[row[0]] = float(row[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: weight {row[1]!r} is not a number") from None
    validate_simplex(weights, tol)
    total = math.fsum(weights.values())
    scaled = {name: w / total for name, w in weights.items()}
    residue = 1.0 - math.fsum(scaled.values())
    first = next(iter(sorted(scaled)))
    scaled[first] += residue
    return WeightVector(scaled)


def save_search_log(entries: Sequence[SearchLogEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "candidate_id", "objective"])
        for e in entries:
            writer.writerow([str(e.step), e.candidate_id, repr(e.objective)])
