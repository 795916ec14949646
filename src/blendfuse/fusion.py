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
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    EmotionDistribution,
    EncoderPredictionSet,
    PredictionTable,
    ValidationError,
    read_csv_rows,
)
from .evaluation import CrossValConfig, FusionDataset, fold_surfaces, grid_units
from .postprocess import (
    PostprocessConfig,
    ThresholdPair,
    ThresholdSurface,
    TruthArrays,
    point_counts,
    select_thresholds,
    threshold_surface,
)

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
    step: int
    candidate_id: str
    objective: float
    weights: Mapping[str, float]


@dataclass(frozen=True)
class _ObjectiveContext:
    """Encoder rows and per-fold truth of the search set, for fast candidate
    evaluation."""

    matrices: np.ndarray  # (encoders, videos, 6)
    fold_rows: tuple[np.ndarray, ...]
    fold_truths: tuple[TruthArrays, ...]
    cfg: CrossValConfig
    pp_cfg: PostprocessConfig  # at the initial thresholds

    @classmethod
    def build(cls, data: FusionDataset, cfg: CrossValConfig) -> "_ObjectiveContext":
        fold_rows = tuple(data.fold_rows(f) for f in data.fold_ids)
        return cls(
            data.probs,
            fold_rows,
            tuple(data.truth.take(idx) for idx in fold_rows),
            cfg,
            cfg.postprocess_config(cfg.initial_thresholds),
        )

    def evaluate(self, weights: np.ndarray) -> float:
        fused = np.tensordot(weights, self.matrices, axes=(0, 0))
        scores = []
        for idx, truth in zip(self.fold_rows, self.fold_truths):
            sub = fused[idx]
            if self.cfg.joint_threshold_search:
                surface = threshold_surface(
                    sub, truth, self.cfg.alpha_grid, self.cfg.beta_grid, self.pp_cfg
                )
                scores.append(surface.best_score())
            else:
                cp, cs = point_counts(sub, truth, self.pp_cfg)
                n = len(idx)
                scores.append(0.5 * (cp / n + cs / n))
        objective = sum(scores) / len(scores)
        if not math.isfinite(objective):
            raise ValidationError(f"objective is not finite: {objective!r}")
        return objective


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
    most three encoders).  Ties prefer the candidate closest (L1) to
    uniform.  Both strategies are deterministic.
    """
    ctx = _ObjectiveContext.build(data, cfg)
    names = data.encoders
    m = len(names)
    log: list[SearchLogEntry] = []

    def log_candidate(step: int, cid: str, weights: np.ndarray, obj: float) -> None:
        log.append(SearchLogEntry(step, cid, obj, dict(zip(names, weights.tolist()))))

    if m == 1:
        only = np.array([1.0])
        obj = ctx.evaluate(only)
        log_candidate(0, "single", only, obj)
        return WeightVector({names[0]: 1.0}), log

    if cfg.fusion_strategy == "exhaustive":
        if m > 3:
            raise ValidationError("exhaustive strategy supports at most 3 encoders")
        candidates = [("uniform", np.full(m, 1.0 / m))]
        for i, pt in enumerate(_simplex_grid(m, cfg.exhaustive_step)):
            candidates.append((f"grid:{i}", np.asarray(pt)))
        best_w: Optional[np.ndarray] = None
        best_obj = -math.inf
        best_l1 = math.inf
        for step, (cid, w) in enumerate(candidates):
            obj = ctx.evaluate(w)
            log_candidate(step, cid, w, obj)
            l1 = _l1_to_uniform(w)
            if obj > best_obj or (obj == best_obj and l1 < best_l1):
                best_w, best_obj, best_l1 = w, obj, l1
        assert best_w is not None
        return WeightVector(dict(zip(names, best_w.tolist()))), log

    # coordinate ascent
    current = np.full(m, 1.0 / m)
    current_obj = ctx.evaluate(current)
    log_candidate(0, "uniform", current, current_obj)
    step = 1
    for delta in COORDINATE_DELTAS:
        improved = True
        while improved:
            improved = False
            best_move: Optional[tuple[np.ndarray, float, float, str]] = None
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
                    obj = ctx.evaluate(cand)
                    log_candidate(step, cid, cand, obj)
                    step += 1
                    if obj <= current_obj:
                        continue
                    l1 = _l1_to_uniform(cand)
                    if best_move is None or obj > best_move[1] or (
                        obj == best_move[1] and l1 < best_move[2]
                    ):
                        best_move = (cand, obj, l1, cid)
            if best_move is not None:
                current, current_obj = best_move[0], best_move[1]
                improved = True
    return WeightVector(dict(zip(names, current.tolist()))), log


def fit(
    data: FusionDataset, cfg: CrossValConfig
) -> tuple[WeightVector, list[SearchLogEntry], dict[int, ThresholdSurface], ThresholdPair]:
    """Fusion weights and ``(alpha, beta)`` fitted on ``data``: the weight
    search, the threshold surface of every fold at those weights, and the
    pair ``cfg.threshold_strategy`` selects from the surfaces."""
    weights, log = optimize_weights(data, cfg)
    surfaces = fold_surfaces(data, weights.weights, cfg)
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
