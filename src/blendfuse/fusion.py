"""Labeled fusion inputs and settings, weighted late fusion and weight search.

:class:`FusionDataset` holds the labeled videos' encoder rows, truth and
folds, and :class:`CrossValConfig` every fusion setting.  Fused output is
the convex combination p_fused = sum_m w_m * p_m over the encoders'
clip-averaged probability vectors, with the weights constrained to the
probability simplex.  Weights are searched to maximize the mean
validation-fold score after full post-processing: a deterministic
coordinate-ascent move schedule by default, or a true exhaustive simplex
grid for up to three encoders.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import (
    N_EMOTIONS,
    SUM_TOLERANCE,
    EmotionDistribution,
    FoldAssignment,
    LabelTable,
    PredictionTable,
    ValidationError,
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
    point_counts,
    select_thresholds,
    threshold_surface,
)

SIMPLEX_TOLERANCE = 1e-9
# Published weight tables are rounded to 3 decimals; the loader accepts
# sums off by up to this much and renormalizes.
ROUNDING_TOLERANCE = 5e-3

COORDINATE_DELTAS = (0.10, 0.05, 0.02, 0.01)

FUSION_STRATEGIES = ("coordinate_ascent", "exhaustive")

# Grids larger than this would make each fold surface hold millions of
# cells, or the exhaustive weight search score as many candidates.
MAX_GRID_VALUES = 10_001


def grid_units(step: float) -> int:
    """Steps from 0 to 1 of the exhaustive weight grid; ``step`` must divide 1
    evenly, into a three-encoder grid of at most MAX_GRID_VALUES points."""
    # Compared before conversion: an int too large for a float is out of range, too.
    if not 0 < step <= 1:  # also false for NaN
        raise ValidationError(f"exhaustive_step {step!r} must be a number in (0, 1]")
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
        return PostprocessConfig(thresholds, self.neutral_index, self.renormalize_before_beta)


# ---------------------------------------------------------------------------
# Labeled fusion inputs as arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class FusionDataset:
    """Everything weight search, threshold search and cross-validation read,
    loaded once: clip-averaged encoder rows, ground truth and folds of the
    labeled videos, and the fold scores of the candidates scored on them.
    :func:`fuse` gives its fused rows at given weights."""

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
        labels: LabelTable,
        folds: FoldAssignment,
    ) -> "FusionDataset":
        """Clip means of the videos of ``labels`` from every encoder's table.
        Every fold of ``folds`` must hold a labeled video.  A fault in an
        encoder's rows is led by its table's path."""
        if not tables:
            raise ValidationError("need at least one encoder prediction set")
        n = len(labels.video_ids)
        order = np.array(sorted(range(n), key=labels.video_ids.__getitem__), dtype=np.intp)  # by video id
        video_ids = tuple(map(labels.video_ids.__getitem__, order.tolist()))
        by_name = {t.encoder_name: t for t in tables}
        if len(by_name) != len(tables):
            raise ValidationError("duplicate encoder names in prediction sets")
        encoders = tuple(sorted(by_name))
        probs = np.empty((len(encoders), n, N_EMOTIONS))
        for e, name in enumerate(encoders):
            table = by_name[name]
            rows = np.fromiter(map(table.row_of.get, video_ids, itertools.repeat(-1)), np.intp, n)
            if (rows < 0).any():
                missing = video_ids[int(np.argmax(rows < 0))]
                raise ValidationError(f"{table.path}: encoder {name!r} has no prediction for video {missing!r}")
            probs[e] = table.probs[rows]
            # A mean of clip rows near the sum tolerance can drift past it,
            # which average_clips rejects.
            near_limit = np.abs(probs[e].sum(axis=1) - 1.0) > SUM_TOLERANCE / 2
            for v in np.flatnonzero(near_limit).tolist():
                with located(f"{table.path}: encoder {name!r}, video {video_ids[v]!r}"):
                    EmotionDistribution(tuple(probs[e, v].tolist()))
        codes = (labels.primary, labels.secondary, labels.salience)
        return cls(
            encoders,
            video_ids,
            probs,
            TruthArrays.from_codes(*(c[order] for c in codes)),
            tuple(folds.fold_indices()),
            folds.fold_positions(labels.actor_ids)[order],
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


def _check_weight(name: str, w: float) -> float:
    if not math.isfinite(w) or w < 0.0:
        raise ValidationError(f"weight for {name!r} must be finite and >= 0, got {w!r}")
    return w


def validate_simplex(weights: Mapping[str, float], tol: float) -> None:
    """Check non-negativity and sum-to-one within ``tol``."""
    if not weights:
        raise ValidationError("empty weight vector")
    for name, w in weights.items():
        _check_weight(name, w)
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


def fuse(data: FusionDataset, weights: Mapping[str, float]) -> np.ndarray:
    """Fused rows ``(videos, 6)`` of every video of ``data``: the convex
    combination of the encoders' clip-averaged rows, accumulated from 0.0 in
    the order of ``weights``.  An encoder that ``data`` lacks is a
    ValidationError."""
    index = {name: e for e, name in enumerate(data.encoders)}
    fused = np.zeros(data.probs.shape[1:])
    for name, weight in weights.items():
        if name not in index:
            raise ValidationError(f"no prediction set for encoder {name!r}")
        fused += weight * data.probs[index[name]]
    return fused


@dataclass(frozen=True)
class SearchLogEntry:
    step: int  # position in the search log
    candidate_id: str
    objective: float


def _l1_to_uniform(weights: np.ndarray) -> float:
    return float(np.abs(weights - 1.0 / weights.size).sum())


def _simplex_grid(m: int, step: float) -> list[tuple[float, ...]]:
    """All weight vectors with coordinates that are multiples of ``step``,
    in lexicographic order."""
    units = grid_units(step)
    heads = (h for h in itertools.product(range(units + 1), repeat=m - 1) if sum(h) <= units)
    return [tuple(u * step for u in (*h, units - sum(h))) for h in heads]


def optimize_weights(
    data: FusionDataset, cfg: CrossValConfig, held_out: Optional[int] = None
) -> tuple[WeightVector, list[SearchLogEntry]]:
    """Search the weight simplex for the best mean validation-fold score.

    The objective is the mean of :meth:`FusionDataset.fold_scores` over the
    folds of ``data``, all of them or all but the one at position
    ``held_out``; searches on one dataset score each distinct candidate once.
    ``coordinate_ascent`` starts from uniform weights and repeatedly applies
    the best strictly improving mass move between two encoders, annealing
    the move size; ``exhaustive`` scans a full simplex grid of
    ``cfg.exhaustive_step`` (at most three encoders).  Both keep the first
    candidate with the highest objective, ties going to the one closest (L1)
    to uniform, and log every candidate they score.  Both are deterministic.
    """
    names = data.encoders
    m = len(names)
    if held_out is not None and len(data.fold_ids) < 2:
        raise ValidationError(f"fold {data.fold_ids[held_out]} would leave no training data")
    log: list[SearchLogEntry] = []

    def objective(weights: np.ndarray) -> float:
        scores = data.fold_scores(weights, cfg)
        if held_out is not None:
            scores = scores[:held_out] + scores[held_out + 1 :]
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
    data: FusionDataset, cfg: CrossValConfig, held_out: Optional[int] = None
) -> tuple[WeightVector, list[SearchLogEntry], dict[int, ThresholdSurface], ThresholdPair, np.ndarray]:
    """Fusion weights and ``(alpha, beta)`` fitted on the folds of ``data`` but the one
    at position ``held_out``, if given: the weight search, the threshold surface of
    every fitted fold at those weights, the pair ``cfg.threshold_strategy`` selects,
    and the fused rows of every video at those weights."""
    weights, log = optimize_weights(data, cfg, held_out)
    fused = fuse(data, weights.weights)
    surfaces = fold_surfaces(data, fused, cfg)
    if held_out is not None:
        del surfaces[data.fold_ids[held_out]]
    thresholds = select_thresholds(list(surfaces.values()), cfg.threshold_strategy)
    return weights, log, surfaces, thresholds, fused


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

WEIGHTS_HEADER = ["encoder", "weight"]


def save_weights(w: WeightVector, path: str | Path) -> None:
    write_csv_rows(path, WEIGHTS_HEADER, ([name, f"{w.weights[name]:.6f}"] for name in sorted(w.weights)))


def load_weights(path: str | Path, tol: float = ROUNDING_TOLERANCE) -> WeightVector:
    """Read a weights file, accepting rounded sums within ``tol`` and
    renormalizing to an exact simplex."""
    weights: dict[str, float] = {}
    for lineno, row in read_csv_rows(path, WEIGHTS_HEADER):
        if row[0] in weights:
            raise ValidationError(f"{path}:{lineno}: encoder {row[0]!r} is listed twice")
        with located(f"{path}:{lineno}"):
            weights[row[0]] = _check_weight(row[0], float(row[1]))
    with located(path):
        validate_simplex(weights, tol)
    total = math.fsum(weights.values())
    scaled = {name: w / total for name, w in weights.items()}
    residue = 1.0 - math.fsum(scaled.values())
    first = next(iter(sorted(scaled)))
    scaled[first] += residue
    return WeightVector(scaled)


def save_search_log(entries: Sequence[SearchLogEntry], path: str | Path) -> None:
    rows = ([str(e.step), e.candidate_id, repr(e.objective)] for e in entries)
    write_csv_rows(path, ["step", "candidate_id", "objective"], rows)
