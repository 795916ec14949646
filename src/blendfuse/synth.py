"""Seeded synthetic dataset generator for pipeline testing.

Builds an actor population where each actor has a personal expressiveness
gap: the probability margin between the dominant and secondary emotion on
their 70/30 clips.  Clip noise scales with that gap, so expressive actors
also produce blurrier 50/50 blends.  Partitioning such actors into folds
by gap reproduces, at desk scale, the strong fold-to-fold swing of the
optimal salience threshold while the presence threshold stays put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

import numpy as np

from .core import (
    EMOTIONS,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    SampleRecord,
    ValidationError,
    canonicalize_annotation,
)

# Probability mass left for the non-target emotions of a clean clip.
LEFTOVER_MASS = 0.10

# Logit noise is cut at this many standard deviations.  The tight cut gives
# the per-actor top-2 gap distribution a hard, well-populated edge, which
# keeps per-fold optimal thresholds stable when all actors share one gap.
NOISE_TRUNCATION_SIGMAS = 1.0

# Name of the one encoder a synthetic dataset holds.
ENCODER_NAME = "synth"

_PAIRS = tuple(combinations(range(len(EMOTIONS)), 2))


@dataclass(frozen=True)
class SynthConfig:
    n_actors: int = 20
    clips_per_actor: int = 40
    label_mix: tuple[float, float, float] = (0.46, 0.18, 0.36)  # single, 50/50, 70/30
    actor_gap_range: tuple[float, float] = (0.05, 0.45)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_actors < 1 or self.clips_per_actor < 1:
            raise ValidationError("need at least one actor and one clip per actor")
        mix = self.label_mix
        if len(mix) != 3 or not all(0.0 <= m < math.inf for m in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ValidationError(f"label_mix must be three finite non-negative shares summing to 1: {mix!r}")
        lo, hi = self.actor_gap_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValidationError(f"actor_gap_range must satisfy 0 < lo <= hi < 1: {self.actor_gap_range!r}")
        if not 0.0 <= self.noise_sigma < math.inf:  # also false for NaN
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class SynthDataset:
    records: tuple[SampleRecord, ...]
    predictions: EncoderPredictionSet
    actor_gaps: Mapping[str, float] = field(default_factory=dict)


def _truncated_normal(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    """Draws from N(0, sigma > 0) truncated to +/- NOISE_TRUNCATION_SIGMAS * sigma."""
    bound = NOISE_TRUNCATION_SIGMAS * sigma
    out = rng.normal(0.0, sigma, size)
    bad = np.abs(out) > bound
    while np.any(bad):
        out[bad] = rng.normal(0.0, sigma, int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def _clean_vector(kind: str, primary: int, secondary: int | None, gap: float) -> np.ndarray:
    p = np.zeros(len(EMOTIONS))
    if kind == "single":
        p[:] = LEFTOVER_MASS / 5
        p[primary] = 1.0 - LEFTOVER_MASS
        return p
    assert secondary is not None
    p[:] = LEFTOVER_MASS / 4
    if kind == "5050":
        p[primary] = p[secondary] = (1.0 - LEFTOVER_MASS) / 2
    else:  # 70/30
        p[primary] = (1.0 - LEFTOVER_MASS + gap) / 2
        p[secondary] = (1.0 - LEFTOVER_MASS - gap) / 2
    return p


def generate(cfg: SynthConfig) -> SynthDataset:
    """Produce a labeled manifest plus one noisy-but-informative encoder.

    Per actor: draw an expressiveness gap uniformly from
    ``actor_gap_range``; per clip: draw the label kind from ``label_mix``
    and emit a probability vector whose top-2 margin is the actor gap
    (70/30), zero (50/50) or large (single).  With ``noise_sigma`` > 0 the
    log-probabilities are perturbed by a truncated Gaussian whose scale is
    ``noise_sigma`` times the actor gap, then pushed back through softmax.
    Fully deterministic for a fixed seed.
    """
    master = np.random.default_rng(cfg.seed)
    gaps = master.uniform(cfg.actor_gap_range[0], cfg.actor_gap_range[1], cfg.n_actors)
    # Above this, the secondary emotion of a 70/30 clip would sink to the
    # level of the leftover mass and leave the top-2.
    if np.any(gaps > 0.8):
        raise ValidationError("actor gap too large for the leftover probability mass")
    actor_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_actors)

    records: list[SampleRecord] = []
    rows: dict[str, tuple[EmotionDistribution, ...]] = {}
    actors: dict[str, str] = {}
    actor_gaps: dict[str, float] = {}

    cum_mix = np.cumsum(cfg.label_mix)
    salience_of = {"single": 100, "5050": 50, "7030": 70}
    for a in range(cfg.n_actors):
        actor_id = f"actor{a:03d}"
        gap = float(gaps[a])
        actor_gaps[actor_id] = gap
        rng = np.random.default_rng(actor_seeds[a])
        sigma = cfg.noise_sigma * gap
        for c in range(cfg.clips_per_actor):
            video_id = f"{actor_id}_clip{c:03d}"
            u = rng.random()
            if u < cum_mix[0]:
                kind = "single"
                primary = int(rng.integers(len(EMOTIONS)))
                secondary = None
            else:
                kind = "5050" if u < cum_mix[1] else "7030"
                pair = _PAIRS[int(rng.integers(len(_PAIRS)))]
                if kind == "7030" and rng.random() < 0.5:
                    pair = (pair[1], pair[0])
                primary, secondary = pair

            clean = _clean_vector(kind, primary, secondary, gap)
            if sigma > 0.0:
                noise = _truncated_normal(rng, len(EMOTIONS), sigma)
                logits = np.log(clean) + noise
                shifted = np.exp(logits - logits.max())
                vector = shifted / shifted.sum()
            else:
                vector = clean

            annotation = canonicalize_annotation(
                Emotion(primary), None if secondary is None else Emotion(secondary), salience_of[kind]
            )

            records.append(SampleRecord(video_id, actor_id, annotation))
            rows[video_id] = (EmotionDistribution(tuple(float(v) for v in vector)),)
            actors[video_id] = actor_id

    predictions = EncoderPredictionSet(ENCODER_NAME, rows, actors)
    return SynthDataset(tuple(records), predictions, actor_gaps)
