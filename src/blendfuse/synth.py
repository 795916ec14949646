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

# The largest actor gap.  Above it, the secondary emotion of a 70/30 clip
# would sink to the level of the leftover mass and leave the top-2.
MAX_ACTOR_GAP = 0.8

# Logit noise is cut at this many standard deviations.  The tight cut gives
# the per-actor top-2 gap distribution a hard, well-populated edge, which
# keeps per-fold optimal thresholds stable when all actors share one gap.
NOISE_TRUNCATION_SIGMAS = 1.0

# Name of the one encoder a synthetic dataset holds.
ENCODER_NAME = "synth"

# The most videos a dataset may hold: 500 times the largest benchmark input.
# generate() keeps about 1 KB per video in memory, so this caps it near 10 GB.
MAX_VIDEOS = 10**7

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
            raise ValidationError(
                f"n_actors and clips_per_actor must be >= 1, got {self.n_actors} and {self.clips_per_actor}"
            )
        if self.n_actors * self.clips_per_actor > MAX_VIDEOS:
            raise ValidationError(
                f"n_actors * clips_per_actor must be at most {MAX_VIDEOS}, "
                f"got {self.n_actors} * {self.clips_per_actor}"
            )
        mix = self.label_mix
        if len(mix) != 3 or not all(0.0 <= m < math.inf for m in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ValidationError(f"label_mix must be three finite non-negative shares summing to 1: {mix!r}")
        lo, hi = self.actor_gap_range
        if not (0.0 < lo <= hi <= MAX_ACTOR_GAP):
            raise ValidationError(
                f"actor_gap_range must satisfy 0 < lo <= hi <= {MAX_ACTOR_GAP}: {self.actor_gap_range!r}"
            )
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
    while n := np.count_nonzero(bad):
        out[bad] = rng.normal(0.0, sigma, n)
        bad = np.abs(out) > bound
    return out


def _probabilities(
    draws: list[tuple[int, int, int]], gaps: np.ndarray, noise: np.ndarray, noise_sigma: float
) -> np.ndarray:
    """The ``(videos, 6)`` probability vectors of the clips ``draws`` whose
    actors have the ``gaps``: each clean vector or, where ``noise_sigma`` times
    the gap is above 0, the softmax of its log plus its row of ``noise``
    (overwritten).  Its temporaries are freed on return, before the caller
    builds a Python object per clip, so they do not raise the heap's peak."""
    # The leftover mass over the other emotions, and the rest split between
    # primary and secondary by the margin, the gap of a 70/30.  A single's
    # primary, written last, overwrites its secondary.
    salience, primary, secondary = np.array(draws).T
    single = salience == 100
    rows = np.arange(len(draws))
    margin = np.where(salience == 70, gaps, 0.0)
    clean = np.repeat(np.where(single, LEFTOVER_MASS / 5, LEFTOVER_MASS / 4)[:, None], len(EMOTIONS), 1)
    clean[rows, secondary] = (1.0 - LEFTOVER_MASS - margin) / 2
    clean[rows, primary] = np.where(single, 1.0 - LEFTOVER_MASS, (1.0 - LEFTOVER_MASS + margin) / 2)
    noise += np.log(clean)
    noise -= noise.max(axis=1, keepdims=True)
    np.exp(noise, out=noise)
    noise /= noise.sum(axis=1, keepdims=True)
    return np.where((noise_sigma * gaps > 0.0)[:, None], noise, clean)


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
    actor_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_actors)
    single_share, even_share = np.cumsum(cfg.label_mix)[:2].tolist()

    # Only the random draws run per clip: the salience (100 single, 50 or
    # 70), the primary and secondary emotions (a single's twice) and the noise.
    draws: list[tuple[int, int, int]] = []
    noise = np.zeros((cfg.n_actors * cfg.clips_per_actor, len(EMOTIONS)))
    for a, gap in enumerate(gaps.tolist()):
        rng = np.random.default_rng(actor_seeds[a])
        sigma = cfg.noise_sigma * gap
        for row in range(a * cfg.clips_per_actor, (a + 1) * cfg.clips_per_actor):
            u = rng.random()
            if u < single_share:
                primary = int(rng.integers(len(EMOTIONS)))
                draws.append((100, primary, primary))
            else:
                salience = 50 if u < even_share else 70
                primary, secondary = _PAIRS[int(rng.integers(len(_PAIRS)))]
                if salience == 70 and rng.random() < 0.5:
                    primary, secondary = secondary, primary
                draws.append((salience, primary, secondary))
            if sigma > 0.0:
                noise[row] = _truncated_normal(rng, len(EMOTIONS), sigma)

    vectors = _probabilities(draws, np.repeat(gaps, cfg.clips_per_actor), noise, cfg.noise_sigma)
    annotation = {  # one per distinct draw, at most 51
        (s, p, q): canonicalize_annotation(Emotion(p), None if s == 100 else Emotion(q), s) for s, p, q in set(draws)
    }
    actor_ids = [f"actor{a:03d}" for a in range(cfg.n_actors)]
    actors = {
        f"{actor_id}_clip{c:03d}": actor_id for actor_id in actor_ids for c in range(cfg.clips_per_actor)
    }
    records = tuple(map(SampleRecord, actors, actors.values(), map(annotation.__getitem__, draws)))
    predictions = EncoderPredictionSet(
        ENCODER_NAME, {vid: (EmotionDistribution(tuple(v.tolist())),) for vid, v in zip(actors, vectors)}, actors
    )
    return SynthDataset(records, predictions, dict(zip(actor_ids, gaps.tolist())))
