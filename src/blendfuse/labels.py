"""Soft-label targets and the KL training loss.

A blend annotation becomes a probability target that keeps the salience
ratio: a 70/30 blend of anger and fear is encoded as [0.7, 0, 0.3, 0, 0, 0].
Training heads against these targets uses forward KL divergence
KL(target || prediction), whose gradient with respect to pre-softmax logits
is simply softmax(z) - target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import N_EMOTIONS, BlendAnnotation, EmotionDistribution, ValidationError

# Probabilities are clamped to this floor before the log so a saturated
# softmax cannot produce -inf.
PROB_FLOOR = 1e-12

_ALLOWED_SUPPORTS = ((1.0,), (0.3, 0.7), (0.5, 0.5))


@dataclass(frozen=True)
class SoftLabel:
    """Probability target over the six emotions encoding a blend ratio.

    At most two entries are non-zero, and the non-zero entries are one of
    {1.0}, {0.7, 0.3} or {0.5, 0.5}.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != N_EMOTIONS:
            raise ValidationError(f"expected {N_EMOTIONS} values, got {len(vals)}")
        nonzero = tuple(sorted(v for v in vals if v != 0.0))
        if nonzero not in _ALLOWED_SUPPORTS:
            raise ValidationError(f"invalid soft-label support: {nonzero!r}")

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.float64)


def encode_soft_label(annotation: BlendAnnotation) -> SoftLabel:
    """Turn a canonical annotation into its soft-label target."""
    values = [0.0] * N_EMOTIONS
    if annotation.secondary is None:
        values[annotation.primary] = 1.0
    elif annotation.salience_primary == 70:
        values[annotation.primary] = 0.7
        values[annotation.secondary] = 0.3
    else:
        values[annotation.primary] = 0.5
        values[annotation.secondary] = 0.5
    return SoftLabel(tuple(values))


VectorLike = Union[SoftLabel, EmotionDistribution, Sequence[float], np.ndarray]


def _as_vector(x: VectorLike) -> np.ndarray:
    if isinstance(x, (SoftLabel, EmotionDistribution)):
        vec = np.asarray(x.values, dtype=np.float64)
    else:
        vec = np.asarray(x, dtype=np.float64)
    if vec.shape != (N_EMOTIONS,):
        raise ValidationError(f"expected a length-{N_EMOTIONS} vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError("non-finite values in input vector")
    return vec


def kl_loss(target: VectorLike, probs: VectorLike) -> float:
    """Forward KL divergence sum_i y_i * ln(y_i / p_i), with 0 ln 0 = 0."""
    y = _as_vector(target)
    p = np.clip(_as_vector(probs), PROB_FLOOR, 1.0)
    support = y > 0.0
    return float(np.sum(y[support] * np.log(y[support] / p[support])))


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def kl_grad_logits(target: VectorLike, logits: VectorLike) -> np.ndarray:
    """Gradient of kl_loss(target, softmax(logits)) w.r.t. the logits.

    Closed form: softmax(logits) - target.
    """
    y = _as_vector(target)
    z = _as_vector(logits)
    return softmax(z) - y


def mean_kl(targets: np.ndarray, probs: np.ndarray) -> float:
    """Mean forward KL over the rows of two float64 arrays of one shape,
    unchecked: non-finite when an input holds a non-finite value."""
    p = np.clip(probs, PROB_FLOOR, 1.0)
    terms = np.where(targets > 0.0, targets * (np.log(np.maximum(targets, PROB_FLOOR)) - np.log(p)), 0.0)
    return float(np.sum(terms)) / targets.shape[0]


def kl_loss_batch(targets: np.ndarray, probs: np.ndarray) -> float:
    """Mean forward KL over a batch of (target, probability) row pairs."""
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if y.shape != p.shape:
        raise ValidationError(f"shape mismatch: {y.shape} vs {p.shape}")
    loss = mean_kl(y, p)
    if not math.isfinite(loss):
        raise ValidationError("non-finite KL loss")
    return loss
