"""Post-encoder pipeline for blended-emotion recognition.

Soft-label encoding, classifier heads on precomputed features, weighted
late fusion, threshold-based discretization, presence/salience metrics,
actor-disjoint cross-validation and threshold-sensitivity analysis.
"""

from .core import (
    EMOTIONS,
    BlendAnnotation,
    DiscretePrediction,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    FoldAssignment,
    SampleRecord,
    ValidationError,
    average_clips,
    canonicalize_annotation,
)
from .evaluation import EvalResult, cross_validate, evaluate, split_actors
from .fusion import WeightVector, fuse, optimize_weights
from .labels import SoftLabel, encode_soft_label, kl_grad_logits, kl_loss
from .postprocess import (
    PostprocessConfig,
    ThresholdPair,
    discretize,
    search_thresholds,
    select_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "EMOTIONS",
    "BlendAnnotation",
    "DiscretePrediction",
    "Emotion",
    "EmotionDistribution",
    "EncoderPredictionSet",
    "EvalResult",
    "FoldAssignment",
    "PostprocessConfig",
    "SampleRecord",
    "SoftLabel",
    "ThresholdPair",
    "ValidationError",
    "WeightVector",
    "average_clips",
    "canonicalize_annotation",
    "cross_validate",
    "discretize",
    "encode_soft_label",
    "evaluate",
    "fuse",
    "kl_grad_logits",
    "kl_loss",
    "optimize_weights",
    "search_thresholds",
    "select_thresholds",
    "split_actors",
]
