"""Layer-selective averaging and segment statistics over frame features.

Turns an externally extracted L x T x D hidden-state tensor into one fixed
length vector per video: average a contiguous layer range, split the frames
into a few contiguous segments, and concatenate per-segment and global
statistics.  The default configuration (3 segments, mean + std per segment,
one global mean) maps D=1024 inputs to 7 * 1024 = 7168 dimensions.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import ValidationError, cached_parse, located, read_csv_rows, write_csv_rows

SEGMENT_STATS = ("segment_mean", "segment_std")
GLOBAL_STATS = ("global_mean", "global_median")

DEFAULT_STATS = ("segment_mean", "segment_std", "global_mean")

_REDUCERS = {
    "segment_mean": np.mean,
    # Population std, so a one-frame segment has std 0.
    "segment_std": np.std,
    "global_mean": np.mean,
    "global_median": np.median,
}


@dataclass(frozen=True)
class FrameFeatureSequence:
    """Per-frame hidden states for one video, shaped layers x frames x dims."""

    video_id: str
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValidationError(f"feature tensor must be 3-d, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"degenerate feature tensor shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"non-finite values in features for {self.video_id!r}")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class AggregationConfig:
    """How to pool a frame-feature sequence into one vector.

    ``stats`` is an ordered list drawn from segment_mean, segment_std,
    global_mean and global_median; per-segment statistics are laid out
    segment-major, followed by the global blocks.  Segments are the pieces
    of ``np.array_split``, so earlier segments take the remainder frames.
    """

    layer_lo: int = 6
    layer_hi: int = 12
    segments: int = 3
    stats: tuple[str, ...] = field(default=DEFAULT_STATS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stats", tuple(self.stats))
        if self.layer_lo < 0 or self.layer_hi < self.layer_lo:
            raise ValidationError(
                f"bad layer range: layer_lo {self.layer_lo}, layer_hi {self.layer_hi} (need 0 <= layer_lo <= layer_hi)"
            )
        if self.segments < 1:
            raise ValidationError(f"segments must be >= 1, got {self.segments}")
        if not self.stats:
            raise ValidationError("stats list must not be empty")
        for stat in self.stats:
            if stat not in _REDUCERS:
                raise ValidationError(f"unknown statistic {stat!r} in stats")

    @property
    def segment_stats(self) -> tuple[str, ...]:
        return tuple(s for s in self.stats if s in SEGMENT_STATS)

    @property
    def global_stats(self) -> tuple[str, ...]:
        return tuple(s for s in self.stats if s in GLOBAL_STATS)

    def output_dim(self, dims: int) -> int:
        return (self.segments * len(self.segment_stats) + len(self.global_stats)) * dims


def average_layers(seq: FrameFeatureSequence, lo: int, hi: int) -> np.ndarray:
    """Elementwise mean over the inclusive layer range, giving a T x D matrix."""
    layers = seq.data.shape[0]
    if lo < 0 or hi < lo or hi >= layers:
        raise ValidationError(f"layer range [{lo}, {hi}] out of bounds for {layers} layers")
    return seq.data[lo : hi + 1].mean(axis=0)


def aggregate_temporal(frames: np.ndarray, cfg: AggregationConfig) -> np.ndarray:
    """Pool a T x D frame matrix into the configured fixed-length vector."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValidationError(f"frame matrix must be 2-d, got shape {frames.shape}")
    if len(frames) < cfg.segments:
        raise ValidationError(
            f"need at least {cfg.segments} frames for {cfg.segments} segments, got {len(frames)}"
        )
    blocks = [
        _REDUCERS[stat](segment, axis=0)
        for segment in np.array_split(frames, cfg.segments)
        for stat in cfg.segment_stats
    ]
    blocks += [_REDUCERS[stat](frames, axis=0) for stat in cfg.global_stats]
    return np.concatenate(blocks)


def aggregate_sequence(seq: FrameFeatureSequence, cfg: AggregationConfig) -> np.ndarray:
    """Layer-average then temporally pool one video's feature sequence."""
    return aggregate_temporal(average_layers(seq, cfg.layer_lo, cfg.layer_hi), cfg)


# ---------------------------------------------------------------------------
# Feature directory format
# ---------------------------------------------------------------------------

MANIFEST_HEADER = ["video_id", "actor_id", "path"]


def save_feature_file(seq: FrameFeatureSequence, directory: str | Path) -> Path:
    """Write one video's features as ``<video_id>.feat`` under a directory."""
    directory = Path(directory)
    path = directory / f"{seq.video_id}.feat"
    layers, frames, dims = seq.data.shape
    lines = [f"layers={layers} frames={frames} dims={dims}"]
    lines += [" ".join(map(repr, row)) for row in seq.data.reshape(-1, dims).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_feature_file(
    path: str | Path, video_id: str | None = None, cache_use: Optional[Counter[str]] = None
) -> FrameFeatureSequence:
    """Read a ``.feat`` file: a ``layers= frames= dims=`` header line, then one
    line of ``dims`` numbers per (layer, frame), layer-major.  Blank lines are
    skipped.  Every fault is a ``ValidationError`` naming the path.  A valid
    file is served from the input cache (``core.cached_parse``, which counts
    the load in ``cache_use``) while its bytes are unchanged."""
    path = Path(path)
    vid = video_id if video_id is not None else path.stem

    def parse(data: bytes) -> tuple[FrameFeatureSequence, dict[str, np.ndarray]]:
        seq = _parse_feature_text(path, vid, data)
        return seq, {"tensor": seq.data}

    return cached_parse(path, parse, partial(_sequence_of_entry, vid), cache_use)


def _sequence_of_entry(video_id: str, arrays: Mapping[str, np.ndarray]) -> FrameFeatureSequence:
    """The sequence that :func:`load_feature_file` stored as ``arrays``."""
    tensor = arrays["tensor"]
    if tensor.dtype != np.float64:
        raise ValueError(f"feature tensor of dtype {tensor.dtype}")
    return FrameFeatureSequence(video_id, tensor)  # checks the shape and finiteness


def _parse_feature_text(path: Path, video_id: str, data: bytes) -> FrameFeatureSequence:
    """The sequence in ``data``, the bytes of the ``.feat`` file ``path``."""
    try:
        # Decoded as path.read_text() decodes, with "\r\n" and "\r" made "\n".
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    # Split on "\n" only, as line iteration does (str.splitlines also breaks
    # on form feeds).
    lines = text.split("\n")
    header = lines[0].strip()
    try:
        fields = dict(part.split("=", 1) for part in header.split())
        layers, frames, dims = (int(fields[k]) for k in ("layers", "frames", "dims"))
    except (KeyError, ValueError):
        layers = frames = dims = 0
    if min(layers, frames, dims) < 1:
        raise ValidationError(f"{path}: bad feature header {header!r}")
    tokens: list[str] = []
    line_numbers: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.split()
        if not row:
            continue
        if len(row) != dims:
            raise ValidationError(f"{path}:{lineno}: expected {dims} values")
        tokens += row
        line_numbers.append(lineno)
    if len(line_numbers) != layers * frames:
        raise ValidationError(
            f"{path}: expected {layers * frames} rows, found {len(line_numbers)}"
        )
    try:
        # Same parser as float(), so the values are bit-identical to it.
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                lineno = line_numbers[k // dims]
                raise ValidationError(f"{path}:{lineno}: not a number: {token!r}") from None
        raise
    with located(path):
        return FrameFeatureSequence(video_id, values.reshape(layers, frames, dims))


def save_feature_manifest(
    entries: Sequence[tuple[str, str, str]], path: str | Path
) -> None:
    """Write the (video_id, actor_id, path) index of a feature directory."""
    write_csv_rows(path, MANIFEST_HEADER, entries)


def load_feature_manifest(path: str | Path, data: Optional[bytes] = None) -> list[tuple[str, str, str]]:
    entries: dict[str, tuple[str, str, str]] = {}
    for lineno, row in read_csv_rows(path, MANIFEST_HEADER, data):
        if row[0] in entries:
            raise ValidationError(f"{path}:{lineno}: video {row[0]!r} is listed twice")
        entries[row[0]] = (row[0], row[1], row[2])
    return list(entries.values())
