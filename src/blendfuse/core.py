"""Core domain types and file formats for the blended-emotion pipeline.

Everything downstream (soft labels, fusion, thresholding, evaluation) moves
data around as the types defined here: 6-dimensional probability vectors over
the fixed emotion vocabulary, blend annotations with a salience split, and
per-encoder prediction tables keyed by video id.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """Raised when input data violates a documented invariant."""


class Emotion(IntEnum):
    """The six basic emotions, in fixed alphabetical order.

    The integer value doubles as the index into every 6-dim probability
    vector, so anger is component 0 and fear is component 2.
    """

    ANGER = 0
    DISGUST = 1
    FEAR = 2
    HAPPINESS = 3
    SADNESS = 4
    SURPRISE = 5

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Emotion":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValidationError(f"unknown emotion name: {name!r}") from None


EMOTIONS: tuple[Emotion, ...] = tuple(Emotion)
N_EMOTIONS = len(EMOTIONS)

# Sum-to-one tolerances: strict for in-memory construction, looser for file
# ingest where formatting may have truncated digits.  Rows off by more than
# the renormalization tolerance are treated as corrupt.
SUM_TOLERANCE = 1e-6
RENORM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class EmotionDistribution:
    """A probability vector over the six emotions.

    Values must be within [0, 1] and sum to 1 within ``SUM_TOLERANCE``.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != N_EMOTIONS:
            raise ValidationError(f"expected {N_EMOTIONS} probabilities, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v):
                raise ValidationError(f"non-finite probability: {v!r}")
            if v < 0.0 or v > 1.0:
                raise ValidationError(f"probability out of [0, 1]: {v!r}")
        total = math.fsum(vals)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_raw(cls, values: Sequence[float]) -> "EmotionDistribution":
        """Build from parsed file values, renormalizing small formatting drift.

        Rows whose sum is off by at most ``RENORM_TOLERANCE`` are rescaled
        with a warning; anything worse is rejected as corrupt data.
        """
        vals = [float(v) for v in values]
        if len(vals) != N_EMOTIONS:
            raise ValidationError(f"expected {N_EMOTIONS} probabilities, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v):
                raise ValidationError(f"non-finite probability: {v!r}")
            if v < 0.0:
                raise ValidationError(f"negative probability: {v!r}")
        total = math.fsum(vals)
        if abs(total - 1.0) > RENORM_TOLERANCE:
            raise ValidationError(f"probability row sums to {total!r}, beyond repair tolerance")
        if abs(total - 1.0) > SUM_TOLERANCE:
            warnings.warn(
                f"renormalizing probability row with sum {total!r}",
                stacklevel=2,
            )
            vals = [v / total for v in vals]
        return cls(tuple(vals))

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def argmax(self) -> Emotion:
        """Index of the largest entry, ties resolved toward the lower index."""
        best = 0
        for i in range(1, N_EMOTIONS):
            if self.values[i] > self.values[best]:
                best = i
        return Emotion(best)


@dataclass(frozen=True)
class BlendAnnotation:
    """A single or blended emotion label in canonical form.

    Canonical means: a lone emotion carries salience 100 and no secondary;
    a 70/30 blend stores the dominant emotion as primary; a 50/50 blend
    stores the lower-index emotion as primary.  Use
    :func:`canonicalize_annotation` to build one from raw annotation fields.
    """

    primary: Emotion
    secondary: Optional[Emotion] = None
    salience_primary: int = 100

    def __post_init__(self) -> None:
        if self.salience_primary not in (100, 70, 50):
            raise ValidationError(
                f"salience must be one of 100/70/50, got {self.salience_primary}"
            )
        if self.secondary is None:
            if self.salience_primary != 100:
                raise ValidationError("missing secondary emotion for a blend salience")
        else:
            if self.salience_primary == 100:
                raise ValidationError("secondary emotion given for salience 100")
            if self.primary == self.secondary:
                raise ValidationError("primary and secondary emotions must differ")
            if self.salience_primary == 50 and self.primary > self.secondary:
                raise ValidationError("50/50 blends must store the lower-index emotion first")

    @property
    def emotion_set(self) -> frozenset[Emotion]:
        if self.secondary is None:
            return frozenset((self.primary,))
        return frozenset((self.primary, self.secondary))


# Discrete pipeline outputs have exactly the shape and invariants of a
# canonical annotation, so predictions and ground truth compare directly.
DiscretePrediction = BlendAnnotation


def canonicalize_annotation(
    raw_primary: Emotion,
    raw_secondary: Optional[Emotion],
    raw_salience_primary: int,
) -> BlendAnnotation:
    """Normalize raw annotation fields into the canonical representation.

    Accepts the salience values 100, 70, 50 and 30; a 30/70 annotation is
    flipped so the dominant side is stored as primary, and a 50/50 blend is
    reordered so the lower-index emotion comes first.
    """
    salience = int(raw_salience_primary)
    if salience not in (100, 70, 50, 30):
        raise ValidationError(f"salience must be one of 100/70/50/30, got {salience}")
    if salience == 100:
        if raw_secondary is not None:
            raise ValidationError("salience 100 cannot carry a secondary emotion")
        return BlendAnnotation(raw_primary, None, 100)
    if raw_secondary is None:
        raise ValidationError(f"salience {salience} requires a secondary emotion")
    if raw_primary == raw_secondary:
        raise ValidationError("primary and secondary emotions must differ")
    if salience == 30:
        return BlendAnnotation(raw_secondary, raw_primary, 70)
    if salience == 50 and raw_primary > raw_secondary:
        return BlendAnnotation(raw_secondary, raw_primary, 50)
    return BlendAnnotation(raw_primary, raw_secondary, salience)


@dataclass(frozen=True)
class SampleRecord:
    """One clip in a dataset manifest, optionally with its ground truth."""

    video_id: str
    actor_id: str
    annotation: Optional[BlendAnnotation] = None


@dataclass(frozen=True)
class EncoderPredictionSet:
    """Per-encoder table of probability rows keyed by video id.

    ``rows`` maps each video to one or more per-clip distributions (several
    rows mean multi-clip outputs that get averaged at fusion time), and
    ``actors`` records the actor each video belongs to.  Treat both mappings
    as read-only after construction.
    """

    encoder_name: str
    rows: Mapping[str, tuple[EmotionDistribution, ...]]
    actors: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for video_id, clips in self.rows.items():
            if not clips:
                raise ValidationError(f"video {video_id!r} has no prediction rows")

    def video_ids(self) -> list[str]:
        return list(self.rows.keys())

    def distribution_for(self, video_id: str) -> EmotionDistribution:
        """Clip-averaged distribution for one video."""
        clips = self.rows.get(video_id)
        if clips is None:
            raise ValidationError(
                f"encoder {self.encoder_name!r} has no prediction for video {video_id!r}"
            )
        return average_clips(clips)


def average_clips(rows: Sequence[EmotionDistribution]) -> EmotionDistribution:
    """Elementwise mean of per-clip probability rows."""
    if not rows:
        raise ValidationError("cannot average an empty list of distributions")
    n = len(rows)
    summed = [0.0] * N_EMOTIONS
    for row in rows:
        for i, v in enumerate(row.values):
            summed[i] += v
    return EmotionDistribution(tuple(s / n for s in summed))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

PREDICTIONS_HEADER = [
    "video_id",
    "actor_id",
    "p_anger",
    "p_disgust",
    "p_fear",
    "p_happiness",
    "p_sadness",
    "p_surprise",
]

LABELS_HEADER = ["video_id", "actor_id", "emotion_a", "emotion_b", "salience_a"]


def _format_float(x: float) -> str:
    # repr round-trips float64 exactly, which the serialization round-trip
    # guarantees depend on.
    return repr(float(x))


def read_csv_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after ``expected_header``, read one at a time, each
    with the number of the file line it ends on.  An empty file, another
    header, bytes that are not UTF-8, a field over ``csv.field_size_limit()``
    or a path that cannot be read (such as a directory) are a
    :class:`ValidationError` naming ``path``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            if header != expected_header:
                raise ValidationError(
                    f"{path}: bad header {header!r}, expected {expected_header!r}"
                )
            for row in reader:
                if row:
                    yield reader.line_num, row
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


# Characters per block of whole lines: enough to amortise a block's numpy
# calls, few enough that its tokens stay a small part of peak memory.
_BLOCK_CHARS = 1 << 18


class _Doubt(Exception):
    """The block reader cannot vouch for a file; the per-row reader reads it."""


def _field_blocks(path: Path, header: list[str]) -> Iterator[list[str]]:
    """The fields of the non-blank rows after ``header``, flattened, a block
    of whole lines at a time.  Raises :class:`_Doubt` unless every line is
    one that ``csv.reader`` splits at each comma: no quote or NUL (rejected
    before Python 3.11), ``len(header) - 1`` commas and at most
    ``csv.field_size_limit()`` characters."""
    commas, limit = len(header) - 1, csv.field_size_limit()
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline().rstrip("\r\n") != ",".join(header):
                raise _Doubt
            while lines := fh.readlines(_BLOCK_CHARS):
                # Lines end in "\n", "\r\n" or a lone "\r", as csv.reader splits them.
                rows = list(filter(None, map(str.rstrip, lines, repeat("\r\n"))))
                if not rows:
                    continue
                text = ",".join(rows)
                if '"' in text or "\0" in text or max(map(len, rows)) > limit:
                    raise _Doubt
                if set(map(str.count, rows, repeat(","))) != {commas}:
                    raise _Doubt
                yield text.split(",")
    except (OSError, UnicodeDecodeError):
        raise _Doubt from None


def _doubtful_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows that may fail or need :meth:`EmotionDistribution.from_raw`: all
    but those finite, within [0, 1] and summing to 1 well inside
    ``SUM_TOLERANCE`` (np.sum and math.fsum differ by ~1e-16 on six values)."""
    with np.errstate(invalid="ignore"):
        doubtful = ~np.isfinite(matrix).all(axis=1)
        doubtful |= (matrix < 0.0).any(axis=1) | (matrix > 1.0).any(axis=1)
        doubtful |= np.abs(matrix.sum(axis=1) - 1.0) > SUM_TOLERANCE / 2
    return doubtful


def _parse_predictions(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Video id, actor id and probability row of every line of a predictions file.

    Each line passes the checks of :meth:`EmotionDistribution.from_raw`,
    whose renormalized values it keeps, and a video may not be listed under
    two actors.  The first faulty line is reported as ``path:line``.
    """
    try:
        return _parse_prediction_blocks(path)
    except _Doubt:
        return _parse_prediction_rows(path)


def _parse_prediction_blocks(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """:func:`_parse_predictions` of a file of rows valid as they stand, each
    block's numbers parsed by one ``np.array`` call (``float()``'s parser)."""
    width = len(PREDICTIONS_HEADER)
    video_ids: list[str] = []
    actor_ids: list[str] = []
    blocks = [np.empty(0)]
    for fields in _field_blocks(path, PREDICTIONS_HEADER):
        video_ids += fields[0::width]
        actor_ids += fields[1::width]
        del fields[0::width], fields[0::width - 1]  # leaves the probabilities
        try:
            blocks.append(np.array(fields, dtype=np.float64))
        except ValueError:
            raise _Doubt from None
    matrix = np.concatenate(blocks).reshape(-1, N_EMOTIONS)
    actor_of = dict(zip(video_ids, actor_ids))
    if _doubtful_rows(matrix).any() or list(map(actor_of.__getitem__, video_ids)) != actor_ids:
        raise _Doubt
    return video_ids, actor_ids, matrix


def _parse_prediction_rows(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """:func:`_parse_predictions` one row at a time, for any file."""
    video_ids: list[str] = []
    actor_ids: list[str] = []
    values: list[list[float]] = []
    lines: list[int] = []
    actors: dict[str, str] = {}
    line_error: Optional[str] = None
    for lineno, row in read_csv_rows(path, PREDICTIONS_HEADER):
        if len(row) != len(PREDICTIONS_HEADER):
            line_error = f"{path}:{lineno}: expected {len(PREDICTIONS_HEADER)} fields"
            break
        try:
            vals = list(map(float, row[2:]))
        except ValueError as exc:
            line_error = f"{path}:{lineno}: {exc}"
            break
        # The row's values are checked before its actor, as in a per-line read.
        values.append(vals)
        lines.append(lineno)
        video_id, actor_id = row[0], row[1]
        if actors.setdefault(video_id, actor_id) != actor_id:
            line_error = f"{path}:{lineno}: video {video_id!r} listed under two actors"
            break
        video_ids.append(video_id)
        actor_ids.append(actor_id)
    matrix = np.array(values, dtype=np.float64).reshape(len(values), N_EMOTIONS)
    for i in np.flatnonzero(_doubtful_rows(matrix)).tolist():
        try:
            matrix[i] = EmotionDistribution.from_raw(values[i]).values
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lines[i]}: {exc}") from None
    if line_error is not None:
        raise ValidationError(line_error)
    return video_ids, actor_ids, matrix


def load_predictions(path: str | Path, encoder_name: Optional[str] = None) -> EncoderPredictionSet:
    """Read one encoder's predictions file.

    Repeated video ids are collected as multi-clip rows in file order.
    """
    path = Path(path)
    video_ids, actor_ids, matrix = _parse_predictions(path)
    rows: dict[str, list[EmotionDistribution]] = {}
    for video_id, values in zip(video_ids, matrix.tolist()):
        rows.setdefault(video_id, []).append(EmotionDistribution(tuple(values)))
    return EncoderPredictionSet(
        encoder_name=encoder_name if encoder_name is not None else path.stem,
        rows={vid: tuple(clips) for vid, clips in rows.items()},
        actors=dict(zip(video_ids, actor_ids)),
    )


@dataclass(frozen=True)
class PredictionTable:
    """One encoder's predictions file as an array of clip-averaged rows."""

    encoder_name: str
    row_of: Mapping[str, int]  # video id -> row of probs, in first-appearance order
    probs: np.ndarray  # (videos, 6)

    @classmethod
    def from_prediction_set(
        cls, preds: EncoderPredictionSet, video_ids: Iterable[str]
    ) -> "PredictionTable":
        """Clip means of those ``video_ids`` that ``preds`` covers, through
        the scalar :func:`average_clips`."""
        row_of: dict[str, int] = {}
        for vid in video_ids:
            if vid in preds.rows:
                row_of[vid] = len(row_of)
        probs = [preds.distribution_for(vid).values for vid in row_of]
        return cls(preds.encoder_name, row_of, np.array(probs).reshape(len(row_of), N_EMOTIONS))

    def distribution_for(self, video_id: str) -> EmotionDistribution:
        """Clip-averaged distribution for one video, as
        :meth:`EncoderPredictionSet.distribution_for` gives it."""
        row = self.row_of.get(video_id)
        if row is None:
            raise ValidationError(
                f"encoder {self.encoder_name!r} has no prediction for video {video_id!r}"
            )
        return EmotionDistribution(tuple(self.probs[row].tolist()))


def load_prediction_table(path: str | Path) -> PredictionTable:
    """Read one encoder's predictions file with the checks of
    :func:`load_predictions`, averaging each video's clip rows.

    Rows are summed in file order and then divided by the clip count, the
    arithmetic of :func:`average_clips`.  Like an
    :class:`EncoderPredictionSet`, the table leaves the sum check of a
    multi-clip mean to the videos that are used.
    """
    path = Path(path)
    row_videos, _, matrix = _parse_predictions(path)
    videos = dict.fromkeys(row_videos)  # in first-appearance order
    row_of = dict(zip(videos, range(len(videos))))
    video_of_row = np.fromiter(map(row_of.__getitem__, row_videos), np.int64, len(row_videos))
    clips = np.bincount(video_of_row, minlength=len(row_of))
    sums = np.zeros((len(row_of), N_EMOTIONS))
    np.add.at(sums, video_of_row, matrix)  # accumulates repeated videos in row order
    return PredictionTable(path.stem, row_of, sums / clips[:, None])


def write_prediction_rows(path: str | Path, rows: Iterable[tuple[str, str, Sequence[float]]]) -> None:
    """Write a predictions file of ``(video_id, actor_id, probabilities)`` rows, in order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTIONS_HEADER)
        writer.writerows([vid, actor, *map(_format_float, values)] for vid, actor, values in rows)


def save_predictions(preds: EncoderPredictionSet, path: str | Path) -> None:
    write_prediction_rows(
        path,
        ((vid, preds.actors.get(vid, ""), clip.values) for vid, clips in preds.rows.items() for clip in clips),
    )


def load_labels(path: str | Path) -> list[SampleRecord]:
    """Read a ground-truth labels file into canonical annotated records.

    The first faulty line is reported as ``path:line``."""
    path = Path(path)
    try:
        return _label_blocks(path)
    except _Doubt:
        return _label_rows(path)


def _annotation(emotion_a: str, emotion_b: str, salience_a: str) -> BlendAnnotation:
    primary = Emotion.from_name(emotion_a)
    secondary = Emotion.from_name(emotion_b) if emotion_b.strip() else None
    return canonicalize_annotation(primary, secondary, int(salience_a))


def _label_blocks(path: Path) -> list[SampleRecord]:
    """:func:`load_labels` of a file of valid rows, canonicalizing each
    distinct ``(emotion_a, emotion_b, salience_a)`` once."""
    records: list[SampleRecord] = []
    annotation_of: dict[tuple[str, str, str], BlendAnnotation] = {}
    for fields in _field_blocks(path, LABELS_HEADER):
        columns = [fields[i :: len(LABELS_HEADER)] for i in range(len(LABELS_HEADER))]
        raw = list(zip(*columns[2:]))
        for triple in set(raw).difference(annotation_of):
            try:
                annotation_of[triple] = _annotation(*triple)
            except ValueError:
                raise _Doubt from None
        records += map(SampleRecord, columns[0], columns[1], map(annotation_of.__getitem__, raw))
    if len({rec.video_id for rec in records}) != len(records):
        raise _Doubt  # a repeated video id
    return records


def _label_rows(path: Path) -> list[SampleRecord]:
    """:func:`load_labels` one row at a time, for any file."""
    records: list[SampleRecord] = []
    seen: set[str] = set()
    for lineno, row in read_csv_rows(path, LABELS_HEADER):
        if len(row) != len(LABELS_HEADER):
            raise ValidationError(f"{path}:{lineno}: expected {len(LABELS_HEADER)} fields")
        video_id, actor_id, emo_a, emo_b, salience = row
        if video_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate video id {video_id!r}")
        seen.add(video_id)
        try:
            annotation = _annotation(emo_a, emo_b, salience)
        except ValueError as exc:  # ValidationError is one
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        records.append(SampleRecord(video_id, actor_id, annotation))
    return records


def save_labels(records: Sequence[SampleRecord], path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for rec in records:
            ann = rec.annotation
            if ann is None:
                raise ValidationError(f"record {rec.video_id!r} has no annotation to save")
            writer.writerow(
                [
                    rec.video_id,
                    rec.actor_id,
                    ann.primary.label,
                    ann.secondary.label if ann.secondary is not None else "",
                    str(ann.salience_primary),
                ]
            )


def annotations_by_video(records: Iterable[SampleRecord]) -> dict[str, BlendAnnotation]:
    out: dict[str, BlendAnnotation] = {}
    for rec in records:
        if rec.annotation is None:
            raise ValidationError(f"record {rec.video_id!r} is unlabeled")
        out[rec.video_id] = rec.annotation
    return out
