"""Core domain types and file formats for the blended-emotion pipeline.

Everything downstream (soft labels, fusion, thresholding, evaluation) moves
data around as the types defined here: 6-dimensional probability vectors over
the fixed emotion vocabulary, blend annotations with a salience split, and
per-encoder prediction tables keyed by video id.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import warnings
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import count, repeat
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

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
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) != N_EMOTIONS:
            raise ValidationError(f"expected {N_EMOTIONS} probabilities, got {len(vals)}")
        # One pass accepts a valid row.  A NaN can slip past min and max, but
        # then the sum is NaN; any row that fails is faulty, and the loop
        # names its first faulty value.
        if 0.0 <= min(vals) and max(vals) <= 1.0 and abs(math.fsum(vals) - 1.0) <= SUM_TOLERANCE:
            return
        for v in vals:
            if not math.isfinite(v):
                raise ValidationError(f"non-finite probability: {v!r}")
            if v < 0.0 or v > 1.0:
                raise ValidationError(f"probability out of [0, 1]: {v!r}")
        raise ValidationError(f"probabilities sum to {math.fsum(vals)!r}, not 1")

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
class FoldAssignment:
    """Actor-to-fold mapping; actor disjointness is structural."""

    folds: Mapping[str, int]
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValidationError(f"need at least 2 folds, got {self.k}")
        bad = {a: f for a, f in self.folds.items() if not 0 <= f < self.k}
        if bad:
            raise ValidationError(f"fold indices out of range: {bad!r}")

    def fold_of(self, actor_id: str) -> int:
        try:
            return self.folds[actor_id]
        except KeyError:
            raise ValidationError(f"actor {actor_id!r} has no fold assignment") from None

    def fold_indices(self) -> list[int]:
        return sorted(set(self.folds.values()))

    def fold_positions(self, actors: Collection[str]) -> np.ndarray:
        """Position in :meth:`fold_indices` of the fold of each of ``actors``,
        looking each distinct actor up once; every fold must hold one of them."""
        folds = self.fold_indices()
        position_of = dict(zip(folds, range(len(folds))))
        distinct = {actor: position_of[self.fold_of(actor)] for actor in dict.fromkeys(actors)}
        empty = sorted(set(position_of.values()) - set(distinct.values()))
        if empty:
            raise ValidationError(f"fold {folds[empty[0]]} holds no labeled videos")
        return np.fromiter(map(distinct.__getitem__, actors), np.intp, len(actors))


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
# Input cache
# ---------------------------------------------------------------------------

# What reading an ``.npz`` file can raise besides its contents being wrong.
NPZ_FAULTS = (OSError, EOFError, KeyError, TypeError, ValueError, RecursionError, zipfile.BadZipFile, zlib.error)

# The directory, next to each cached input file, that holds its entry.
CACHE_DIR = ".blendfuse-cache"

# Numbers the temporary files this process writes entries through.
_TEMPORARY_IDS = count()

_T = TypeVar("_T")


@functools.cache
def _code_digest() -> bytes:
    """SHA-256 of numpy's version and of this package's source files, so an
    entry written by other parsing code never matches."""
    digest = hashlib.sha256(np.__version__.encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode() + b"\0" + hashlib.sha256(source.read_bytes()).digest())
    return digest.digest()


def cached_parse(
    path: Path,
    parse: Callable[[bytes], tuple[_T, Optional[dict[str, np.ndarray]]]],
    restore: Callable[[Mapping[str, np.ndarray]], _T],
    cache_use: Optional[Counter[str]] = None,
) -> _T:
    """What ``parse(data)`` makes of ``data``, the bytes of the input file ``path``.

    A file that cannot be read is a :class:`ValidationError` led by ``path``
    (by its ``repr`` if the path holds a NUL byte).  ``parse`` returns the
    value and the arrays to store for it, or None to store nothing.  They are
    stored in ``<dir>/.blendfuse-cache/<name>.npz`` under a key, the SHA-256
    of ``data`` and :func:`_code_digest`.  While the key matches, ``restore``
    rebuilds the value from the stored arrays instead, raising a ValueError
    if they do not fit.  Every fault of the cache, such as a directory that
    cannot be written, is a miss.  Each call adds one to
    ``cache_use["hits"]`` or ``cache_use["misses"]``.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except ValueError as exc:  # a NUL byte in the path
        raise ValidationError(f"{str(path)!r}: cannot read file: {exc}") from None
    cache_use = Counter() if cache_use is None else cache_use
    entry = path.parent / CACHE_DIR / f"{path.name}.npz"
    digest = hashlib.sha256(_code_digest())
    digest.update(data)
    key = np.frombuffer(digest.digest(), np.uint8)
    try:
        # np.load leaves a file it opened open when it is not a whole .npz.
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        if np.array_equal(arrays.pop("key"), key):
            value = restore(arrays)
            cache_use["hits"] += 1
            return value
    except NPZ_FAULTS:
        pass
    cache_use["misses"] += 1
    value, arrays = parse(data)
    if arrays is not None:
        # Named by process and call, so concurrent writers never share one.
        tmp = entry.with_name(f"{entry.name}.{os.getpid()}.{next(_TEMPORARY_IDS)}.tmp")
        with suppress(OSError):
            entry.parent.mkdir(exist_ok=True)
            try:
                with open(tmp, "xb") as fh:
                    np.savez(fh, key=key, **arrays)
                os.replace(tmp, entry)  # atomic, so a concurrent reader sees a whole entry
            finally:
                tmp.unlink(missing_ok=True)
    return value


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


@contextmanager
def located(where: object) -> Iterator[None]:
    """Re-raise a ValueError (a :class:`ValidationError` is one) from inside
    as a :class:`ValidationError` led by ``where``: a path or ``path:line``."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _text(path: str | Path, data: Optional[bytes]) -> io.TextIOWrapper:
    """``path`` opened as UTF-8 with its line ends kept, or ``data``, the
    bytes read from it, decoded the same way."""
    if data is None:
        return open(path, encoding="utf-8", newline="")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


@contextmanager
def csv_reader(path: str | Path, data: Optional[bytes] = None) -> Iterator[Any]:
    """A ``csv.reader`` over ``path`` (or over ``data``, its bytes) as UTF-8.
    An unreadable path (such as a directory), bytes that are not UTF-8 or a
    field over ``csv.field_size_limit()`` are a :class:`ValidationError`
    naming ``path``."""
    try:
        with _text(path, data) as fh:
            reader = csv.reader(fh)
            yield reader
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


def read_csv_rows(
    path: str | Path, expected_header: list[str], data: Optional[bytes] = None
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after ``expected_header``, read one at a time, each
    with the number of the file line it ends on.  An empty file, another
    header or a row not as wide as the header is a :class:`ValidationError`
    naming ``path``, as are the faults of :func:`csv_reader`."""
    with csv_reader(path, data) as reader:
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if header != expected_header:
            raise ValidationError(f"{path}: bad header {header!r}, expected {expected_header!r}")
        for row in filter(None, reader):  # skips blank lines
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, row


def write_csv_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as UTF-8 CSV lines ending in CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Characters per block of whole lines: enough to amortise a block's numpy
# calls, few enough that its tokens stay a small part of peak memory.
_BLOCK_CHARS = 1 << 18


class _Doubt(Exception):
    """The block reader cannot vouch for a file; the per-row reader reads it."""


def _doubtful_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows that may fail or need :meth:`EmotionDistribution.from_raw`: all
    but those finite, within [0, 1] and summing to 1 well inside
    ``SUM_TOLERANCE`` (np.sum and math.fsum differ by ~1e-16 on six values)."""
    with np.errstate(invalid="ignore"):
        doubtful = ~np.isfinite(matrix).all(axis=1)
        doubtful |= (matrix < 0.0).any(axis=1) | (matrix > 1.0).any(axis=1)
        doubtful |= np.abs(matrix.sum(axis=1) - 1.0) > SUM_TOLERANCE / 2
    return doubtful


def _parse_predictions(
    path: Path, data: Optional[bytes] = None
) -> tuple[tuple[list[str], list[str], np.ndarray], bool]:
    """Video id, actor id and probability row of every line of a predictions
    file (or of ``data``, its bytes), and whether the block reader vouched
    for the file rather than the per-row reader reading it.

    Each line passes the checks of :meth:`EmotionDistribution.from_raw`,
    whose renormalized values it keeps, and a video may not be listed under
    two actors.  The first faulty line is reported as ``path:line``.
    """
    try:
        return _parse_prediction_blocks(path, data), True
    except _Doubt:
        return _parse_prediction_rows(path, data), False


def _parse_prediction_blocks(path: Path, data: Optional[bytes] = None) -> tuple[list[str], list[str], np.ndarray]:
    """The rows :func:`_parse_predictions` reads from a file of rows valid as
    they stand, a block of whole lines at a time, each block's numbers parsed
    by one ``np.array`` call (``float()``'s parser).  Raises :class:`_Doubt`
    unless every line is one that ``csv.reader`` splits at each comma: no
    quote or NUL (rejected before Python 3.11), seven commas and at most
    ``csv.field_size_limit()`` characters."""
    width, limit = len(PREDICTIONS_HEADER), csv.field_size_limit()
    video_ids: list[str] = []
    actor_ids: list[str] = []
    blocks = [np.empty(0)]
    try:
        with _text(path, data) as fh:
            if fh.readline().rstrip("\r\n") != ",".join(PREDICTIONS_HEADER):
                raise _Doubt
            while lines := fh.readlines(_BLOCK_CHARS):
                # Lines end in "\n", "\r\n" or a lone "\r", as csv.reader splits them.
                rows = list(filter(None, map(str.rstrip, lines, repeat("\r\n"))))
                if not rows:
                    continue
                text = ",".join(rows)
                if '"' in text or "\0" in text or max(map(len, rows)) > limit:
                    raise _Doubt
                if set(map(str.count, rows, repeat(","))) != {width - 1}:
                    raise _Doubt
                fields = text.split(",")
                video_ids += fields[0::width]
                actor_ids += fields[1::width]
                del fields[0::width], fields[0::width - 1]  # leaves the probabilities
                blocks.append(np.array(fields, dtype=np.float64))
    except (OSError, ValueError):  # unreadable, not UTF-8 or not a number
        raise _Doubt from None
    matrix = np.concatenate(blocks).reshape(-1, N_EMOTIONS)
    actor_of = dict(zip(video_ids, actor_ids))
    if _doubtful_rows(matrix).any() or list(map(actor_of.__getitem__, video_ids)) != actor_ids:
        raise _Doubt
    return video_ids, actor_ids, matrix


def _parse_prediction_rows(path: Path, data: Optional[bytes] = None) -> tuple[list[str], list[str], np.ndarray]:
    """The rows :func:`_parse_predictions` reads, one row at a time, for any file."""
    video_ids: list[str] = []
    actor_ids: list[str] = []
    values: list[list[float]] = []
    lines: list[int] = []
    actors: dict[str, str] = {}
    line_error: Optional[ValidationError] = None
    try:
        for lineno, row in read_csv_rows(path, PREDICTIONS_HEADER, data):
            # The row's values are checked before its actor, as in a per-line read.
            try:
                values.append(list(map(float, row[2:])))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            lines.append(lineno)
            video_id, actor_id = row[0], row[1]
            if actors.setdefault(video_id, actor_id) != actor_id:
                raise ValidationError(f"{path}:{lineno}: video {video_id!r} listed under two actors")
            video_ids.append(video_id)
            actor_ids.append(actor_id)
    except ValidationError as exc:
        line_error = exc  # reported after any value fault on an earlier line
    matrix = np.array(values, dtype=np.float64).reshape(len(values), N_EMOTIONS)
    for i in np.flatnonzero(_doubtful_rows(matrix)).tolist():
        with located(f"{path}:{lines[i]}"):
            matrix[i] = EmotionDistribution.from_raw(values[i]).values
    if line_error is not None:
        raise line_error
    return video_ids, actor_ids, matrix


def load_predictions(path: str | Path, encoder_name: Optional[str] = None) -> EncoderPredictionSet:
    """Read one encoder's predictions file.

    Repeated video ids are collected as multi-clip rows in file order.
    """
    path = Path(path)
    (video_ids, actor_ids, matrix), _ = _parse_predictions(path)
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
    """One encoder's predictions file, ``path``, as an array of clip-averaged rows."""

    path: Path
    row_of: Mapping[str, int]  # video id -> row of probs, in first-appearance order
    probs: np.ndarray  # (videos, 6)

    @property
    def encoder_name(self) -> str:
        """The file's name without its suffix."""
        return self.path.stem


def load_prediction_table(path: str | Path, cache_use: Optional[Counter[str]] = None) -> PredictionTable:
    """Read one encoder's predictions file with the checks of
    :func:`load_predictions`, averaging each video's clip rows.

    Rows are summed in file order and then divided by the clip count, the
    arithmetic of :func:`average_clips`.  Like an
    :class:`EncoderPredictionSet`, the table leaves the sum check of a
    multi-clip mean to the videos that are used.  A file the block reader
    reads is served from the input cache (:func:`cached_parse`, which counts
    the load in ``cache_use``) while its bytes are unchanged.
    """
    path = Path(path)

    def parse(data: bytes) -> tuple[PredictionTable, Optional[dict[str, np.ndarray]]]:
        parsed, vouched = _parse_predictions(path, data)
        table = _clip_means(path, parsed)
        if not vouched:  # never stored: the per-row reader may warn, and must on every load
            return table, None
        return table, {"probs": table.probs, "ids": _id_array(table.row_of)}

    return cached_parse(path, parse, functools.partial(_table_of_entry, path), cache_use)


def _id_array(ids: Iterable[str]) -> np.ndarray:
    """``ids`` as the bytes of a JSON list, the form the input cache stores them in."""
    return np.frombuffer(json.dumps(list(ids)).encode(), np.uint8)


def _id_list(array: np.ndarray) -> list[str]:
    """The ids that :func:`_id_array` stored as ``array``."""
    ids = json.loads(array.tobytes())
    if not (isinstance(ids, list) and all(map(isinstance, ids, repeat(str)))):
        raise ValueError("ids are not a list of strings")
    return ids


def _clip_means(path: Path, parsed: tuple[list[str], list[str], np.ndarray]) -> PredictionTable:
    """The table of ``path`` from its rows as :func:`_parse_predictions` reads them, each video's clip rows averaged."""
    row_videos, _, matrix = parsed
    videos = dict.fromkeys(row_videos)  # in first-appearance order
    row_of = dict(zip(videos, range(len(videos))))
    video_of_row = np.fromiter(map(row_of.__getitem__, row_videos), np.int64, len(row_videos))
    clips = np.bincount(video_of_row, minlength=len(row_of))
    sums = np.zeros((len(row_of), N_EMOTIONS))
    np.add.at(sums, video_of_row, matrix)  # accumulates repeated videos in row order
    return PredictionTable(path, row_of, sums / clips[:, None])


def _table_of_entry(path: Path, arrays: Mapping[str, np.ndarray]) -> PredictionTable:
    """The table that :func:`load_prediction_table` stored as ``arrays``."""
    ids = _id_list(arrays["ids"])
    row_of = dict(zip(ids, range(len(ids))))
    probs = arrays["probs"]
    if probs.dtype != np.float64 or probs.shape != (len(ids), N_EMOTIONS) or len(row_of) != len(ids):
        raise ValueError(f"probabilities {probs.dtype} {probs.shape} do not fit {len(ids)} video ids")
    return PredictionTable(path, row_of, probs)


def write_prediction_rows(path: str | Path, rows: Iterable[tuple[str, str, Sequence[float]]]) -> None:
    """Write a predictions file of ``(video_id, actor_id, probabilities)`` rows, in order."""
    lines = ([vid, actor, *map(_format_float, values)] for vid, actor, values in rows)
    write_csv_rows(path, PREDICTIONS_HEADER, lines)


def save_predictions(preds: EncoderPredictionSet, path: str | Path) -> None:
    write_prediction_rows(
        path,
        ((vid, preds.actors.get(vid, ""), clip.values) for vid, clips in preds.rows.items() for clip in clips),
    )


def save_labels(records: Sequence[SampleRecord], path: str | Path) -> None:
    write_csv_rows(path, LABELS_HEADER, map(_label_row, records))


def _label_row(rec: SampleRecord) -> list[str]:
    ann = rec.annotation
    if ann is None:
        raise ValidationError(f"record {rec.video_id!r} has no annotation to save")
    return [
        rec.video_id,
        rec.actor_id,
        ann.primary.label,
        ann.secondary.label if ann.secondary is not None else "",
        str(ann.salience_primary),
    ]


@dataclass(frozen=True, eq=False)  # array fields: compared by identity
class LabelTable:
    """Labeled videos as arrays, one entry per video in file order: its id,
    its actor's id and the codes of its canonical annotation."""

    video_ids: tuple[str, ...]
    actor_ids: tuple[str, ...]
    primary: np.ndarray  # int8 emotion index
    secondary: np.ndarray  # int8 emotion index, -1 for a single emotion
    salience: np.ndarray  # int8 salience of the primary: 100, 70 or 50


def load_labels(path: str | Path, data: Optional[bytes] = None) -> LabelTable:
    """Read a ground-truth labels file (or ``data``, its bytes) into a
    :class:`LabelTable`, canonicalizing each distinct ``(emotion_a,
    emotion_b, salience_a)`` once.

    The first faulty line is reported as ``path:line``, a repeated video id
    before its annotation."""
    path = Path(path)
    video_ids: list[str] = []
    actor_ids: list[str] = []
    codes: list[tuple[int, int, int]] = []
    code_of: dict[tuple[str, str, str], tuple[int, int, int]] = {}
    seen: set[str] = set()
    for lineno, (video_id, actor_id, emo_a, emo_b, salience) in read_csv_rows(path, LABELS_HEADER, data):
        if video_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate video id {video_id!r}")
        seen.add(video_id)
        try:
            code = code_of[emo_a, emo_b, salience]
        except KeyError:  # a faulty triple is never stored: it fails on every line
            with located(f"{path}:{lineno}"):
                primary = Emotion.from_name(emo_a)
                secondary = Emotion.from_name(emo_b) if emo_b.strip() else None
                ann = canonicalize_annotation(primary, secondary, int(salience))
            code = (ann.primary, -1 if ann.secondary is None else ann.secondary, ann.salience_primary)
            code_of[emo_a, emo_b, salience] = code
        video_ids.append(video_id)
        actor_ids.append(actor_id)
        codes.append(code)
    primary, secondary, salience = np.array(codes, np.int8).reshape(len(codes), 3).T.copy()
    return LabelTable(tuple(video_ids), tuple(actor_ids), primary, secondary, salience)


def load_label_table(path: str | Path, cache_use: Optional[Counter[str]] = None) -> LabelTable:
    """Read a labels file with :func:`load_labels`.  A file that passes its
    checks is served from the input cache (:func:`cached_parse`, which counts
    the load in ``cache_use``) while its bytes are unchanged."""
    path = Path(path)

    def parse(data: bytes) -> tuple[LabelTable, dict[str, np.ndarray]]:
        table = load_labels(path, data)
        codes = np.stack([table.primary, table.secondary, table.salience])
        return table, {"ids": _id_array(table.video_ids), "actors": _id_array(table.actor_ids), "codes": codes}

    return cached_parse(path, parse, _label_table_of_entry, cache_use)


def _label_table_of_entry(arrays: Mapping[str, np.ndarray]) -> LabelTable:
    """The table that :func:`load_label_table` stored as ``arrays``."""
    video_ids, actor_ids, codes = _id_list(arrays["ids"]), _id_list(arrays["actors"]), arrays["codes"]
    if codes.dtype != np.int8 or codes.shape != (3, len(video_ids)) or len(actor_ids) != len(video_ids):
        raise ValueError(f"codes {codes.dtype} {codes.shape} do not fit {len(video_ids)} videos")
    return LabelTable(tuple(video_ids), tuple(actor_ids), *codes)
