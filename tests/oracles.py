"""Scalar references that the array data path and the readers are tested against."""

from collections import Counter
from pathlib import Path

import numpy as np

from blendfuse.core import (
    LABELS_HEADER,
    N_EMOTIONS,
    SUM_TOLERANCE,
    Emotion,
    EmotionDistribution,
    LabelTable,
    PredictionTable,
    SampleRecord,
    ValidationError,
    average_clips,
    canonicalize_annotation,
    read_csv_rows,
)
from blendfuse.fusion import FusionDataset
from blendfuse.postprocess import TruthArrays


def prediction_tables(preds, records):
    """Each :class:`~blendfuse.core.EncoderPredictionSet` of ``preds`` as the
    :class:`PredictionTable` that ``FusionDataset.build`` reads: the clip
    means of those videos of ``records`` it covers, averaged one video at a
    time through the scalar ``average_clips``."""
    video_ids = sorted({r.video_id for r in records})
    tables = []
    for p in preds:
        covered = [vid for vid in video_ids if vid in p.rows]
        probs = np.array([average_clips(p.rows[vid]).values for vid in covered]).reshape(len(covered), N_EMOTIONS)
        tables.append(PredictionTable(Path(f"{p.encoder_name}.csv"), {vid: i for i, vid in enumerate(covered)}, probs))
    return tables


def fuse_video(preds, weights, video_id):
    """The fused distribution of one video, as ``blendfuse.fusion.fuse`` gives
    its row: each encoder of ``preds`` (prediction sets) adds its
    clip-averaged row times its weight, from 0.0 and in the order of the
    mapping ``weights``, one Python float at a time."""
    by_name = {p.encoder_name: p for p in preds}
    acc = [0.0] * N_EMOTIONS
    for name, weight in weights.items():
        for i, v in enumerate(average_clips(by_name[name].rows[video_id]).values):
            acc[i] += weight * v
    return EmotionDistribution(tuple(acc))


def feature_file_text(seq):
    """The text of the ``.feat`` file of ``seq``, a ``FrameFeatureSequence``,
    as ``blendfuse.features.save_feature_file`` writes it: a header line,
    then one line per (layer, frame) row, each value formatted as a numpy
    scalar converted to a Python float."""
    layers, frames, dims = seq.data.shape
    lines = [f"layers={layers} frames={frames} dims={dims}"]
    for row in seq.data.reshape(layers * frames, dims):
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def label_table(records):
    """The :class:`LabelTable` of ``records``, one entry per record in their
    order: each must be labeled, and each video listed once."""
    unlabeled = next((r.video_id for r in records if r.annotation is None), None)
    if unlabeled is not None:
        raise ValidationError(f"record {unlabeled!r} is unlabeled")
    video_ids = tuple(r.video_id for r in records)
    repeated = next((vid for vid, count in Counter(video_ids).items() if count > 1), None)
    if repeated is not None:
        raise ValidationError(f"video {repeated!r} is listed twice")
    annotations, n = [r.annotation for r in records], len(records)
    return LabelTable(
        video_ids,
        tuple(r.actor_id for r in records),
        np.fromiter((a.primary for a in annotations), np.int8, n),
        np.fromiter((-1 if a.secondary is None else a.secondary for a in annotations), np.int8, n),
        np.fromiter((a.salience_primary for a in annotations), np.int8, n),
    )


def label_table_bits(table):
    """Every field of the :class:`LabelTable` ``table``, its arrays as bytes."""
    arrays = (table.primary, table.secondary, table.salience)
    return table.video_ids, table.actor_ids, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def label_rows(path):
    """The records of the labels file ``path``, one row at a time, each
    annotation canonicalized on its own line, the first faulty line reported
    as ``path:line``: what ``blendfuse.core.load_labels`` reads into a
    table, as records."""
    path = Path(path)
    records = []
    seen = set()
    for lineno, row in read_csv_rows(path, LABELS_HEADER):
        video_id, actor_id, emo_a, emo_b, salience = row
        if video_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate video id {video_id!r}")
        seen.add(video_id)
        try:
            primary = Emotion.from_name(emo_a)
            secondary = Emotion.from_name(emo_b) if emo_b.strip() else None
            annotation = canonicalize_annotation(primary, secondary, int(salience))
        except ValueError as exc:  # ValidationError is one
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        records.append(SampleRecord(video_id, actor_id, annotation))
    return records


def videos_by_fold(folds, records):
    """Video ids of ``records`` per fold of the ``FoldAssignment`` ``folds``,
    in ascending fold order; every fold must hold one."""
    out = {f: [] for f in folds.fold_indices()}
    for rec in records:
        out[folds.fold_of(rec.actor_id)].append(rec.video_id)
    for f, vids in out.items():
        if not vids:
            raise ValidationError(f"fold {f} holds no labeled videos")
    return out


def records_dataset(tables, records, folds):
    """The ``FusionDataset`` of the labeled ``records`` and the prediction
    ``tables``, built one record and one video at a time: the records-based
    ``FusionDataset.build`` that ``build`` over a ``LabelTable`` replaced."""
    if not tables:
        raise ValidationError("need at least one encoder prediction set")
    truth = {}
    for rec in records:
        if rec.annotation is None:
            raise ValidationError(f"record {rec.video_id!r} is unlabeled")
        truth[rec.video_id] = rec.annotation
    video_ids = sorted(truth)
    by_name = {t.encoder_name: t for t in tables}
    if len(by_name) != len(tables):
        raise ValidationError("duplicate encoder names in prediction sets")
    encoders = tuple(sorted(by_name))
    probs = np.empty((len(encoders), len(video_ids), N_EMOTIONS))
    for e, name in enumerate(encoders):
        table = by_name[name]
        rows = [table.row_of.get(vid, -1) for vid in video_ids]
        if -1 in rows:
            missing = video_ids[rows.index(-1)]
            raise ValidationError(f"{table.path}: encoder {name!r} has no prediction for video {missing!r}")
        probs[e] = table.probs[rows]
        near_limit = np.abs(probs[e].sum(axis=1) - 1.0) > SUM_TOLERANCE / 2
        for v in np.flatnonzero(near_limit).tolist():
            try:
                EmotionDistribution(tuple(probs[e, v].tolist()))
            except ValidationError as exc:
                raise ValidationError(f"{table.path}: encoder {name!r}, video {video_ids[v]!r}: {exc}") from None
    by_fold = videos_by_fold(folds, records)
    position_of = {vid: i for i, vids in enumerate(by_fold.values()) for vid in vids}
    return FusionDataset(
        encoders,
        tuple(video_ids),
        probs,
        TruthArrays.from_annotations([truth[vid] for vid in video_ids]),
        tuple(by_fold),
        np.array([position_of[vid] for vid in video_ids], dtype=np.intp),
    )
