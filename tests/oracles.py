"""Scalar references that the array data path and the readers are tested against."""

from pathlib import Path

import numpy as np

from blendfuse.core import (
    LABELS_HEADER,
    N_EMOTIONS,
    Emotion,
    EmotionDistribution,
    PredictionTable,
    SampleRecord,
    ValidationError,
    canonicalize_annotation,
    read_csv_rows,
)


def prediction_tables(preds, records):
    """Each :class:`~blendfuse.core.EncoderPredictionSet` of ``preds`` as the
    :class:`PredictionTable` that ``FusionDataset.build`` reads: the clip
    means of those videos of ``records`` it covers, averaged one video at a
    time through the scalar ``average_clips``."""
    video_ids = sorted({r.video_id for r in records})
    tables = []
    for p in preds:
        covered = [vid for vid in video_ids if vid in p.rows]
        probs = np.array([p.distribution_for(vid).values for vid in covered]).reshape(len(covered), N_EMOTIONS)
        tables.append(PredictionTable(p.encoder_name, {vid: i for i, vid in enumerate(covered)}, probs))
    return tables


def fuse_video(preds, weights, video_id):
    """The fused distribution of one video, as ``blendfuse.fusion.fuse`` gives
    its row: each encoder of ``preds`` (prediction sets or tables) adds its
    clip-averaged row times its weight, from 0.0 and in the order of the
    mapping ``weights``, one Python float at a time."""
    by_name = {p.encoder_name: p for p in preds}
    acc = [0.0] * N_EMOTIONS
    for name, weight in weights.items():
        for i, v in enumerate(by_name[name].distribution_for(video_id).values):
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


def label_rows(path):
    """The records of the labels file ``path``, as ``blendfuse.core.load_labels``
    reads them: one row at a time, each annotation canonicalized on its own
    line, the first faulty line reported as ``path:line``."""
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
