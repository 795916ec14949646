"""Scalar references that the array data path is tested against."""

import numpy as np

from blendfuse.core import N_EMOTIONS, PredictionTable


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
