"""fuse-evaluate's data outputs do not depend on the row order of its input
files, nor on predictions for videos that no label names."""

import contextlib
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendfuse import core, synth
from blendfuse.cli import EXIT_OK, main
from blendfuse.evaluation import save_folds, split_actors

# name, log-space noise and clip rows per video of each encoder: one exact,
# two noisier, and one that averages three clips.
ENCODERS = (("enc_a", 0.0, 1), ("enc_b", 0.3, 3), ("enc_c", 0.6, 1))
GRID = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]
RUN_CONFIG = {"predictions_dir": "predictions", "labels_file": "labels.csv", "folds_file": "folds.csv",
              "alpha_grid": GRID, "beta_grid": GRID}
NEWLINE = b"\r\n"


@functools.cache
def _input_bytes():
    """The bytes of a labels file, a 5-fold folds file and one predictions
    file per encoder, by path relative to the inputs."""
    data = synth.generate(synth.SynthConfig(n_actors=10, clips_per_actor=6, noise_sigma=0.4, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        core.save_labels(data.records, root / "labels.csv")
        save_folds(split_actors([r.actor_id for r in data.records], 5), root / "folds.csv")
        files = {name: (root / name).read_bytes() for name in ("labels.csv", "folds.csv")}
        for e, (name, sigma, clips) in enumerate(ENCODERS):
            rng = np.random.default_rng(e)
            rows = []
            for vid in data.predictions.video_ids():
                logits = np.log(data.predictions.rows[vid][0].values) + rng.normal(0.0, sigma, (clips, 6))
                probs = np.exp(logits - logits.max(axis=1, keepdims=True))
                rows += [(vid, data.predictions.actors[vid], p / p.sum()) for p in probs]
            core.write_prediction_rows(root / f"{name}.csv", rows)
            files[f"predictions/{name}.csv"] = (root / f"{name}.csv").read_bytes()
        return files


def _outputs(files):
    """fuse-evaluate's data outputs on the input ``files``, ``run_meta.json``
    aside, by name."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, raw in files.items():
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_bytes(raw)
        Path("run.json").write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fuse-evaluate", "--config", "run.json", "--out", "out"]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(Path("out").iterdir()) if p.name != "run_meta.json"}


def _rows(raw):
    """The header and the data lines of a CSV file."""
    header, *rows = raw.split(NEWLINE)[:-1]  # the last "line" is the empty tail
    return header, rows


def _join(header, rows):
    return NEWLINE.join([header, *rows, b""])


def _shuffle_videos(raw, rand):
    """A predictions file with its videos in another order, each video's
    clip rows kept together and in their order."""
    header, rows = _rows(raw)
    videos = {}
    for row in rows:
        videos.setdefault(row.split(b",")[0], []).append(row)
    blocks = list(videos.values())
    rand.shuffle(blocks)
    return _join(header, [row for block in blocks for row in block])


def _shuffle_rows(raw, rand):
    header, rows = _rows(raw)
    rand.shuffle(rows)
    return _join(header, rows)


def _add_unlabeled_video(raw, rand):
    """A predictions file with one more video, which no label names, at a
    drawn position and of a drawn actor."""
    header, rows = _rows(raw)
    actor = rand.choice(rows).split(b",")[1]
    rows.insert(rand.randrange(len(rows) + 1), b"unlabeled_video," + actor + b",0.5,0.1,0.1,0.1,0.1,0.1")
    return _join(header, rows)


RELATIONS = {
    "video order": lambda files, rand: {
        name: _shuffle_videos(raw, rand) if name.startswith("predictions/") else raw for name, raw in files.items()},
    "labels rows": lambda files, rand: {**files, "labels.csv": _shuffle_rows(files["labels.csv"], rand)},
    "folds rows": lambda files, rand: {**files, "folds.csv": _shuffle_rows(files["folds.csv"], rand)},
    "unlabeled video": lambda files, rand: {
        name: _add_unlabeled_video(raw, rand) if name.startswith("predictions/") else raw
        for name, raw in files.items()},
}


@functools.cache
def _reference_outputs():
    return _outputs(_input_bytes())


@settings(derandomize=True, deadline=None, max_examples=30)
@given(relations=st.sets(st.sampled_from(sorted(RELATIONS)), min_size=1), seed=st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_row_order_or_unlabeled_videos(relations, seed):
    # The clip order within a video is left out: clip means sum in file
    # order, so another order may move a mean's last bit.  A seeded shuffle,
    # not a drawn one, as shrinking would draw the order the file has.
    files, rand = _input_bytes(), random.Random(seed)
    for relation in sorted(relations):
        files = RELATIONS[relation](files, rand)
    assert files != _input_bytes()
    assert _outputs(files) == _reference_outputs()
