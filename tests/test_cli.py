"""Command-line surface: flows, exit codes, determinism, config handling."""

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_util import outputs_of, write_feature_dir

from blendfuse import cli, core, features, fusion, mlp, synth
from blendfuse.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from blendfuse.core import FoldAssignment
from blendfuse.evaluation import evaluate, load_folds, save_folds, split_actors
from blendfuse.fusion import CrossValConfig, FusionDataset
from blendfuse.postprocess import PostprocessConfig, ThresholdPair, discretize


# Grids that must be configuration errors: empty, non-finite, out of [0, 1]
# (as a list or as a start/stop/step object), or more than 10,001 values;
# start/stop/step that are not numbers; an int too large for a float.
BAD_GRIDS = [
    "[]",
    "[0.1, NaN]",
    "[NaN, 0.2]",
    "[0.1, Infinity]",
    "[0.1, 2]",
    "[-0.1, 0.2]",
    '{"start": 0, "stop": 2, "step": 0.5}',
    '{"start": 0, "stop": 1, "step": NaN}',
    '{"start": 0, "stop": 1, "step": 9e-05}',
    '{"start": "0", "stop": "1", "step": "0.5"}',
    '{"start": 0, "stop": 1, "step": true}',
    pytest.param("[0.1, 1" + "0" * 400 + "]", id="huge-int-value"),
    pytest.param('{"start": 0, "stop": 1' + "0" * 400 + ', "step": 0.5}', id="huge-int-stop"),
    '{"start": 0, "stop": 1, "step": 0.5, "stride": 1}',
    "0.5",
    '"0,0.5"',
]
# Grid flag values that are not JSON at all; only a flag can carry them.
NON_JSON_GRIDS = ["[0.1,", "0.1 0.2"]

# Valid JSON nested past the parser's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# The full message of a case, for the config-error cases whose message no
# other assertion pins; ``{name}`` is the grid's key.
CONFIG_MESSAGES = {
    '{"start": 0, "stop": 1, "step": 0.5, "stride": 1}': "unknown keys in {name}: ['stride']",
    "0.5": "{name} must be a list or a start/stop/step object",
    '"0,0.5"': "{name} must be a list or a start/stop/step object",
    "[0.1,": "bad {name}: Expecting value: line 1 column 6 (char 5)",
    "0.1 0.2": "bad {name}: Extra data: line 1 column 5 (char 4)",
    "[0.1]": "initial_thresholds must be [alpha, beta]: [0.1]",
    "0.1": "initial_thresholds must be [alpha, beta]: 0.1",
    "[0.1, 0.2, 0.3]": "initial_thresholds must be [alpha, beta]: [0.1, 0.2, 0.3]",
}

GOOD_ROW = " ".join(["0.5"] * 6)
# (case, .feat content or None for a missing file, expected message fragment)
FEATURE_FAULTS = [
    ("bad-token", f"layers=1 frames=3 dims=6\n{GOOD_ROW}\n0.5 0.5 zero 0.5 0.5 0.5\n{GOOD_ROW}\n",
     "{path}:3: not a number: 'zero'"),
    ("missing", None, "{path}: cannot read file"),
    ("not-utf8", b"layers=1 frames=1 dims=6\n\xff\n", "{path}: not UTF-8"),
    ("negative-frames", "layers=1 frames=-1 dims=6\n", "{path}: bad feature header"),
    ("zero-dims", "layers=1 frames=3 dims=0\n", "{path}: bad feature header"),
    ("non-finite", f"layers=1 frames=2 dims=6\n{GOOD_ROW}\n0.5 inf 0.5 0.5 0.5 0.5\n",
     "{path}: non-finite values"),
]


def run(*argv):
    return main([str(a) for a in argv])


def synth_dataset(tmp_path, seed=0, actors=8, clips=18, noise=0.3):
    out = tmp_path / "data"
    code = run(
        "synth", "--actors", actors, "--clips", clips, "--noise-sigma", noise,
        "--gap-lo", 0.15, "--gap-hi", 0.4, "--seed", seed, "--out", out,
    )
    assert code == EXIT_OK
    return out


def feature_inputs(tmp_path):
    """train-mlp input flags for 2 actors x 3 clips of 1 x 4 x 6 features, 2 folds,
    with the layer range of those one-layer features."""
    records = [
        core.SampleRecord(f"a{a}_v{c}", f"a{a}", core.BlendAnnotation(core.EMOTIONS[c], None, 100))
        for a in range(2)
        for c in range(3)
    ]
    labels_path = tmp_path / "labels.csv"
    core.save_labels(records, labels_path)
    feat_dir = write_feature_dir(tmp_path, records, np.random.default_rng(3))
    folds_out = tmp_path / "folds"
    assert run("split", "--manifest", labels_path, "--k", 2, "--out", folds_out) == EXIT_OK
    return {
        "--features": feat_dir, "--labels": labels_path, "--folds": folds_out / "folds.csv",
        "--layer-lo": 0, "--layer-hi": 0,
    }


def three_fold_inputs(tmp_path):
    """train-mlp input flags for 3 actors x 4 clips of single and blended
    emotions, 3 folds.  The labels list the clips clip-major with video ids
    descending and the manifest lists them in reverse, so the labels,
    feature and video-id orders all differ."""
    blends = [
        core.BlendAnnotation(core.Emotion.ANGER, None, 100),
        core.BlendAnnotation(core.Emotion.FEAR, core.Emotion.HAPPINESS, 70),
        core.BlendAnnotation(core.Emotion.DISGUST, core.Emotion.SURPRISE, 50),
        core.BlendAnnotation(core.Emotion.SADNESS, core.Emotion.ANGER, 70),
    ]
    records = [
        core.SampleRecord(f"a{a}_v{3 - c}", f"a{a}", blends[(a + c) % 4]) for c in range(4) for a in range(3)
    ]
    labels_path = tmp_path / "labels.csv"
    core.save_labels(records, labels_path)
    feat_dir = write_feature_dir(tmp_path, records[::-1], np.random.default_rng(4))
    folds_out = tmp_path / "folds"
    assert run("split", "--manifest", labels_path, "--k", 3, "--out", folds_out) == EXIT_OK
    return {
        "--features": feat_dir, "--labels": labels_path, "--folds": folds_out / "folds.csv",
        "--layer-lo": 0, "--layer-hi": 0,
    }


def flags_of(inputs):
    return [a for pair in inputs.items() for a in pair]


def make_folds(tmp_path, data_dir, k=2):
    out = tmp_path / "folds"
    code = run("split", "--manifest", data_dir / "labels.csv", "--k", k, "--out", out)
    assert code == EXIT_OK
    return out / "folds.csv"


class TestSynthAndSplit:
    def test_synth_writes_core_formats(self, tmp_path):
        data = synth_dataset(tmp_path)
        labels = core.load_labels(data / "labels.csv")
        preds = core.load_predictions(data / "predictions" / "synth.csv")
        assert len(labels.video_ids) == 8 * 18
        assert set(preds.rows) == set(labels.video_ids)

    def test_split_is_actor_disjoint(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data, k=3)
        assignment = load_folds(folds_path)
        assert assignment.k == 3
        assert set(core.load_labels(data / "labels.csv").actor_ids) == set(assignment.folds)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mix", "0.5,0.5"],
            ["--mix", "0.5,x,0.5"],
            ["--mix", "nan,0.5,0.5"],
            ["--gap-lo", "0.5"],
            ["--actors", "0"],
            ["--noise-sigma", "nan"],
            ["--noise-sigma", "inf"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_synth_flag_is_config_error(self, tmp_path, flags):
        assert run("synth", *flags, "--out", tmp_path / "data") == EXIT_CONFIG
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("actors, clips", [(10**20, 2), (2, 10**20)])
    def test_synth_of_too_many_videos_is_config_error_naming_the_fields(self, tmp_path, capsys, actors, clips):
        assert run("synth", "--actors", actors, "--clips", clips, "--out", tmp_path / "data") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: n_actors * clips_per_actor must be at most {synth.MAX_VIDEOS}, got {actors} * {clips}\n"
        )
        assert not (tmp_path / "data").exists()

    def test_split_k1_is_config_error(self, tmp_path):
        data = synth_dataset(tmp_path)
        code = run("split", "--manifest", data / "labels.csv", "--k", 1, "--out", tmp_path / "f")
        assert code == EXIT_CONFIG

    def test_split_takes_a_feature_manifest_like_the_labels_file(self, tmp_path):
        inputs = feature_inputs(tmp_path)
        manifest = inputs["--features"] / "manifest.csv"
        assert run("split", "--manifest", manifest, "--k", 2, "--out", tmp_path / "f") == EXIT_OK
        assert (tmp_path / "f" / "folds.csv").read_bytes() == inputs["--folds"].read_bytes()

    def test_split_manifest_of_another_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("video_id,actor\nv0,a0\n", encoding="utf-8")
        assert run("split", "--manifest", path, "--k", 2, "--out", tmp_path / "f") == EXIT_DATA
        assert f"{path}: unrecognized manifest header ['video_id', 'actor']" in capsys.readouterr().err

    def test_split_into_more_folds_than_actors_is_data_error_naming_the_manifest(self, tmp_path, capsys):
        path = synth_dataset(tmp_path, actors=3, clips=2) / "labels.csv"
        capsys.readouterr()
        assert run("split", "--manifest", path, "--k", 5, "--out", tmp_path / "f") == EXIT_DATA
        assert capsys.readouterr().err == f"validation error: {path}: cannot make 5 folds from 3 actors\n"

    def test_encode_labels(self, tmp_path):
        data = synth_dataset(tmp_path)
        out = tmp_path / "enc"
        assert run("encode-labels", "--labels", data / "labels.csv", "--out", out) == EXIT_OK
        lines = (out / "soft_labels.csv").read_text().strip().splitlines()
        assert lines[0] == "video_id,y_anger,y_disgust,y_fear,y_happiness,y_sadness,y_surprise"
        assert len(lines) == 8 * 18 + 1


    @pytest.mark.parametrize("row", ["v9,a1,joy,,100", "v9,a1,anger"])
    def test_bad_label_row_after_blank_line_names_its_line(self, tmp_path, capsys, row):
        labels = tmp_path / "lab2.csv"
        good = "v{},a1,anger,,100"
        labels.write_text(
            ",".join(core.LABELS_HEADER) + f"\n{good.format(0)}\n\n{good.format(1)}\n{row}\n",
            encoding="utf-8",
        )
        assert run("encode-labels", "--labels", labels, "--out", tmp_path / "enc") == EXIT_DATA
        assert f"{labels}:5: " in capsys.readouterr().err


class TestFuseEvaluate:
    def make_config(self, tmp_path, data, folds_path, **extra):
        cfg = {
            "predictions_dir": str(data / "predictions"),
            "labels_file": str(data / "labels.csv"),
            "folds_file": str(folds_path),
            "output_dir": str(tmp_path / "run"),
            "seed": 7,
        }
        cfg.update(extra)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_end_to_end_outputs(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
        out = tmp_path / "run"
        for name in (
            "weights.csv",
            "weight_search_log.csv",
            "thresholds.json",
            "results.csv",
            "results.json",
            "score_surface.svg",
            "fold_beta.svg",
            "run_meta.json",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "results.json").read_text())
        meta = json.loads((out / "run_meta.json").read_text())
        assert report["config_hash"] == meta["config_hash"]
        thresholds = json.loads((out / "thresholds.json").read_text())
        assert thresholds["config_hash"] == meta["config_hash"]
        # single informative encoder at high thresholds quality: mean score positive
        assert 0.0 < report["mean"]["score"] <= 1.0

    def test_emit_plots_false_writes_no_svg(self, tmp_path):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = self.make_config(tmp_path, data, make_folds(tmp_path, data), emit_plots=False)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
        out = tmp_path / "run"
        assert not list(out.glob("*.svg"))
        outputs = json.loads((out / "run_meta.json").read_text())["outputs"]
        assert sorted(outputs) == [
            "results.csv", "results.json", "thresholds.json", "weight_search_log.csv", "weights.csv",
        ]

    @pytest.mark.parametrize("case", ["not-an-object", "key-omitted", "no-prediction-files"])
    def test_run_config_fault_exits_with_its_message(self, tmp_path, capsys, case):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = self.make_config(tmp_path, data, make_folds(tmp_path, data))
        cfg = json.loads(cfg_path.read_text())
        empty = tmp_path / "empty"
        empty.mkdir()
        if case == "not-an-object":
            cfg, code, message = list(cfg.items()), EXIT_CONFIG, f"{cfg_path}: run config must be a JSON object"
        elif case == "key-omitted":
            del cfg["folds_file"]
            code, message = EXIT_CONFIG, "missing required config key 'folds_file'"
        else:
            cfg["predictions_dir"] = str(empty)
            code, message = EXIT_DATA, f"no prediction files under {empty}"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("fuse-evaluate", "--config", cfg_path) == code
        assert message in capsys.readouterr().err

    def test_deeply_nested_config_is_config_error_naming_the_file(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = self.make_config(tmp_path, data, make_folds(tmp_path, data), alpha_grid=[])
        cfg_path.write_text(cfg_path.read_text().replace("[]", DEEP_JSON), encoding="utf-8")
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read config {cfg_path}: " in err
        assert "Traceback" not in err

    def test_dataset_is_built_once_per_run(self, tmp_path, monkeypatch):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = self.make_config(tmp_path, data, make_folds(tmp_path, data))
        calls = []
        build = FusionDataset.build

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(FusionDataset, "build", classmethod(counted))
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
        assert len(calls) == 1

    def test_single_fold_is_data_error_naming_the_fold_left_without_training_data(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        actors = set(core.load_labels(data / "labels.csv").actor_ids)
        folds_path = tmp_path / "folds.csv"
        save_folds(FoldAssignment({a: 1 for a in actors}, 2), folds_path)  # fold 0 unused
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {folds_path}: ")
        assert "fold 1 would leave no training data" in err
        assert "Traceback" not in err

    def test_unknown_config_key_rejected(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path, typo_key=1)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG

    def test_missing_path_rejected(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(
            tmp_path, data, folds_path, labels_file=str(tmp_path / "ghost.csv")
        )
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG

    def test_disjoint_encoder_video_sets_rejected(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data)
        full = core.load_predictions(data / "predictions" / "synth.csv", "partial")
        some_videos = sorted(full.rows)[: len(full.rows) // 2]
        partial = core.EncoderPredictionSet(
            "partial",
            {v: full.rows[v] for v in some_videos},
            {v: full.actors[v] for v in some_videos},
        )
        core.save_predictions(partial, data / "predictions" / "partial.csv")
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_DATA

    def test_corrupt_predictions_is_data_error(self, tmp_path):
        data = synth_dataset(tmp_path)
        folds_path = make_folds(tmp_path, data)
        bad = data / "predictions" / "bad.csv"
        bad.write_text("video_id,actor_id,p_anger\nv,a,0.5\n", encoding="utf-8")
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_DATA

    @pytest.mark.parametrize(
        "row, message",
        [
            ("v1,a1,nan,0.5,0,0,0,0.5", "non-finite probability"),
            ("v1,a1,-0.1,0.6,0,0,0,0.5", "negative probability"),
            ("v1,a1,0.5,0.5,0.01,0,0,0", "beyond repair tolerance"),
            ("v1,a1,0.5,0.5,0,0,0", "expected 8 fields"),
            ("v0,a2,0.5,0.5,0,0,0,0", "listed under two actors"),
        ],
    )
    def test_malformed_prediction_row_is_data_error(self, tmp_path, capsys, row, message):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        bad = data / "predictions" / "bad.csv"
        bad.write_text(
            ",".join(core.PREDICTIONS_HEADER) + "\nv0,a1,0.5,0.5,0,0,0,0\n" + row + "\n",
            encoding="utf-8",
        )
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:3: " in err and message in err

    @pytest.mark.parametrize("step", [0, -0.1, 0.3, "0.5", pytest.param(10**400, id="huge-int")])
    def test_exhaustive_step_must_divide_one(self, tmp_path, step):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        shutil.copy(data / "predictions" / "synth.csv", data / "predictions" / "copy.csv")
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(
            tmp_path, data, folds_path, fusion_strategy="exhaustive", exhaustive_step=step
        )
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG

    @pytest.mark.parametrize("step", [1e-6, 5e-324])
    def test_oversized_exhaustive_grid_is_config_error_before_inputs_are_read(self, tmp_path, capsys, step):
        # 1e-6 divides 1 into a grid of about 5e11 points; 1 / 5e-324 overflows.
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        (data / "labels.csv").write_text("not a labels file\n", encoding="utf-8")
        cfg_path = self.make_config(
            tmp_path, data, folds_path, fusion_strategy="exhaustive", exhaustive_step=step
        )
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        assert f"exhaustive_step {step!r} makes a three-encoder grid" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["start", "stop", "step"])
    def test_grid_object_missing_key_is_config_error(self, tmp_path, capsys, missing):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        grid = {k: v for k, v in {"start": 0, "stop": 0.5, "step": 0.1}.items() if k != missing}
        cfg_path = self.make_config(tmp_path, data, folds_path, alpha_grid=grid)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        assert repr(missing) in capsys.readouterr().err

    def test_bad_flag_is_config_error(self, tmp_path):
        assert run("fuse-evaluate", "--no-such-flag") == EXIT_CONFIG

    def test_seed_flag_is_rejected(self, tmp_path):
        # The run config's seed key stays; no flag overrides it.
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = self.make_config(tmp_path, data, make_folds(tmp_path, data))
        assert run("fuse-evaluate", "--config", cfg_path, "--seed", 1) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["alpha_grid", "beta_grid"])
    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_is_config_error(self, tmp_path, capsys, key, grid):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path, **{key: json.loads(grid)})
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err
        assert CONFIG_MESSAGES.get(grid, "").format(name=key) in err

    @pytest.mark.parametrize(
        "init",
        ['["x", 0.1]', "[2, 0.1]", "[0.1, -0.5]", "[0.1, NaN]", "[true, 0.1]", "[0.1]", "0.1", "[0.1, 0.2, 0.3]"],
    )
    def test_bad_initial_thresholds_is_config_error(self, tmp_path, capsys, init):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path, initial_thresholds=json.loads(init))
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "initial_thresholds" in err
        assert CONFIG_MESSAGES.get(init, "") in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"),
            ("seed", True),
            ("threads", 0),
            ("threads", -1),
            ("threads", 1.5),
            ("emit_plots", 1),
            ("renormalize_before_beta", "yes"),
            ("neutral_index", True),
            ("labels_file", 5),
        ],
    )
    def test_value_of_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path, **{key: value})
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_threads_flag_below_one_is_config_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path, "--threads", 0) == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [("v9,a1,0.5,0.5,0,0,0", "expected 8 fields"), ("v9,a1,nan,0.5,0,0,0,0.5", "non-finite")],
    )
    def test_bad_prediction_row_after_blank_line_names_its_line(self, tmp_path, capsys, row, message):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        bad = data / "predictions" / "p2.csv"
        good = "v0,a1,0.5,0.5,0,0,0,0"
        bad.write_text(
            ",".join(core.PREDICTIONS_HEADER) + f"\n{good}\n\n{good}\n{row}\n", encoding="utf-8"
        )
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:5: " in err and message in err

    def test_config_of_paths_only_yields_default_settings(self, tmp_path):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        paths = {
            "predictions_dir": str(data / "predictions"),
            "labels_file": str(data / "labels.csv"),
            "folds_file": str(folds_path),
            "output_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "paths.json"
        cfg_path.write_text(json.dumps(paths), encoding="utf-8")
        resolved, settings = cli.load_run_config(cfg_path, {})
        assert settings == CrossValConfig()
        assert {k: resolved[k] for k in paths} == paths

    def test_feature_dir_key_is_config_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path, feature_dir=str(data))
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_CONFIG
        assert "unknown config keys: ['feature_dir']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_perfect_oracle_scores_one_on_every_fold(self, tmp_path):
        rng = np.random.default_rng(4)
        records = []
        for a in range(4):
            for c in range(9):
                kind = c % 3
                i, j = (int(v) for v in rng.choice(6, size=2, replace=False))
                if kind == 0:
                    ann = core.BlendAnnotation(core.EMOTIONS[i], None, 100)
                elif kind == 1:
                    lo, hi = sorted((i, j))
                    ann = core.BlendAnnotation(core.EMOTIONS[lo], core.EMOTIONS[hi], 50)
                else:
                    ann = core.BlendAnnotation(core.EMOTIONS[i], core.EMOTIONS[j], 70)
                records.append(core.SampleRecord(f"a{a}_v{c}", f"a{a}", ann))
        data = tmp_path / "oracle_data"
        (data / "predictions").mkdir(parents=True)
        core.save_labels(records, data / "labels.csv")
        from blendfuse.labels import encode_soft_label

        rows = {
            r.video_id: (core.EmotionDistribution(encode_soft_label(r.annotation).values),)
            for r in records
        }
        actors = {r.video_id: r.actor_id for r in records}
        core.save_predictions(
            core.EncoderPredictionSet("oracle", rows, actors), data / "predictions" / "oracle.csv"
        )
        folds_path = make_folds(tmp_path, data)
        cfg_path = self.make_config(tmp_path, data, folds_path)
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
        report = json.loads((tmp_path / "run" / "results.json").read_text())
        for fold in report["folds"]:
            assert fold["score"] == 1.0


@pytest.mark.parametrize(
    "case",
    ["labels", "predictions", "folds", "weights", "split-manifest", "feature-manifest", "run-config"],
)
def test_input_that_is_not_utf8_is_an_error_naming_the_file(tmp_path, capsys, case):
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    labels, preds = data / "labels.csv", data / "predictions" / "synth.csv"
    weights = tmp_path / "weights.csv"
    weights.write_text("encoder,weight\nsynth,1.0\n", encoding="utf-8")
    (tmp_path / "mlp").mkdir()
    feature_dir = feature_inputs(tmp_path / "mlp")["--features"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "predictions_dir": str(data / "predictions"), "labels_file": str(labels),
        "folds_file": str(folds), "output_dir": str(tmp_path / "run"),
    }), encoding="utf-8")
    sensitivity = [
        "sensitivity", "--predictions", preds, "--labels", labels, "--folds", folds,
        "--weights", weights, "--out", tmp_path / "s",
    ]
    path, argv, code = {
        "labels": (labels, sensitivity, EXIT_DATA),
        "predictions": (preds, sensitivity, EXIT_DATA),
        "folds": (folds, sensitivity, EXIT_DATA),
        "weights": (weights, sensitivity, EXIT_DATA),
        "split-manifest": (labels, ["split", "--manifest", labels, "--out", tmp_path / "f"], EXIT_DATA),
        "feature-manifest": (
            feature_dir / "manifest.csv",
            ["aggregate", "--features", feature_dir, "--out", tmp_path / "agg"],
            EXIT_DATA,
        ),
        "run-config": (config, ["fuse-evaluate", "--config", config], EXIT_CONFIG),
    }[case]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert run(*argv) == code
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [
        ("split", "--manifest"),
        ("encode-labels", "--labels"),
        ("sensitivity", "--labels"),
        ("sensitivity", "--folds"),
        ("sensitivity", "--weights"),
        ("verify-identities", "--results"),
        ("verify-identities", "--weights"),
        ("fuse-evaluate", "labels_file"),
        ("fuse-evaluate", "predictions_dir"),
    ],
)
def test_directory_in_place_of_a_csv_file_is_data_error_naming_it(tmp_path, capsys, command, key):
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    weights = tmp_path / "weights.csv"
    weights.write_text("encoder,weight\nsynth,1.0\n", encoding="utf-8")
    # Every *.csv under a predictions directory is read, a directory too.
    directory = (data / "predictions" if key == "predictions_dir" else tmp_path) / "x.csv"
    directory.mkdir()
    if command == "fuse-evaluate":
        extra = {} if key == "predictions_dir" else {key: str(directory)}
        argv = ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds, **extra)]
    else:
        inputs = {
            "split": {"--manifest": data / "labels.csv"},
            "encode-labels": {"--labels": data / "labels.csv"},
            "sensitivity": {
                "--predictions": data / "predictions", "--labels": data / "labels.csv",
                "--folds": folds, "--weights": weights,
            },
            "verify-identities": {},
        }[command]
        inputs[key] = directory
        out = [] if command == "verify-identities" else ["--out", tmp_path / "out"]
        argv = flags_of(inputs) + out
    assert run(command, *argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"{directory}: cannot read file" in captured.err + captured.out


@pytest.mark.parametrize(
    "command, target",
    [
        ("fuse-evaluate", "predictions"),
        ("fuse-evaluate", "labels"),
        ("split", "labels"),
        ("split", "header"),
    ],
)
def test_over_long_field_is_data_error_naming_its_line(tmp_path, capsys, command, target):
    # csv.reader rejects a field over csv.field_size_limit() (131072 characters).
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    path = data / ("predictions/synth.csv" if target == "predictions" else "labels.csv")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    long_id = "v" * 200_000
    if target == "header":
        lines[0] = long_id + lines[0]
        lineno = 1
    else:
        lines.append(long_id + lines[-1][lines[-1].index(","):])
        lineno = len(lines)
    path.write_text("".join(lines), encoding="utf-8")
    if command == "split":
        argv = ["--manifest", path, "--k", 2, "--out", tmp_path / "out"]
    else:
        argv = ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds)]
    assert run(command, *argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"{path}:{lineno}: field larger than field limit" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["folds", "weights", "feature-manifest"])
def test_repeated_key_is_data_error_naming_its_line(tmp_path, capsys, case):
    # A repeated key used to overwrite the earlier row: the actor moved to its
    # last fold, the weights file loaded as a simplex, the video was aggregated twice.
    if case == "feature-manifest":
        inputs = feature_inputs(tmp_path)
        path = inputs["--features"] / "manifest.csv"
        argv = ["aggregate", "--features", inputs["--features"], "--out", tmp_path / "agg",
                "--layer-lo", 0, "--layer-hi", 0]
    elif case == "weights":
        path = tmp_path / "weights.csv"
        path.write_text("encoder,weight\nenc_a,0.5\nenc_b,0.5\n", encoding="utf-8")
        argv = ["verify-identities", "--weights", path]
    else:
        data = synth_dataset(tmp_path, actors=4, clips=6)
        path = make_folds(tmp_path, data)
        argv = ["fuse-evaluate", "--config", TestFuseEvaluate().make_config(tmp_path, data, path)]
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    assert run(*argv) == EXIT_DATA
    captured = capsys.readouterr()
    key = lines[1].split(",")[0]
    assert f"{path}:{len(lines) + 1}: " in captured.err + captured.out
    assert f"{key!r} is listed twice" in captured.err + captured.out


@functools.cache
def _valid_labels_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        core.save_labels(synth.generate(synth.SynthConfig(n_actors=6, clips_per_actor=3, seed=1)).records, path)
        return path.read_bytes()


@st.composite
def _mutated_labels(draw):
    """The bytes of a valid labels file after one mutation, or None for a
    directory in place of the file."""
    return _mutated(draw, _valid_labels_bytes())


# Values a field of a valid input may take, by file and column.
_VALID_VALUES = {
    "labels.csv": {2: [e.label for e in core.EMOTIONS], 3: [e.label for e in core.EMOTIONS],
                   4: ["100", "70", "50", "30"]},
    "folds.csv": {1: ["0", "1", "2"]},
}


def _mutated(draw, raw, name="labels.csv"):
    """``raw``, the bytes of the valid input file ``name`` (a CSV file, or a
    ``.feat`` file of space-separated rows), after one mutation drawn with
    ``draw``, or None for a directory in place of the file.  Two rows
    swapped, or a field of ``_VALID_VALUES`` set to another of its values,
    may leave the file valid."""
    newline, sep = (b"\n", b" ") if name.endswith(".feat") else (b"\r\n", b",")
    lines = raw.split(newline)  # the last "line" is the empty tail
    kinds = ["truncate", "flip", "drop field", "not utf-8", "empty", "header", "dir", "swap rows"]
    kind = draw(st.sampled_from(kinds + ["valid value"] * (name in _VALID_VALUES)))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw)))]
    if kind == "flip":
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
    if kind == "drop field":
        i = draw(st.integers(0, len(lines) - 2))
        fields = lines[i].split(sep)
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[i] = sep.join(fields)
        return newline.join(lines)
    if kind == "not utf-8":
        i = draw(st.integers(0, len(raw)))
        return raw[:i] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[i:]
    if kind == "empty":
        return b""
    if kind == "header":
        return lines[0] + newline
    if kind == "dir":
        return None
    if kind == "swap rows":
        i, j = draw(st.lists(st.integers(1, len(lines) - 2), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
        return newline.join(lines)
    i = draw(st.integers(1, len(lines) - 2))
    column, values = draw(st.sampled_from(sorted(_VALID_VALUES[name].items())))
    fields = lines[i].split(sep)
    fields[column] = draw(st.sampled_from([v.encode() for v in values if v.encode() != fields[column]]))
    lines[i] = sep.join(fields)
    return newline.join(lines)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(raw=_mutated_labels())
def test_mutated_labels_file_exits_cleanly_naming_it(raw):
    # Every outcome is a success or a one-line error: no traceback, no other
    # exit code, and a data error leads with the file it is about.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        if raw is None:
            path.mkdir()
        else:
            path.write_bytes(raw)
        for command, flag in [("split", "--manifest"), ("encode-labels", "--labels")]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(command, flag, path, "--out", Path(tmp) / "out")
            assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG)
            assert "Traceback" not in err.getvalue()
            if code == EXIT_DATA:
                assert err.getvalue().startswith(f"validation error: {path}")


@functools.cache
def _small_synth():
    """A synthetic dataset of 6 actors with 3 clips each."""
    return synth.generate(synth.SynthConfig(n_actors=6, clips_per_actor=3, seed=1))


@functools.cache
def _fusion_input_bytes():
    """The bytes of a small labels file, its predictions file and a 3-fold
    folds file, by path relative to the inputs."""
    data = _small_synth()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        core.save_labels(data.records, root / "labels.csv")
        core.save_predictions(data.predictions, root / "synth.csv")
        save_folds(split_actors([r.actor_id for r in data.records], 3), root / "folds.csv")
        return {"labels.csv": (root / "labels.csv").read_bytes(),
                "predictions/synth.csv": (root / "synth.csv").read_bytes(),
                "folds.csv": (root / "folds.csv").read_bytes()}


@functools.cache
def _feature_input_bytes():
    """The bytes of a feature directory for the videos of ``_fusion_input_bytes``,
    by path relative to the inputs: one 1 x 4 x 6 ``.feat`` file per video and
    ``features/manifest.csv``."""
    with tempfile.TemporaryDirectory() as tmp:
        feat_dir = write_feature_dir(Path(tmp), _small_synth().records, np.random.default_rng(0))
        return {f"features/{p.name}": p.read_bytes() for p in sorted(feat_dir.iterdir())}


@st.composite
def _mutated_input(draw):
    """The relative path of an input of ``_fusion_input_bytes`` or of the
    first ``.feat`` file of ``_feature_input_bytes``, and its mutated bytes."""
    inputs = {**_fusion_input_bytes(), **_feature_input_bytes()}
    name = draw(st.sampled_from([*_fusion_input_bytes(), min(n for n in inputs if n.endswith(".feat"))]))
    return name, _mutated(draw, inputs[name], Path(name).name)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_mutated_input())
def test_mutated_input_file_exits_cleanly_and_alike_cold_and_warm(case):
    # As for the labels file through split and encode-labels, and a second
    # run, served from the input cache where the first one stored entries,
    # ends exactly as the first, with the same data outputs.
    name, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, data in {**_fusion_input_bytes(), **_feature_input_bytes()}.items():
            (root / file).parent.mkdir(exist_ok=True)
            (root / file).write_bytes(data)
        mutated = root / name
        if raw is None:
            mutated.unlink()
            mutated.mkdir()
        else:
            mutated.write_bytes(raw)
        grid = [0.0, 0.1, 0.2]
        inputs = {"predictions_dir": str(root / "predictions"), "labels_file": str(root / "labels.csv"),
                  "folds_file": str(root / "folds.csv")}
        (root / "run.json").write_text(json.dumps({**inputs, "alpha_grid": grid, "beta_grid": grid}), encoding="utf-8")
        commands = [
            ["fuse-evaluate", "--config", root / "run.json"],
            ["sensitivity", "--predictions", root / "predictions", "--labels", root / "labels.csv",
             "--folds", root / "folds.csv", "--alpha-grid", json.dumps(grid), "--beta-grid", json.dumps(grid)],
            ["train-mlp", "--features", root / "features", "--labels", root / "labels.csv",
             "--folds", root / "folds.csv", "--layer-lo", 0, "--layer-hi", 0, "--hidden", 4, "--epochs", 2],
        ]
        for argv in commands:
            for cache in (root / core.CACHE_DIR, root / "predictions" / core.CACHE_DIR, root / "features" / core.CACHE_DIR):
                shutil.rmtree(cache, ignore_errors=True)
            outcomes = []
            for _ in ("cold", "warm"):
                shutil.rmtree(root / "out", ignore_errors=True)
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = run(*argv, "--out", root / "out")
                outputs = {p.relative_to(root): p.read_bytes() for p in sorted((root / "out").rglob("*"))
                           if p.is_file() and p.name != "run_meta.json"}
                outcomes.append((code, err.getvalue(), outputs))
            assert outcomes[1] == outcomes[0]
            code, message, outputs = outcomes[0]
            assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG)
            assert "Traceback" not in message
            if code == EXIT_OK:
                assert outputs
            if code == EXIT_DATA:
                named = [path for path in root.rglob("*") if path.suffix in (".csv", ".feat")]
                assert any(message.startswith(f"validation error: {path}") for path in named), message


_VALID_RUN_CONFIG = {
    "predictions_dir": "predictions", "labels_file": "labels.csv", "folds_file": "folds.csv",
    "output_dir": "out", "seed": 0, "alpha_grid": [0.0, 0.1, 0.2], "beta_grid": [0.0, 0.1, 0.2],
    "fusion_strategy": "coordinate_ascent", "threshold_strategy": "per_fold_average",
    "neutral_index": None, "renormalize_before_beta": False, "joint_threshold_search": False,
    "initial_thresholds": [0.1, 0.1], "exhaustive_step": 0.5, "emit_plots": False,
}
# Values of every JSON type, some of a key's type but out of its range.
_JSON_VALUES = [1, -1, 10**400, 0.5, "x", True, None, [], {}, [0.1, "x"], {"start": 0}]


def _assert_run_config_exits_cleanly(raw, key, *flags):
    """Run fuse-evaluate with ``flags`` on small valid inputs with the run
    config ``raw`` (None: a directory in its place), its paths relative to
    the inputs: a success, or a one-line error that names the config file or
    ``key``."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        root = Path(tmp)
        for file, data in _fusion_input_bytes().items():
            (root / file).parent.mkdir(exist_ok=True)
            (root / file).write_bytes(data)
        cfg_path = root / "run.json"
        if raw is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("fuse-evaluate", "--config", cfg_path, *flags)
        message = err.getvalue()
        assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG)
        assert "Traceback" not in message
        if code != EXIT_OK:
            named = str(cfg_path) in message or key is not None and (key in message or repr(key) in message)
            assert named, message


@pytest.mark.parametrize("key", sorted(cli._RUN_CONFIG_KEYS))
def test_run_config_value_of_any_type_exits_cleanly_naming_its_key(key):
    for value in _JSON_VALUES:
        _assert_run_config_exits_cleanly(json.dumps({**_VALID_RUN_CONFIG, key: value}).encode(), key)


@st.composite
def _mutated_run_config(draw):
    """The bytes of a valid run config after one mutation, or None for a
    directory in place of the file; and the key the mutation puts at fault,
    if it is one key."""
    raw = json.dumps(_VALID_RUN_CONFIG).encode()
    kind = draw(st.sampled_from(["truncate", "flip", "not utf-8", "empty", "dir", "unknown", "deep"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))], None
    if kind == "flip":
        i = draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
        try:
            cfg = json.loads(raw)
        except ValueError:
            return raw, None
        if not isinstance(cfg, dict):
            return raw, None
        # Still an object: the key the flip renamed or gave another value, if any.
        changed = (k for k in cfg if k not in _VALID_RUN_CONFIG or cfg[k] != _VALID_RUN_CONFIG[k])
        return raw, next(changed, None)
    if kind == "not utf-8":
        i = draw(st.integers(0, len(raw)))
        return raw[:i] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[i:], None
    if kind in ("empty", "dir"):
        return (b"" if kind == "empty" else None), None
    key = draw(st.sampled_from(sorted(cli._RUN_CONFIG_KEYS)))
    if kind == "unknown":
        return json.dumps({**_VALID_RUN_CONFIG, key + "_": 1}).encode(), key + "_"
    depth = draw(st.sampled_from([2, 50, 500, 100_000]))
    raw = json.dumps({**_VALID_RUN_CONFIG, key: "@"}).encode()
    return raw.replace(b'"@"', b"[" * depth + b"]" * depth), key


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=_mutated_run_config())
def test_mutated_run_config_exits_cleanly_naming_the_file_or_key(case):
    # A flipped output_dir could name any directory; --out keeps outputs in place.
    _assert_run_config_exits_cleanly(*case, "--out", "out")


# Flag values by kind: ints, floats and words, each with values out of every
# field's range.  Ints stop at 5 or jump to 2**70, and grid steps skip the
# fine steps a grid bound still admits, so that no draw asks for a large
# array; 2**70 and 1e-300 are refused before anything is allocated.
_FLAG_INTS = ["-" + str(2**70), "-1", "0", "1", "2", "5", str(2**70)]
_FLAG_FLOATS = ["nan", "inf", "-inf", "1e400", "-1", "-0.0", "0", "1e-320", "0.3", "0.5", "1", "2", "1e308"]
_FLAG_WORDS = ["", "x", "segment_mean", "global_median", " global_mean "]
_GRID_STEPS = [0, -0.1, -0.0, 1e-300, 1e-5, 0.25, 0.5, 1, 2, "nan", "0.5"]
# The item values of each comma-list flag, by the kind its parser takes.
_LIST_ITEMS = {"--hidden": _FLAG_INTS, "--stats": _FLAG_WORDS, "--mix": _FLAG_FLOATS}

# The flag tables of each command, and the flags it runs with on the inputs
# of _fusion_input_bytes and _feature_input_bytes; a drawn flag comes after
# them, so it overrides one of them.
_FLAG_COMMANDS = {
    "aggregate": ((cli._AGGREGATION_FLAGS,), ["--features", "features", "--layer-lo", "0", "--layer-hi", "0"]),
    "train-mlp": ((cli._AGGREGATION_FLAGS, cli._MLP_FLAGS),
                  ["--features", "features", "--labels", "labels.csv", "--folds", "folds.csv", "--layer-lo", "0",
                   "--layer-hi", "0", "--hidden", "4", "--epochs", "1", "--patience", "1"]),
    "sensitivity": ((cli._CROSS_VAL_FLAGS,),
                    ["--predictions", "predictions", "--labels", "labels.csv", "--folds", "folds.csv",
                     "--alpha-grid", "[0, 0.1]", "--beta-grid", "[0, 0.1]"]),
    "synth": ((cli._SYNTH_FLAGS,), ["--actors", "2", "--clips", "2"]),
}


@st.composite
def _flag_value(draw, flag):
    """A value of ``flag``'s kind: one of its kind's values, a comma list
    that may hold empty items, or a JSON grid list or start/stop/step object
    with a zero, negative or tiny step among others."""
    if flag.parse is cli._grid:
        if draw(st.booleans()):
            return json.dumps(draw(st.lists(st.sampled_from([-1, 0, 0.1, 0.5, 1, 2]), max_size=4)))
        start, stop = draw(st.sampled_from([0, 0.5, 1, -1])), draw(st.sampled_from([0, 0.5, 1, 2]))
        step = draw(st.sampled_from(_GRID_STEPS))
        return json.dumps({"start": start, "stop": stop, "step": step}).replace('"nan"', "NaN")
    if flag.parse is not None:
        items = st.sampled_from(["", *_LIST_ITEMS[flag.flag]])
        return ",".join(draw(st.lists(items, min_size=1, max_size=4)))
    return draw(st.sampled_from({int: _FLAG_INTS, float: _FLAG_FLOATS}[flag.kind]))


@st.composite
def _flagged_command(draw):
    """A command of _FLAG_COMMANDS with one or two of its table flags set to
    drawn values.  --epochs and --patience are not drawn together: both at
    2**70 would train for as long as the validation loss improves."""
    command = draw(st.sampled_from(sorted(_FLAG_COMMANDS)))
    tables, argv = _FLAG_COMMANDS[command]
    flags = draw(st.lists(st.sampled_from([f for table in tables for f in table]), min_size=1, max_size=2,
                          unique=True).filter(lambda fs: {"--epochs", "--patience"} - {f.flag for f in fs}))
    values = [(f, draw(_flag_value(f))) for f in flags]
    return [command, *argv, *(x for f, value in values for x in (f.flag, value))], [f for f, _ in values]


def _assert_exits_cleanly_naming(argv, names, files=None):
    """Run ``argv`` in a directory holding the inputs of _fusion_input_bytes
    and _feature_input_bytes, and ``files`` by name (None: a directory in
    its place): a success, or a one-line error that names an input file or
    one of ``names``."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for file, data in {**_fusion_input_bytes(), **_feature_input_bytes(), **(files or {})}.items():
            Path(file).parent.mkdir(exist_ok=True)
            if data is None:
                Path(file).mkdir()
            else:
                Path(file).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(*argv, "--out", "out")
        message = err.getvalue()
        assert code in (EXIT_OK, EXIT_DATA, EXIT_CONFIG, EXIT_NUMERIC)
        assert "Traceback" not in message
        if code in (EXIT_DATA, EXIT_CONFIG):
            inputs = [str(p) for p in Path().rglob("*") if p.suffix in (".csv", ".feat")]
            assert any(name in message for name in [*names, *inputs]), message


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_flagged_command())
def test_flag_value_of_any_kind_exits_cleanly_naming_the_flag(case):
    # A config error names the flag, or the config field it sets.  Every
    # comma-list flag of the tables draws items of its own kind.
    tables = {table for tables, _ in _FLAG_COMMANDS.values() for table in tables}
    assert {f.flag for table in tables for f in table if f.parse not in (None, cli._grid)} == set(_LIST_ITEMS)
    argv, flags = case
    _assert_exits_cleanly_naming(argv, [name for f in flags for name in (f.flag, f.field)])


@functools.cache
def _weights_bytes():
    """A weights file for the encoder of _fusion_input_bytes and its twin."""
    with tempfile.TemporaryDirectory() as tmp:
        fusion.save_weights(fusion.WeightVector({"synth": 0.6, "twin": 0.4}), Path(tmp) / "weights.csv")
        return (Path(tmp) / "weights.csv").read_bytes()


@st.composite
def _mutated_weights(draw):
    """The bytes of a valid weights file after one mutation, or None for a
    directory in place of the file."""
    return _mutated(draw, _weights_bytes(), "weights.csv")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw=_mutated_weights())
def test_mutated_weights_file_exits_cleanly_naming_it(raw):
    argv = ["sensitivity", *_FLAG_COMMANDS["sensitivity"][1], "--weights", "weights.csv"]
    twin = _fusion_input_bytes()["predictions/synth.csv"]
    _assert_exits_cleanly_naming(argv, [], {"predictions/twin.csv": twin, "weights.csv": raw})


class TestGridSizeBound:
    def test_bound_is_inclusive(self):
        grid = cli._parse_grid({"start": 0, "stop": 1, "step": 1e-4}, "alpha_grid")
        assert len(grid) == cli.MAX_GRID_VALUES == 10_001
        assert grid[-1] == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            {"start": 0, "stop": 1, "step": 1e-6},
            {"start": 0, "stop": 1, "step": 1e-320},  # the value count overflows a float
            {"start": 0, "stop": 1, "step": 0.99995e-4},  # 10,002 values after rounding
            [0.5] * 10_002,
        ],
    )
    def test_larger_grid_rejected(self, spec):
        with pytest.raises(cli.ConfigError, match="alpha_grid has more than 10001 values"):
            cli._parse_grid(spec, "alpha_grid")


class TestTrainMlp:
    def test_separable_features_reach_high_presence_accuracy(self, tmp_path):
        rng = np.random.default_rng(0)
        # 6-class single-emotion task, features linearly encode the label
        records = []
        for a in range(6):
            for c in range(12):
                emotion = core.EMOTIONS[(a + c) % 6]
                records.append(
                    core.SampleRecord(
                        f"a{a}_v{c:02d}", f"a{a}", core.BlendAnnotation(emotion, None, 100)
                    )
                )
        labels_path = tmp_path / "labels.csv"
        core.save_labels(records, labels_path)
        feat_dir = write_feature_dir(tmp_path, records, rng)
        folds_out = tmp_path / "folds"
        assert run("split", "--manifest", labels_path, "--k", 3, "--out", folds_out) == EXIT_OK
        out = tmp_path / "mlp"
        code = run(
            "train-mlp", "--features", feat_dir, "--labels", labels_path,
            "--folds", folds_out / "folds.csv", "--layer-lo", 0, "--layer-hi", 0,
            "--hidden", "16", "--dropout", 0.0,
            "--lr", 0.1, "--epochs", 150, "--patience", 150, "--batch-size", 16,
            "--seed", 1, "--out", out,
        )
        assert code == EXIT_OK
        oof = core.load_predictions(out / "mlp_oof.csv", "mlp")
        cfg = PostprocessConfig(ThresholdPair(0.1, 0.1))
        preds = {vid: discretize(core.average_clips(clips), cfg) for vid, clips in oof.rows.items()}
        truth = {r.video_id: r.annotation for r in records}
        result = evaluate(preds, truth)
        assert result.acc_p >= 0.9
        for fold in range(3):
            assert (out / f"mlp_fold{fold}.npz").exists()
            assert (out / f"mlp_fold{fold}_log.csv").exists()
            assert (out / f"mlp_fold{fold}.csv").exists()

    def test_missing_features_listed(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        records = [
            core.SampleRecord(f"a{a}_v{c}", f"a{a}", core.BlendAnnotation(core.Emotion.ANGER, None, 100))
            for a in range(2)
            for c in range(2)
        ]
        labels_path = tmp_path / "labels.csv"
        core.save_labels(records, labels_path)
        feat_dir = write_feature_dir(tmp_path, records[:-1], rng)  # one missing
        folds_out = tmp_path / "folds"
        run("split", "--manifest", labels_path, "--k", 2, "--out", folds_out)
        code = run(
            "train-mlp", "--features", feat_dir, "--labels", labels_path,
            "--folds", folds_out / "folds.csv", "--layer-lo", 0, "--layer-hi", 0,
            "--out", tmp_path / "mlp",
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"validation error: {feat_dir / 'manifest.csv'}: missing features for labeled videos: ['a1_v1']\n"
        )

    def test_diverging_training_is_numeric_error(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [
            core.SampleRecord(f"a{a}_v{c}", f"a{a}", core.BlendAnnotation(core.EMOTIONS[c % 6], None, 100))
            for a in range(2)
            for c in range(12)
        ]
        labels_path = tmp_path / "labels.csv"
        core.save_labels(records, labels_path)
        feat_dir = write_feature_dir(tmp_path, records, rng)
        folds_out = tmp_path / "folds"
        run("split", "--manifest", labels_path, "--k", 2, "--out", folds_out)
        with np.errstate(all="ignore"):
            code = run(
                "train-mlp", "--features", feat_dir, "--labels", labels_path,
                "--folds", folds_out / "folds.csv", "--layer-lo", 0, "--layer-hi", 0,
                "--lr", 1e60, "--hidden", "8",
                "--epochs", 30, "--patience", 30, "--out", tmp_path / "mlp",
            )
        assert code == EXIT_NUMERIC


    def test_diverging_training_ends_in_one_message(self, tmp_path, capsys):
        # No np.errstate here: a numpy RuntimeWarning would be raised out of
        # main (the test settings make it an error) or printed before the message.
        inputs = feature_inputs(tmp_path)
        code = run("train-mlp", *flags_of(inputs), "--hidden", 4, "--lr", 1e100, "--epochs", 5,
                   "--out", tmp_path / "mlp")
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and " at epoch " in err
        assert err.count("\n") == 1

    def test_no_head_is_alive_when_a_fold_starts_training(self, tmp_path, monkeypatch):
        inputs = three_fold_inputs(tmp_path)
        train, alive = mlp.train, []

        def counting_train(*args):
            gc.collect()  # so that only reachable heads count
            alive.append(sum(isinstance(o, mlp.MlpModel) for o in gc.get_objects()))
            return train(*args)

        monkeypatch.setattr(mlp, "train", counting_train)
        assert run("train-mlp", *flags_of(inputs), "--hidden", 4, "--epochs", 2,
                   "--out", tmp_path / "mlp") == EXIT_OK
        assert alive == [0, 0, 0]

    def test_run_meta_counters_agree_with_the_written_files(self, tmp_path):
        inputs = three_fold_inputs(tmp_path)
        out = tmp_path / "mlp"
        assert run("train-mlp", *flags_of(inputs), "--hidden", "4,3", "--epochs", 8, "--patience", 2,
                   "--batch-size", 4, "--out", out) == EXIT_OK
        counters = json.loads((out / "run_meta.json").read_text())["counters"]
        val_losses = [
            [float(line.split(",")[2]) for line in (out / f"mlp_fold{k}_log.csv").read_text().splitlines()[1:]]
            for k in range(3)
        ]
        assert counters["epochs"] == [len(v) for v in val_losses]
        assert counters["best_epoch"] == [v.index(min(v)) for v in val_losses]
        assert type(counters["minor_faults"]) is int and counters["minor_faults"] >= 0  # 0 once the heap is warm
        assert len((out / "mlp_oof.csv").read_text().splitlines()) == 1 + counters["videos"] == 13
        for k in range(3):
            with np.load(out / f"mlp_fold{k}.npz") as ckpt:
                arrays = [ckpt[name] for name in ckpt.files if name != "__meta__"]
            assert arrays[0].shape[0] == counters["feature_dim"]
            assert sum(a.size for a in arrays) == counters["parameters"]

    def test_run_meta_times_the_ingest_and_each_fold(self, tmp_path):
        inputs = three_fold_inputs(tmp_path)
        out = tmp_path / "mlp"
        assert run("train-mlp", *flags_of(inputs), "--hidden", 4, "--epochs", 2, "--out", out) == EXIT_OK
        timings = json.loads((out / "run_meta.json").read_text())["timings"]
        assert timings.keys() == {"ingest_s", "train_s"}
        assert type(timings["ingest_s"]) is float and timings["ingest_s"] >= 0
        assert len(timings["train_s"]) == 3
        assert all(type(t) is float and t > 0 for t in timings["train_s"])

    @pytest.mark.parametrize("case,content,message", FEATURE_FAULTS, ids=[f[0] for f in FEATURE_FAULTS])
    def test_bad_feature_file_is_data_error(self, tmp_path, capsys, case, content, message):
        inputs = feature_inputs(tmp_path)
        path = inputs["--features"] / "a1_v0.feat"
        if content is None:
            path.unlink()
        else:
            path.write_bytes(content.encode() if isinstance(content, str) else content)
        code = run("train-mlp", *flags_of(inputs), "--hidden", "4", "--epochs", 2, "--patience", 2,
                   "--out", tmp_path / "mlp")
        assert code == EXIT_DATA
        assert message.format(path=path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lr", "-1"],
            ["--lr", "0"],
            ["--lr", "inf"],
            ["--hidden", "1024,0"],
            ["--hidden", "8,x"],
            ["--dropout", "1.5"],
            ["--batch-size", "0"],
            ["--batch-size", "1"],
            ["--patience", "-3"],
            ["--epochs", "10", "--patience", "11"],
            ["--epochs", "0", "--patience", "0"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_flag_is_config_error_before_features_are_read(self, tmp_path, monkeypatch, flags):
        inputs = feature_inputs(tmp_path)

        def no_reads(*args, **kwargs):
            raise AssertionError("a feature file was read")

        monkeypatch.setattr(features, "load_feature_file", no_reads)
        code = run("train-mlp", *flags_of(inputs), *flags, "--out", tmp_path / "mlp")
        assert code == EXIT_CONFIG

    def test_hidden_width_past_the_bound_is_config_error_naming_it(self, tmp_path, capsys):
        inputs = feature_inputs(tmp_path)

        def outcome(width):
            code = run("train-mlp", *flags_of(inputs), "--hidden", f"8,{width}", "--out", tmp_path / "mlp")
            return code, "hidden_dims" in capsys.readouterr().err

        # 2**70 columns used to end in numpy's "Maximum allowed dimension exceeded" traceback.
        assert outcome(2**70) == (EXIT_CONFIG, True)
        assert outcome(mlp.MAX_HIDDEN_WIDTH + 1) == (EXIT_CONFIG, True)

    def test_epochs_alone_caps_the_default_patience(self, tmp_path):
        inputs = feature_inputs(tmp_path)
        out = tmp_path / "mlp"
        assert run("train-mlp", *flags_of(inputs), "--hidden", "4", "--epochs", 10, "--out", out) == EXIT_OK
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        assert (resolved["epochs"], resolved["patience"]) == (10, 10)

    def test_empty_fold_is_data_error(self, tmp_path, capsys):
        inputs = feature_inputs(tmp_path)
        with open(inputs["--folds"], "a", encoding="utf-8") as fh:
            fh.write("ghost,2\n")
        code = run("train-mlp", *flags_of(inputs), "--hidden", "4", "--epochs", 2, "--patience", 2,
                   "--out", tmp_path / "mlp")
        assert code == EXIT_DATA
        assert "fold 2 holds no labeled videos" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--features", "--labels", "--folds"])
    def test_missing_input_is_config_error(self, tmp_path, capsys, flag):
        inputs = feature_inputs(tmp_path)
        ghost = tmp_path / "ghost"
        inputs[flag] = ghost
        assert run("train-mlp", *flags_of(inputs), "--out", tmp_path / "mlp") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and str(ghost) in err

    @pytest.mark.parametrize("command", ["train-mlp", "aggregate"])
    def test_feature_dir_without_manifest_is_config_error(self, tmp_path, capsys, command):
        inputs = feature_inputs(tmp_path)
        manifest = inputs["--features"] / "manifest.csv"
        manifest.unlink()
        if command == "aggregate":
            inputs = {"--features": inputs["--features"]}
        assert run(command, *flags_of(inputs), "--out", tmp_path / "out") == EXIT_CONFIG
        assert f"--features has no manifest.csv: '{manifest}'" in capsys.readouterr().err

    def test_aggregate_missing_feature_dir_is_config_error(self, tmp_path, capsys):
        ghost = tmp_path / "ghost"
        assert run("aggregate", "--features", ghost, "--out", tmp_path / "out") == EXIT_CONFIG
        assert f"--features does not exist: '{ghost}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["aggregate", "train-mlp"])
    def test_mixed_feature_widths_are_data_error_naming_the_file(self, tmp_path, capsys, command):
        inputs = feature_inputs(tmp_path)
        feat_dir = inputs["--features"]
        wide = features.FrameFeatureSequence("a1_v0", np.ones((1, 4, 7)))  # 7 dims, the others 6
        features.save_feature_file(wide, feat_dir)
        if command == "aggregate":
            argv = ["--features", feat_dir, "--layer-lo", 0, "--layer-hi", 0]
        else:
            argv = [*flags_of(inputs), "--hidden", 4, "--epochs", 2]
        assert run(command, *argv, "--out", tmp_path / "out") == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{feat_dir / 'a1_v0.feat'}: aggregates to 49 values, but {feat_dir / 'a0_v0.feat'} to 42" in err

    @pytest.mark.parametrize("command", ["aggregate", "train-mlp"])
    @pytest.mark.parametrize(
        "shape, message",
        [
            ((5, 4, 6), "layer range [6, 12] out of bounds for 5 layers"),
            ((13, 2, 6), "need at least 3 frames for 3 segments, got 2"),
        ],
        ids=["5-layers", "2-frames"],
    )
    def test_feature_shape_fault_is_data_error_naming_the_file(self, tmp_path, capsys, command, shape, message):
        # The default layer range 6..12 and 3 segments; the first manifest file is the bad one.
        inputs = {k: v for k, v in feature_inputs(tmp_path).items() if not k.startswith("--layer")}
        feat_dir = inputs["--features"]
        features.save_feature_file(features.FrameFeatureSequence("a0_v0", np.ones(shape)), feat_dir)
        argv = ["--features", feat_dir] if command == "aggregate" else [*flags_of(inputs), "--hidden", 4]
        assert run(command, *argv, "--out", tmp_path / "out") == EXIT_DATA
        assert f"{feat_dir / 'a0_v0.feat'}: {message}" in capsys.readouterr().err

    def test_non_finite_held_out_row_is_data_error_naming_its_fold(self, tmp_path, capsys, monkeypatch):
        inputs = feature_inputs(tmp_path)
        train, predict_proba = mlp.train, mlp.predict_proba
        trained, held_out_calls = [], []

        def recording_train(*args):
            result = train(*args)
            trained.append(result.model)
            return result

        def nan_for_the_second_held_out_fold(model, x, *pool):
            probs = predict_proba(model, x, *pool)
            if trained and model is trained[-1]:  # the best snapshot, predicting its held-out fold
                held_out_calls.append(len(x))
                if len(held_out_calls) == 2:
                    probs[-1] = np.nan
            return probs

        monkeypatch.setattr(mlp, "train", recording_train)
        monkeypatch.setattr(mlp, "predict_proba", nan_for_the_second_held_out_fold)
        out = tmp_path / "mlp"
        code = run("train-mlp", *flags_of(inputs), "--hidden", 4, "--epochs", 2, "--out", out)
        assert code == EXIT_DATA
        assert held_out_calls == [3, 3]
        assert "fold 1: non-finite probability in the held-out predictions" in capsys.readouterr().err
        assert (out / "mlp_fold0.csv").exists() and not (out / "mlp_fold1.csv").exists()


# SHA-256 of each train-mlp output but run_meta.json, and of aggregated.csv
# from aggregate on the same features, copied from the output of the
# implementation that built a prediction object per held-out video.
PINNED_FEATURE_OUTPUTS = {
    "2-fold": {
        "aggregated.csv": "503325ecbdf209198faa8a33e711ea3a39759c6ee2591174f58e7fdf0daced04",
        "mlp_fold0.csv": "5407132dc7a436c503435090dff49dcb8e2ef22024c475385732182c4a30e1cf",
        "mlp_fold0.npz": "3078e69f76a3207383e7919556f581bf60cf0723d3dc6fc6ddcdb66ace75b748",
        "mlp_fold0_log.csv": "8bb42e267292914e045aa18b740dc577007fc3407d6559d7e196c0e36274d2c3",
        "mlp_fold1.csv": "79ead4acdaad5a2bbcc3f824f1acaaef056abf7e65eb254293e947b94a490a8b",
        "mlp_fold1.npz": "d18d0608bd3615168de6225edf829292f5fba202d69ceb5df9ac965733254c71",
        "mlp_fold1_log.csv": "a0227f2994c6216b8cee1a91c27a0f12ed91b41fc645353402951f181338b05b",
        "mlp_oof.csv": "cbee78359325c43f648e1fc9fbc8b7d118326cce27ad28f927eb76d4b5693615",
    },
    "3-fold": {
        "aggregated.csv": "f5cec35b082e50c8f38840795d1fd1a3bf352d209c417ad197d9c639b4632d1c",
        "mlp_fold0.csv": "02fd790c3308de4e467e96ac692d14fd849bb8193b51989188a7a21ce74dfe46",
        "mlp_fold0.npz": "180dc91a690a591f6d1f9c1edd7dca35bce8611a6d89ee1118d4b9b427f97226",
        "mlp_fold0_log.csv": "c5a65a6db8f7bea49d7c0c4f6e70dac6df04131be7b5025ec013f09abd498ec2",
        "mlp_fold1.csv": "4affba2503950f693aa36cc9335d9e6f6ff540f5cb3cc8be31d991786adaf668",
        "mlp_fold1.npz": "547e4340a4dc4adda9e234bf0a86f7d05e3ded61e2c4ee766eb243d5da18a586",
        "mlp_fold1_log.csv": "57d5c966d015d142c232fc0061841eb938c555d7f8ed456d784ca8d78f176382",
        "mlp_fold2.csv": "5812b9d7f7433214e0b3f98bba64f4d39726bb1cdbd212d5a02a116b36907e5b",
        "mlp_fold2.npz": "1ae7188dc4f55b5a4d353dfc8754308160319de4f73a11891a2b72a6041c9991",
        "mlp_fold2_log.csv": "28e4f06324b83b32e551aebede014d2e4ce2b6c88555fa7b02b92b1587c4e657",
        "mlp_oof.csv": "97b580c635ad87825b2137cdfaa60b5c708bf0a1cf6cbca1497f6db596514f74",
    },
}


@pytest.mark.parametrize("case", PINNED_FEATURE_OUTPUTS)
def test_train_mlp_and_aggregate_outputs_are_pinned(tmp_path, case):
    inputs = (feature_inputs if case == "2-fold" else three_fold_inputs)(tmp_path)
    out = tmp_path / "out"
    assert run("train-mlp", *flags_of(inputs), "--hidden", 4, "--epochs", 3, "--batch-size", 4,
               "--out", out) == EXIT_OK
    assert run("aggregate", "--features", inputs["--features"], "--layer-lo", 0, "--layer-hi", 0,
               "--out", out) == EXIT_OK
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs_of(out).items()}
    assert digests == PINNED_FEATURE_OUTPUTS[case]


def test_train_mlp_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 288 features (48 dims x 3 segments x 2 statistics) into 130 hidden units,
    # trained on 40 videos a fold: gemms that two OpenBLAS threads would split
    # unlike one thread, had training not held OpenBLAS at one thread.
    records = [core.SampleRecord(f"a{a}_v{c}", f"a{a}", core.BlendAnnotation(core.EMOTIONS[c % 6], None, 100))
               for a in range(4) for c in range(20)]
    core.save_labels(records, tmp_path / "labels.csv")
    feat_dir, rng = tmp_path / "features", np.random.default_rng(0)
    feat_dir.mkdir()
    for rec in records:
        features.save_feature_file(features.FrameFeatureSequence(rec.video_id, rng.normal(size=(1, 3, 48))), feat_dir)
    features.save_feature_manifest([(r.video_id, r.actor_id, f"{r.video_id}.feat") for r in records],
                                   feat_dir / "manifest.csv")
    assert run("split", "--manifest", tmp_path / "labels.csv", "--k", 2, "--out", tmp_path / "folds") == EXIT_OK
    argv = ["train-mlp", "--features", feat_dir, "--labels", tmp_path / "labels.csv",
            "--folds", tmp_path / "folds" / "folds.csv", "--layer-lo", 0, "--layer-hi", 0, "--hidden", 130,
            "--epochs", 3]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"out{threads}"
        proc = subprocess.run([sys.executable, "-m", "blendfuse", *map(str, argv), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(outputs_of(out))
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


# The CSV-writing commands on one small synth input, run in order from one
# directory on relative paths, so the config hashes inside the JSON reports
# name no temporary directory.  The predictions of a second, noisier synth
# run join the first as a second encoder, so the weight search has a choice.
PINNED_DATA_ARGV = {
    "synth": [
        "synth", "--actors", "6", "--clips", "9", "--noise-sigma", "0.3", "--gap-lo", "0.15",
        "--gap-hi", "0.4", "--seed", "1", "--out", "data",
    ],
    "synth-noisy": ["synth", "--actors", "6", "--clips", "9", "--noise-sigma", "0.8", "--seed", "2",
                    "--out", "noisy"],
    "split": ["split", "--manifest", "data/labels.csv", "--k", "3", "--out", "folds"],
    "encode-labels": ["encode-labels", "--labels", "data/labels.csv", "--out", "enc"],
    "fuse-evaluate": ["fuse-evaluate", "--config", "run.json", "--out", "fused"],
    "sensitivity": [
        "sensitivity", "--predictions", "data/predictions", "--labels", "data/labels.csv",
        "--folds", "folds/folds.csv", "--weights", "fused/weights.csv", "--out", "sens",
    ],
}


def run_data_commands(base):
    """SHA-256 of every output of each PINNED_DATA_ARGV case but run_meta.json,
    run from ``base``."""
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for case, argv in PINNED_DATA_ARGV.items():
            assert main(argv) == EXIT_OK, case
            out = Path(argv[argv.index("--out") + 1])
            digests[case] = {name: hashlib.sha256(data).hexdigest() for name, data in outputs_of(out).items()}
            if case == "synth-noisy":
                shutil.copy("noisy/predictions/synth.csv", "data/predictions/noisy.csv")
                run_config = {
                    "predictions_dir": "data/predictions", "labels_file": "data/labels.csv",
                    "folds_file": "folds/folds.csv",
                }
                Path("run.json").write_text(json.dumps(run_config), encoding="utf-8")
    return digests


# Copied from the output of the implementation whose writers each opened
# their own csv.writer.
PINNED_DATA_OUTPUTS = {
    "synth": {
        "actor_gaps.json": "b2c51ca1c2ed7cb80defe0fa3d7cf5a2a9ab42574839d4a57ca0def73d98f6f9",
        "labels.csv": "93729d4786c3ae7a3ff2c0aed54d5870568cead89f7c2e8dce3b61760027f173",
        "predictions/synth.csv": "876ec81a44362970a317ec54c3e86356044b996e69542273acd54c64eb9796fd",
    },
    "synth-noisy": {
        "actor_gaps.json": "efb14b148f640db06b706433f5bd300d84651638e7691ffde42fc6a91cc47eb2",
        "labels.csv": "02a1cf1703ccc6630a8992a5d723fd767ace11ed6ab2da872c55e33f8413e6aa",
        "predictions/synth.csv": "976f34665510771fcf59794645cd7e581ebe30a8d130622a60dadb276d631df3",
    },
    "split": {
        "folds.csv": "3e726ea25ea912b52c4bec0c8dbad36649f889d5034e7334863d1cfd3f04a044",
    },
    "encode-labels": {
        "soft_labels.csv": "ffeb078eaf36a8ddd90eb138cde8c432d5d9097b7a8cdb63ead22d8cf8c6c94a",
    },
    "fuse-evaluate": {
        "fold_beta.svg": "8fcc0018f94eabe88183e299efa4ae7d01bf734227382d4b0ab5303b6ea3d477",
        "results.csv": "7a633bd366652c5924afda35cd217b9fe0ff94ddf6d0b4c725b9174da80892f6",
        "results.json": "2fe3d2bd7f9d7f3b8e84d4a9540c5633bf75e2bd002edc93f6b52c008aa8b459",
        "score_surface.svg": "35f80ff5d894c67feaaa8b547bc1234602ba434f63e5797f06d7713d47931bb9",
        "thresholds.json": "2ac0781faabb91efe8465d19825eb19c764dde135eca1ab434052b8bdaf71cff",
        "weight_search_log.csv": "3d22e0220c468ce70a4fd63dcb803e723310f5bf0a2f2e2ae32afe483b2063d5",
        "weights.csv": "f10c29cde13d6c39abf4567ddd83bc8d342879769fae2eef7ba124f83a6871ef",
    },
    "sensitivity": {
        "fold_beta.svg": "8fcc0018f94eabe88183e299efa4ae7d01bf734227382d4b0ab5303b6ea3d477",
        "score_surface.svg": "35f80ff5d894c67feaaa8b547bc1234602ba434f63e5797f06d7713d47931bb9",
        "sensitivity.json": "aec45b34ef91c3ae4ddd2f31db81ce749c9b84caae643eb157f4fe6d3b54f809",
    },
}


@pytest.fixture(scope="module")
def data_runs(tmp_path_factory):
    return run_data_commands(tmp_path_factory.mktemp("data-runs"))


@pytest.mark.parametrize("case", PINNED_DATA_ARGV)
def test_data_outputs_are_pinned(data_runs, case):
    assert data_runs[case] == PINNED_DATA_OUTPUTS[case]


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, tmp_path):
        a = synth_dataset(tmp_path / "a", seed=3)
        b = synth_dataset(tmp_path / "b", seed=3)
        assert outputs_of(a) == outputs_of(b)

    def test_fuse_evaluate_rerun_byte_identical(self, tmp_path):
        data = synth_dataset(tmp_path, actors=6, clips=9)
        folds_path = make_folds(tmp_path, data)
        runs = []
        for name in ("r1", "r2"):
            cfg = {
                "predictions_dir": str(data / "predictions"),
                "labels_file": str(data / "labels.csv"),
                "folds_file": str(folds_path),
                "output_dir": str(tmp_path / name),
                "seed": 5,
            }
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
            runs.append(outputs_of(tmp_path / name))
        assert runs[0] == runs[1]


class TestSensitivity:
    @pytest.mark.parametrize("flag", ["--alpha-grid", "--beta-grid"])
    @pytest.mark.parametrize("grid", BAD_GRIDS + NON_JSON_GRIDS)
    def test_bad_grid_flag_is_config_error(self, tmp_path, capsys, flag, grid):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        code = run(
            "sensitivity", "--predictions", data / "predictions", "--labels", data / "labels.csv",
            "--folds", folds_path, flag, grid, "--out", tmp_path / "s",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert name in err
        assert CONFIG_MESSAGES.get(grid, "").format(name=name) in err

    @pytest.mark.parametrize("flag", ["--alpha-grid", "--beta-grid"])
    def test_deeply_nested_grid_flag_is_config_error_naming_it(self, tmp_path, capsys, flag):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        code = run(
            "sensitivity", "--predictions", data / "predictions", "--labels", data / "labels.csv",
            "--folds", make_folds(tmp_path, data), flag, DEEP_JSON, "--out", tmp_path / "s",
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad {flag[2:].replace('-', '_')}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--predictions", "--labels", "--folds", "--weights"])
    def test_missing_input_is_config_error(self, tmp_path, capsys, flag):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        inputs = {
            "--predictions": data / "predictions",
            "--labels": data / "labels.csv",
            "--folds": folds_path,
        }
        ghost = tmp_path / "ghost.csv"
        inputs[flag] = ghost
        argv = [a for pair in inputs.items() for a in pair]
        assert run("sensitivity", *argv, "--out", tmp_path / "s") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and str(ghost) in err

    def test_report_and_graphics(self, tmp_path):
        data = synth_dataset(tmp_path, actors=10, clips=20)
        folds_path = make_folds(tmp_path, data, k=5)
        out = tmp_path / "sens"
        code = run(
            "sensitivity", "--predictions", data / "predictions" / "synth.csv",
            "--labels", data / "labels.csv", "--folds", folds_path, "--out", out,
        )
        assert code == EXIT_OK
        report = json.loads((out / "sensitivity.json").read_text())
        assert len(report["per_fold"]) == 5
        assert report["beta_max"] >= report["beta_min"]
        assert (out / "score_surface.svg").read_text().startswith("<svg")
        assert (out / "fold_beta.svg").exists()

    def test_grid_flag_missing_key_is_config_error(self, tmp_path):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        code = run(
            "sensitivity", "--predictions", data / "predictions", "--labels", data / "labels.csv",
            "--folds", folds_path, "--alpha-grid", '{"start": 0, "stop": 0.5}', "--out", tmp_path / "s",
        )
        assert code == EXIT_CONFIG

    def sensitivity(self, data, labels, folds_path, out, *flags):
        return run(
            "sensitivity", "--predictions", data / "predictions", "--labels", labels,
            "--folds", folds_path, *flags, "--out", out,
        )

    def test_neutral_index_out_of_range_is_config_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        out = tmp_path / "s"
        code = self.sensitivity(data, data / "labels.csv", folds_path, out, "--neutral-index", 9)
        assert code == EXIT_CONFIG
        assert "neutral_index out of range: 9" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_labels_is_data_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        labels = tmp_path / "header_only.csv"
        labels.write_text(",".join(core.LABELS_HEADER) + "\n", encoding="utf-8")
        assert self.sensitivity(data, labels, folds_path, tmp_path / "s") == EXIT_DATA
        assert "fold 0 holds no labeled videos" in capsys.readouterr().err

    def test_one_empty_fold_is_data_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        with open(folds_path, "a", encoding="utf-8") as fh:
            fh.write("ghost,2\n")
        code = self.sensitivity(data, data / "labels.csv", folds_path, tmp_path / "s")
        assert code == EXIT_DATA
        assert "fold 2 holds no labeled videos" in capsys.readouterr().err

    def test_config_hash_covers_the_grids(self, tmp_path):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        hashes = []
        for name, grid in (("s1", "[0.1]"), ("s2", "[0.2]")):
            out = tmp_path / name
            code = self.sensitivity(data, data / "labels.csv", folds_path, out, "--alpha-grid", grid)
            assert code == EXIT_OK
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["resolved_config"]["alpha_grid"] == json.loads(grid)
            assert json.loads((out / "sensitivity.json").read_text())["config_hash"] == meta["config_hash"]
            hashes.append(meta["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("row", ["synth", "synth,heavy"])
    def test_bad_weights_row_is_data_error(self, tmp_path, capsys, row):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        weights = tmp_path / "weights.csv"
        weights.write_text(f"encoder,weight\n{row}\n", encoding="utf-8")
        code = run(
            "sensitivity", "--predictions", data / "predictions", "--labels", data / "labels.csv",
            "--folds", folds_path, "--weights", weights, "--out", tmp_path / "s",
        )
        assert code == EXIT_DATA
        assert f"{weights}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["synth,0.5\nghost,0.5\n", "ghost,1.0\n"], ids=["one-of-two", "only"])
    def test_weights_encoder_without_predictions_is_data_error_naming_both(self, tmp_path, capsys, rows):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        weights = tmp_path / "weights.csv"
        weights.write_text(f"encoder,weight\n{rows}", encoding="utf-8")
        code = self.sensitivity(data, data / "labels.csv", folds_path, tmp_path / "s", "--weights", weights)
        assert code == EXIT_DATA
        assert f"{weights}: encoder 'ghost' has no predictions in {data / 'predictions'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, where, message",
        [
            ("actor000,0\nactor001,-1\n", ":3", "fold index must be >= 0, got -1"),
            ("actor000,0\nactor001,0\n", "", "need at least 2 folds, got 1"),
            ("", "", "need at least 2 folds, got 0"),
            ("actor000,0,junk\nactor001,1\n", ":2", "expected 2 fields, got 3"),
            ("actor000,x\n", ":2", "invalid literal for int() with base 10: 'x'"),
        ],
        ids=["negative-fold", "one-fold", "no-rows", "extra-field", "not-an-int"],
    )
    def test_bad_folds_file_is_data_error_naming_it(self, tmp_path, capsys, rows, where, message):
        data = synth_dataset(tmp_path, actors=2, clips=6)
        folds = tmp_path / "folds.csv"
        folds.write_text(f"actor_id,fold\n{rows}", encoding="utf-8")
        assert self.sensitivity(data, data / "labels.csv", folds, tmp_path / "s") == EXIT_DATA
        assert f"{folds}{where}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight, where, message",
        [
            ("-0.5", ":2", "weight for 'synth' must be finite and >= 0, got -0.5"),
            ("nan", ":2", "weight for 'synth' must be finite and >= 0, got nan"),
            ("0.5", "", "weights sum to 0.5, outside tolerance 0.005"),
        ],
        ids=["negative", "nan", "half-sum"],
    )
    def test_weights_off_the_simplex_are_data_error_naming_the_file(
        self, tmp_path, capsys, weight, where, message
    ):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        weights = tmp_path / "weights.csv"
        weights.write_text(f"encoder,weight\nsynth,{weight}\n", encoding="utf-8")
        code = self.sensitivity(data, data / "labels.csv", folds_path, tmp_path / "s", "--weights", weights)
        assert code == EXIT_DATA
        assert f"{weights}{where}: {message}" in capsys.readouterr().err


    def test_run_meta_times_the_ingest_and_the_surfaces(self, tmp_path):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        out = tmp_path / "s"
        assert self.sensitivity(data, data / "labels.csv", make_folds(tmp_path, data), out) == EXIT_OK
        timings = json.loads((out / "run_meta.json").read_text())["timings"]
        assert timings.keys() == {"ingest_s", "build_s", "surfaces_s"}
        for seconds in timings.values():
            assert type(seconds) is float and seconds >= 0


# The commands that read their inputs through the input cache.
CACHED_COMMANDS = ("fuse-evaluate", "sensitivity", "train-mlp")


def cached_command_inputs(tmp_path, command):
    """The argv of ``command`` but ``--out``, and the input files it caches:
    two prediction files (the synth one and its rows reversed) and the labels
    file, or the labels file and six feature files."""
    if command == "train-mlp":
        inputs = feature_inputs(tmp_path)
        argv = ["train-mlp", *flags_of(inputs), "--hidden", 4, "--epochs", 2]
        return argv, [inputs["--labels"], *sorted(inputs["--features"].glob("*.feat"))]
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    preds = data / "predictions"
    lines = (preds / "synth.csv").read_bytes().splitlines(keepends=True)
    (preds / "reversed.csv").write_bytes(lines[0] + b"".join(lines[:0:-1]))
    if command == "sensitivity":
        argv = ["sensitivity", "--predictions", preds, "--labels", data / "labels.csv", "--folds", folds]
    else:
        config = {"predictions_dir": str(preds), "labels_file": str(data / "labels.csv"), "folds_file": str(folds)}
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["fuse-evaluate", "--config", tmp_path / "run.json"]
    return argv, [*sorted(preds.glob("*.csv")), data / "labels.csv"]


def rewrite_with_other_valid_bytes(path):
    if path.suffix == ".feat":
        seq = features.load_feature_file(path)
        features.save_feature_file(features.FrameFeatureSequence(seq.video_id, seq.data + 1e-3), path.parent)
    else:  # the data rows reversed
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"".join(lines[:0:-1]))


class TestInputCache:
    @staticmethod
    def cache_use(argv, out):
        assert run(*argv, "--out", out) == EXIT_OK
        return json.loads((out / "run_meta.json").read_text())["input_cache"]

    @pytest.mark.parametrize("command", CACHED_COMMANDS)
    def test_run_meta_counts_the_inputs_the_cache_served(self, tmp_path, command):
        argv, files = cached_command_inputs(tmp_path, command)
        n = len(files)
        assert self.cache_use(argv, tmp_path / "r1") == {"hits": 0, "misses": n}
        assert self.cache_use(argv, tmp_path / "r2") == {"hits": n, "misses": 0}
        assert outputs_of(tmp_path / "r1") == outputs_of(tmp_path / "r2")
        rewrite_with_other_valid_bytes(files[0])
        rewrite_with_other_valid_bytes(files[-1])
        assert self.cache_use(argv, tmp_path / "r3") == {"hits": n - 2, "misses": 2}

    @pytest.mark.parametrize("command", CACHED_COMMANDS)
    def test_a_file_in_place_of_the_cache_directory_changes_no_output(self, tmp_path, command):
        # Permissions do not stop root, so a file is how an unwritable cache is made here.
        argv, files = cached_command_inputs(tmp_path, command)
        blockers = {f.parent / core.CACHE_DIR for f in files}
        for blocker in blockers:
            blocker.write_text("", encoding="utf-8")
        for name in ("blocked", "blocked-again"):
            assert self.cache_use(argv, tmp_path / name) == {"hits": 0, "misses": len(files)}
        for blocker in blockers:
            blocker.unlink()
        assert self.cache_use(argv, tmp_path / "cold") == {"hits": 0, "misses": len(files)}
        assert self.cache_use(argv, tmp_path / "warm") == {"hits": len(files), "misses": 0}
        runs = [outputs_of(tmp_path / name) for name in ("blocked", "blocked-again", "cold", "warm")]
        assert all(outputs == runs[0] for outputs in runs)

    @pytest.mark.parametrize("command", CACHED_COMMANDS)
    def test_no_entry_is_written_under_the_output_directory(self, tmp_path, monkeypatch, command):
        argv, files = cached_command_inputs(tmp_path, command)
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        for _ in range(2):
            assert run(*argv, "--out", out) == EXIT_OK
        assert not list(out.rglob(f"*{core.CACHE_DIR}*"))
        assert not [name for name in json.loads((out / "run_meta.json").read_text())["outputs"]
                    if core.CACHE_DIR in name]
        entries = sorted(p for cache in {f.parent / core.CACHE_DIR for f in files} for p in cache.iterdir())
        assert entries == sorted(f.parent / core.CACHE_DIR / f"{f.name}.npz" for f in files)


class TestVerifyIdentities:
    def test_results_identity_pass_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text(
            "fold,acc_p,acc_s,score,n\n0,0.340,0.140,0.240,100\n1,0.391,0.168,0.2795,100\n",
            encoding="utf-8",
        )
        assert run("verify-identities", "--results", good) == EXIT_OK
        bad = tmp_path / "bad.csv"
        bad.write_text("fold,acc_p,acc_s,score,n\n0,0.320,0.137,0.223,100\n", encoding="utf-8")
        assert run("verify-identities", "--results", bad) == EXIT_DATA

    def test_results_of_fuse_evaluate_pass_with_the_summary_row_skipped(self, tmp_path, capsys):
        data = synth_dataset(tmp_path, actors=4, clips=6)
        cfg_path = TestFuseEvaluate().make_config(tmp_path, data, make_folds(tmp_path, data))
        assert run("fuse-evaluate", "--config", cfg_path) == EXIT_OK
        results = tmp_path / "run" / "results.csv"
        assert "\nsummary," in results.read_text(encoding="utf-8")
        capsys.readouterr()
        assert run("verify-identities", "--results", results) == EXIT_OK
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == ["PASS row 0", "PASS row 1"]

    def test_weights_simplex(self, tmp_path):
        w = tmp_path / "weights.csv"
        w.write_text(
            "encoder,weight\n" + "\n".join(
                f"e{i},{v}" for i, v in enumerate(
                    [0.117, 0.111, 0.192, 0.090, 0.110, 0.103, 0.124, 0.079, 0.042, 0.032]
                )
            ) + "\n",
            encoding="utf-8",
        )
        assert run("verify-identities", "--weights", w) == EXIT_OK
        bad = tmp_path / "bad_weights.csv"
        bad.write_text("encoder,weight\ne0,0.5\ne1,0.4\n", encoding="utf-8")
        assert run("verify-identities", "--weights", bad) == EXIT_DATA

    @pytest.mark.parametrize("row", ["e1", "e1,0.4,0.1", "e1,abc"])
    def test_weights_bad_row_names_line(self, tmp_path, capsys, row):
        bad = tmp_path / "bad_weights.csv"
        bad.write_text(f"encoder,weight\ne0,0.6\n{row}\n", encoding="utf-8")
        assert run("verify-identities", "--weights", bad) == EXIT_DATA
        assert f"FAIL weights {bad}: {bad}:3: " in capsys.readouterr().out

    def test_requires_some_input(self):
        assert run("verify-identities") == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--tol", "--tol-simplex"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tolerance_that_cannot_fail_is_config_error_before_files_are_read(
        self, tmp_path, capsys, flag, value
    ):
        # The weights sum to 0.9, which a tolerance of NaN or infinity would pass.
        weights = tmp_path / "weights.csv"
        weights.write_text("encoder,weight\ne0,0.5\ne1,0.4\n", encoding="utf-8")
        results = tmp_path / "results.csv"
        results.write_text("fold,acc_p,acc_s,score,n\n0,0.3,0.1,0.2,10\n", encoding="utf-8")
        code = run("verify-identities", "--results", results, "--weights", weights, flag, value)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{flag} must be finite and >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"0,abc,0.1,0.2,10", "acc_p, acc_s and score must be numbers"),
            (b"0,0.1", "expected 5 fields, got 2"),
            (b"summary,0.1", "expected 5 fields, got 2"),
            (b"0,0.1,0.1,0.1,10,7", "expected 5 fields, got 6"),
        ],
    )
    def test_results_bad_row_is_data_error_naming_its_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "results.csv"
        path.write_bytes(b"fold,acc_p,acc_s,score,n\n0,0.3,0.1,0.2,10\n\n" + row + b"\n")
        assert run("verify-identities", "--results", path) == EXIT_DATA
        assert f"{path}:4: {message}" in capsys.readouterr().err

    def test_results_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_bytes(b"fold,acc_p,acc_s,score,n\n0,0.3,0.1,0.2,10\n\xff\n")
        assert run("verify-identities", "--results", path) == EXIT_DATA
        assert f"{path}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify-identities", "--results"),
        ("verify-identities", "--weights"),
        ("encode-labels", "--labels"),
        ("split", "--manifest"),
    ],
)
def test_missing_input_is_config_error(tmp_path, capsys, command, flag):
    ghost = tmp_path / "ghost.csv"
    out = [] if command == "verify-identities" else ["--out", tmp_path / "out"]
    assert run(command, flag, ghost, *out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert flag in err and str(ghost) in err


@pytest.mark.parametrize("command", ["sensitivity", "fuse-evaluate", "train-mlp"])
def test_labeled_actor_missing_from_folds_file_is_data_error_naming_both(tmp_path, capsys, command):
    folds = tmp_path / "partial_folds.csv"
    if command == "train-mlp":
        inputs = three_fold_inputs(tmp_path)  # actors a0, a1 and a2
        folds.write_text("actor_id,fold\na0,0\na1,1\n", encoding="utf-8")
        argv = [*flags_of({**inputs, "--folds": folds}), "--hidden", 4, "--epochs", 2, "--out", tmp_path / "out"]
        actor = "a2"
    else:
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds.write_text("actor_id,fold\nactor000,0\nactor001,1\n", encoding="utf-8")
        if command == "fuse-evaluate":
            argv = ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds, output_dir=str(tmp_path / "out"))]
        else:
            argv = ["--predictions", data / "predictions", "--labels", data / "labels.csv", "--folds", folds,
                    "--out", tmp_path / "out"]
        actor = "actor002"
    assert run(command, *argv) == EXIT_DATA
    assert f"{folds}: actor {actor!r} has no fold assignment" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sensitivity", "fuse-evaluate", "train-mlp"])
def test_fold_without_labeled_videos_is_data_error_led_by_the_folds_file(tmp_path, capsys, command):
    folds = tmp_path / "ghost_folds.csv"
    if command == "train-mlp":
        inputs = three_fold_inputs(tmp_path)  # actors a0, a1 and a2
        folds.write_text("actor_id,fold\na0,0\na1,1\na2,2\nghost,5\n", encoding="utf-8")
        argv = [*flags_of({**inputs, "--folds": folds}), "--hidden", 4, "--epochs", 2, "--out", tmp_path / "out"]
    else:
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds.write_text("actor_id,fold\nactor000,0\nactor001,1\nactor002,0\nactor003,1\nghost,5\n", encoding="utf-8")
        if command == "fuse-evaluate":
            argv = ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds, output_dir=str(tmp_path / "out"))]
        else:
            argv = ["--predictions", data / "predictions", "--labels", data / "labels.csv", "--folds", folds,
                    "--out", tmp_path / "out"]
    assert run(command, *argv) == EXIT_DATA
    assert capsys.readouterr().err == f"validation error: {folds}: fold 5 holds no labeled videos\n"


@pytest.mark.parametrize("command", ["sensitivity", "fuse-evaluate"])
def test_labeled_video_an_encoder_lacks_is_data_error_led_by_its_predictions_file(tmp_path, capsys, command):
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    with open(data / "labels.csv", "a", encoding="utf-8", newline="") as fh:
        fh.write("nov,actor000,anger,,100\r\n")
    # "other" sorts first and covers the new video; "synth" lacks it.
    synth_rows = (data / "predictions" / "synth.csv").read_text(encoding="utf-8")
    (data / "predictions" / "other.csv").write_text(synth_rows + "nov,actor000,1,0,0,0,0,0\r\n", encoding="utf-8")
    if command == "fuse-evaluate":
        argv = ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds, output_dir=str(tmp_path / "out"))]
    else:
        argv = ["--predictions", data / "predictions", "--labels", data / "labels.csv", "--folds", folds,
                "--out", tmp_path / "out"]
    assert run(command, *argv) == EXIT_DATA
    path = data / "predictions" / "synth.csv"
    assert capsys.readouterr().err == (
        f"validation error: {path}: encoder 'synth' has no prediction for video 'nov'\n"
    )


WRITING_COMMANDS = ["split", "encode-labels", "aggregate", "train-mlp", "fuse-evaluate", "sensitivity", "synth"]


def writing_argv(tmp_path, command, out):
    """Arguments of a run of ``command`` on small inputs under ``tmp_path``
    that writes its outputs under ``out``."""
    data = synth_dataset(tmp_path, actors=4, clips=6)
    folds = make_folds(tmp_path, data)
    (tmp_path / "mlp").mkdir()
    mlp_inputs = feature_inputs(tmp_path / "mlp")
    if command == "fuse-evaluate":
        return ["--config", TestFuseEvaluate().make_config(tmp_path, data, folds, output_dir=str(out))]
    return [
        *{
            "split": ["--manifest", data / "labels.csv", "--k", 2],
            "encode-labels": ["--labels", data / "labels.csv"],
            "aggregate": ["--features", mlp_inputs["--features"], "--layer-lo", 0, "--layer-hi", 0],
            "train-mlp": [*flags_of(mlp_inputs), "--hidden", 4, "--epochs", 2],
            "sensitivity": [
                "--predictions", data / "predictions", "--labels", data / "labels.csv", "--folds", folds,
            ],
            "synth": ["--actors", 2, "--clips", 2],
        }[command],
        "--out", out,
    ]


@pytest.mark.parametrize("under_it", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_out_that_names_a_file_is_config_error(tmp_path, capsys, command, under_it):
    taken = tmp_path / "taken"
    taken.write_text("a file\n", encoding="utf-8")
    out = taken / "run" if under_it else taken
    name = "output_dir" if command == "fuse-evaluate" else "--out"
    assert run(command, *writing_argv(tmp_path, command, out)) == EXIT_CONFIG
    assert f"{name} cannot be made a directory: {str(out)!r}" in capsys.readouterr().err



@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_out_with_a_nul_byte_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "run\x00"
    name = "output_dir" if command == "fuse-evaluate" else "--out"
    assert run(command, *writing_argv(tmp_path, command, out)) == EXIT_CONFIG
    assert f"{name} cannot be made a directory: {str(out)!r}: embedded null byte" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["aggregate", "train-mlp"])
def test_manifest_path_with_a_nul_byte_is_data_error(tmp_path, capsys, command):
    inputs = feature_inputs(tmp_path)
    manifest = inputs["--features"] / "manifest.csv"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("a1_v0.feat", "a1_v0\x00.feat"), encoding="utf-8")
    flags = flags_of(inputs) if command == "train-mlp" else [
        "--features", inputs["--features"], "--layer-lo", 0, "--layer-hi", 0
    ]
    assert run(command, *flags, "--out", tmp_path / "out") == EXIT_DATA
    path = inputs["--features"] / "a1_v0\x00.feat"
    assert f"{str(path)!r}: cannot read file: embedded null byte" in capsys.readouterr().err

# The first path each writing command writes under its output directory.
FIRST_OUTPUT = {
    "split": "folds.csv",
    "encode-labels": "soft_labels.csv",
    "aggregate": "aggregated.csv",
    "train-mlp": "mlp_fold0.npz",
    "fuse-evaluate": "weights.csv",
    "sensitivity": "score_surface.svg",
    "synth": "predictions",  # a directory, so a file takes its place
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_output_path_of_the_wrong_kind_is_config_error_naming_it(tmp_path, capsys, command):
    out = tmp_path / "run"
    taken = out / FIRST_OUTPUT[command]
    out.mkdir()
    if command == "synth":
        taken.write_text("a file\n", encoding="utf-8")
    else:
        taken.mkdir()
    assert run(command, *writing_argv(tmp_path, command, out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write output" in err and repr(str(taken)) in err


# Flags that set no config field, and so declare their own default.
OWN_DEFAULT_FLAGS = {("split", "--k"), ("verify-identities", "--tol"), ("verify-identities", "--tol-simplex")}


def test_the_package_runs_as_a_module(tmp_path):
    # An uninstalled checkout has no blendfuse script, only `python -m blendfuse`.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "blendfuse", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: blendfuse ")


def test_config_flags_default_to_none():
    """A flag that sets a config field only overrides the field's default."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest == "help" or (command, action.option_strings[0]) in OWN_DEFAULT_FLAGS:
                continue
            assert action.default is None, (command, action.option_strings[0], action.default)


# Config fields that no flag sets: fixed by the model or the generator, or
# (actor_gap_range) set by the --gap-lo/--gap-hi pair.
NO_FLAG_FIELDS = {"output_dim", "momentum", "encoder_name", "actor_gap_range"}


def test_every_config_field_has_a_flag_or_is_listed_without_one():
    tables = {
        features.AggregationConfig: cli._AGGREGATION_FLAGS,
        mlp.MlpConfig: cli._MLP_FLAGS,
        synth.SynthConfig: cli._SYNTH_FLAGS,
        CrossValConfig: cli._CROSS_VAL_FLAGS,
    }
    for cls, table in tables.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        flagged = [entry.field for entry in table]
        assert len(set(flagged)) == len(flagged) and set(flagged) <= fields, cls.__name__
        if cls is not CrossValConfig:
            assert fields - set(flagged) <= NO_FLAG_FIELDS, cls.__name__
    # fuse-evaluate's run config sets every CrossValConfig field.
    assert {f.name for f in dataclasses.fields(CrossValConfig)} <= set(cli._RUN_CONFIG_KEYS)


class TestOmittedFlagsTakeLibraryDefaults:
    """With no optional flag, each command resolves to its config dataclass's
    defaults.  Patched-in dataclasses with other defaults show that the CLI
    reads them rather than restating them."""

    def test_aggregate_averages_the_default_layers(self, tmp_path):
        rng = np.random.default_rng(5)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        seqs = [features.FrameFeatureSequence(f"v{i}", rng.normal(size=(13, 5, 3))) for i in range(2)]
        for seq in seqs:
            features.save_feature_file(seq, feat_dir)
        features.save_feature_manifest(
            [(seq.video_id, "a0", f"{seq.video_id}.feat") for seq in seqs], feat_dir / "manifest.csv"
        )
        out = tmp_path / "agg"
        assert run("aggregate", "--features", feat_dir, "--out", out) == EXIT_OK
        rows = (out / "aggregated.csv").read_text().splitlines()[1:]
        for row, seq in zip(rows, seqs):
            stored = features.load_feature_file(feat_dir / f"{seq.video_id}.feat", seq.video_id)
            expected = features.aggregate_sequence(stored, features.AggregationConfig())
            assert [float(v) for v in row.split(",")[2:]] == expected.tolist()
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        assert (resolved["layer_lo"], resolved["layer_hi"]) == (6, 12)

    def test_synth(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Small(synth.SynthConfig):
            n_actors: int = 3
            clips_per_actor: int = 2
            label_mix: tuple = (1.0, 0.0, 0.0)
            actor_gap_range: tuple = (0.1, 0.2)
            noise_sigma: float = 0.1
            seed: int = 5

        monkeypatch.setattr(synth, "SynthConfig", Small)
        out = tmp_path / "data"
        assert run("synth", "--out", out) == EXIT_OK
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        assert resolved == {
            "command": "synth", "actors": 3, "clips": 2, "mix": [1.0, 0.0, 0.0],
            "gap_lo": 0.1, "gap_hi": 0.2, "noise_sigma": 0.1, "seed": 5,
        }
        assert len(core.load_labels(out / "labels.csv").video_ids) == 6

    def test_synth_one_gap_end_keeps_the_other_default(self, tmp_path):
        out = tmp_path / "data"
        assert run("synth", "--actors", 2, "--clips", 2, "--gap-hi", 0.3, "--out", out) == EXIT_OK
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        assert (resolved["gap_lo"], resolved["gap_hi"]) == (synth.SynthConfig().actor_gap_range[0], 0.3)

    def test_train_mlp(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class SmallMlp(mlp.MlpConfig):
            hidden_dims: tuple = (4,)
            dropout: float = 0.0
            lr: float = 0.05
            max_epochs: int = 2
            patience: int = 1
            batch_size: int = 4
            seed: int = 7

        @dataclasses.dataclass(frozen=True)
        class OneLayer(features.AggregationConfig):
            layer_lo: int = 0
            layer_hi: int = 0
            segments: int = 2
            stats: tuple = ("segment_mean",)

        monkeypatch.setattr(mlp, "MlpConfig", SmallMlp)
        monkeypatch.setattr(features, "AggregationConfig", OneLayer)
        inputs = feature_inputs(tmp_path)
        del inputs["--layer-lo"], inputs["--layer-hi"]
        out = tmp_path / "mlp"
        assert run("train-mlp", *flags_of(inputs), "--out", out) == EXIT_OK
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        settings = {k: resolved[k] for k in (
            "hidden", "dropout", "lr", "epochs", "patience", "batch_size", "seed",
            "layer_lo", "layer_hi", "segments", "stats",
        )}
        assert settings == {
            "hidden": [4], "dropout": 0.0, "lr": 0.05, "epochs": 2, "patience": 1,
            "batch_size": 4, "seed": 7, "layer_lo": 0, "layer_hi": 0, "segments": 2,
            "stats": ["segment_mean"],
        }
        assert len((out / "mlp_fold0_log.csv").read_text().splitlines()) <= 1 + 2

    def test_sensitivity(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class SmallGrids(CrossValConfig):
            alpha_grid: tuple = (0.0, 0.2)
            beta_grid: tuple = (0.1,)

        monkeypatch.setattr(cli, "CrossValConfig", SmallGrids)
        data = synth_dataset(tmp_path, actors=4, clips=6)
        folds_path = make_folds(tmp_path, data)
        out = tmp_path / "sens"
        code = run(
            "sensitivity", "--predictions", data / "predictions", "--labels", data / "labels.csv",
            "--folds", folds_path, "--out", out,
        )
        assert code == EXIT_OK
        resolved = json.loads((out / "run_meta.json").read_text())["resolved_config"]
        assert (resolved["alpha_grid"], resolved["beta_grid"]) == ([0.0, 0.2], [0.1])
        report = json.loads((out / "sensitivity.json").read_text())
        assert {e["beta"] for e in report["per_fold"]} == {0.1}

    def test_verify_identities_simplex_tolerance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fusion, "ROUNDING_TOLERANCE", 0.2)
        w = tmp_path / "weights.csv"
        w.write_text("encoder,weight\ne0,0.5\ne1,0.4\n", encoding="utf-8")
        assert run("verify-identities", "--weights", w) == EXIT_OK
        assert "simplex within 0.2" in capsys.readouterr().out


# Every command that records a resolved config, once with every optional flag
# and once with none, run in order from one directory on relative paths so
# the records and their hashes name no temporary directory.
PINNED_ARGV = {
    "synth-all": [
        "synth", "--actors", "4", "--clips", "6", "--mix", "0.5,0.2,0.3", "--gap-lo", "0.15",
        "--gap-hi", "0.4", "--noise-sigma", "0.3", "--seed", "3", "--out", "data",
    ],
    "synth-none": ["synth", "--out", "plain"],
    "split-all": ["split", "--manifest", "data/labels.csv", "--k", "2", "--out", "folds"],
    "split-none": ["split", "--manifest", "plain/labels.csv", "--out", "folds5"],
    "encode-labels": ["encode-labels", "--labels", "data/labels.csv", "--out", "enc"],
    "aggregate-all": [
        "aggregate", "--features", "features", "--layer-lo", "1", "--layer-hi", "3",
        "--segments", "2", "--stats", "segment_mean, global_median", "--out", "agg",
    ],
    "aggregate-none": ["aggregate", "--features", "features", "--out", "agg-plain"],
    "train-mlp-all": [
        "train-mlp", "--features", "features", "--labels", "data/labels.csv",
        "--folds", "folds/folds.csv", "--layer-lo", "1", "--layer-hi", "3", "--segments", "2",
        "--stats", "segment_mean,global_median", "--hidden", "8,4", "--dropout", "0.1",
        "--lr", "0.01", "--epochs", "5", "--patience", "2", "--batch-size", "8", "--seed", "3",
        "--out", "mlp",
    ],
    "train-mlp-none": [
        "train-mlp", "--features", "features", "--labels", "data/labels.csv",
        "--folds", "folds/folds.csv", "--out", "mlp-plain",
    ],
    "sensitivity-all": [
        "sensitivity", "--predictions", "data/predictions/synth.csv", "--labels", "data/labels.csv",
        "--folds", "folds/folds.csv", "--weights", "weights.csv", "--alpha-grid", "[0.1, 0.2]",
        "--beta-grid", '{"start": 0, "stop": 0.5, "step": 0.25}', "--neutral-index", "2",
        "--out", "sens",
    ],
    "sensitivity-none": [
        "sensitivity", "--predictions", "data/predictions", "--labels", "data/labels.csv",
        "--folds", "folds/folds.csv", "--out", "sens-plain",
    ],
}


def run_pinned_commands(base):
    """The run_meta.json of each PINNED_ARGV case, run from ``base``, with the
    config hash each report file holds added as ``report_hash``."""
    metas = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for case, argv in PINNED_ARGV.items():
            assert main(argv) == EXIT_OK, case
            out = Path(argv[argv.index("--out") + 1])
            metas[case] = json.loads((out / "run_meta.json").read_text())
            for report in ("sensitivity.json", "actor_gaps.json"):
                if (out / report).exists():
                    metas[case]["report_hash"] = json.loads((out / report).read_text())["config_hash"]
            if case == "synth-all":
                # 13-layer features, so the default layer range 6..12 applies, and weights.
                rng = np.random.default_rng(0)
                Path("features").mkdir()
                entries = []
                labels = core.load_labels(Path("data/labels.csv"))
                for video_id, actor_id in zip(labels.video_ids, labels.actor_ids):
                    seq = features.FrameFeatureSequence(video_id, rng.normal(size=(13, 4, 3)))
                    features.save_feature_file(seq, Path("features"))
                    entries.append((video_id, actor_id, f"{video_id}.feat"))
                features.save_feature_manifest(entries, Path("features/manifest.csv"))
                Path("weights.csv").write_text("encoder,weight\nsynth,1.0\n", encoding="utf-8")
    return metas


HUNDREDTHS = [i / 100 for i in range(51)]  # the default grids, 0.0 to 0.5

# The records and hashes, copied from the runs' output before the flag tables
# replaced the hand-written records.
PINNED = {
    "synth-all": (
        {"command": "synth", "actors": 4, "clips": 6, "mix": [0.5, 0.2, 0.3], "gap_lo": 0.15,
         "gap_hi": 0.4, "noise_sigma": 0.3, "seed": 3},
        "28a7cd9fb21214b94850cb7f7ffecefc7d7d696f759289012019806a0b196e83",
    ),
    "synth-none": (
        {"command": "synth", "actors": 20, "clips": 40, "mix": [0.46, 0.18, 0.36], "gap_lo": 0.05,
         "gap_hi": 0.45, "noise_sigma": 0.0, "seed": 0},
        "b989cf89677def285c87f44d7d887c60f1fe14e9ef254e122b00f98260846928",
    ),
    "split-all": (
        {"command": "split", "manifest": "data/labels.csv", "k": 2},
        "a6b4ccbabb93e0cd10ae2a34107cdc20b671cabd9c57bb2d76417e37ef21debe",
    ),
    "split-none": (
        {"command": "split", "manifest": "plain/labels.csv", "k": 5},
        "f44f711d4f3e3a3cc59e7a4283eddc6c4698900add5d8a4a1061cfcb45c9ab67",
    ),
    "encode-labels": (
        {"command": "encode-labels", "labels": "data/labels.csv"},
        "603d4ab7fd30a58d2b07ff5851e3da80b49ba8720292496af3af48930b7928a8",
    ),
    "aggregate-all": (
        {"command": "aggregate", "features": "features", "layer_lo": 1, "layer_hi": 3,
         "segments": 2, "stats": ["segment_mean", "global_median"]},
        "a6f95bfe3f1efca028c7b653f9b1e3fc24bd8827f9c11d9c1b32d3d298fa5edd",
    ),
    "aggregate-none": (
        {"command": "aggregate", "features": "features", "layer_lo": 6, "layer_hi": 12,
         "segments": 3, "stats": ["segment_mean", "segment_std", "global_mean"]},
        "5b5f8757c09459c5fd3de2fd39a32c6104dabf2e6ffd00f51ade10d382d4b8e1",
    ),
    "train-mlp-all": (
        {"command": "train-mlp", "features": "features", "labels": "data/labels.csv",
         "folds": "folds/folds.csv", "hidden": [8, 4], "dropout": 0.1, "lr": 0.01, "epochs": 5,
         "patience": 2, "batch_size": 8, "seed": 3, "layer_lo": 1, "layer_hi": 3, "segments": 2,
         "stats": ["segment_mean", "global_median"]},
        "d96fb4d2f27a29facd8b9e53f02766191ee95a64e37b6ba9139cc949502ba9c3",
    ),
    "train-mlp-none": (
        {"command": "train-mlp", "features": "features", "labels": "data/labels.csv",
         "folds": "folds/folds.csv", "hidden": [1024, 512], "dropout": 0.3, "lr": 0.001,
         "epochs": 500, "patience": 80, "batch_size": 64, "seed": 0, "layer_lo": 6, "layer_hi": 12,
         "segments": 3, "stats": ["segment_mean", "segment_std", "global_mean"]},
        "2093bfd17db84be1d45100f350922b879c96ef0dca02f8f4e1ab11f4637a7749",
    ),
    "sensitivity-all": (
        {"command": "sensitivity", "predictions": "data/predictions/synth.csv",
         "labels": "data/labels.csv", "folds": "folds/folds.csv", "weights": "weights.csv",
         "alpha_grid": [0.1, 0.2], "beta_grid": [0.0, 0.25, 0.5], "neutral_index": 2},
        "71a8726d05cb9a7c73c41ed24d7ad9a1aec8956c0d2ebb319e9b792a27902778",
    ),
    "sensitivity-none": (
        {"command": "sensitivity", "predictions": "data/predictions", "labels": "data/labels.csv",
         "folds": "folds/folds.csv", "weights": None, "alpha_grid": HUNDREDTHS,
         "beta_grid": HUNDREDTHS, "neutral_index": None},
        "a151626ba6b38495ed79cca9b4de8afea028f1ea715d4b1fade24c2b241e2477",
    ),
}


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    return run_pinned_commands(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("case", PINNED)
def test_resolved_record_is_pinned(pinned_runs, case):
    resolved, chash = PINNED[case]
    meta = pinned_runs[case]
    assert (meta["resolved_config"], meta["config_hash"]) == (resolved, chash)
    # sensitivity.json and actor_gaps.json carry the same hash.
    if case.startswith(("synth", "sensitivity")):
        assert meta["report_hash"] == chash
