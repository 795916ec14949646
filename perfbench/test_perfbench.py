"""Tests of the benchmark itself, on inputs far smaller than the workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402

TINY_FUSION = workloads.FusionInputs(6, 5, {})
TINY_FEATURES = workloads.FeatureInputs(6, 3, layers=13, frames=4, dims=8)


def _tree(root: Path) -> dict[str, bytes]:
    """Every input file; split's run_meta.json sidecar holds a timestamp."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def _write(writer, spec, index: int, root: Path) -> Path:
    root.mkdir(parents=True)
    writer(spec, index, root)
    return root


@pytest.mark.parametrize(
    "writer, spec",
    [(workloads.write_fusion_inputs, TINY_FUSION), (workloads.write_feature_inputs, TINY_FEATURES)],
)
def test_same_seed_gives_byte_identical_inputs(tmp_path, writer, spec):
    first = _tree(_write(writer, spec, 3, tmp_path / "a"))
    second = _tree(_write(writer, spec, 3, tmp_path / "b"))
    other = _tree(_write(writer, spec, 4, tmp_path / "c"))
    assert first == second
    assert first.keys() == other.keys() and first != other


def test_multi_clip_encoder_emits_several_rows_per_video(tmp_path):
    root = _write(workloads.write_fusion_inputs, TINY_FUSION, 0, tmp_path / "in")
    videos = TINY_FUSION.actors * TINY_FUSION.clips
    for enc in workloads.ENCODERS:
        lines = (root / "predictions" / f"{enc.name}.csv").read_text().splitlines()
        assert len(lines) == 1 + videos * enc.clip_rows


def test_seed_selects_a_recorded_input_set():
    reference = run.load_reference()
    for name in workloads.WORKLOADS:
        assert sorted(reference[name], key=int) == [str(i) for i in range(workloads.INPUT_SETS)]
    assert workloads.input_set(workloads.INPUT_SETS + 5) == 5


@pytest.fixture(scope="module")
def fusion_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuse")
    _write(workloads.write_fusion_inputs, TINY_FUSION, 1, work / "inputs")
    plain = run.run_command("fuse-20k", work, trace=False, timeout=120)
    traced = run.run_command("fuse-20k", work, trace=True, timeout=120)
    return work, plain, traced


def test_digest_check_rejects_a_corrupted_output(fusion_runs):
    work, plain, _ = fusion_runs
    expected = dict(plain["digests"])
    assert run.command_ok(plain, expected)
    assert "results.csv" in expected and "run_meta.json" not in expected

    with open(work / "out" / "results.csv", "a", encoding="utf-8") as fh:
        fh.write("0,1.0,1.0,1.0,1\n")
    corrupted = dict(plain, digests=run.output_digests(work / "out"))
    assert not run.command_ok(corrupted, expected)
    assert not run.command_ok(dict(plain, exit=2), expected)


def test_run_meta_is_outside_the_digests(fusion_runs):
    work, _, _ = fusion_runs
    before = run.output_digests(work / "out")
    (work / "out" / "run_meta.json").write_text("{}\n", encoding="utf-8")
    assert run.output_digests(work / "out") == before


def test_traced_fusion_run_leaves_outputs_unchanged(fusion_runs):
    work, plain, traced = fusion_runs
    assert plain["exit"] == traced["exit"] == 0
    assert traced["digests"] == plain["digests"]
    layers = traced["layers"]
    videos = TINY_FUSION.actors * TINY_FUSION.clips
    # Bound by name in cli, and imported inside a function by evaluation.
    assert layers["evaluation.cross_validate.calls"] == 1
    assert layers["postprocess.discretize.calls"] == videos
    assert layers["fusion.fuse.calls"] > 0
    assert layers["postprocess.point_counts.calls"] > 0
    assert layers["evaluation.cross_validate.folds"] == 5
    assert layers["fusion.optimize_weights.candidates"] > 0
    assert (work / "spans.npz").is_file()
    for name, value in layers.items():
        if name.endswith(".self_s"):
            assert 0.0 <= value <= layers[name[: -len("self_s")] + "s"] + 1e-9


def test_traced_mlp_run_leaves_outputs_unchanged(tmp_path):
    _write(workloads.write_feature_inputs, TINY_FEATURES, 2, tmp_path / "inputs")
    plain = run.run_command("mlp-train", tmp_path, trace=False, timeout=120)
    traced = run.run_command("mlp-train", tmp_path, trace=True, timeout=120)
    assert plain["exit"] == traced["exit"] == 0
    assert traced["digests"] == plain["digests"]
    layers = traced["layers"]
    videos = TINY_FEATURES.actors * TINY_FEATURES.clips
    assert layers["features.load_feature_file.calls"] == videos
    assert layers["mlp.train.epochs"] == 5 * workloads.MLP_EPOCHS
    assert layers["fusion.fuse.calls"] == 0
