"""Layer averaging, segment statistics, and the feature file format."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import feature_file_text

from blendfuse.core import ValidationError
from blendfuse.features import (
    AggregationConfig,
    FrameFeatureSequence,
    aggregate_sequence,
    aggregate_temporal,
    average_layers,
    load_feature_file,
    load_feature_manifest,
    save_feature_file,
    save_feature_manifest,
)


def seq(data, video_id="v"):
    return FrameFeatureSequence(video_id, np.asarray(data, dtype=float))


class TestAverageLayers:
    def test_identical_layers_unchanged(self):
        layer = np.arange(12.0).reshape(3, 4)
        s = seq(np.stack([layer, layer]))
        assert np.array_equal(average_layers(s, 0, 1), layer)

    def test_scalar_mean(self):
        s = seq([[[1.0]], [[3.0]]])
        assert average_layers(s, 0, 1) == np.array([[2.0]])

    def test_single_layer_identity(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 5, 3))
        s = seq(data)
        for k in range(4):
            assert np.array_equal(average_layers(s, k, k), data[k])

    def test_out_of_range_rejected(self):
        s = seq(np.zeros((2, 3, 4)))
        with pytest.raises(ValidationError):
            average_layers(s, 0, 2)
        with pytest.raises(ValidationError):
            average_layers(s, -1, 1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            seq([[[np.inf]]])


class TestAggregateTemporal:
    def test_worked_example(self):
        frames = np.array([[0, 0], [2, 2], [4, 4], [6, 6], [8, 8], [10, 10]], dtype=float)
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3)
        out = aggregate_temporal(frames, cfg)
        # segment means (1,1) (5,5) (9,9), population stds all (1,1), global mean (5,5)
        expected = np.array([1, 1, 1, 1, 5, 5, 1, 1, 9, 9, 1, 1, 5, 5], dtype=float)
        assert np.array_equal(out, expected)

    def test_constant_frames(self):
        frames = np.full((9, 4), 3.5)
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3)
        out = aggregate_temporal(frames, cfg).reshape(7, 4)
        assert np.array_equal(out[0], [3.5] * 4)  # first segment mean
        assert np.array_equal(out[1], [0.0] * 4)  # first segment std
        assert np.array_equal(out[6], [3.5] * 4)  # global mean

    def test_default_config_dimensionality(self):
        cfg = AggregationConfig()
        assert cfg.output_dim(1024) == 7168

    def test_output_length_formula(self):
        rng = np.random.default_rng(4)
        stats_pool = ["segment_mean", "segment_std", "global_mean", "global_median"]
        for _ in range(30):
            segments = int(rng.integers(1, 5))
            t = int(rng.integers(segments, segments + 10))
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, len(stats_pool) + 1))
            stats = tuple(rng.choice(stats_pool, size=k, replace=False))
            cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=segments, stats=stats)
            out = aggregate_temporal(rng.normal(size=(t, d)), cfg)
            assert out.shape == (cfg.output_dim(d),)

    def test_permuting_within_segment_invariant(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(12, 3))
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3)
        base = aggregate_temporal(frames, cfg)
        shuffled = frames.copy()
        for start in (0, 4, 8):
            perm = rng.permutation(4)
            shuffled[start : start + 4] = frames[start : start + 4][perm]
        out = aggregate_temporal(shuffled, cfg)
        assert np.allclose(out, base, atol=1e-12)

    def test_per_segment_constant_gives_zero_std(self):
        frames = np.repeat(np.array([[1.0], [2.0], [3.0]]), 5, axis=0)
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3)
        out = aggregate_temporal(frames, cfg)
        stds = out[[1, 3, 5]]
        assert np.array_equal(stds, [0.0, 0.0, 0.0])

    def test_remainder_goes_to_early_segments(self):
        frames = np.arange(7.0).reshape(7, 1)
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3, stats=("segment_mean",))
        out = aggregate_temporal(frames, cfg)
        # segment sizes 3,2,2 -> means 1, 3.5, 5.5
        assert np.array_equal(out, [1.0, 3.5, 5.5])

    def test_too_few_frames_rejected(self):
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=3)
        with pytest.raises(ValidationError):
            aggregate_temporal(np.zeros((2, 4)), cfg)

    def test_global_median_supported(self):
        frames = np.array([[1.0], [2.0], [100.0]])
        cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=1, stats=("global_median",))
        assert np.array_equal(aggregate_temporal(frames, cfg), [2.0])

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValidationError):
            AggregationConfig(stats=("segment_kurtosis",))


def slicing_oracle(frames, cfg):
    """The per-segment slicing loop: an even split whose earlier segments
    absorb the remainder frames, each statistic computed by name."""
    def stat_block(block, stat):
        if stat in ("segment_mean", "global_mean"):
            return block.mean(axis=0)
        if stat == "segment_std":
            return block.std(axis=0)
        return np.median(block, axis=0)

    base, rem = divmod(frames.shape[0], cfg.segments)
    blocks, start = [], 0
    for s in range(cfg.segments):
        stop = start + base + (1 if s < rem else 0)
        for stat in cfg.stats:
            if stat.startswith("segment_"):
                blocks.append(stat_block(frames[start:stop], stat))
        start = stop
    for stat in cfg.stats:
        if stat.startswith("global_"):
            blocks.append(stat_block(frames, stat))
    return np.concatenate(blocks)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_aggregate_temporal_matches_slicing_oracle_bit_for_bit(data):
    n_frames = data.draw(st.integers(1, 19), label="frames")
    segments = data.draw(st.integers(1, n_frames), label="segments")
    stats = data.draw(
        st.lists(
            st.sampled_from(["segment_mean", "segment_std", "global_mean", "global_median"]),
            min_size=1, max_size=4, unique=True,
        ),
        label="stats",
    )
    frames = data.draw(
        arrays(np.float64, (n_frames, data.draw(st.integers(1, 4), label="dims")),
               elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)),
        label="values",
    )
    cfg = AggregationConfig(layer_lo=0, layer_hi=0, segments=segments, stats=tuple(stats))
    out = aggregate_temporal(frames, cfg)
    assert np.array_equal(out.view(np.int64), slicing_oracle(frames, cfg).view(np.int64))


class TestFeatureFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        s = seq(rng.normal(size=(3, 5, 4)), "vid001")
        path = save_feature_file(s, tmp_path)
        loaded = load_feature_file(path)
        assert loaded.video_id == "vid001"
        assert np.array_equal(loaded.data, s.data)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_text("bogus header\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_feature_file(path)

    def test_row_count_checked(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_text("layers=2 frames=2 dims=1\n1.0\n2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_feature_file(path)

    def test_manifest_roundtrip(self, tmp_path):
        entries = [("v1", "a1", "v1.feat"), ("v2", "a2", "v2.feat")]
        path = tmp_path / "manifest.csv"
        save_feature_manifest(entries, path)
        assert load_feature_manifest(path) == entries

    def test_aggregate_sequence_pipeline(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(4, 6, 2))
        s = seq(data)
        cfg = AggregationConfig(layer_lo=1, layer_hi=2, segments=2, stats=("segment_mean",))
        out = aggregate_sequence(s, cfg)
        manual = data[1:3].mean(axis=0)
        expected = np.concatenate([manual[:3].mean(axis=0), manual[3:].mean(axis=0)])
        assert np.allclose(out, expected, atol=1e-15)


# Edge values of the float format: signed zeros, subnormals, the smallest
# normals and values near the largest finite magnitude.
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_feature_file_bytes_match_the_per_scalar_writer(data, tmp_path_factory):
    shape = tuple(data.draw(st.integers(1, n), label="shape") for n in (3, 4, 5))
    elements = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(arrays(np.float64, shape, elements=elements), label="values")
    s = seq(values, "v")
    path = save_feature_file(s, tmp_path_factory.mktemp("feat"))
    assert path.read_bytes() == feature_file_text(s).encode("utf-8")


def float_oracle(path):
    """Per-token ``float()`` parse of a .feat file's value lines."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    return np.array(rows, dtype=np.float64)


class TestFeatureFileParse:
    def test_values_bit_identical_to_float_oracle(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 4, 5)) * 10.0 ** rng.integers(-300, 300, size=(3, 4, 5))
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                   0.1 + 0.2, 1 / 3, -2 / 3, 1.7976931348623157e308, 123456789.01234567]
        data.reshape(-1)[: len(special)] = special
        path = save_feature_file(seq(data, "v17"), tmp_path)
        loaded = load_feature_file(path)
        oracle = float_oracle(path)
        assert np.array_equal(loaded.data.reshape(oracle.shape).view(np.int64), oracle.view(np.int64))
        assert np.array_equal(loaded.data.view(np.int64), data.view(np.int64))

    def test_every_float_spelling_accepted_like_float(self, tmp_path):
        path = tmp_path / "odd.feat"
        path.write_bytes(
            "layers=1 frames=2 dims=4\r\n1_0\t+.5 1E-3 -0\r\n\r\n  \uff11\uff12 \u0663 0012.50 -1e-320\r\n".encode()
        )
        loaded = load_feature_file(path)
        oracle = float_oracle(path)
        assert np.array_equal(loaded.data.reshape(oracle.shape).view(np.int64), oracle.view(np.int64))

    def test_bad_token_names_path_and_line(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_text("layers=1 frames=3 dims=2\n1 2\n\n3 0x10\n5 6\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:4: not a number: '0x10'")):
            load_feature_file(path)

    def test_wrong_value_count_names_line(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_text("layers=1 frames=2 dims=2\n1 2\n3 4 5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:3: expected 2 values")):
            load_feature_file(path)

    @pytest.mark.parametrize(
        "header",
        ["layers=1 frames=-1 dims=2", "layers=1 frames=1 dims=0", "layers=0 frames=1 dims=1",
         "layers=1 frames=x dims=2", "layers=1 dims=2", ""],
    )
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "x.feat"
        path.write_text(f"{header}\n1 2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad feature header"):
            load_feature_file(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.feat"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: cannot read file")):
            load_feature_file(path)

    def test_nul_byte_in_path_names_path(self, tmp_path):
        path = tmp_path / "x\x00.feat"
        with pytest.raises(ValidationError, match=re.escape(f"{str(path)!r}: cannot read file")):
            load_feature_file(path)

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"layers=1 frames=1 dims=1\n\xff\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not UTF-8")):
            load_feature_file(path)

    def test_non_finite_names_path(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_text("layers=1 frames=1 dims=2\n1 1e400\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: non-finite values")):
            load_feature_file(path)
