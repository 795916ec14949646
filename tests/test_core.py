"""Core domain types, canonicalization, clip averaging, file round-trips."""

import ast
import graphlib
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import label_table, label_table_bits

import blendfuse
from blendfuse.core import (
    EMOTIONS,
    BlendAnnotation,
    Emotion,
    EmotionDistribution,
    EncoderPredictionSet,
    LABELS_HEADER,
    PREDICTIONS_HEADER,
    SampleRecord,
    ValidationError,
    average_clips,
    canonicalize_annotation,
    load_label_table,
    load_labels,
    load_prediction_table,
    load_predictions,
    save_labels,
    save_predictions,
)
from blendfuse.evaluation import load_folds
from blendfuse.features import load_feature_file, load_feature_manifest
from blendfuse.fusion import load_weights


def dist(*values):
    return EmotionDistribution(tuple(values))


UNIFORM = dist(*([1 / 6] * 6))

VALID_ROW = (0.25, 0.25, 0.125, 0.125, 0.125, 0.125)
# Each faulty value with the full message that rejects it.
FAULTS = {
    float("nan"): "non-finite probability: nan",
    float("inf"): "non-finite probability: inf",
    float("-inf"): "non-finite probability: -inf",
    -0.25: "probability out of [0, 1]: -0.25",
    1.5: "probability out of [0, 1]: 1.5",
}


class TestEmotion:
    def test_fixed_alphabetical_order(self):
        assert [e.label for e in EMOTIONS] == [
            "anger",
            "disgust",
            "fear",
            "happiness",
            "sadness",
            "surprise",
        ]
        assert Emotion.ANGER == 0
        assert Emotion.FEAR == 2

    def test_name_roundtrip(self):
        for e in EMOTIONS:
            assert Emotion.from_name(e.label) is e

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            Emotion.from_name("boredom")


class TestEmotionDistribution:
    def test_valid_construction(self):
        d = dist(0.7, 0, 0.3, 0, 0, 0)
        assert d.values == (0.7, 0.0, 0.3, 0.0, 0.0, 0.0)

    def test_sum_tolerance(self):
        with pytest.raises(ValidationError):
            dist(0.7, 0, 0.3, 0, 0, 0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            dist(1.1, -0.1, 0, 0, 0, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            EmotionDistribution((0.5, 0.5))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_first_faulty_value_is_named_at_every_position(self, fault):
        # Alone, and after an earlier fault of each kind, which is the one named.
        for position in range(6):
            row = list(VALID_ROW)
            row[position] = fault
            with pytest.raises(ValidationError) as exc:
                EmotionDistribution(tuple(row))
            assert str(exc.value) == FAULTS[fault]
            for earlier in FAULTS:
                for before in range(position):
                    row = list(VALID_ROW)
                    row[before], row[position] = earlier, fault
                    with pytest.raises(ValidationError) as exc:
                        EmotionDistribution(tuple(row))
                    assert str(exc.value) == FAULTS[earlier]

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.5, 0.5), "expected 6 probabilities, got 2"),
            ((float("nan"),) * 7, "expected 6 probabilities, got 7"),
            ((), "expected 6 probabilities, got 0"),
            ((0.5, 0.4, 0.0, 0.0, 0.0, 0.0), "probabilities sum to 0.9, not 1"),
            ((0.5, 0.5, 0.0, 0.0, 0.0, 0.001), "probabilities sum to 1.001, not 1"),
            ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "probabilities sum to 6.0, not 1"),
            ((0.0, -0.0, 0.0, 0.0, 0.0, 0.0), "probabilities sum to 0.0, not 1"),
        ],
    )
    def test_length_and_sum_messages(self, row, message):
        with pytest.raises(ValidationError) as exc:
            EmotionDistribution(row)
        assert str(exc.value) == message

    def test_signed_zero_and_bounds_are_accepted(self):
        d = EmotionDistribution([1.0, -0.0, 0.0, -0.0, 0.0, 0.0])
        assert d.values == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert math.copysign(1.0, d.values[1]) == -1.0

    def test_from_raw_renormalizes_small_drift(self):
        with pytest.warns(UserWarning):
            d = EmotionDistribution.from_raw([0.2001, 0.16, 0.16, 0.16, 0.16, 0.16])
        assert math.isclose(sum(d.values), 1.0, abs_tol=1e-12)

    def test_from_raw_rejects_large_drift(self):
        with pytest.raises(ValidationError):
            EmotionDistribution.from_raw([0.21, 0.16, 0.16, 0.16, 0.16, 0.16])


class TestCanonicalize:
    def test_flip_30_70(self):
        ann = canonicalize_annotation(Emotion.FEAR, Emotion.ANGER, 30)
        assert ann == BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70)

    def test_70_30_kept(self):
        ann = canonicalize_annotation(Emotion.ANGER, Emotion.FEAR, 70)
        assert ann == BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70)

    def test_50_50_orders_by_index(self):
        ann = canonicalize_annotation(Emotion.FEAR, Emotion.ANGER, 50)
        assert ann == BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 50)

    def test_single(self):
        ann = canonicalize_annotation(Emotion.HAPPINESS, None, 100)
        assert ann == BlendAnnotation(Emotion.HAPPINESS, None, 100)

    def test_rejects_secondary_with_100(self):
        with pytest.raises(ValidationError):
            canonicalize_annotation(Emotion.ANGER, Emotion.FEAR, 100)

    def test_rejects_blend_without_secondary(self):
        with pytest.raises(ValidationError):
            canonicalize_annotation(Emotion.ANGER, None, 70)

    def test_rejects_equal_emotions(self):
        with pytest.raises(ValidationError):
            canonicalize_annotation(Emotion.ANGER, Emotion.ANGER, 50)

    def test_rejects_unknown_salience(self):
        with pytest.raises(ValidationError):
            canonicalize_annotation(Emotion.ANGER, Emotion.FEAR, 60)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            salience = int(rng.choice([100, 70, 50, 30]))
            primary = Emotion(int(rng.integers(6)))
            if salience == 100:
                secondary = None
            else:
                secondary = Emotion(int((primary + 1 + rng.integers(5)) % 6))
            ann = canonicalize_annotation(primary, secondary, salience)
            again = canonicalize_annotation(ann.primary, ann.secondary, ann.salience_primary)
            assert again == ann


class TestBlendAnnotation:
    def test_rejects_noncanonical_5050(self):
        with pytest.raises(ValidationError):
            BlendAnnotation(Emotion.FEAR, Emotion.ANGER, 50)

    def test_rejects_salience_30(self):
        with pytest.raises(ValidationError):
            BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 30)

    def test_emotion_set(self):
        ann = BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70)
        assert ann.emotion_set == frozenset({Emotion.ANGER, Emotion.FEAR})


class TestAverageClips:
    def test_singleton_identity(self):
        d = dist(1, 0, 0, 0, 0, 0)
        assert average_clips([d]) == d

    def test_two_one_hots(self):
        a = dist(1, 0, 0, 0, 0, 0)
        b = dist(0, 1, 0, 0, 0, 0)
        assert average_clips([a, b]) == dist(0.5, 0.5, 0, 0, 0, 0)

    def test_identical_clips_idempotent(self):
        d = dist(0.4, 0.1, 0.2, 0.1, 0.1, 0.1)
        out = average_clips([d] * 4)
        assert np.allclose(out.values, d.values, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            average_clips([])

    def test_mean_stays_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            rows = []
            for _ in range(n):
                raw = rng.dirichlet(np.ones(6))
                rows.append(EmotionDistribution(tuple(raw / raw.sum())))
            out = average_clips(rows)
            assert abs(math.fsum(out.values) - 1.0) <= 1e-6
            assert all(v >= 0 for v in out.values)


class TestFileFormats:
    def test_predictions_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = {}
        actors = {}
        for v in range(12):
            vid = f"vid{v:03d}"
            clips = []
            for _ in range(int(rng.integers(1, 4))):
                raw = rng.dirichlet(np.ones(6))
                clips.append(EmotionDistribution(tuple(raw / raw.sum())))
            rows[vid] = tuple(clips)
            actors[vid] = f"act{v % 4}"
        preds = EncoderPredictionSet("enc_a", rows, actors)
        path = tmp_path / "enc_a.csv"
        save_predictions(preds, path)
        loaded = load_predictions(path)
        assert loaded.encoder_name == "enc_a"
        assert loaded.rows == preds.rows
        assert loaded.actors == preds.actors

    def test_predictions_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("video,actor,a,b,c,d,e,f\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_predictions(path)

    def test_predictions_conflicting_actor_rejected(self, tmp_path):
        path = tmp_path / "enc.csv"
        row = ",".join(["v1", "a1"] + ["0.5", "0.5", "0", "0", "0", "0"])
        row2 = ",".join(["v1", "a2"] + ["0.5", "0.5", "0", "0", "0", "0"])
        path.write_text(
            "video_id,actor_id,p_anger,p_disgust,p_fear,p_happiness,p_sadness,p_surprise\n"
            + row + "\n" + row2 + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            load_predictions(path)

    @pytest.mark.parametrize("loader", [load_predictions, load_prediction_table])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("v2,a1,inf,0,0,0,0,0", "non-finite probability: inf"),
            ("v2,a1,-0.5,1.5,0,0,0,0", "negative probability: -0.5"),
            ("v2,a1,0.5,0.49,0,0,0,0", "probability row sums to 0.99, beyond repair tolerance"),
            ("v2,a1,1.0000005,0,0,0,0,0", "probability out of [0, 1]: 1.0000005"),
            ("v2,a1,0.5,x,0,0,0,0", "could not convert string to float: 'x'"),
            ("v2,a1,0.5,0.5", "expected 8 fields, got 4"),
            ("v1,a2,0.5,0.5,0,0,0,0", "video 'v1' listed under two actors"),
            ("v1,a2,-1,2,0,0,0,0", "negative probability: -1.0"),
        ],
    )
    def test_predictions_first_bad_line_reported(self, tmp_path, loader, row, message):
        path = tmp_path / "enc.csv"
        good = "v1,a1,0.5,0.5,0,0,0,0\n"
        path.write_text(
            ",".join(PREDICTIONS_HEADER) + "\n" + good + row + "\n" + "v3,a1,nan,1,0,0,0,0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}:3: {message}"

    def test_labels_roundtrip(self, tmp_path):
        records = [
            SampleRecord("v1", "a1", BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70)),
            SampleRecord("v2", "a1", BlendAnnotation(Emotion.HAPPINESS, None, 100)),
            SampleRecord("v3", "a2", BlendAnnotation(Emotion.DISGUST, Emotion.SURPRISE, 50)),
        ]
        path = tmp_path / "labels.csv"
        save_labels(records, path)
        assert label_table_bits(load_labels(path)) == label_table_bits(label_table(records))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("v2,a1,anger,,100,x", "expected 5 fields, got 6"),
            ("v2,a1,anger", "expected 5 fields, got 3"),
            ("v1,a2,anger,,100", "duplicate video id 'v1'"),
            ("v1,a2,joy,,60", "duplicate video id 'v1'"),
            ("v2,a1,joy,,100", "unknown emotion name: 'joy'"),
            ("v2,a1,anger,joy,x", "unknown emotion name: 'joy'"),
            ("v2,a1,anger,fear,x", "invalid literal for int() with base 10: 'x'"),
            ("v2,a1,anger,fear,70.0", "invalid literal for int() with base 10: '70.0'"),
            ("v2,a1,anger,fear,60", "salience must be one of 100/70/50/30, got 60"),
            ("v2,a1,anger,fear,100", "salience 100 cannot carry a secondary emotion"),
            ("v2,a1,anger,,70", "salience 70 requires a secondary emotion"),
            ("v2,a1,anger,Anger,50", "primary and secondary emotions must differ"),
        ],
    )
    def test_labels_first_bad_line_reported(self, tmp_path, row, message):
        path = tmp_path / "labels.csv"
        good = "v1,a1,anger,fear,70\n"
        path.write_text(
            ",".join(LABELS_HEADER) + "\n" + good + row + "\n" + "v3,a1,anger,,60\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError) as exc:
            load_labels(path)
        assert str(exc.value) == f"{path}:3: {message}"

    def test_labels_accept_salience_30(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,actor_id,emotion_a,emotion_b,salience_a\n"
            "v1,a1,fear,anger,30\n",
            encoding="utf-8",
        )
        expected = label_table([SampleRecord("v1", "a1", BlendAnnotation(Emotion.ANGER, Emotion.FEAR, 70))])
        assert label_table_bits(load_labels(path)) == label_table_bits(expected)

    def test_labels_duplicate_video_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,actor_id,emotion_a,emotion_b,salience_a\n"
            "v1,a1,anger,,100\n"
            "v1,a1,fear,,100\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            load_labels(path)

    def test_multi_clip_rows_grouped(self, tmp_path):
        path = tmp_path / "enc.csv"
        header = "video_id,actor_id,p_anger,p_disgust,p_fear,p_happiness,p_sadness,p_surprise\n"
        body = "v1,a1,1.0,0.0,0.0,0.0,0.0,0.0\nv1,a1,0.0,1.0,0.0,0.0,0.0,0.0\n"
        path.write_text(header + body, encoding="utf-8")
        loaded = load_predictions(path, "enc")
        assert len(loaded.rows["v1"]) == 2
        assert average_clips(loaded.rows["v1"]) == dist(0.5, 0.5, 0, 0, 0, 0)


def test_no_module_has_an_unused_import():
    """Every name a module's top-level imports bind is read somewhere in it."""
    unused = []
    for module in sorted(Path(blendfuse.__file__).parent.glob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module.name}:{node.lineno}: {bound}")
    assert unused == []


def test_package_imports_are_top_level_and_acyclic():
    """No module imports inside a function, and the modules' top-level
    imports of each other form no cycle."""
    nested, graph = [], {}
    for module in sorted(Path(blendfuse.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{module.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
        graph[module.stem] = {
            name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [alias.name for alias in node.names])
        }
    assert sorted(set(nested)) == []
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_only_core_imports_csv():
    """The CSV opener, field-count rule and writer live in core alone."""
    importers = set()
    for module in sorted(Path(blendfuse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                importers.add(module.name)
    assert importers == {"core.py"}


def test_only_the_input_cache_reads_input_bytes():
    """Every input file's bytes are read by ``core.cached_parse``; the other
    ``.read_bytes()`` calls hash the package's source and the outputs."""
    callers = set()

    class Calls(ast.NodeVisitor):
        def __init__(self, scope):
            self.scope = [scope]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "read_bytes":
                callers.add(".".join(self.scope))
            self.generic_visit(node)

    for module in sorted(Path(blendfuse.__file__).parent.glob("*.py")):
        Calls(module.stem).visit(ast.parse(module.read_text(encoding="utf-8")))
    assert callers == {"core.cached_parse", "core._code_digest", "cli._sha256_file"}


# The first three read through cached_parse, the rest through csv_reader.
@pytest.mark.parametrize(
    "loader",
    [load_prediction_table, load_label_table, load_feature_file,
     load_predictions, load_folds, load_weights, load_feature_manifest],
)
@pytest.mark.parametrize(
    "name, lead, reason",
    [("absent.csv", "{path}", "No such file or directory"), ("x\x00.csv", "{path!r}", "embedded null byte")],
)
def test_an_unreadable_input_is_led_by_its_path(tmp_path, loader, name, lead, reason):
    path = tmp_path / name
    with pytest.raises(ValidationError) as exc:
        loader(path)
    assert str(exc.value) == f"{lead.format(path=str(path))}: cannot read file: {reason}"
