"""The input cache: a parsed predictions table, labels table or ``.feat``
tensor is served from ``<dir>/.blendfuse-cache/<name>.npz`` while the
file's bytes are unchanged, and equals a fresh parse bit for bit."""

import tempfile
from collections import Counter
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oracles import label_table_bits

from blendfuse import core
from blendfuse.core import CACHE_DIR, LABELS_HEADER, PREDICTIONS_HEADER, ValidationError
from blendfuse.features import FrameFeatureSequence, load_feature_file, save_feature_file

# Characters an unquoted CSV field keeps, ASCII and not.
ID_CHARS = "ab1_- é中ßΩ😀"

# Signed zeros, subnormals, the smallest normals and values near the
# largest finite magnitude.
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
]


def entry_of(path):
    return path.parent / CACHE_DIR / f"{path.name}.npz"


def load_counted(load, path):
    """``load(path)`` and whether the input cache served it."""
    cache_use = Counter()
    value = load(path, cache_use=cache_use)
    assert sorted(cache_use.elements()) in (["hits"], ["misses"])
    return value, cache_use["hits"] == 1


def table_bits(table):
    return table.encoder_name, list(table.row_of.items()), table.probs.dtype, table.probs.shape, table.probs.tobytes()


def sequence_bits(seq):
    return seq.video_id, seq.data.dtype, seq.data.shape, seq.data.tobytes()


@st.composite
def prediction_rows(draw):
    """Valid rows of non-ASCII video ids, some over several clips."""
    videos = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
    actor_of = {v: draw(st.text(ID_CHARS, max_size=3)) for v in videos}
    rows = []
    for video in draw(st.lists(st.sampled_from(videos), min_size=1, max_size=12)):
        weights = draw(st.lists(st.integers(1, 9), min_size=6, max_size=6))
        rows.append((video, actor_of[video], [w / sum(weights) for w in weights]))
    return rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rows=prediction_rows())
def test_a_hit_equals_the_parse_before_it_for_prediction_tables(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "enc.csv"
        core.write_prediction_rows(path, rows)
        parsed, hit = load_counted(core.load_prediction_table, path)
        assert not hit and entry_of(path).is_file()
        served, hit = load_counted(core.load_prediction_table, path)
        assert hit
        assert table_bits(served) == table_bits(parsed)


@st.composite
def label_rows(draw):
    """Valid rows of non-ASCII video and actor ids, single and blended."""
    videos = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), max_size=6, unique=True))
    names = [e.label for e in core.EMOTIONS]
    rows = []
    for video in videos:
        primary, secondary = draw(st.permutations(names))[:2]
        salience = draw(st.sampled_from(["100", "70", "50", "30"]))
        actor = draw(st.text(ID_CHARS, max_size=3))
        rows.append([video, actor, primary, "" if salience == "100" else secondary, salience])
    return rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rows=label_rows())
def test_a_hit_equals_the_parse_before_it_for_label_tables(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        core.write_csv_rows(path, LABELS_HEADER, rows)
        parsed, hit = load_counted(core.load_label_table, path)
        assert not hit and entry_of(path).is_file()
        served, hit = load_counted(core.load_label_table, path)
        assert hit
        assert label_table_bits(served) == label_table_bits(parsed)
        assert label_table_bits(parsed) == label_table_bits(oracles.label_table(oracles.label_rows(path)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_a_hit_equals_the_parse_before_it_for_feature_files(data):
    shape = tuple(data.draw(st.integers(1, n), label="shape") for n in (3, 4, 5))
    elements = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(arrays(np.float64, shape, elements=elements), label="values")
    with tempfile.TemporaryDirectory() as tmp:
        path = save_feature_file(FrameFeatureSequence("v", values), tmp)
        parsed, hit = load_counted(load_feature_file, path)
        assert not hit and entry_of(path).is_file()
        served, hit = load_counted(load_feature_file, path)
        assert hit
        assert sequence_bits(served) == sequence_bits(parsed)
        assert served.data.tobytes() == values.tobytes()


def test_a_hit_takes_the_video_id_of_the_call(tmp_path):
    path = save_feature_file(FrameFeatureSequence("v", np.ones((1, 2, 3))), tmp_path)
    load_feature_file(path)
    served, hit = load_counted(lambda p, cache_use: load_feature_file(p, "other", cache_use), path)
    assert hit and served.video_id == "other"


GOOD = [1 / 6] * 6


def test_a_renormalized_file_warns_on_every_load_and_is_never_stored(tmp_path):
    path = tmp_path / "enc.csv"
    core.write_prediction_rows(path, [("v1", "a1", GOOD), ("v2", "a1", [v * 1.0004 for v in GOOD])])
    for _ in range(2):
        with pytest.warns(UserWarning, match="renormalizing"):
            _, hit = load_counted(core.load_prediction_table, path)
        assert not hit
    assert not entry_of(path).exists()


INVALID = {
    "predictions": ("enc.csv", ",".join(PREDICTIONS_HEADER) + "\nv1,a1,0.5,0.5,0,0,0,x\n", core.load_prediction_table),
    "feature": ("v.feat", "layers=1 frames=2 dims=2\n0.5 0.5\n0.5 zero\n", load_feature_file),
    "labels": (
        "labels.csv", ",".join(LABELS_HEADER) + "\nv1,a1,anger,,100\nv2,a1,anger,anger,50\n", core.load_label_table
    ),
}


@pytest.mark.parametrize("case", INVALID)
def test_an_invalid_file_raises_the_same_message_on_every_load_and_is_never_stored(tmp_path, case):
    name, text, load = INVALID[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as caught:
            load(path)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] and messages[0].startswith(f"{path}:")
    assert not entry_of(path).exists()


def respoil(entry, change):
    """Rewrite ``entry`` with the arrays ``change`` maps its arrays to."""
    with np.load(entry) as npz:
        stored = {name: npz[name] for name in npz.files}
    np.savez(entry, **change(stored))


def halved_under_another_key(stored):
    return {name: a / 2 if a.dtype == np.float64 else a for name, a in stored.items()} | {"key": np.zeros(32, np.uint8)}


# Entries that must be read as a miss and replaced by the parse, for any loader.
SPOILED = {
    "stale-key": lambda entry: respoil(entry, halved_under_another_key),
    "truncated": lambda entry: entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2]),
    "empty": lambda entry: entry.write_bytes(b""),
    "not-npz": lambda entry: entry.write_bytes(b"not an npz file"),
}
# The same for arrays under the right key that do not fit it, per loader.
MISFIT = {
    "predictions": {
        "float32-probs": lambda a: a | {"probs": a["probs"].astype(np.float32)},
        "one-row-short": lambda a: a | {"probs": a["probs"][:-1]},
        "ids-not-a-list": lambda a: a | {"ids": np.frombuffer(b'{"v1": 0, "v2": 1}', np.uint8)},
        "ids-not-strings": lambda a: a | {"ids": np.frombuffer(b"[1, 2]", np.uint8)},
        "repeated-id": lambda a: a | {"ids": np.frombuffer(b'["v1", "v1"]', np.uint8)},
        "no-ids": lambda a: {k: v for k, v in a.items() if k != "ids"},
    },
    "labels": {
        "int16-codes": lambda a: a | {"codes": a["codes"].astype(np.int16)},
        "one-video-short": lambda a: a | {"codes": a["codes"][:, :-1]},
        "codes-by-row": lambda a: a | {"codes": a["codes"].T.copy()},
        "one-actor-short": lambda a: a | {"actors": np.frombuffer(b'["a1"]', np.uint8)},
        "ids-not-strings": lambda a: a | {"ids": np.frombuffer(b"[1, 2]", np.uint8)},
        "no-actors": lambda a: {k: v for k, v in a.items() if k != "actors"},
    },
    "feature": {
        "float32-tensor": lambda a: a | {"tensor": a["tensor"].astype(np.float32)},
        "2-d-tensor": lambda a: a | {"tensor": a["tensor"][0]},
        "non-finite": lambda a: a | {"tensor": np.full_like(a["tensor"], np.inf)},
    },
}
SPOILERS = {f"{kind}-{name}": (kind, spoil) for kind in MISFIT for name, spoil in SPOILED.items()}
SPOILERS |= {
    f"{kind}-{name}": (kind, lambda entry, change=change: respoil(entry, change))
    for kind, changes in MISFIT.items()
    for name, change in changes.items()
}


def valid_input(tmp_path, kind):
    """A valid input file of ``kind``, its loader and the bits of what it loads."""
    if kind == "predictions":
        path = tmp_path / "enc.csv"
        core.write_prediction_rows(path, [("v1", "a1", GOOD), ("v2", "a1", [0.5, 0.5, 0, 0, 0, 0])])
        return path, core.load_prediction_table, table_bits
    if kind == "labels":
        path = tmp_path / "labels.csv"
        rows = [["v1", "a1", "anger", "", "100"], ["v2", "a2", "fear", "sadness", "30"]]
        core.write_csv_rows(path, LABELS_HEADER, rows)
        return path, core.load_label_table, label_table_bits
    values = np.arange(6.0).reshape(1, 2, 3) / 7
    return save_feature_file(FrameFeatureSequence("v", values), tmp_path), load_feature_file, sequence_bits


@pytest.mark.parametrize("case", SPOILERS)
def test_a_spoiled_entry_is_a_silent_miss_and_is_replaced(tmp_path, case):
    kind, spoil = SPOILERS[case]
    path, load, bits = valid_input(tmp_path, kind)
    expected = bits(load(path))
    spoil(entry_of(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, hit = load_counted(load, path)
    assert not hit and bits(value) == expected
    value, hit = load_counted(load, path)
    assert hit and bits(value) == expected
    assert list(entry_of(path).parent.iterdir()) == [entry_of(path)]


@pytest.mark.parametrize("kind", MISFIT)
def test_an_entry_that_cannot_be_replaced_is_a_silent_miss_that_leaves_no_temporary_file(tmp_path, kind):
    path, load, bits = valid_input(tmp_path, kind)
    entry_of(path).mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [load_counted(load, path) for _ in range(2)]
    assert [hit for _, hit in values] == [False, False]
    assert bits(values[0][0]) == bits(values[1][0])
    assert list(entry_of(path).parent.iterdir()) == [entry_of(path)]


@pytest.mark.parametrize("kind", MISFIT)
def test_an_entry_written_under_other_code_is_a_miss(tmp_path, monkeypatch, kind):
    path, load, _ = valid_input(tmp_path, kind)
    load(path)
    monkeypatch.setattr(core, "_code_digest", lambda: b"other code")
    assert not load_counted(load, path)[1]
    assert load_counted(load, path)[1]


def test_the_code_digest_covers_the_numpy_version(monkeypatch):
    digest = core._code_digest.__wrapped__()
    assert digest == core._code_digest()
    monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
    assert core._code_digest.__wrapped__() != digest
