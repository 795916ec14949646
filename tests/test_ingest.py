"""The block reader of predictions files against the per-row reader, and
the labels reader against the per-row oracle: the same rows, the same
first faulty line and the same warnings."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendfuse import core
from blendfuse.core import LABELS_HEADER, PREDICTIONS_HEADER, ValidationError
from blendfuse.synth import SynthConfig, generate
from oracles import label_rows, label_table, label_table_bits

# Characters csv.reader keeps in an unquoted field.  str.splitlines() would
# split a line at \x0c, \x85 and \u2028; csv.reader does not.
ID_CHARS = "ab1_- é\x0c\x85\u2028"
DIGITS = "0123456789"
# Arabic-Indic and fullwidth digits, which float() and int() accept.
NON_ASCII_DIGITS = ["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"]
EMOTION_NAMES = [e.label for e in core.EMOTIONS]


def _underscored(text):
    """``text`` with an underscore between its first two adjacent digits."""
    for i in range(len(text) - 1):
        if text[i] in DIGITS and text[i + 1] in DIGITS:
            return text[: i + 1] + "_" + text[i + 1 :]
    return text


def _spellings(text):
    """Spellings of one number that float() and int() read as ``text``."""
    return [
        text,
        f" {text}\t",
        _underscored(text),
        *(text.translate(str.maketrans(DIGITS, digits)) for digits in NON_ASCII_DIGITS),
    ]


@st.composite
def _valid_prediction_rows(draw, min_rows=0):
    """Valid rows: every video under one actor, some videos over several
    clips, probabilities summing to 1 within a few ulps."""
    videos = draw(st.lists(st.text(ID_CHARS, max_size=4), min_size=1, max_size=6, unique=True))
    actor_of = {v: draw(st.text(ID_CHARS, max_size=3)) for v in videos}
    rows = []
    for video in draw(st.lists(st.sampled_from(videos), min_size=min_rows, max_size=12)):
        weights = draw(st.lists(st.integers(1, 9), min_size=6, max_size=6))
        values = [w / sum(weights) for w in weights]
        tokens = [draw(st.sampled_from(_spellings(repr(x)))) for x in values]
        rows.append([video, actor_of[video], *tokens])
    return rows


@st.composite
def _valid_label_rows(draw, min_rows=0):
    """Valid rows in every accepted spelling of emotions and saliences."""
    ids = st.text(ID_CHARS, max_size=4)
    videos = draw(st.lists(ids, min_size=min_rows, max_size=10, unique=True))
    rows = []
    for video in videos:
        salience = draw(st.sampled_from([100, 70, 50, 30]))
        a, b = draw(st.permutations(range(6)))[:2]
        names = [
            draw(st.sampled_from([n, n.upper(), f" {n.title()} "]))
            for n in (EMOTION_NAMES[a], EMOTION_NAMES[b])
        ]
        if salience == 100:
            names[1] = draw(st.sampled_from(["", "  "]))
        spellings = _spellings(str(salience)) + [f"+{salience}", f"0{salience}"]
        actor = draw(st.text(ID_CHARS, max_size=3))
        rows.append([video, actor, *names, draw(st.sampled_from(spellings))])
    return rows


def _pick(data, rows):
    return rows[data.draw(st.integers(0, len(rows) - 1))]


def _set_column(column, values):
    def edit(data, rows):
        _pick(data, rows)[column] = data.draw(st.sampled_from(values))
    return edit


def _quote_id(data, rows):
    row = _pick(data, rows)
    i = data.draw(st.integers(0, 1))
    row[i] = '"' + row[i].replace('"', '""') + '"'


def _drop_field(data, rows):
    _pick(data, rows).pop()


def _add_field(data, rows):
    _pick(data, rows).append("0")


def _blank_row(data, rows):
    row = _pick(data, rows)
    row[:] = ["  "]  # spaces only: one field, not a blank line


def _move_field(data, rows):
    """The last field of one row at the end of the next: the field count
    of the block stays right, those of two lines do not."""
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[(i + 1) % len(rows)].append(rows[i].pop())


def _long_id(data, rows):
    _pick(data, rows)[0] = "v" * (csv.field_size_limit() + 1)


COMMON_FAULTS = {
    "quoted id": _quote_id,
    "quoted comma": _set_column(0, ['"a,b"', '"x""y"']),
    "nul": _set_column(1, ["a\x00b"]),
    "drop field": _drop_field,
    "add field": _add_field,
    "spaces row": _blank_row,
    "long id": _long_id,
}


def _renormalized(scale):
    def edit(data, rows):
        row = _pick(data, rows)
        row[2:] = [repr(float(t.replace("_", "")) * scale) if t.isascii() else t for t in row[2:]]
    return edit


PREDICTION_FAULTS = {
    **COMMON_FAULTS,
    "bad number": _set_column(4, ["infinity", "-nan", "x", "1e500", "", "-0.5", "2", "0x1"]),
    "renormalize": _renormalized(1.0004),
    "beyond repair": _renormalized(1.01),
    "other actor": _set_column(1, ["zz"]),
    "moved field": _move_field,
}


def _duplicate_id(data, rows):
    rows.append([rows[0][0], *_pick(data, rows)[1:]])


def _secondary_at_100(data, rows):
    _pick(data, rows)[3:] = ["fear", "100"]


def _same_emotions(data, rows):
    row = _pick(data, rows)
    row[3] = row[2]


def _two_unknown_emotions(data, rows):
    _pick(data, rows)[2:4] = ["joy", "glee"]  # the primary is reported


LABEL_FAULTS = {
    **COMMON_FAULTS,
    "duplicate id": _duplicate_id,
    "unknown emotion": _set_column(2, ["joy", ""]),
    "two unknown emotions": _two_unknown_emotions,
    "bad salience": _set_column(4, ["60", "x", "70.0", ""]),
    "secondary at 100": _secondary_at_100,
    "same emotions": _same_emotions,
    "missing secondary": _set_column(3, [""]),
}


def _write(data, path, header, rows, header_quirks):
    """``rows`` as CSV text with mixed line ends, blank lines and an
    optional final newline; with ``header_quirks``, a BOM or quotes may
    come before or around the header's fields."""
    prefix, head = "", ",".join(header)
    if header_quirks:
        prefix = data.draw(st.sampled_from(["", "\ufeff"]), label="bom")
        if data.draw(st.booleans(), label="quoted header"):
            head = ",".join(f'"{h}"' for h in header)
    ending = st.sampled_from(["\n", "\r\n", "\r"])
    parts = [prefix, head, data.draw(ending)]
    for row in rows:
        if data.draw(st.integers(0, 4)) == 0:
            parts.append(data.draw(ending))  # a blank line
        parts += [",".join(row), data.draw(ending)]
    if rows and data.draw(st.booleans()):
        parts.pop()  # no final newline
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(parts))


def _outcome(read, path):
    """What ``read(path)`` returns or the ValidationError it raises, and the
    warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path)
        except ValidationError as exc:
            result = str(exc)
    if isinstance(result, core.LabelTable):
        result = label_table_bits(result)
    elif isinstance(result, tuple):  # a parsed predictions file
        video_ids, actor_ids, matrix = result
        result = (video_ids, actor_ids, matrix.shape, matrix.tobytes())
    return result, [str(w.message) for w in caught]


def _label_table_of_rows(path):
    """The table of the records that the per-row oracle reads."""
    return label_table(label_rows(path))


def _parsed_rows(path):
    """The rows ``core._parse_predictions`` reads, whichever reader read them."""
    return core._parse_predictions(path)[0]


def _read_both(data, header, rows, fast, slow, header_quirks=False):
    """Write ``rows`` and read them with ``fast`` and with ``slow``, in
    blocks drawn as small as one line."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(core, "_BLOCK_CHARS", data.draw(st.integers(1, 300), label="block"))
        path = Path(tmp) / "in.csv"
        _write(data, path, header, rows, header_quirks)
        return _outcome(fast, path), _outcome(slow, path)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_block_reader_reads_valid_predictions_as_the_per_row_reader(data):
    rows = data.draw(_valid_prediction_rows(), label="rows")
    fast, slow = _read_both(
        data, PREDICTIONS_HEADER, rows, lambda path: core._parse_prediction_blocks(path.read_bytes()),
        core._parse_prediction_rows,
    )
    assert fast == slow
    assert slow[1] == []


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_load_labels_reads_valid_labels_as_the_per_row_reader(data):
    rows = data.draw(_valid_label_rows(), label="rows")
    fast, slow = _read_both(data, LABELS_HEADER, rows, core.load_labels, _label_table_of_rows)
    assert fast == slow


# Each fault or quirk is drawn alone, so that none hides another from the
# block reader, and the per-row reader's answer is the expected one.
@pytest.mark.parametrize("fault", sorted(PREDICTION_FAULTS))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_predictions_file_reads_as_the_per_row_reader_reads_it(fault, data):
    rows = data.draw(_valid_prediction_rows(min_rows=1), label="rows")
    PREDICTION_FAULTS[fault](data, rows)
    fast, slow = _read_both(
        data,
        PREDICTIONS_HEADER,
        rows,
        _parsed_rows,
        core._parse_prediction_rows,
        header_quirks=True,
    )
    assert fast == slow


@pytest.mark.parametrize("fault", sorted(LABEL_FAULTS))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_labels_file_reads_as_the_per_row_reader_reads_it(fault, data):
    rows = data.draw(_valid_label_rows(min_rows=1), label="rows")
    LABEL_FAULTS[fault](data, rows)
    fast, slow = _read_both(data, LABELS_HEADER, rows, core.load_labels, _label_table_of_rows, header_quirks=True)
    assert fast == slow


def test_written_files_take_the_block_reader(tmp_path, monkeypatch):
    # If a change made the writers' own output fall back to the per-row
    # reader, ingest would silently run at its old speed.
    data = generate(SynthConfig(n_actors=4, clips_per_actor=6, noise_sigma=0.4, seed=2))
    rng = np.random.default_rng(0)
    rows = {}
    for video, (clip,) in data.predictions.rows.items():
        shifted = np.array(clip.values)[None, :] + rng.uniform(0, 0.2, (int(rng.integers(1, 4)), 6))
        rows[video] = tuple(core.EmotionDistribution(tuple(r / r.sum())) for r in shifted)
    preds_path = tmp_path / "enc.csv"
    preds = core.EncoderPredictionSet("enc", rows, dict(data.predictions.actors))
    core.save_predictions(preds, preds_path)
    assert any(len(clips) > 1 for clips in rows.values())
    expected = _outcome(core._parse_prediction_rows, preds_path)

    def per_row(path):
        raise AssertionError(f"{path} was read by the per-row reader")

    monkeypatch.setattr(core, "_parse_prediction_rows", per_row)
    assert _outcome(_parsed_rows, preds_path) == expected
    assert core._parse_predictions(preds_path)[1]  # vouched for by the block reader
    assert core.load_predictions(preds_path).rows == preds.rows
    assert list(core.load_prediction_table(preds_path).row_of) == list(rows)
