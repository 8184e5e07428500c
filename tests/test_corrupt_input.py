"""Corrupted files make every loader raise ValueError, and nothing else.

Each property starts from a file the matching writer produced and damages
it, either byte by byte or by putting an arbitrary JSON value in one field
of a JSON record. DatasetFormatError is a ValueError, so the loaders may
raise either; a TypeError, KeyError or IndexError fails the property. A
trace field given a value of the wrong type, or out of its range, must
raise, naming the field.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperc.dataset import generate_dataset, load_dataset, save_dataset
from qperc.perceptron import PerceptronConfig
from qperc.sweep import compute_sweep, load_sweep_csv, save_sweep
from qperc.training import ACTIONS, TrainConfig, load_trace, save_trace, train

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# Bytes that mean something to CSV or JSON, plus anything at all.
_CHUNKS = st.lists(
    st.sampled_from(b',\n-.0123456789e"[]{}: '), min_size=1, max_size=3
).map(bytes) | st.binary(min_size=1, max_size=3)


@st.composite
def _byte_damage(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if edit == "truncate":
            del out[pos:]
        elif edit == "delete":
            del out[pos : pos + draw(st.integers(1, 8))]
        else:
            chunk = draw(_CHUNKS)
            end = pos + len(chunk) if edit == "replace" else pos
            out[pos:end] = chunk
    return bytes(out)


@st.composite
def _damaged_record(draw, record: dict) -> dict:
    """The JSON object with arbitrary JSON values in some of its fields."""
    record = dict(record)
    for key in draw(st.sets(st.sampled_from(sorted(record)), min_size=1)):
        record[key] = draw(_JSON)
    return record


def _load_or_value_error(load, path):
    try:
        load(path)
    except ValueError:
        pass


_DATASET = generate_dataset(9, PerceptronConfig(n=2, mode="sampled", shots=64, seed=4))
_TRACE = train(_DATASET, 9, TrainConfig(seed=1, max_epochs=3)).trace
_SWEEP = compute_sweep(PerceptronConfig(n=1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_dataset_on_corrupted_files_raises_only_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(_DATASET, path)
        sidecar = Path(str(path) + ".meta.json")
        target = data.draw(st.sampled_from([path, sidecar]))
        if target == sidecar and data.draw(st.booleans()):
            meta = data.draw(_damaged_record(json.loads(sidecar.read_text())))
            damaged = json.dumps(meta).encode()
        else:
            damaged = data.draw(_byte_damage(target.read_bytes()))
        target.write_bytes(damaged)
        _load_or_value_error(load_dataset, path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_sweep_csv_on_corrupted_files_raises_only_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        save_sweep(_SWEEP, path)
        path.write_bytes(data.draw(_byte_damage(path.read_bytes())))
        _load_or_value_error(load_sweep_csv, path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damage_inside_one_row_is_named_by_that_rows_line(data):
    # The same byte edits, kept inside one body row: the file loads, or the
    # error names that row's line and no other.
    save, load, table = data.draw(
        st.sampled_from(
            [(save_dataset, load_dataset, _DATASET), (save_sweep, load_sweep_csv, _SWEEP)]
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        save(table, path)
        lines = path.read_bytes().split(b"\n")[:-1]
        row = data.draw(st.integers(0, len(lines) - 2))
        damaged = data.draw(_byte_damage(lines[row + 1]))
        lines[row + 1] = damaged.replace(b"\n", b"")  # the line count stays
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            load(path)
        except ValueError as exc:
            named = re.findall(r": line (\d+): ", str(exc))
            assert named == [str(row + 2)], str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_trace_on_corrupted_files_raises_only_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(_TRACE, path)
        if data.draw(st.booleans()):
            lines = path.read_text().splitlines()
            row = data.draw(st.integers(0, len(lines) - 1))
            lines[row] = json.dumps(data.draw(_damaged_record(json.loads(lines[row]))))
            damaged = ("\n".join(lines) + "\n").encode()
        else:
            damaged = data.draw(_byte_damage(path.read_bytes()))
        path.write_bytes(damaged)
        _load_or_value_error(load_trace, path)


def _fits_step_field(name, value):
    """Whether a JSON value is of the type the TrainStep field needs."""
    if name == "action":
        return value in ACTIONS
    if name == "p1":
        return type(value) in (int, float)
    if name == "flipped_positions":
        return type(value) is list and all(type(p) is int for p in value)
    return type(value) is int


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_trace_rejects_wrongly_typed_fields_naming_them(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(_TRACE, path)
        lines = path.read_text().splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[row])
        name = data.draw(st.sampled_from(sorted(record)))
        record[name] = data.draw(
            _JSON.filter(lambda value: not _fits_step_field(name, value))
        )
        lines[row] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {row + 1}: field '{name}'"):
            load_trace(path)


def _trace_with(path, name, value):
    """A saved trace whose second record holds `value` in field `name`."""
    save_trace(_TRACE, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[name] = value
    lines[1] = json.dumps(record)  # writes NaN and Infinity as JSON extensions
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, value",
    [
        ("p1", 5.0),
        ("p1", float("nan")),
        ("p1", float("inf")),
        ("p1", -0.25),
        ("predicted", 7),
        ("actual", -1),
        ("epoch", -1),
        ("example_value", -3),
        ("weight_before", -1),
        ("weight_after", -2),
        ("flipped_positions", [0, -1]),
    ],
)
def test_load_trace_rejects_out_of_range_values_naming_them(tmp_path, name, value):
    path = tmp_path / "trace.jsonl"
    _trace_with(path, name, value)
    message = f"^{re.escape(str(path))}: line 2: field '{name}': {name} must be "
    with pytest.raises(ValueError, match=message):
        load_trace(path)


@pytest.mark.parametrize("p1", [0, 1, 1.0 + 1e-10])
def test_load_trace_takes_p1_within_the_dataset_slack(tmp_path, p1):
    path = tmp_path / "trace.jsonl"
    _trace_with(path, "p1", p1)
    assert load_trace(path)[1].p1 == p1


# A form feed, which str.splitlines would also break at, does not move the
# line an error names: lines end at "\n" or "\r\n" only.


def test_load_dataset_names_the_line_holding_a_form_feed(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(generate_dataset(12, PerceptronConfig(n=2)), path)
    lines = path.read_text().split("\n")
    lines[4] = lines[4].replace(",", ",\f", 1)  # line 5, the row of value 3
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"line 5: field 'label': must be '0' or '1'"):
        load_dataset(path)


def test_load_sweep_csv_names_the_line_holding_a_form_feed(tmp_path):
    path = tmp_path / "sweep.csv"
    save_sweep(_SWEEP, path)
    lines = path.read_text().split("\n")
    lines[3] = lines[3].replace(",", "\f,", 1)  # line 4, the row of input 2
    path.write_text("\n".join(lines))
    match = r"line 4: row index: expected '2' \(ascending, gap-free\), got '2\\x0c'$"
    with pytest.raises(ValueError, match=match):
        load_sweep_csv(path)


def test_load_trace_names_the_line_after_a_form_feed_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace(_TRACE, path)
    first = path.read_text().split("\n")[0]
    path.write_text(f"{first}\n\f\nnot json\n")  # line 2 is blank
    with pytest.raises(ValueError, match=r"line 3: invalid JSON"):
        load_trace(path)


def test_crlf_dataset_loads_as_its_lf_original(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(_DATASET, path)
    original = load_dataset(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = load_dataset(path)
    assert loaded.config == original.config
    assert loaded.optimal_weight == original.optimal_weight
    assert loaded.probabilities.tobytes() == original.probabilities.tobytes()
