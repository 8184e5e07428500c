import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qperc.dataset as dataset_module
from qperc.dataset import (
    Dataset,
    DatasetFormatError,
    generate_dataset,
    label_from_probability,
    load_dataset,
    save_dataset,
)
from qperc.ioutil import round_12g
from qperc.perceptron import MODES, PerceptronConfig, measure


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(12, PerceptronConfig(n=2))


def test_threshold_tie_goes_to_one():
    assert label_from_probability(0.5) == 1
    assert label_from_probability(0.4999999) == 0
    assert label_from_probability(1.0) == 1
    assert label_from_probability(0.0) == 0


def test_generate_against_weight_zero():
    dataset = generate_dataset(0, PerceptronConfig(n=2))
    assert len(dataset.labels) == len(dataset.probabilities) == 16
    assert dataset.labels[0] == 1
    assert dataset.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert dataset.labels[3] == 0
    assert dataset.probabilities[3] == pytest.approx(0.0, abs=1e-12)


def test_generate_covers_values_in_order(small_dataset):
    # row k is the value k
    want = [measure(value, 12, small_dataset.config) for value in range(16)]
    assert small_dataset.probabilities.tolist() == want


def test_generate_labels_follow_threshold(small_dataset):
    for label, p in zip(small_dataset.labels, small_dataset.probabilities):
        assert label == label_from_probability(p)
    positives = [int(v) for v in np.flatnonzero(small_dataset.labels == 1)]
    assert positives == [3, 12]


def test_generate_rejects_out_of_range_weight():
    with pytest.raises(ValueError):
        generate_dataset(16, PerceptronConfig(n=2))


def test_round_trip_exact(tmp_path, small_dataset):
    path = tmp_path / "data.csv"
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert loaded.config.n == small_dataset.config.n
    assert loaded.optimal_weight == small_dataset.optimal_weight
    assert loaded.config.mode == small_dataset.config.mode
    assert loaded.config.shots == small_dataset.config.shots
    assert loaded.config.seed == small_dataset.config.seed
    assert len(loaded.labels) == len(small_dataset.labels)
    assert loaded.labels.tolist() == small_dataset.labels.tolist()
    assert loaded.probabilities == pytest.approx(
        small_dataset.probabilities, abs=1e-12
    )


def test_round_trip_sampled(tmp_path):
    config = PerceptronConfig(n=2, mode="sampled", shots=8192, seed=17)
    dataset = generate_dataset(5, config)
    path = tmp_path / "sampled.csv"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.config.mode == "sampled"
    assert loaded.config.shots == 8192
    assert loaded.config.seed == 17
    assert loaded.probabilities == pytest.approx(dataset.probabilities, abs=1e-12)


def test_sampled_dataset_is_reproduced_by_its_own_config():
    # training measures with dataset.config, so at the optimal weight every
    # prediction equals its stored label: the optimum is a fixed point
    config = PerceptronConfig(n=3, mode="sampled", shots=16, seed=5)
    dataset = generate_dataset(77, config)
    assert dataset.config == config
    for value, p in enumerate(dataset.probabilities):
        assert measure(value, dataset.optimal_weight, dataset.config) == p


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 3))
    config = PerceptronConfig(
        n=n,
        shots=draw(st.integers(1, 1 << 20)),
        mode=draw(st.sampled_from(MODES)),
        seed=draw(st.integers(0, 1 << 64)),
    )
    rows = 1 << (1 << n)
    hits = draw(st.lists(st.integers(0, config.shots), min_size=rows, max_size=rows))
    probabilities = np.array(hits) / config.shots
    return Dataset(config, draw(st.integers(0, rows - 1)), probabilities)


@settings(max_examples=50, deadline=None)
@given(_datasets())
def test_save_load_round_trip_property(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
    assert loaded.config == dataset.config
    assert loaded.optimal_weight == dataset.optimal_weight
    assert loaded.labels.tolist() == dataset.labels.tolist()
    assert loaded.probabilities.tobytes() == round_12g(dataset.probabilities).tobytes()


@given(st.lists(st.floats(0, 1), max_size=8))
def test_dataset_labels_follow_label_from_probability(drawn):
    # the tie at 0.5 and its two neighbours, then any probabilities
    probabilities = [np.nextafter(0.5, 0), 0.5, np.nextafter(0.5, 1), *drawn]
    labels = Dataset(PerceptronConfig(n=1), 0, probabilities).labels
    assert labels.dtype == np.int64
    assert labels.tolist() == [label_from_probability(p) for p in probabilities]
    assert labels[:3].tolist() == [0, 1, 1]


def test_dataset_column_must_be_1d():
    for column in (0.5, np.zeros((2, 2)), [[0.25, 1.0]]):
        with pytest.raises(ValueError, match="1-D probability column"):
            Dataset(PerceptronConfig(n=1), 0, column)


def test_save_is_byte_deterministic(tmp_path, small_dataset):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(small_dataset, a)
    save_dataset(small_dataset, b)
    assert a.read_bytes() == b.read_bytes()
    assert (
        (tmp_path / "a.csv.meta.json").read_bytes()
        == (tmp_path / "b.csv.meta.json").read_bytes()
    )


@pytest.mark.parametrize(
    "config",
    [PerceptronConfig(n=3), PerceptronConfig(n=3, mode="sampled", shots=100, seed=3)],
)
def test_save_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, config):
    dataset = generate_dataset(77, config)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    save_dataset(dataset, whole)  # 256 rows, one block
    monkeypatch.setattr(dataset_module, "BLOCK_ROWS", 7)  # 36 blocks of 7, one of 4
    save_dataset(dataset, blocked)
    assert blocked.read_bytes() == whole.read_bytes()
    assert blocked.read_text().count("\n") == 257


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_save_failing_after_its_first_block_leaves_no_partial_file(
    tmp_path, monkeypatch, small_dataset, existing
):
    path = tmp_path / "data.csv"
    if existing is not None:
        path.write_bytes(existing)
    real_writer = dataset_module.atomic_writer
    written = []

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            if len(written) == 2:  # the header, then the first block
                assert len(list(tmp_path.glob("data.csv.*.tmp"))) == 1
                raise OSError(28, "No space left on device")
            written.append(data)
            return self.f.write(data)

    @contextmanager
    def writer(target):
        with real_writer(target) as f:
            yield FullDisk(f)

    monkeypatch.setattr(dataset_module, "BLOCK_ROWS", 7)
    monkeypatch.setattr(dataset_module, "atomic_writer", writer)
    with pytest.raises(OSError, match="No space left"):
        save_dataset(small_dataset, path)
    assert written[1].startswith(b"0,") and written[1].count(b"\n") == 7
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == existing


def test_save_refuses_a_short_column_before_writing(tmp_path):
    # Dataset takes a partial column; load_dataset would refuse a file
    # holding one, so none is written.
    dataset = Dataset(PerceptronConfig(n=2), 12, np.array([0.1, 0.9, 0.5]))
    with pytest.raises(ValueError, match="expected 16 rows for n=2, got 3"):
        save_dataset(dataset, tmp_path / "data.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
def test_save_refuses_a_probability_load_would_refuse(tmp_path, bad):
    column = np.full(16, 0.25)
    column[[5, 9]] = bad
    column[3] = 1.0 + 1e-10  # inside is_probability's slack, as on load
    message = rf"^probability of row 5 must be a number in \[0, 1\], got {bad}$"
    with pytest.raises(ValueError, match=message):
        save_dataset(Dataset(PerceptronConfig(n=2), 12, column), tmp_path / "data.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [99, 12.5, -1])
def test_save_refuses_an_optimal_weight_load_would_refuse(tmp_path, bad):
    dataset = Dataset(PerceptronConfig(n=2), bad, np.full(16, 0.25))
    message = rf"^optimal_weight must be in \[0, 15\] for n=2, got {bad}$"
    with pytest.raises(ValueError, match=message):
        save_dataset(dataset, tmp_path / "data.csv")
    assert list(tmp_path.iterdir()) == []


def _write_dataset(tmp_path, rows, meta=None):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    if meta is None:
        meta = {"n": 2, "optimal_weight": 0, "mode": "exact", "shots": 8192, "seed": 0}
    (tmp_path / "data.csv.meta.json").write_text(json.dumps(meta))
    return path


def _valid_rows():
    rows = ["value,label,probability"]
    config = PerceptronConfig(n=2)
    dataset = generate_dataset(0, config)
    for value, (label, p) in enumerate(zip(dataset.labels, dataset.probabilities)):
        rows.append(f"{value},{label},{format(p, '.12g')}")
    return rows


def test_load_rejects_bad_label(tmp_path):
    rows = _valid_rows()
    rows[1] = "0,2,1"
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 2.*label"):
        load_dataset(path)


def test_load_rejects_missing_header(tmp_path):
    rows = _valid_rows()[1:]
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(path)


def test_load_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = _write_dataset(tmp_path, _valid_rows())
    raw = path.read_bytes()
    offset = raw.index(b"\n3,") + 1  # the first byte of line 5
    path.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1 :])
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(path)
    assert str(exc.value) == (
        f"{path}: line 5: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"in position {offset}: invalid start byte)"
    )


def test_load_rejects_wrong_field_count(tmp_path):
    rows = _valid_rows()
    rows[5] = "4,0"
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 6"):
        load_dataset(path)


def test_load_rejects_non_integer_value(tmp_path):
    rows = _valid_rows()
    rows[2] = "x,0,0.25"
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 3: row index: expected '1'"):
        load_dataset(path)


@pytest.mark.parametrize(
    "line, field",
    [
        ("+1,0,0.25", "row index"),
        (" 1,0,0.25", "row index"),
        ("0_1,0,0.25", "row index"),
        ("01,0,0.25", "row index"),
        ("1,+0,0.25", "field 'label'"),
        ("1, 0,0.25", "field 'label'"),
        ("1,0_0,0.25", "field 'label'"),
    ],
)
def test_load_rejects_integers_save_never_writes(tmp_path, line, field):
    # int() parses every one of these as the row's own value or label
    rows = _valid_rows()
    assert rows[2] == "1,0,0.25"
    rows[2] = line
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match=f"line 3: {field}: "):
        load_dataset(path)


def test_load_rejects_bad_probability(tmp_path):
    rows = _valid_rows()
    rows[2] = "1,0,nope"
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 3.*probability"):
        load_dataset(path)


def test_load_rejects_label_probability_disagreement(tmp_path):
    rows = _valid_rows()
    rows[2] = "1,1,0.25"
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="disagrees"):
        load_dataset(path)


def test_load_rejects_out_of_order_values(tmp_path):
    rows = _valid_rows()
    rows[2], rows[3] = rows[3], rows[2]
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="ascending"):
        load_dataset(path)


def test_load_rejects_wrong_row_count(tmp_path):
    # too few: the line after the last one; too many: the first extra line
    rows = _valid_rows()[:-1]
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 17: expected 16 rows"):
        load_dataset(path)
    rows = _valid_rows() + ["16,0,0", "17,0,0"]
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="line 18: expected 16 rows.*got 18"):
        load_dataset(path)


def test_load_rejects_missing_sidecar(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(_valid_rows()) + "\n")
    with pytest.raises(DatasetFormatError, match="sidecar"):
        load_dataset(path)


def test_load_rejects_incomplete_sidecar(tmp_path):
    path = _write_dataset(
        tmp_path, _valid_rows(), meta={"n": 2, "optimal_weight": 0}
    )
    with pytest.raises(DatasetFormatError, match="missing field"):
        load_dataset(path)


def test_load_rejects_sidecar_its_config_rejects(tmp_path):
    meta = {"n": 2, "optimal_weight": 0, "mode": "sampled", "shots": 0, "seed": 0}
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError, match="shots"):
        load_dataset(path)
    meta.update(shots=1 << 63)  # above MAX_SHOTS
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError, match="shots must be between 1 and"):
        load_dataset(path)
    meta.update(mode="exact", n=5)
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError, match="n must be between 1 and 4"):
        load_dataset(path)
    meta.update(n=2, seed=-1)
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError, match="seed must be non-negative, got -1"):
        load_dataset(path)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("optimal_weight", 16, "optimal_weight must be in [0, 15] for n=2, got 16"),
        ("mode", "fast", "mode must be one of ('exact', 'sampled'), got 'fast'"),
        ("n", 5, "n must be between 1 and 4, got 5"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ],
)
def test_sidecar_rule_errors_name_the_field_then_the_rule_message(
    tmp_path, field, bad, message
):
    meta = {"n": 2, "optimal_weight": 0, "mode": "exact", "shots": 8, "seed": 0}
    meta[field] = bad
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(path)
    meta_path = tmp_path / "data.csv.meta.json"
    assert str(exc.value) == f"{meta_path}: field '{field}': {message}"


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n", True),
        ("n", "2"),
        ("optimal_weight", "12"),
        ("optimal_weight", 16),
        ("optimal_weight", -1),
        ("shots", "8"),
        ("shots", 8.0),
        ("seed", False),
        ("seed", None),
        ("mode", "fast"),
        ("mode", 1),
    ],
)
def test_load_rejects_mistyped_sidecar_field(tmp_path, field, bad):
    meta = {"n": 2, "optimal_weight": 0, "mode": "sampled", "shots": 8, "seed": 0}
    meta[field] = bad
    path = _write_dataset(tmp_path, _valid_rows(), meta=meta)
    with pytest.raises(DatasetFormatError, match=f"field '{field}'"):
        load_dataset(path)
