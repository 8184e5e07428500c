import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperc.dataset import (
    Dataset,
    DatasetFormatError,
    LabeledExample,
    generate_dataset,
    label_from_probability,
    load_dataset,
    save_dataset,
)
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
    assert len(dataset.examples) == 16
    assert dataset.examples[0].label == 1
    assert dataset.examples[0].probability == pytest.approx(1.0, abs=1e-12)
    assert dataset.examples[3].label == 0
    assert dataset.examples[3].probability == pytest.approx(0.0, abs=1e-12)


def test_generate_covers_values_in_order(small_dataset):
    assert [ex.value for ex in small_dataset.examples] == list(range(16))


def test_generate_labels_follow_threshold(small_dataset):
    for ex in small_dataset.examples:
        assert ex.label == label_from_probability(ex.probability)
    positives = [ex.value for ex in small_dataset.examples if ex.label == 1]
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
    assert len(loaded.examples) == len(small_dataset.examples)
    for got, want in zip(loaded.examples, small_dataset.examples):
        assert got.value == want.value
        assert got.label == want.label
        assert got.probability == pytest.approx(want.probability, abs=1e-12)


def test_round_trip_sampled(tmp_path):
    config = PerceptronConfig(n=2, mode="sampled", shots=8192, seed=17)
    dataset = generate_dataset(5, config)
    path = tmp_path / "sampled.csv"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.config.mode == "sampled"
    assert loaded.config.shots == 8192
    assert loaded.config.seed == 17
    for got, want in zip(loaded.examples, dataset.examples):
        assert got.probability == pytest.approx(want.probability, abs=1e-12)


def test_sampled_dataset_is_reproduced_by_its_own_config():
    # training measures with dataset.config, so at the optimal weight every
    # prediction equals its stored label: the optimum is a fixed point
    config = PerceptronConfig(n=3, mode="sampled", shots=16, seed=5)
    dataset = generate_dataset(77, config)
    assert dataset.config == config
    for ex in dataset.examples:
        assert measure(ex.value, dataset.optimal_weight, dataset.config) == ex.probability


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
    examples = [
        LabeledExample(value, label_from_probability(h / config.shots), h / config.shots)
        for value, h in enumerate(hits)
    ]
    return Dataset(config, draw(st.integers(0, rows - 1)), examples)


@settings(max_examples=50, deadline=None)
@given(_datasets())
def test_save_load_round_trip_property(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
    assert loaded.config == dataset.config
    assert loaded.optimal_weight == dataset.optimal_weight
    assert loaded.examples == [
        LabeledExample(ex.value, ex.label, float(format(ex.probability, ".12g")))
        for ex in dataset.examples
    ]


def test_save_is_byte_deterministic(tmp_path, small_dataset):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(small_dataset, a)
    save_dataset(small_dataset, b)
    assert a.read_bytes() == b.read_bytes()
    assert (
        (tmp_path / "a.csv.meta.json").read_bytes()
        == (tmp_path / "b.csv.meta.json").read_bytes()
    )


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
    for ex in dataset.examples:
        rows.append(f"{ex.value},{ex.label},{format(ex.probability, '.12g')}")
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
    with pytest.raises(DatasetFormatError, match="line 3.*value"):
        load_dataset(path)


@pytest.mark.parametrize(
    "line, field",
    [
        ("+1,0,0.25", "value"),
        (" 1,0,0.25", "value"),
        ("0_1,0,0.25", "value"),
        ("01,0,0.25", "value"),
        ("1,+0,0.25", "label"),
        ("1, 0,0.25", "label"),
        ("1,0_0,0.25", "label"),
    ],
)
def test_load_rejects_integers_save_never_writes(tmp_path, line, field):
    # int() parses every one of these as the row's own value or label
    rows = _valid_rows()
    assert rows[2] == "1,0,0.25"
    rows[2] = line
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match=f"line 3: field '{field}'"):
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
    rows = _valid_rows()[:-1]
    path = _write_dataset(tmp_path, rows)
    with pytest.raises(DatasetFormatError, match="rows"):
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
