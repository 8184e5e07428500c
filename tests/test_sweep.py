import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperc import sweep as sweep_module
from qperc.ioutil import format_12g, round_12g
from qperc.perceptron import PerceptronConfig, closed_form_probability, measure_many
from qperc.sweep import (
    SweepMatrix,
    compute_sweep,
    load_sweep_csv,
    save_sweep,
)


@pytest.fixture(scope="module")
def sweep2():
    return compute_sweep(PerceptronConfig(n=2))


def test_sweep_shape_and_provenance(sweep2):
    assert sweep2.probs.shape == (16, 16)
    assert sweep2.config.n == 2
    assert sweep2.config.mode == "exact"


def test_sweep_diagonal_and_anti_diagonal_are_one(sweep2):
    for i in range(16):
        assert sweep2.probs[i, i] == 1.0
        assert sweep2.probs[i, 15 - i] == 1.0


def test_sweep_off_diagonal_below_one(sweep2):
    for i in range(16):
        for w in range(16):
            if w not in (i, 15 - i):
                assert sweep2.probs[i, w] < 1.0


def test_sweep_is_symmetric(sweep2):
    np.testing.assert_allclose(sweep2.probs, sweep2.probs.T, atol=1e-12, rtol=0)


def test_sweep_oracle_deviation_is_tiny(sweep2):
    assert sweep2.max_abs_deviation is not None
    assert sweep2.max_abs_deviation < 1e-9


def test_sweep_n3_diagonals():
    sweep = compute_sweep(PerceptronConfig(n=3))
    assert sweep.probs.shape == (256, 256)
    for i in range(256):
        assert sweep.probs[i, i] == 1.0
        assert sweep.probs[i, 255 - i] == 1.0
    assert sweep.max_abs_deviation < 1e-9


def test_sweep_refuses_n4():
    with pytest.raises(ValueError, match="n <= 3"):
        compute_sweep(PerceptronConfig(n=4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_deviation_is_largest_gap_to_scalar_closed_form(n):
    config = PerceptronConfig(n=n)
    size = 1 << (1 << n)
    gap = 0.0
    for w in range(size):
        column = measure_many(range(size), w, config).tolist()
        for i, p in enumerate(column):
            gap = max(gap, abs(p - closed_form_probability(i, w, n)))
    assert compute_sweep(config).max_abs_deviation == gap


def test_sweep_csv_round_trip(tmp_path, sweep2):
    path = tmp_path / "sweep.csv"
    save_sweep(sweep2, path, "csv")
    loaded = load_sweep_csv(path)
    np.testing.assert_array_equal(loaded, sweep2.probs)
    header = path.read_text().splitlines()[0]
    assert header == "," + ",".join(str(w) for w in range(16))


@st.composite
def _sweeps(draw):
    n = draw(st.integers(1, 2))
    size = 1 << (1 << n)
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=size * size, max_size=size * size))
    # compute_sweep stores cells at the file format's precision
    probs = np.array([float(format(p, ".12g")) for p in cells]).reshape(size, size)
    return SweepMatrix(PerceptronConfig(n=n), probs)


@settings(max_examples=50, deadline=None)
@given(_sweeps())
def test_sweep_csv_round_trip_property(sweep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        save_sweep(sweep, path, "csv")
        np.testing.assert_array_equal(load_sweep_csv(path), sweep.probs)


def test_sweep_json_payload(tmp_path, sweep2):
    path = tmp_path / "sweep.json"
    save_sweep(sweep2, path, "json")
    payload = json.loads(path.read_text())
    assert payload["n"] == 2
    assert payload["mode"] == "exact"
    assert len(payload["probs"]) == 16
    np.testing.assert_array_equal(np.array(payload["probs"]), sweep2.probs)


def test_sweep_save_rejects_unknown_format(tmp_path, sweep2):
    with pytest.raises(ValueError):
        save_sweep(sweep2, tmp_path / "sweep.xml", "xml")


def test_sweep_save_is_byte_deterministic(tmp_path, sweep2):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_sweep(sweep2, a, "csv")
    save_sweep(sweep2, b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_sampled_mode_sweep_stays_in_range():
    config = PerceptronConfig(n=1, mode="sampled", shots=256, seed=5)
    sweep = compute_sweep(config)
    assert sweep.max_abs_deviation is None
    assert np.all(sweep.probs >= 0.0)
    assert np.all(sweep.probs <= 1.0)
    assert sweep.probs.shape == (4, 4)


def test_load_sweep_csv_takes_its_sizes_from_the_sweep_cap(tmp_path, monkeypatch):
    path = tmp_path / "n3.csv"
    save_sweep(compute_sweep(PerceptronConfig(n=3)), path)
    assert load_sweep_csv(path).shape == (256, 256)
    monkeypatch.setattr(sweep_module, "MAX_SWEEP_QUBITS", 2)
    message = r"n3\.csv: line 1: expected 4 or 16 columns, got 256$"
    with pytest.raises(ValueError, match=message):
        load_sweep_csv(path)


def test_load_sweep_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,sweep\n1,2,3\n")
    with pytest.raises(ValueError):
        load_sweep_csv(path)


# A valid 4 x 4 (n=1) matrix; each case below damages one place of it.
_ROWS = ["0,1,0.5,0.5,1", "1,0.5,1,1,0.5", "2,0.5,1,1,0.5", "3,1,0.5,0.5,1"]


def _matrix(*rows, header=",0,1,2,3"):
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize(
    "text, match",
    [
        (_matrix("0,1,x,0.5,1", *_ROWS[1:]), r"bad\.csv: line 2: column 1: probability must be a number in \[0, 1\], got 'x'$"),
        (_matrix(_ROWS[0], "x,0.5,1,1,0.5", *_ROWS[2:]), r"bad\.csv: line 3: row index: expected '1' \(ascending, gap-free\), got 'x'$"),
        (_matrix(_ROWS[0], "1,0.5,1,1", *_ROWS[2:]), r"bad\.csv: line 3: expected 5 fields, got 4$"),
        (_matrix("0,1,nan,0.5,1", *_ROWS[1:]), r"bad\.csv: line 2: column 1: probability must be a number in \[0, 1\], got 'nan'$"),
        (_matrix(_ROWS[0], "1,-3,1,1,0.5", *_ROWS[2:]), r"bad\.csv: line 3: column 0: probability must be a number in \[0, 1\], got '-3'$"),
        (_matrix("0,inf,0.5,0.5,1", *_ROWS[1:]), r"bad\.csv: line 2: column 0: probability must be a number in \[0, 1\], got 'inf'$"),
        (_matrix(_ROWS[0], "1,0.5,1e300,1,0.5", *_ROWS[2:]), r"bad\.csv: line 3: column 1: probability must be a number in \[0, 1\], got '1e300'$"),
        (_matrix(_ROWS[0], "1,0.5,-inf,1,0.5", *_ROWS[2:]), r"bad\.csv: line 3: column 1: probability must be a number in \[0, 1\], got '-inf'$"),
        ("", r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 0$"),
        ("0,1\n", r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 1$"),
        # every sweep is 2^m x 2^m for m = 2^n, n = 1..3: no other square loads
        (_matrix("0,1", header=",0"), r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 1$"),
        (_matrix("0,1,0.5", "1,0.5,1", header=",0,1"), r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 2$"),
        (_matrix("0,1,1,1", "1,1,1,1", "2,1,1,1", header=",0,1,2"), r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 3$"),
        (_matrix(*[f"{i},1,1,1,1,1" for i in range(5)], header=",0,1,2,3,4"), r"bad\.csv: line 1: expected 4, 16 or 256 columns, got 5$"),
        (_matrix(*_ROWS, header="0,1,2,3,4"), r"bad\.csv: line 1: row index: expected header '', got '0'$"),
        (_matrix(_ROWS[0]), r"bad\.csv: line 3: expected 4 rows, got 1$"),
        (_matrix(*_ROWS, "4,1,1,1,1"), r"bad\.csv: line 6: expected 4 rows, got 5$"),
    ],
)
def test_load_sweep_csv_names_file_and_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_sweep_csv(path)


@pytest.mark.parametrize(
    "header, column, got",
    [
        (",a,b,2,3", 0, "a"),
        (",0,2,2,3", 1, "2"),
        (",0,01,2,3", 1, "01"),
        (",1,0,2,3", 0, "1"),
        (",0,,2,3", 1, ""),
    ],
)
def test_load_sweep_csv_names_line_1_and_the_first_wrong_header_column(
    tmp_path, header, column, got
):
    path = tmp_path / "bad.csv"
    path.write_text(_matrix(*_ROWS, header=header))
    match = rf"bad\.csv: line 1: column {column}: expected header '{column}', got '{got}'$"
    with pytest.raises(ValueError, match=match):
        load_sweep_csv(path)


def test_load_sweep_csv_takes_the_dataset_slack_over_1(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(_matrix(_ROWS[0], "1,0.5,1.0000000001,1,0.5", *_ROWS[2:]))
    assert load_sweep_csv(path)[1, 1] == 1.0000000001
    path.write_text(_matrix(_ROWS[0], "1,1.000000002,1,1,0.5", *_ROWS[2:]))
    match = r"p\.csv: line 3: column 0: probability must be a number in \[0, 1\], got '1\.000000002'$"
    with pytest.raises(ValueError, match=match):
        load_sweep_csv(path)


def test_load_sweep_csv_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b",0,1\n0,1,0.5\n1,0.5,\xff\n")
    with pytest.raises(ValueError) as exc:
        load_sweep_csv(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        f"{path}: line 3: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        "in position 19: invalid start byte)"
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_sweep_equals_one_column_call_per_weight(monkeypatch, n, mode):
    # the reference: one measure_many column per weight, rounded cell by cell
    config = PerceptronConfig(n=n, mode=mode, shots=500, seed=4)
    size = 1 << (1 << n)
    calls = []

    def spy(inputs, weight, config, epoch=0):
        calls.append(len(inputs))
        return measure_many(inputs, weight, config, epoch)

    monkeypatch.setattr(sweep_module, "measure_many", spy)
    sweep = compute_sweep(config)
    assert calls == [size * size]
    for w in range(size):
        column = measure_many(range(size), w, config).tolist()
        expected = [float(format(p, ".12g")) for p in column]
        assert sweep.probs[:, w].tobytes() == np.array(expected).tobytes()


_EDGE_FLOATS = [0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-310]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_EDGE_FLOATS)),
        max_size=40,
    )
)
def test_format_memo_equals_format_on_every_float(values):
    array = np.array(values, dtype=np.float64)
    texts, index = format_12g(array)
    assert [texts[j] for j in index.tolist()] == [format(p, ".12g") for p in values]
    rounded = round_12g(array.reshape(-1, 1))
    assert rounded.shape == (len(values), 1)
    expected = np.array([float(format(p, ".12g")) for p in values]).reshape(-1, 1)
    assert rounded.tobytes() == expected.tobytes()


def test_format_memo_keeps_signed_zeros_apart():
    texts, index = format_12g(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    assert [[texts[j] for j in row] for row in index.tolist()] == [["0", "-0"], ["-0", "0"]]
