import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperc.perceptron import PerceptronConfig, closed_form_probability
from qperc.sweep import (
    SweepMatrix,
    _closed_form_column,
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
def test_closed_form_column_equals_scalar_closed_form_on_every_pair(n):
    size = 1 << (1 << n)
    for w in range(size):
        expected = [closed_form_probability(i, w, n) for i in range(size)]
        assert _closed_form_column(w, n).tolist() == expected


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


def test_load_sweep_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,sweep\n1,2,3\n")
    with pytest.raises(ValueError):
        load_sweep_csv(path)


@pytest.mark.parametrize(
    "text, match",
    [
        (",0,1\n0,1,x\n1,0.5,1\n", r"bad\.csv: row 0: could not convert string to float: 'x'"),
        (",0,1\n0,1,0.5\nx,0.5,1\n", r"bad\.csv: row 1: expected header 1 and 2 cells, got 'x'"),
        (",0,1\n0,1,nan\n1,0.5,1\n", r"bad\.csv: row 0: column 1: probability out of \[0, 1\]: nan"),
        (",0,1\n0,1,0.5\n1,-3,1\n", r"bad\.csv: row 1: column 0: probability out of \[0, 1\]: -3\.0"),
        (",0,1\n0,inf,0.5\n1,0.5,1\n", r"bad\.csv: row 0: column 0: probability out of \[0, 1\]: inf"),
        (",0,1\n0,1,0.5\n1,0.5,1e300\n", r"bad\.csv: row 1: column 1: probability out of \[0, 1\]: 1e\+300"),
        (",0,1\n0,1,0.5\n1,0.5,-inf\n", r"bad\.csv: row 1: column 1: probability out of \[0, 1\]: -inf"),
    ],
)
def test_load_sweep_csv_names_file_and_row(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_sweep_csv(path)
