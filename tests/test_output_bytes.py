"""Exact-mode output bytes, pinned at the last gate-by-gate evaluator.

No speed-up may change a byte of an exact-mode file: evaluating in another
order or summing differently could move the 12th significant digit. The
digests were taken from the per-pair circuit loop that measure_many
replaced.
"""

import hashlib

from qperc.cli import main

GEN_DATA_N4_W626_SHA256 = (
    "c8c02a9a5128c7ebd350c328b6b5b53d1178b8de0e5592d661f175b2d4873636"
)
SWEEP_N3_CSV_SHA256 = (
    "d91ea5e37132c28d6fed48d9cddbd7e4ffc1bede87de3b186f5ab5ce2d178fd0"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_n4_weight_626_bytes(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--n", "4", "--weight", "626", "--out", str(out)]) == 0
    assert _sha256(out) == GEN_DATA_N4_W626_SHA256


def test_sweep_n3_exact_csv_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "3", "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_N3_CSV_SHA256
