"""Output bytes, pinned.

No speed-up may change a byte of an exact-mode file: evaluating in another
order or summing differently could move the 12th significant digit. The
exact digests were taken from the per-pair circuit loop that measure_many
replaced. The sampled digest pins the counter-based sampler: its hash of
(seed, input, weight) and its inverse binomial CDF tables.
"""

import hashlib

from qperc.cli import main

GEN_DATA_N4_W626_SHA256 = (
    "c8c02a9a5128c7ebd350c328b6b5b53d1178b8de0e5592d661f175b2d4873636"
)
SWEEP_N3_CSV_SHA256 = (
    "d91ea5e37132c28d6fed48d9cddbd7e4ffc1bede87de3b186f5ab5ce2d178fd0"
)
SWEEP_N3_SAMPLED_SEED_12345_CSV_SHA256 = (
    "0b6bd69ab83a56ca5aa961a2d4b367d2751b026b24d79c7160c0702adf0b9159"
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


def test_sweep_n3_sampled_csv_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--n", "3", "--mode", "sampled", "--shots", "8192"]
    assert main(args + ["--seed", "12345", "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_N3_SAMPLED_SEED_12345_CSV_SHA256
