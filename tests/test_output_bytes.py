"""Output bytes, pinned.

No speed-up may change a byte of an exact-mode file: evaluating in another
order or summing differently could move the 12th significant digit. The
exact digests were taken from the per-pair circuit loop that measure_many
replaced. The sampled sweep digest pins the counter-based sampler: its hash
of (seed, input, weight) and its inverse binomial CDF tables. The sampled
dataset digest pins the label column and the rows save_dataset builds from
one suffix per (label, distinct P). The three trace digests pin training:
one streamed strict n=4 epoch, an n=4 run that converges to the optimal
weight's complement in the default functional mode, and 20 epochs on a
sampled n=3 dataset, whose draws are keyed by the epoch too.
"""

import hashlib

from qperc.cli import main

GEN_DATA_N4_W626_SHA256 = (
    "c8c02a9a5128c7ebd350c328b6b5b53d1178b8de0e5592d661f175b2d4873636"
)
GEN_DATA_N3_W23_SAMPLED_SEED_7_SHA256 = (
    "ee47143a120d03b8bded4749666ae6f350aea320271b1a71dd7785aa28e58c3c"
)
SWEEP_N3_CSV_SHA256 = (
    "d91ea5e37132c28d6fed48d9cddbd7e4ffc1bede87de3b186f5ab5ce2d178fd0"
)
SWEEP_N3_SAMPLED_SEED_12345_CSV_SHA256 = (
    "0b6bd69ab83a56ca5aa961a2d4b367d2751b026b24d79c7160c0702adf0b9159"
)
TRAIN_N4_STRICT_EPOCH_TRACE_SHA256 = (
    "4ebee41a4af923dd175d4704cbf2d99c7f1a0091f250af5d05872845df0b6a07"
)
TRAIN_N4_FUNCTIONAL_SEED_17_TRACE_SHA256 = (
    "25c91049102638855d07fa87c583020c769cb9d4ca773b093add40a147a957a8"
)
TRAIN_N3_SAMPLED_20_EPOCHS_TRACE_SHA256 = (
    "250aca9ace4eeb78b2f829535da82551bc4d42e84370dd3599007f641d0c5aee"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_n4_weight_626_bytes(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--n", "4", "--weight", "626", "--out", str(out)]) == 0
    assert _sha256(out) == GEN_DATA_N4_W626_SHA256


def test_gen_data_n3_weight_23_sampled_bytes(tmp_path):
    out = tmp_path / "data.csv"
    args = ["gen-data", "--n", "3", "--weight", "23", "--mode", "sampled"]
    assert main(args + ["--shots", "1024", "--seed", "7", "--out", str(out)]) == 0
    assert _sha256(out) == GEN_DATA_N3_W23_SAMPLED_SEED_7_SHA256


def test_sweep_n3_exact_csv_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "3", "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_N3_CSV_SHA256


def test_sweep_n3_sampled_csv_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--n", "3", "--mode", "sampled", "--shots", "8192"]
    assert main(args + ["--seed", "12345", "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_N3_SAMPLED_SEED_12345_CSV_SHA256


def test_train_n4_strict_epoch_trace_bytes(tmp_path, capsys):
    data, trace = tmp_path / "data.csv", tmp_path / "trace.jsonl"
    assert main(["gen-data", "--n", "4", "--weight", "626", "--out", str(data)]) == 0
    args = ["train", "--data", str(data), "--max-epochs", "1"]
    args += ["--convergence", "strict", "--optimal-weight", "653", "--seed", "7"]
    assert main(args + ["--trace-out", str(trace)]) == 0
    assert "epochs run: 1\n" in capsys.readouterr().out
    assert _sha256(trace) == TRAIN_N4_STRICT_EPOCH_TRACE_SHA256


def test_train_n4_functional_complement_trace_bytes(tmp_path, capsys):
    data, trace = tmp_path / "data.csv", tmp_path / "trace.jsonl"
    assert main(["gen-data", "--n", "4", "--weight", "626", "--out", str(data)]) == 0
    args = ["train", "--data", str(data), "--seed", "17"]
    assert main(args + ["--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    # 64909 is 626 ^ 0xFFFF: the run stops at the complement, 350 updates in.
    assert "final weight: 64909\nepochs run: 1\nupdates applied: 350\n" in out
    assert _sha256(trace) == TRAIN_N4_FUNCTIONAL_SEED_17_TRACE_SHA256


def test_train_n3_sampled_20_epochs_trace_bytes(tmp_path, capsys):
    data, trace = tmp_path / "data.csv", tmp_path / "trace.jsonl"
    args = ["gen-data", "--n", "3", "--weight", "77", "--mode", "sampled"]
    assert main(args + ["--shots", "256", "--seed", "5", "--out", str(data)]) == 0
    args = ["train", "--data", str(data), "--max-epochs", "20"]
    args += ["--convergence", "strict", "--optimal-weight", "66", "--seed", "1"]
    assert main(args + ["--trace-out", str(trace)]) == 0
    assert "epochs run: 20\n" in capsys.readouterr().out
    assert _sha256(trace) == TRAIN_N3_SAMPLED_20_EPOCHS_TRACE_SHA256
