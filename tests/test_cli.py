import io
import json
import os
import shlex
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qperc.training as training
from qperc.cli import main
from qperc.dataset import load_dataset
from qperc.perceptron import measure_many
from qperc.statevector import MAX_SHOTS
from qperc.sweep import load_sweep_csv
from qperc.training import TrainConfig, init_weight, load_trace, save_trace, train


def run_cli(*argv):
    return main(list(argv))


def test_simulate_perfect_match(capsys):
    assert run_cli("simulate", "--n", "2", "--input", "7", "--weight", "7") == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == 1.0


def test_simulate_quarter_probability(capsys):
    assert run_cli("simulate", "--n", "2", "--input", "0", "--weight", "1") == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_simulate_out_of_range_input_names_flag(capsys):
    code = run_cli("simulate", "--n", "2", "--input", "16", "--weight", "0")
    assert code == 2
    assert "--input" in capsys.readouterr().err


def test_simulate_rejects_bad_n(capsys):
    assert run_cli("simulate", "--n", "5", "--input", "0", "--weight", "0") == 2
    assert "--n" in capsys.readouterr().err


def test_simulate_sampled_deterministic(capsys):
    args = (
        "simulate", "--n", "2", "--input", "0", "--weight", "1",
        "--mode", "sampled", "--shots", "8192", "--seed", "11",
    )
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first
    assert abs(float(first) - 0.25) < 0.05


def test_seed_env_var_is_default(capsys, monkeypatch):
    args = (
        "simulate", "--n", "2", "--input", "0", "--weight", "1",
        "--mode", "sampled",
    )
    monkeypatch.setenv("QPERC_SEED", "11")
    assert run_cli(*args) == 0
    from_env = capsys.readouterr().out
    monkeypatch.delenv("QPERC_SEED")
    assert run_cli(*args, "--seed", "11") == 0
    assert capsys.readouterr().out == from_env


def test_seed_flag_overrides_env(capsys, monkeypatch):
    args = (
        "simulate", "--n", "2", "--input", "0", "--weight", "1",
        "--mode", "sampled", "--seed", "3",
    )
    assert run_cli(*args) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("QPERC_SEED", "999")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == plain


def test_seed_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("QPERC_SEED", "lots")
    code = run_cli(
        "simulate", "--n", "2", "--input", "0", "--weight", "1",
        "--mode", "sampled",
    )
    assert code == 2
    assert "QPERC_SEED" in capsys.readouterr().err


def test_negative_seed_exits_2_naming_seed(capsys, monkeypatch):
    args = (
        "simulate", "--n", "2", "--input", "0", "--weight", "1",
        "--mode", "sampled",
    )
    assert run_cli(*args, "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    monkeypatch.setenv("QPERC_SEED", "-1")
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_simulate_sampled_shots_beyond_int64_exits_2_naming_shots(capsys):
    args = ("simulate", "--n", "2", "--input", "1", "--weight", "2", "--mode", "sampled")
    assert run_cli(*args, "--shots", str(1 << 63)) == 2
    assert capsys.readouterr().err.startswith("error: --shots: shots must be between 1 and")
    assert run_cli(*args, "--shots", "100000000000000000000") == 2
    assert capsys.readouterr().err.startswith("error: --shots: ")
    assert run_cli(*args, "--shots", str(MAX_SHOTS + 1)) == 2
    assert capsys.readouterr().err.startswith("error: --shots: shots must be between 1 and")
    # P = 0.25: a near-widest binomial table at the cap
    near_widest = ("simulate", "--n", "2", "--input", "0", "--weight", "1", "--mode", "sampled")
    assert run_cli(*near_widest, "--shots", str(MAX_SHOTS)) == 0


def test_sweep_writes_matrix(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--n", "2", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "max |circuit - closed form|" in printed
    probs = load_sweep_csv(out)
    assert probs.shape == (16, 16)
    assert np.all(np.diag(probs) == 1.0)


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert run_cli("sweep", "--n", "1", "--out", str(out), "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 1
    assert len(payload["probs"]) == 4


def test_sweep_refuses_n4_with_guidance(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--n", "4", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exhaustive sweep supports n <= 3")
    assert "`qperc gen-data --n 4 --weight W`" in err
    assert not out.exists()


def test_sweep_force_sample_is_an_unknown_flag(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--n", "4", "--out", str(out), "--force-sample", "25")
    assert exc.value.code == 2
    assert "unrecognized arguments: --force-sample" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_round_trip(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(out)) == 0
    dataset = load_dataset(out)
    assert dataset.config.n == 2
    assert dataset.optimal_weight == 12
    assert np.flatnonzero(dataset.labels == 1).tolist() == [3, 12]


def test_gen_data_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("gen-data", "--n", "2", "--weight", "9", "--mode", "sampled",
            "--shots", "512", "--seed", "6")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = (tmp_path / "a.csv.meta.json").read_text()
    meta_b = (tmp_path / "b.csv.meta.json").read_text()
    assert meta_a == meta_b


@pytest.mark.parametrize(
    "field, bad", [("n", True), ("optimal_weight", "12"), ("shots", "8"),
                   ("seed", 1.5), ("mode", "fast")],
)
def test_train_mistyped_sidecar_exits_2_naming_field(tmp_path, capsys, field, bad):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    meta_path = tmp_path / "data.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["mode"] = "sampled"
    meta[field] = bad
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"field '{field}'" in err


def test_train_sampled_zero_shots_sidecar_exits_2_naming_shots(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    meta_path = tmp_path / "data.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(mode="sampled", shots=0)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "shots" in err


def test_train_negative_seed_exits_2_naming_seed(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli(
        "gen-data", "--n", "2", "--weight", "12", "--mode", "sampled",
        "--shots", "64", "--out", str(data),
    ) == 0
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    meta_path = tmp_path / "data.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["seed"] = -1
    meta_path.write_text(json.dumps(meta))
    assert run_cli("train", "--data", str(data), "--seed", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: ")
    assert "seed must be non-negative, got -1" in err


def test_train_non_utf8_dataset_exits_2_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    raw = data.read_bytes()
    lines = raw.split(b"\n")
    offset = len(b"\n".join(lines[:3])) + 1  # the first byte of line 4
    data.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1 :])
    capsys.readouterr()
    assert run_cli("train", "--data", str(data)) == 2
    assert capsys.readouterr().err == (
        f"error: {data}: line 4: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"in position {offset}: invalid start byte)\n"
    )
    data.write_bytes(raw)
    meta_path = tmp_path / "data.csv.meta.json"
    meta_path.write_bytes(b'{"n": \xff}')
    assert run_cli("train", "--data", str(data)) == 2
    assert capsys.readouterr().err == (
        f"error: {meta_path}: line 1: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        "in position 6: invalid start byte)\n"
    )


def test_train_sampled_measures_with_dataset_seed(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli(
        "gen-data", "--n", "2", "--weight", "9", "--mode", "sampled",
        "--shots", "64", "--seed", "6", "--out", str(data),
    ) == 0
    trace = tmp_path / "trace.jsonl"
    assert run_cli(
        "train", "--data", str(data), "--seed", "4", "--trace-out", str(trace)
    ) == 0
    config = load_dataset(data).config
    assert config.seed == 6
    steps = load_trace(trace)
    assert steps
    for step in steps:
        row = measure_many((step.example_value,), step.weight_before, config, step.epoch)
        assert step.p1 == row[0]


def test_gen_data_rejects_out_of_range_weight(capsys):
    assert run_cli("gen-data", "--n", "2", "--weight", "99", "--out", "x.csv") == 2
    assert "--weight" in capsys.readouterr().err


def test_train_end_to_end(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data))
    capsys.readouterr()
    trace_path = tmp_path / "trace.jsonl"
    code = run_cli(
        "train", "--data", str(data), "--seed", "5",
        "--trace-out", str(trace_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "final weight:" in out
    steps = load_trace(trace_path)
    assert steps
    assert steps[-1].weight_after in (12, 3)


def test_train_explicit_target_and_strict_mode(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data))
    capsys.readouterr()
    code = run_cli(
        "train", "--data", str(data), "--optimal-weight", "12",
        "--seed", "5", "--convergence", "strict", "--max-epochs", "200",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: True" in out
    assert "final weight: 12" in out


def test_train_trace_byte_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert run_cli(
            "train", "--data", str(data), "--seed", "8",
            "--trace-out", str(path),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_zero_learning_rate(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--lr", "0") == 2
    assert "--lr" in capsys.readouterr().err


def test_train_rejects_missing_dataset(tmp_path, capsys):
    assert run_cli("train", "--data", str(tmp_path / "nope.csv")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_trace_out_streams_save_trace_bytes(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli(
        "gen-data", "--n", "3", "--weight", "77", "--mode", "sampled",
        "--shots", "64", "--seed", "5", "--out", str(data),
    ) == 0
    streamed = tmp_path / "streamed.jsonl"
    assert run_cli(
        "train", "--data", str(data), "--seed", "11", "--max-epochs", "5",
        "--convergence", "strict", "--trace-out", str(streamed),
    ) == 0
    printed = capsys.readouterr().out
    result = train(
        load_dataset(data), 77,
        TrainConfig(seed=11, max_epochs=5, convergence_mode="strict"),
    )
    saved = tmp_path / "saved.jsonl"
    save_trace(result.trace, saved)
    assert streamed.read_bytes() == saved.read_bytes()
    assert f"updates applied: {result.updates}\n" in printed
    assert result.updates == sum(s.action != "none" for s in result.trace) > 0


def test_train_trace_out_memory_does_not_grow_with_epochs(tmp_path, capsys):
    # Training starts at the complement of the dataset's weight, so every
    # prediction is right, nothing is updated and the strict target is
    # never reached: each run evaluates max_epochs * 256 examples.
    seed = 1
    weight = init_weight(3, seed) ^ 0xFF
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "3", "--weight", str(weight), "--out", str(data)) == 0

    def peak(epochs):
        tracemalloc.start()
        try:
            assert run_cli(
                "train", "--data", str(data), "--seed", str(seed),
                "--convergence", "strict", "--max-epochs", str(epochs),
                "--trace-out", str(tmp_path / f"trace-{epochs}.jsonl"),
            ) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(4), peak(40)
    assert "updates applied: 0" in capsys.readouterr().out
    lines = (tmp_path / "trace-40.jsonl").read_text().count("\n")
    assert lines == 40 * 256
    # Holding the 10,240 steps read about 5x the 4-epoch peak.
    assert long <= 1.5 * short


def test_gen_data_memory_is_its_column_not_its_text(tmp_path, capsys):
    # The n=4 CSV is 0.97 MB of text. Built whole, its keys, row strings,
    # joined text and bytes made a traced peak of 7.84 MiB; written in
    # blocks, what is left is the probability column and one block.
    tracemalloc.start()
    try:
        assert run_cli(
            "gen-data", "--n", "4", "--weight", "626",
            "--out", str(tmp_path / "data.csv"),
        ) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "wrote 65536 rows" in capsys.readouterr().out
    assert peak <= 3 * 2**20


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_written_files_take_their_mode_from_the_umask(tmp_path, capsys, umask, mode):
    # As open() gives them, not the 0o600 of the temp file they are renamed from.
    data, art = tmp_path / "data.csv", tmp_path / "art.txt"
    old = os.umask(umask)
    try:
        assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
        assert run_cli("render", "--value", "12", "--n", "2", "--out", str(art)) == 0
    finally:
        assert os.umask(old) == umask  # reading the umask left it as it was
    for path in (data, tmp_path / "data.csv.meta.json", art):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_train_failure_partway_leaves_no_trace_file(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    before = set(tmp_path.iterdir())
    real_flip_bits = training.flip_bits
    calls = []

    def flip_then_fail(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("disk on fire")
        return real_flip_bits(*args)

    monkeypatch.setattr(training, "flip_bits", flip_then_fail)
    trace = tmp_path / "trace.jsonl"
    assert run_cli(
        "train", "--data", str(data), "--seed", "5", "--trace-out", str(trace)
    ) == 1
    assert "disk on fire" in capsys.readouterr().err
    assert len(calls) == 2
    assert set(tmp_path.iterdir()) == before


def _assert_write_fails_naming(capsys, tmp_path, out, *argv):
    """The command exits 2, its error names `out` and no temp file, and it
    leaves tmp_path as it found it."""
    before = set(tmp_path.rglob("*"))
    assert run_cli(*argv, str(out)) == 2
    err = capsys.readouterr().err
    assert repr(str(out)) in err
    assert ".tmp" not in err
    assert set(tmp_path.rglob("*")) == before


def test_gen_data_into_a_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "data.csv"
    _assert_write_fails_naming(
        capsys, tmp_path, out, "gen-data", "--n", "2", "--weight", "12", "--out"
    )


def test_gen_data_onto_a_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "adir"
    out.mkdir()
    _assert_write_fails_naming(
        capsys, tmp_path, out, "gen-data", "--n", "2", "--weight", "12", "--out"
    )


def test_render_pgm_into_a_missing_directory_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x.pgm"
    _assert_write_fails_naming(
        capsys, tmp_path, out,
        "render", "--value", "3", "--n", "1", "--rows", "1", "--cols", "2",
        "--format", "pgm", "--out",
    )


def test_train_trace_into_a_missing_directory_names_the_path(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "trace.jsonl"
    _assert_write_fails_naming(
        capsys, tmp_path, out, "train", "--data", str(data), "--trace-out"
    )


def test_render_ascii_to_stdout(capsys):
    assert run_cli("render", "--value", "12", "--n", "2") == 0
    assert capsys.readouterr().out == "██\n··\n"


@pytest.mark.parametrize("fmt", ["ascii", "pgm"])
def test_render_stdout_gets_the_out_bytes_whatever_its_encoding(
    tmp_path, monkeypatch, fmt
):
    args = ("render", "--value", "626", "--n", "4", "--format", fmt)
    out = tmp_path / "pattern"
    assert run_cli(*args, "--out", str(out)) == 0
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_cli(*args) == 0
    assert stdout.buffer.getvalue() == out.read_bytes()


def test_render_626_pattern(capsys):
    assert run_cli("render", "--value", "626", "--n", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    as_bits = "".join(
        "1" if ch == "█" else "0" for line in lines for ch in line
    )
    assert as_bits == "0000001001110010"


def test_render_ascii_to_file(tmp_path):
    out = tmp_path / "pattern.txt"
    assert run_cli(
        "render", "--value", "12", "--n", "2", "--out", str(out)
    ) == 0
    assert out.read_text() == "██\n··\n"


def test_render_pgm_to_file(tmp_path):
    out = tmp_path / "pattern.pgm"
    assert run_cli(
        "render", "--value", "12", "--n", "2", "--format", "pgm",
        "--out", str(out),
    ) == 0
    assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 0, 255, 255])


def test_render_custom_shape(capsys):
    assert run_cli(
        "render", "--value", "626", "--n", "4", "--rows", "2", "--cols", "8"
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(len(line) == 8 for line in lines)


def test_render_rejects_bad_shape(capsys):
    assert run_cli(
        "render", "--value", "0", "--n", "2", "--rows", "3", "--cols", "3"
    ) == 2
    assert "rows" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "0", "5"])
def test_render_rejects_n_out_of_range_naming_flag(capsys, n):
    assert run_cli("render", "--value", "0", "--n", n) == 2
    assert capsys.readouterr().err == f"error: --n: n must be between 1 and 4, got {n}\n"


def test_render_rejects_out_of_range_value(capsys):
    assert run_cli("render", "--value", "16", "--n", "2") == 2
    assert "--value" in capsys.readouterr().err


def test_readme_command_line_transcript(tmp_path, monkeypatch, capsys):
    # Each "qperc ..." line of README's command-line block, run in an empty
    # directory, prints exactly the lines under it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QPERC_SEED", raising=False)
    capsys.readouterr()
    for entry in block.strip().split("\n\n"):
        command, *expected = entry.split("\n")
        argv = shlex.split(command)
        assert argv[0] == "qperc", command
        assert run_cli(*argv[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_python_m_qperc_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    args = ["simulate", "--n", "2", "--input", "7", "--weight", "7"]
    result = subprocess.run(
        [sys.executable, "-m", "qperc", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


def test_importing_the_cli_starts_no_thread():
    # The gate kernels' helper thread waits for the first pass of two or
    # more tiles, which no CLI command's register of at most 5 qubits
    # makes, and is a plain threading.Thread: concurrent.futures, with the
    # logging it imports, stays out of every CLI process.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, threading, qperc.cli; "
        "assert 'concurrent.futures' not in sys.modules; "
        "assert threading.active_count() == 1, threading.enumerate()"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


# Every flag value a library rule rejects: the rule's own message, with the
# flag put before it. {data} is an n=2 dataset, {out} a path never written.
_REJECTED_FLAGS = [
    (("simulate", "--n", "2", "--input", "16", "--weight", "0"),
     "--input: input value must be in [0, 15] for n=2, got 16"),
    (("simulate", "--n", "2", "--input", "0", "--weight", "16"),
     "--weight: weight must be in [0, 15] for n=2, got 16"),
    (("simulate", "--n", "5", "--input", "0", "--weight", "0"),
     "--n: n must be between 1 and 4, got 5"),
    (("simulate", "--n", "2", "--input", "0", "--weight", "0", "--mode", "sampled",
      "--shots", "0"),
     f"--shots: shots must be between 1 and {MAX_SHOTS}, got 0"),
    (("gen-data", "--n", "2", "--weight", "99", "--out", "{out}"),
     "--weight: weight must be in [0, 15] for n=2, got 99"),
    (("train", "--data", "{data}", "--optimal-weight", "99"),
     "--optimal-weight: optimal weight must be in [0, 15] for n=2, got 99"),
    (("train", "--data", "{data}", "--lr", "0"),
     "--lr: learning_rate must be in (0, 1], got 0.0"),
    (("train", "--data", "{data}", "--max-epochs", "0"),
     "--max-epochs: max_epochs must be at least 1, got 0"),
    (("render", "--n", "2", "--value", "16"),
     "--value: value must be in [0, 15] for n=2, got 16"),
    (("render", "--n", "5", "--value", "0"),
     "--n: n must be between 1 and 4, got 5"),
]


@pytest.mark.parametrize(
    "argv, message", _REJECTED_FLAGS, ids=[m.split(":")[0] for _, m in _REJECTED_FLAGS]
)
def test_a_rejected_flag_value_prints_the_flag_then_the_library_message(
    tmp_path, capsys, argv, message
):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    capsys.readouterr()
    argv = [arg.format(data=data, out=tmp_path / "out.csv") for arg in argv]
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.meta.json"]


def test_messages_naming_no_flag_pass_through_unprefixed(tmp_path, capsys, monkeypatch):
    simulate = ("simulate", "--n", "2", "--input", "0", "--weight", "1", "--mode", "sampled")
    monkeypatch.setenv("QPERC_SEED", "lots")
    assert run_cli(*simulate) == 2
    assert capsys.readouterr().err == "error: QPERC_SEED must be an integer, got 'lots'\n"
    monkeypatch.delenv("QPERC_SEED")
    assert run_cli(*simulate, "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert run_cli("render", "--n", "2", "--value", "3", "--rows", "3", "--cols", "1") == 2
    assert capsys.readouterr().err == "error: rows*cols must equal 4 for n=2, got 3x1\n"
    # A dataset error starts with its path, here one whose first word is a
    # flag's word; no flag is put before it.
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", "weight data.csv") == 0
    Path("weight data.csv").write_text("value,label\n")
    capsys.readouterr()
    assert run_cli("train", "--data", "weight data.csv") == 2
    assert capsys.readouterr().err.startswith("error: weight data.csv: line 1: ")


def test_train_rejected_optimal_weight_leaves_no_trace_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("gen-data", "--n", "2", "--weight", "12", "--out", str(data)) == 0
    before = sorted(tmp_path.iterdir())
    trace = tmp_path / "t.jsonl"
    assert run_cli(
        "train", "--data", str(data), "--optimal-weight", "99", "--trace-out", str(trace)
    ) == 2
    assert capsys.readouterr().err.startswith("error: --optimal-weight: ")
    assert sorted(tmp_path.iterdir()) == before
