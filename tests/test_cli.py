import json
import tracemalloc

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
    assert [ex.value for ex in dataset.examples if ex.label == 1] == [3, 12]


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


def test_render_ascii_to_stdout(capsys):
    assert run_cli("render", "--value", "12", "--n", "2") == 0
    assert capsys.readouterr().out == "██\n··\n"


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


def test_render_rejects_out_of_range_value(capsys):
    assert run_cli("render", "--value", "16", "--n", "2") == 2
    assert "--value" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
