"""The benchmark's own tests: a tiny-size smoke run of every workload, and
the oracle catching injected faults.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# sha256 of `qperc gen-data --n 4 --weight 626` output at the commit that
# introduced the benchmark.
GEN_DATA_N4_SHA256 = "c8c02a9a5128c7ebd350c328b6b5b53d1178b8de0e5592d661f175b2d4873636"


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_checkout_without_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gen-data-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_dataset_is_the_program_output():
    text = oracle.dataset_csv(626, 4)
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_DATA_N4_SHA256
    assert oracle.check_dataset(text, 626, 4) == (65536, 0)


def test_oracle_counts_a_flipped_label_and_a_perturbed_probability():
    lines = oracle.dataset_csv(626, 4).splitlines()
    value, label, prob = lines[101].split(",")
    lines[101] = f"{value},{1 - int(label)},{prob}"
    value, label, prob = lines[202].split(",")
    lines[202] = f"{value},{label},{float(prob) + 1e-6!r}"
    attempted, failed = oracle.check_dataset("\n".join(lines) + "\n", 626, 4)
    assert (attempted, failed) == (65536, 2)


def _trace_line(example, p1, weight, label, action="none", flipped=()):
    after = weight
    for bit in flipped:
        after ^= 1 << bit
    return json.dumps({
        "epoch": 1, "example_value": example, "p1": p1,
        "predicted": 1 if p1 >= 0.5 else 0, "actual": label, "action": action,
        "flipped_positions": list(flipped), "weight_before": weight,
        "weight_after": after,
    })


def test_oracle_counts_a_wrong_training_step():
    n, weight = 2, 12
    labels = [oracle.oracle_label(v, weight, n) for v in range(16)]
    good = [_trace_line(v, oracle.oracle_p(v, weight, n), weight, labels[v]) for v in range(16)]
    assert oracle.check_trace("\n".join(good), weight, n, labels)[:2] == (16, 0)
    bad = list(good)
    bad[5] = _trace_line(5, oracle.oracle_p(5, weight, n) + 1e-6, weight, labels[5])
    # Once settled on the target, an update is wrong even if p1 is right.
    bad[15] = _trace_line(15, oracle.oracle_p(15, weight, n), weight, labels[15],
                         "flip_matching", (0,))
    assert oracle.check_trace("\n".join(bad), weight, n, labels)[:2] == (16, 2)


def test_oracle_counts_a_sweep_cell_outside_its_band():
    n, shots = 2, 256
    size = 16
    rows = [",".join([""] + [str(w) for w in range(size)])]
    for i in range(size):
        cells = [format(oracle.oracle_p(i, w, n), ".12g") for w in range(size)]
        rows.append(",".join([str(i)] + cells))
    text = "\n".join(rows) + "\n"
    assert oracle.check_sweep_sampled(text, n, shots, size * size) == (256, 0)
    i, w = 0, 1  # P = 0.25 here: 192 hits of 256 is far outside the band.
    assert oracle.oracle_p(i, w, n) == 0.25
    fields = rows[1 + i].split(",")
    fields[1 + w] = format(192 / shots, ".12g")
    rows[1 + i] = ",".join(fields)
    assert oracle.check_sweep_sampled("\n".join(rows) + "\n", n, shots, size * size) == (256, 1)


def test_binomial_band_holds_its_false_alarm_rate():
    lo, hi = oracle.binomial_band(8192, 0.25, 1e-12)
    assert lo < 2048 < hi
    assert oracle.binomial_band(8192, 1.0, 1e-12) == (8192, 8192)
    assert oracle.binomial_band(8192, 0.0, 1e-12) == (0, 0)
