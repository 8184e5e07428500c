"""Exhaustive probability matrices over every (input, weight) pair.

The matrix for n qubits has 2^(2^n) rows and columns, so exhaustive sweeps
stop at n = 3 (a 256 x 256 grid); n = 4 would mean 2^32 circuit runs and is
refused. Cells are stored at the file format's 12-significant-digit
precision, which makes the saved and in-memory matrices agree exactly.

In exact mode every cell is also checked against the closed-form
probability and the largest absolute deviation is kept on the result.
Note the matrix is 1.0 on the anti-diagonal as well as the diagonal: the
bitwise complement of a value encodes the negated sign vector, and the
squared overlap cannot see that global sign.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text
from .perceptron import PerceptronConfig, closed_form_probability, measure, measure_many

MAX_SWEEP_QUBITS = 3

SWEEP_FORMATS = ("csv", "json")


@dataclass
class SweepMatrix:
    """probs[i][w] is the ancilla probability for input i against weight w."""

    config: PerceptronConfig
    probs: np.ndarray
    max_abs_deviation: float | None = None


def compute_sweep(config: PerceptronConfig) -> SweepMatrix:
    """Run every (input, weight) pair for config.n qubits."""
    if config.n > MAX_SWEEP_QUBITS:
        size = 1 << (1 << config.n)
        raise ValueError(
            f"exhaustive sweep supports n <= {MAX_SWEEP_QUBITS}; "
            f"n={config.n} would mean {size}x{size} circuit runs"
        )
    size = 1 << (1 << config.n)
    probs = np.empty((size, size), dtype=np.float64)
    deviation = 0.0
    exact = config.mode == "exact"
    for w in range(size):
        column = measure_many(range(size), w, config)
        if exact:
            oracle = [closed_form_probability(i, w, config.n) for i in range(size)]
            deviation = max(deviation, float(np.max(np.abs(column - oracle))))
        probs[:, w] = [float(format(p, ".12g")) for p in column.tolist()]
    return SweepMatrix(config, probs, deviation if exact else None)


def sample_sweep_cells(
    config: PerceptronConfig, count: int
) -> list[tuple[int, int, float]]:
    """Random (input, weight, probability) cells for sizes too big to sweep.

    Pairs are drawn from config.seed. Each cell is one `measure` call: random
    pairs rarely share a weight, so there is no column to batch.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    size = 1 << (1 << config.n)
    rng = np.random.default_rng(config.seed)
    cells = []
    for _ in range(count):
        i = int(rng.integers(0, size))
        w = int(rng.integers(0, size))
        cells.append((i, w, measure(i, w, config)))
    return cells


def _check_format(fmt: str) -> None:
    if fmt not in SWEEP_FORMATS:
        raise ValueError(f"format must be one of {SWEEP_FORMATS}, got {fmt!r}")


def save_sweep(sweep: SweepMatrix, path: str | Path, fmt: str = "csv") -> None:
    """Write the matrix as CSV (value headers on row and column) or JSON."""
    _check_format(fmt)
    size = sweep.probs.shape[0]
    if fmt == "csv":
        lines = ["," + ",".join(str(w) for w in range(size))]
        for i in range(size):
            cells = ",".join(format(p, ".12g") for p in sweep.probs[i])
            lines.append(f"{i},{cells}")
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    payload = asdict(sweep.config)
    payload["max_abs_deviation"] = sweep.max_abs_deviation
    payload["probs"] = [[float(format(p, ".12g")) for p in row] for row in sweep.probs]
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_sampled_cells(
    cells: list[tuple[int, int, float]],
    config: PerceptronConfig,
    path: str | Path,
    fmt: str = "csv",
) -> None:
    """Write sample_sweep_cells output as CSV rows or JSON with its settings."""
    _check_format(fmt)
    if fmt == "csv":
        lines = ["input,weight,probability"]
        for i, w, p in cells:
            lines.append(f"{i},{w},{format(p, '.12g')}")
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    payload = asdict(config)
    payload["cells"] = [[i, w, float(format(p, ".12g"))] for i, w, p in cells]
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_sweep_csv(path: str | Path) -> np.ndarray:
    """Read back a CSV matrix written by save_sweep."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(","):
        raise ValueError(f"{path}: missing sweep header row")
    size = len(lines[0].split(",")) - 1
    if len(lines) != size + 1:
        raise ValueError(f"{path}: expected {size} data rows, got {len(lines) - 1}")
    probs = np.empty((size, size), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != size + 1 or int(fields[0]) != i:
            raise ValueError(f"{path}: malformed row {i}")
        probs[i] = [float(f) for f in fields[1:]]
    return probs
