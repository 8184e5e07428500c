"""Exhaustive probability matrices over every (input, weight) pair.

The matrix for n qubits has 2^(2^n) rows and columns, so exhaustive sweeps
stop at n = 3 (a 256 x 256 grid). n = 4 would mean 2^32 circuit runs and
is refused, and nothing is lost by that: P depends only on
d = popcount(i ^ w), and the input and weight sign rows multiply to the
sign row of i ^ w exactly, so every weight's column is the weight-0 column
with its inputs XOR-permuted, bit for bit. One `qperc gen-data` column
therefore already holds every distinct circuit value of the n = 4 matrix.
Cells are stored at the file format's 12-significant-digit precision,
which makes the saved and in-memory matrices agree exactly.

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
from .perceptron import (
    PerceptronConfig,
    check_value,
    closed_form_probability,
    measure_many,
)

MAX_SWEEP_QUBITS = 3

SWEEP_FORMATS = ("csv", "json")


@dataclass
class SweepMatrix:
    """probs[i][w] is the ancilla probability for input i against weight w."""

    config: PerceptronConfig
    probs: np.ndarray
    max_abs_deviation: float | None = None


def _closed_form_column(weight: int, n: int) -> np.ndarray:
    """closed_form_probability(i, weight, n) for every input i, in order.

    P depends only on d = popcount(i ^ weight), so the m + 1 scalar closed
    forms, one per distance, indexed by each input's distance give them all.
    """
    m = check_value(weight, n, "weight")
    by_distance = np.array(
        [closed_form_probability(0, (1 << d) - 1, n) for d in range(m + 1)]
    )
    return by_distance[np.bitwise_count(np.arange(1 << m) ^ weight)]


def compute_sweep(config: PerceptronConfig) -> SweepMatrix:
    """Run every (input, weight) pair for config.n qubits."""
    size = 1 << (1 << config.n)
    if config.n > MAX_SWEEP_QUBITS:
        raise ValueError(
            f"exhaustive sweep supports n <= {MAX_SWEEP_QUBITS}; n={config.n} "
            f"would mean {size}x{size} circuit runs. Every column is the "
            f"weight-0 column with its inputs XOR-permuted, so one column from "
            f"`qperc gen-data --n {config.n} --weight W` holds every distinct value"
        )
    probs = np.empty((size, size), dtype=np.float64)
    deviation = 0.0
    exact = config.mode == "exact"
    for w in range(size):
        column = measure_many(range(size), w, config)
        if exact:
            oracle = _closed_form_column(w, config.n)
            deviation = max(deviation, float(np.max(np.abs(column - oracle))))
        probs[:, w] = [float(format(p, ".12g")) for p in column.tolist()]
    return SweepMatrix(config, probs, deviation if exact else None)


def save_sweep(sweep: SweepMatrix, path: str | Path, fmt: str = "csv") -> None:
    """Write the matrix as CSV (value headers on row and column) or JSON."""
    if fmt not in SWEEP_FORMATS:
        raise ValueError(f"format must be one of {SWEEP_FORMATS}, got {fmt!r}")
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


def load_sweep_csv(path: str | Path) -> np.ndarray:
    """Read back a CSV matrix written by save_sweep; errors name the row.

    Every cell must be a probability in [0, 1].
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(","):
        raise ValueError(f"{path}: missing sweep header row")
    size = len(lines[0].split(",")) - 1
    if len(lines) != size + 1:
        raise ValueError(f"{path}: expected {size} data rows, got {len(lines) - 1}")
    probs = np.empty((size, size), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != size + 1 or fields[0] != str(i):
            raise ValueError(
                f"{path}: row {i}: expected header {i} and {size} cells, "
                f"got {fields[0]!r} and {len(fields) - 1}"
            )
        try:
            probs[i] = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
        outside = ~((probs[i] >= 0.0) & (probs[i] <= 1.0))  # nan is outside too
        if outside.any():
            w = int(np.argmax(outside))
            raise ValueError(
                f"{path}: row {i}: column {w}: probability out of [0, 1]: {probs[i, w]}"
            )
    return probs
