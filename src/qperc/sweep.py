"""Exhaustive probability matrices over every (input, weight) pair.

The matrix for n qubits has 2^(2^n) rows and columns, so exhaustive sweeps
stop at n = 3 (a 256 x 256 grid). n = 4 would mean 2^32 circuit runs and
is refused, and nothing is lost by that: P depends only on
d = popcount(i ^ w), and the input and weight sign rows multiply to the
sign row of i ^ w exactly, so every weight's column is the weight-0 column
with its inputs XOR-permuted, bit for bit. One `qperc gen-data` column
therefore already holds every distinct circuit value of the n = 4 matrix.
`compute_sweep` makes one `measure_many` call over all size^2 pairs,
weight-major, one weight per row. Cells are stored at the file format's
12-significant-digit precision, which makes the saved and in-memory
matrices agree exactly; each distinct float is formatted once. A CSV
matrix is 4, 16 or 256 square, and `load_sweep_csv` reads it through
`ioutil.split_table`, the structure reader it shares with `load_dataset`.

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

from .ioutil import atomic_write_text, format_12g, is_probability, read_lines, round_12g
from .ioutil import split_table
from .perceptron import PerceptronConfig, closed_form_probability, measure_many
from .statevector import check_choice

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
    size = 1 << (1 << config.n)
    if config.n > MAX_SWEEP_QUBITS:
        raise ValueError(
            f"exhaustive sweep supports n <= {MAX_SWEEP_QUBITS}; n={config.n} "
            f"would mean {size}x{size} circuit runs. Every column is the "
            f"weight-0 column with its inputs XOR-permuted, so one column from "
            f"`qperc gen-data --n {config.n} --weight W` holds every distinct value"
        )
    # uint16, not int64: the two size^2 index arrays then take 128 KB each
    values = np.arange(size, dtype=np.uint16)
    # Weight-major: row w * size + i is input i against weight w.
    columns = measure_many(np.tile(values, size), np.repeat(values, size), config)
    columns = columns.reshape(size, size)
    deviation = None
    if config.mode == "exact":
        # P depends only on d = popcount(i ^ w), so the m + 1 scalar closed
        # forms, one per distance, indexed by each pair's distance give them all.
        m = 1 << config.n
        by_distance = np.array(
            [closed_form_probability(0, (1 << d) - 1, config.n) for d in range(m + 1)]
        )
        expected = by_distance[np.bitwise_count(values[:, None] ^ values)]
        deviation = float(np.max(np.abs(columns - expected)))
    return SweepMatrix(config, round_12g(columns).T, deviation)


def save_sweep(sweep: SweepMatrix, path: str | Path, fmt: str = "csv") -> None:
    """Write the matrix as CSV (value headers on row and column) or JSON."""
    check_choice("format", fmt, SWEEP_FORMATS)
    if fmt == "csv":
        atomic_write_text(path, _csv_text(sweep.probs))
        return
    payload = asdict(sweep.config)
    payload["max_abs_deviation"] = sweep.max_abs_deviation
    payload["probs"] = round_12g(sweep.probs).tolist()
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _csv_text(probs: np.ndarray) -> str:
    """The CSV matrix: value headers on row and column, cells at 12 digits."""
    texts, index = format_12g(probs)
    size = len(probs)
    lines = ["," + ",".join(str(w) for w in range(size)) + "\n"]
    for i in range(size):
        cells = ",".join([texts[j] for j in index[i].tolist()])
        lines.append(f"{i},{cells}\n")
    return "".join(lines)


def load_sweep_csv(path: str | Path) -> np.ndarray:
    """Read back a CSV matrix written by save_sweep; errors name the line.

    Every cell must pass is_probability, as a dataset's probabilities must.
    """
    lines = read_lines(path)
    size = lines[0].count(",") if lines else 0
    sizes = [1 << (1 << n) for n in range(1, MAX_SWEEP_QUBITS + 1)]
    if size not in sizes:
        expected = " or ".join(", ".join(map(str, sizes)).rsplit(", ", 1))
        raise ValueError(f"{path}: line 1: expected {expected} columns, got {size}")
    header = ["", *map(str, range(size))]
    probs = np.empty((size, size), dtype=np.float64)
    for i, fields in enumerate(split_table(path, lines, header, size, ValueError)):
        where = f"{path}: line {i + 2}"
        try:
            probs[i] = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        outside = ~is_probability(probs[i])
        if outside.any():
            w = int(np.argmax(outside))
            raise ValueError(
                f"{where}: column {w}: probability out of [0, 1]: {probs[i, w]}"
            )
    return probs
