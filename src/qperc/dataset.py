"""Exhaustive labeled datasets for a fixed optimal weight.

For n data qubits every value in [0, 2^(2^n) - 1] is evaluated against the
optimal weight and labeled 1 when the ancilla probability reaches 0.5 and 0
otherwise (ties go to 1). In memory a dataset is one column of measured
probabilities whose row k is value k, and the labels are derived from it.
Files store each probability next to its label so a loaded file can be
audited without re-running the circuits.

On disk a dataset is a CSV file with header `value,label,probability` plus
a JSON sidecar at `<path>.meta.json` carrying the optimal weight and the
fields of the PerceptronConfig that measured it. Probabilities are written
with 12 significant digits; identical generation settings produce byte
identical files. `save_dataset` formats and writes the rows in blocks of
`perceptron.BLOCK_ROWS`, so it holds the probability column, not the
file's text; like every qperc write it goes through `ioutil.atomic_writer`,
and the file's mode follows the umask. `load_dataset` leaves the header,
row count, row widths and value column to `ioutil.split_table`, the
structure reader it shares with `sweep.load_sweep_csv`, and checks only
labels and probabilities, each by its one rule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text, atomic_writer, format_12g, placed
from .ioutil import read_lines, split_table
from .perceptron import BLOCK_ROWS, PerceptronConfig, measure_many
from .rules import check_choice, check_int, check_probability, check_value
from .rules import is_probability

CSV_HEADER = "value,label,probability"

_CONFIG_KEYS = tuple(f.name for f in fields(PerceptronConfig))

_THRESHOLD = 0.5


@dataclass
class Dataset:
    """All 2^(2^n) measured values, row k being value k, and how they were measured."""

    config: PerceptronConfig
    optimal_weight: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities)
        if self.probabilities.ndim != 1:
            raise ValueError(
                f"expected a 1-D probability column, got shape "
                f"{self.probabilities.shape}"
            )

    @property
    def labels(self) -> np.ndarray:
        """label_from_probability of every row, as one int64 column."""
        return (self.probabilities >= _THRESHOLD).astype(np.int64)


def label_from_probability(probability: float) -> int:
    """1 when the probability reaches the 0.5 threshold, else 0."""
    return 1 if probability >= _THRESHOLD else 0


def generate_dataset(optimal_weight: int, config: PerceptronConfig) -> Dataset:
    """Label every value in ascending order against `optimal_weight`."""
    values = np.arange(1 << (1 << config.n))
    probabilities = measure_many(values, optimal_weight, config)
    return Dataset(config, int(optimal_weight), probabilities)


def _meta_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the CSV rows and the JSON sidecar, both atomically.

    The rows are formatted and written BLOCK_ROWS at a time, so no more
    than one block's text is held. A column load_dataset would refuse, one
    not 2^(2^n) rows long or holding a P outside [0, 1], raises ValueError
    before any file is written, as does an optimal weight outside [0, 2^m).
    """
    probabilities = dataset.probabilities
    rows = 1 << (1 << dataset.config.n)
    check_value(dataset.optimal_weight, dataset.config.n, "optimal_weight")
    if len(probabilities) != rows:
        raise ValueError(
            f"expected {rows} rows for n={dataset.config.n}, "
            f"got {len(probabilities)}"
        )
    bad = np.flatnonzero(~is_probability(probabilities))
    if len(bad):
        check_probability(f"probability of row {bad[0]}", float(probabilities[bad[0]]))
    texts, index = format_12g(probabilities)
    # Row k is str(k) plus one ",label,P" suffix per (label, distinct P).
    suffixes = [f",{label},{text}\n" for text in texts for label in (0, 1)]
    keys = 2 * index + dataset.labels
    with atomic_writer(path) as f:
        f.write(f"{CSV_HEADER}\n".encode())
        for start in range(0, rows, BLOCK_ROWS):
            block = keys[start : start + BLOCK_ROWS].tolist()
            lines = [f"{i}{suffixes[key]}" for i, key in enumerate(block, start)]
            f.write("".join(lines).encode())
    meta = asdict(dataset.config)
    meta["optimal_weight"] = int(dataset.optimal_weight)
    atomic_write_text(
        _meta_path(path), json.dumps(meta, sort_keys=True, indent=2) + "\n"
    )


class DatasetFormatError(ValueError):
    """A dataset file that cannot be parsed or violates its own invariants."""


def _parse_meta(path: Path) -> tuple[PerceptronConfig, int]:
    try:
        meta = json.loads("\n".join(read_lines(path, DatasetFormatError)))
    except FileNotFoundError:
        raise DatasetFormatError(f"missing dataset sidecar {path}") from None
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{path}: expected a JSON object")
    for key in (*_CONFIG_KEYS, "optimal_weight"):
        if key not in meta:
            raise DatasetFormatError(f"{path}: missing field {key!r}")
    try:
        config = PerceptronConfig(**{key: meta[key] for key in _CONFIG_KEYS})
        check_int("optimal_weight", meta["optimal_weight"])  # check_value takes 2.0
        check_value(meta["optimal_weight"], config.n, "optimal_weight")
    except ValueError as exc:
        raise DatasetFormatError(placed(path, None, exc)) from None
    return config, meta["optimal_weight"]


def load_dataset(path: str | Path) -> Dataset:
    """Parse and validate a dataset written by save_dataset.

    Raises DatasetFormatError naming the offending line and field when the
    table is malformed (see split_table), a label or probability fails its
    rule, or a label disagrees with its stored probability.
    """
    path = Path(path)
    config, optimal_weight = _parse_meta(_meta_path(path))
    lines = read_lines(path, DatasetFormatError)
    header = CSV_HEADER.split(",")
    rows = split_table(path, lines, header, 1 << (1 << config.n), DatasetFormatError)
    probabilities = []
    for lineno, (_, label, text) in enumerate(rows, 2):
        try:  # the cell checks only: split_table places its own errors
            check_choice("label", label, ("0", "1"))
            p = check_probability("probability", text, parse=True)
            if int(label) != label_from_probability(p):
                raise ValueError(f"label {label} disagrees with probability {p}")
        except ValueError as exc:
            raise DatasetFormatError(placed(path, lineno, exc)) from None
        probabilities.append(p)

    return Dataset(config, optimal_weight, np.array(probabilities))
