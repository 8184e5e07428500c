"""Bit-flip training of the perceptron weight.

Each epoch walks the dataset in order. Every example is evaluated against
the current weight and thresholded at 0.5. On a miss the candidates are
the bits where weight ^ input equals the label: a missed 1 flips bits where
weight and input disagree ("flip_non_matching", toward the input), a missed
0 bits where they agree ("flip_matching", away from it).

The flip count is max(1, floor(learning_rate * candidates)), drawn
uniformly without replacement. A mismatch whose candidate set is empty is
recorded with action "none" and skipped. Training stops as soon as the
weight is a target: the optimal weight ("strict" convergence), or either
it or its bitwise complement ("functional"; the complement encodes the
negated sign vector, which yields identical probabilities).

Bit positions follow the usual integer convention: position 0 is the least
significant bit. One PCG64 generator seeded with config.seed supplies the
initial weight and every flip choice. Every example is measured with the
dataset's own settings (dataset.config), so sampled-mode noise comes from
the dataset's seed and the epoch, is fresh for the same example in each
epoch, and never disturbs the training stream.

The weight changes on few examples (10 to 60 times in a 65,536-example
n=4 epoch), so the examples are evaluated in look-ahead chunks: one
measure_many call scores the next LOOKAHEAD_ROWS examples against the
current weight, the steps are walked in order, and after the first step
that changes the weight the next chunk starts at the following example.
Each chunk used up without a change doubles the next one. This gives the
same steps as measuring one example at a time: a row's P does not depend
on which batch it is in, sampled draws are keyed by (seed, input,
weight, epoch), and the rng makes the same calls in the same order.

Each step goes to a sink as soon as it is made. train() collects them in
TrainResult.trace by default; trace_writer() is a sink that streams them
to a JSON-lines file, in the format save_trace writes, so a long run holds
no trace in memory.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .dataset import Dataset, label_from_probability
from .ioutil import atomic_writer, is_probability, read_lines
from .perceptron import MAX_DATA_QUBITS, check_value, measure_many
from .statevector import check_choice, check_int

ACTIONS = ("none", "flip_non_matching", "flip_matching")

CONVERGENCE_MODES = ("strict", "functional")

# Rows in the first look-ahead chunk after a weight change; each chunk used
# up without a change doubles the next.
LOOKAHEAD_ROWS = 64


@dataclass(frozen=True)
class TrainConfig:
    """How the weight moves; how examples are measured is dataset.config."""

    learning_rate: float = 0.5
    max_epochs: int = 1000
    seed: int = 0
    convergence_mode: str = "functional"

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        check_int("max_epochs", self.max_epochs, 1)
        check_int("seed", self.seed, 0)
        check_choice("convergence_mode", self.convergence_mode, CONVERGENCE_MODES)


@dataclass(frozen=True)
class TrainStep:
    """One example evaluation, including the weight transition it caused."""

    epoch: int
    example_value: int
    p1: float
    predicted: int
    actual: int
    action: str
    flipped_positions: tuple[int, ...]
    weight_before: int
    weight_after: int


_STEP_FIELDS = {f.name for f in fields(TrainStep)}


@dataclass
class TrainResult:
    """How training ended; trace holds the steps only when no sink was given."""

    converged: bool
    final_weight: int
    epochs_run: int
    trace: list[TrainStep] = field(default_factory=list)
    updates: int = 0


def init_weight(n: int, seed: int) -> int:
    """Uniform draw from [0, 2^(2^n) - 1] using a fresh PCG64 generator."""
    m = 1 << n
    return int(np.random.default_rng(seed).integers(0, 1 << m))


def count_non_matching_bits(weight: int, value: int, m: int) -> int:
    """Number of positions, out of m = 2^n bits, where two checked values differ."""
    n = m.bit_length() - 1
    if not 1 <= n <= MAX_DATA_QUBITS or m != 1 << n:
        raise ValueError(f"m must be 2^n for 1 <= n <= {MAX_DATA_QUBITS}, got {m}")
    check_value(weight, n, "weight")
    check_value(value, n, "value")
    return (int(weight) ^ int(value)).bit_count()


def flip_bits(
    weight: int,
    candidates: Iterable[int],
    learning_rate: float,
    rng: np.random.Generator,
) -> tuple[int, tuple[int, ...]]:
    """Flip max(1, floor(learning_rate * |candidates|)) candidate bits.

    Positions are chosen uniformly without replacement. Returns the new
    weight and the flipped positions, ascending.
    """
    positions = sorted(candidates)
    if not positions:
        raise ValueError("candidates must be non-empty")
    for p in positions:
        check_int("bit position", p, 0)
    k = max(1, math.floor(learning_rate * len(positions)))
    chosen = rng.choice(len(positions), size=k, replace=False)
    flipped = tuple(sorted(positions[int(c)] for c in chosen))
    new_weight = weight
    for p in flipped:
        new_weight ^= 1 << p
    return new_weight, flipped


def train(
    dataset: Dataset,
    optimal_weight: int,
    config: TrainConfig,
    on_step: Callable[[TrainStep], object] | None = None,
) -> TrainResult:
    """Run epochs of bit-flip updates until convergence or max_epochs.

    Every example evaluation is passed to on_step as a TrainStep, in order.
    Without on_step the steps are collected in TrainResult.trace; with it
    the trace stays empty. epochs_run counts epochs started; a weight that
    is already converged at initialization returns immediately with
    epochs_run = 0 and no steps.
    """
    measurement = dataset.config
    m = check_value(optimal_weight, measurement.n, "optimal weight")
    optimal_weight = int(optimal_weight)
    full_mask = (1 << m) - 1
    targets = {optimal_weight}
    if config.convergence_mode == "functional":
        targets.add(optimal_weight ^ full_mask)
    rng = np.random.default_rng(config.seed)
    weight = int(rng.integers(0, 1 << m))
    trace: list[TrainStep] = []
    if on_step is None:
        on_step = trace.append
    if weight in targets:
        return TrainResult(True, weight, 0, trace)

    labels = dataset.labels.tolist()
    values = np.arange(len(labels))
    updates = 0
    rows = LOOKAHEAD_ROWS
    for epoch in range(1, config.max_epochs + 1):
        start = 0
        while start < len(values):
            # Look ahead: the rest of the epoch against the current weight,
            # walked until the first step that changes it.
            chunk = values[start : start + rows]
            probs = measure_many(chunk, weight, measurement, epoch).tolist()
            for index, p1 in enumerate(probs, start):
                label = labels[index]
                predicted = label_from_probability(p1)
                before, action = weight, "none"
                flipped: tuple[int, ...] = ()
                if predicted != label:
                    mask = weight ^ index ^ (0 if label else full_mask)
                    if mask:
                        action = "flip_non_matching" if label else "flip_matching"
                        positions = [p for p in range(m) if mask >> p & 1]
                        weight, flipped = flip_bits(
                            weight, positions, config.learning_rate, rng
                        )
                on_step(
                    TrainStep(
                        epoch=epoch,
                        example_value=index,
                        p1=p1,
                        predicted=predicted,
                        actual=label,
                        action=action,
                        flipped_positions=flipped,
                        weight_before=before,
                        weight_after=weight,
                    )
                )
                if flipped:
                    updates += 1
                    if weight in targets:
                        return TrainResult(True, weight, epoch, trace, updates)
                    rows = LOOKAHEAD_ROWS
                    break
            else:
                rows *= 2
            start = index + 1
    return TrainResult(False, weight, config.max_epochs, trace, updates)


# save_trace and trace_writer share this one line format.
_STEP_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _step_line(step: TrainStep) -> bytes:
    # A shallow dict per step: asdict() deep-copies and wrote a 65,536-step
    # trace 3x slower, and vars() leaves a dict attached to every step.
    record = {name: getattr(step, name) for name in _STEP_FIELDS}
    return (_STEP_ENCODER.encode(record) + "\n").encode("utf-8")


@contextmanager
def trace_writer(path: str | Path) -> Iterator[Callable[[TrainStep], None]]:
    """A step sink writing one JSON line per step; `path` appears on success.

    Pass it as train's on_step to stream a trace instead of holding it. The
    lines are save_trace's; a block that raises leaves no file at `path`.
    """
    with atomic_writer(path) as f:

        def write(step: TrainStep) -> None:
            f.write(_step_line(step))

        yield write


def save_trace(steps: Iterable[TrainStep], path: str | Path) -> None:
    """Write one JSON object per step, one step per line."""
    with trace_writer(path) as write:
        for step in steps:
            write(step)


def _check_field(name: str, value: object) -> None:
    """Raise ValueError, starting with `name`, unless `value` fits that field.

    type(), not isinstance, so JSON true/false is no number; p1 must pass
    is_probability, as a dataset's probabilities must.
    """
    if name == "action":
        check_choice(name, value, ACTIONS)
    elif name == "p1":
        if not (type(value) in (int, float) and is_probability(value)):
            raise ValueError(f"p1 must be a number in [0, 1], got {value!r}")
    elif name == "flipped_positions":
        if type(value) is not list:
            raise ValueError(f"flipped_positions must be a list, got {value!r}")
        for p in value:
            check_int(name, p, 0)
    else:  # predicted and actual 0 or 1; epoch, example_value and weights >= 0
        check_int(name, value, 0, 1 if name in ("predicted", "actual") else None)


def load_trace(path: str | Path) -> list[TrainStep]:
    """Read save_trace output; a malformed record raises ValueError naming its line."""
    steps = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(record, dict) or record.keys() != _STEP_FIELDS:
            raise ValueError(
                f"{path}: line {lineno}: expected an object with exactly the "
                f"fields {sorted(_STEP_FIELDS)}"
            )
        try:
            for name, value in record.items():
                _check_field(name, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: field {name!r}: {exc}") from None
        record["flipped_positions"] = tuple(record["flipped_positions"])
        steps.append(TrainStep(**record))
    return steps
