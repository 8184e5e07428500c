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

A TrainStep stores the six values train decides (epoch, example_value,
p1, actual, flipped_positions, weight_before); predicted, action and
weight_after are properties derived from them, so a step cannot
contradict itself. Each step goes to a sink as soon as it is made. train()
collects them in TrainResult.trace by default; trace_writer() is a sink
that streams them to a JSON-lines file of all nine keys, in the format
save_trace writes, so a long run holds no trace in memory. load_trace
checks each field by its rule, p1's being `rules.check_probability`,
builds the step from the six stored fields and compares the three derived
ones with its properties; a fault reads
`<path>: line k: field '<name>': <message>`.
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
from .ioutil import atomic_writer, placed, read_lines
from .perceptron import measure_many
from .rules import MAX_DATA_QUBITS, check_choice, check_int, check_learning_rate
from .rules import check_n, check_probability, check_value

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
        check_learning_rate(self.learning_rate)
        check_int("max_epochs", self.max_epochs, 1)
        check_int("seed", self.seed, 0)
        check_choice("convergence_mode", self.convergence_mode, CONVERGENCE_MODES)


@dataclass(frozen=True)
class TrainStep:
    """One example evaluation: what train decided, and what follows from it."""

    epoch: int
    example_value: int
    p1: float
    actual: int
    flipped_positions: tuple[int, ...]
    weight_before: int

    @property
    def predicted(self) -> int:
        return label_from_probability(self.p1)

    @property
    def action(self) -> str:
        if not self.flipped_positions:
            return "none"
        return "flip_non_matching" if self.actual else "flip_matching"

    @property
    def weight_after(self) -> int:
        weight = self.weight_before
        for p in self.flipped_positions:
            weight ^= 1 << p
        return weight


# A trace record holds the six fields and the three properties, which
# load_trace compares in this order, naming what each follows from.
_STORED = tuple(f.name for f in fields(TrainStep))
_DERIVED = {
    "predicted": "p1 {p1!r}",
    "weight_after": "weight_before {weight_before} and flipped_positions "
    "{flipped_positions}",
    "action": "flipped_positions {flipped_positions} and actual {actual}",
}
_STEP_FIELDS = {*_STORED, *_DERIVED}


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
    check_n(n)
    check_int("seed", seed, 0)
    m = 1 << n
    return int(np.random.default_rng(seed).integers(0, 1 << m))


def count_non_matching_bits(weight: int, value: int, m: int) -> int:
    """Number of positions, out of m = 2^n bits, where two checked values differ."""
    check_int("m", m)
    n = m.bit_length() - 1
    if not 1 <= n <= MAX_DATA_QUBITS or m != 1 << n:
        raise ValueError(f"m must be 2^n for 1 <= n <= {MAX_DATA_QUBITS}, got {m}")
    check_value(weight, n, "weight")
    check_value(value, n, "value")
    return (int(weight) ^ int(value)).bit_count()


def _candidates(weight: int, value: int, label: int, m: int) -> int:
    """The mask of the m-bit weight's bits a miss on (value, label) may flip:
    those where weight ^ value equals the label."""
    return weight ^ value ^ (0 if label else (1 << m) - 1)


def flip_bits(
    weight: int,
    candidates: Iterable[int],
    learning_rate: float,
    rng: np.random.Generator,
) -> tuple[int, tuple[int, ...]]:
    """Flip max(1, floor(learning_rate * |candidates|)) candidate bits.

    Positions are chosen uniformly without replacement. Returns the new
    weight and the flipped positions, ascending. The candidates must be
    distinct: a repeated one could be drawn twice and flip back.
    """
    check_learning_rate(learning_rate)
    positions = sorted(candidates)
    if not positions:
        raise ValueError("candidates must be non-empty")
    for p in positions:
        check_int("bit position", p, 0)
    if len(set(positions)) != len(positions):
        raise ValueError(f"candidates must be distinct, got {positions}")
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
                before, flipped = weight, ()
                if label_from_probability(p1) != label:
                    mask = _candidates(weight, index, label, m)
                    if mask:
                        positions = [p for p in range(m) if mask >> p & 1]
                        weight, flipped = flip_bits(
                            weight, positions, config.learning_rate, rng
                        )
                on_step(TrainStep(epoch, index, p1, label, flipped, before))
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


# A trace comes from an n <= MAX_DATA_QUBITS dataset, of at most m = 16 bits:
# its bit positions are below 16, its values and weights below 2^16.
_MAX_M = 1 << MAX_DATA_QUBITS
_BOUNDS = {"epoch": (1, None), "predicted": (0, 1), "actual": (0, 1)}


def _check_field(name: str, value: object) -> None:
    """Raise ValueError, starting with `name`, unless `value` fits that field.

    The rules test type(), not isinstance, so JSON true/false is no number;
    a JSON string p1 is refused too.
    """
    if name == "action":
        check_choice(name, value, ACTIONS)
    elif name == "p1":
        check_probability(name, value)
    elif name == "flipped_positions":
        if type(value) is not list:
            raise ValueError(f"flipped_positions must be a list, got {value!r}")
        for p in value:
            check_int(name, p, 0, _MAX_M - 1)
        if value != sorted(set(value)):
            raise ValueError(f"{name} must be strictly ascending, got {value}")
    else:  # an int field in its _BOUNDS; values and weights below 2^16
        check_int(name, value, *_BOUNDS.get(name, (0, (1 << _MAX_M) - 1)))


def _check_derived(record: dict, step: TrainStep) -> None:
    """Raise ValueError, starting with the field at fault, unless the record's
    derived fields are `step`'s, and its bits flip only on a miss and only
    where a miss lets them at m = 16."""
    hit = step.predicted == step.actual
    for name, rule in _DERIVED.items():
        if name == "action" and step.flipped_positions and hit:
            raise ValueError(
                f"flipped_positions must be empty when predicted equals actual, "
                f"got {record['flipped_positions']}"
            )
        want, got = getattr(step, name), record[name]
        if got != want:
            rule = rule.format(**record)
            raise ValueError(f"{name} must be {want!r} for {rule}, got {got!r}")
    mask = _candidates(step.weight_before, step.example_value, step.actual, _MAX_M)
    if any(not mask >> p & 1 for p in step.flipped_positions):
        raise ValueError(
            f"flipped_positions must be bits where weight_before ^ example_value "
            f"equals actual {step.actual}, got {record['flipped_positions']}"
        )


def load_trace(path: str | Path) -> list[TrainStep]:
    """Read save_trace output; a malformed record, or one train could not
    have written, raises ValueError naming its line and field.

    Each field is checked by its rule (epochs count from 1), then the three
    derived fields against the step built from the six stored ones. A trace
    does not store m, so a flipped bit is checked as a candidate at m = 16,
    the widest: necessary, not sufficient, for a narrower run. The flip
    count is not checked, as it needs the learning rate.
    """
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
            stored = {name: record[name] for name in _STORED}
            stored["flipped_positions"] = tuple(stored["flipped_positions"])
            step = TrainStep(**stored)
            _check_derived(record, step)
        except ValueError as exc:
            raise ValueError(placed(path, lineno, exc)) from None
        steps.append(step)
    return steps
