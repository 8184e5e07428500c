"""Bit-flip training of the perceptron weight.

Each epoch walks the dataset in order. Every example is evaluated against
the current weight and thresholded at 0.5. On a miss the weight moves:

  predicted 0, actual 1: flip some of the bits where weight and input
      disagree (pulls the weight toward the input)
  predicted 1, actual 0: flip some of the bits where they agree (pushes
      the weight away)

The flip count is max(1, floor(learning_rate * candidates)), drawn
uniformly without replacement. A mismatch whose candidate set is empty is
recorded with action "none" and skipped. Training stops as soon as the
weight equals the optimal weight ("strict" convergence) or either the
optimal weight or its bitwise complement ("functional"; the complement
encodes the negated sign vector, which yields identical probabilities).

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
from typing import Callable, Iterable, Iterator, get_type_hints

import numpy as np

from .dataset import Dataset, label_from_probability
from .ioutil import atomic_writer
from .perceptron import check_value, measure_many

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
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.convergence_mode not in CONVERGENCE_MODES:
            raise ValueError(
                f"convergence_mode must be one of {CONVERGENCE_MODES}, "
                f"got {self.convergence_mode!r}"
            )


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
    """Number of positions, out of m bits, where the two values differ."""
    limit = 1 << m
    if not 0 <= weight < limit:
        raise ValueError(f"weight must be in [0, {limit - 1}], got {weight}")
    if not 0 <= value < limit:
        raise ValueError(f"value must be in [0, {limit - 1}], got {value}")
    return (weight ^ value).bit_count()


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
    if any(p < 0 for p in positions):
        raise ValueError("bit positions must be non-negative")
    k = max(1, math.floor(learning_rate * len(positions)))
    chosen = rng.choice(len(positions), size=k, replace=False)
    flipped = tuple(sorted(positions[int(c)] for c in chosen))
    new_weight = weight
    for p in flipped:
        new_weight ^= 1 << p
    return new_weight, flipped


def _bit_positions(mask: int, m: int) -> list[int]:
    """The set bit positions of an m-bit mask, ascending."""
    return [p for p in range(m) if mask >> p & 1]


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
    full_mask = (1 << m) - 1

    def converged(w: int) -> bool:
        if w == optimal_weight:
            return True
        return (
            config.convergence_mode == "functional"
            and w == (optimal_weight ^ full_mask)
        )

    rng = np.random.default_rng(config.seed)
    weight = int(rng.integers(0, 1 << m))
    trace: list[TrainStep] = []
    if on_step is None:
        on_step = trace.append
    if converged(weight):
        return TrainResult(True, weight, 0, trace)

    examples = dataset.examples
    values = [ex.value for ex in examples]
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
                ex = examples[index]
                predicted = label_from_probability(p1)
                before = weight
                action = "none"
                flipped: tuple[int, ...] = ()
                if predicted != ex.label:
                    if predicted == 0:
                        candidate_mask = weight ^ ex.value
                        attempted = "flip_non_matching"
                    else:
                        candidate_mask = ~(weight ^ ex.value) & full_mask
                        attempted = "flip_matching"
                    candidates = _bit_positions(candidate_mask, m)
                    if candidates:
                        action = attempted
                        weight, flipped = flip_bits(
                            weight, candidates, config.learning_rate, rng
                        )
                on_step(
                    TrainStep(
                        epoch=epoch,
                        example_value=ex.value,
                        p1=p1,
                        predicted=predicted,
                        actual=ex.label,
                        action=action,
                        flipped_positions=flipped,
                        weight_before=before,
                        weight_after=weight,
                    )
                )
                if weight != before:
                    updates += 1
                    if converged(weight):
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


# The JSON types a record may use for each TrainStep annotation; bool is
# excluded from the numbers on purpose.
_STEP_TYPES = get_type_hints(TrainStep)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _field_error(name: str, value: object) -> str | None:
    """Why `value` cannot be the TrainStep field `name`, or None if it can."""
    hint = _STEP_TYPES[name]
    if name == "action":
        ok, want = value in ACTIONS, f"one of {list(ACTIONS)}"
    elif hint in _JSON_TYPES:
        types, want = _JSON_TYPES[hint]
        ok = type(value) in types
    else:  # tuple[int, ...], stored as a JSON list
        ok = type(value) is list and all(type(p) is int for p in value)
        want = "a list of integers"
    return None if ok else f"field {name!r} must be {want}, got {value!r}"


def load_trace(path: str | Path) -> list[TrainStep]:
    """Read save_trace output; a malformed record raises ValueError naming its line."""
    steps = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
        for name, value in record.items():
            error = _field_error(name, value)
            if error:
                raise ValueError(f"{path}: line {lineno}: {error}")
        record["flipped_positions"] = tuple(record["flipped_positions"])
        steps.append(TrainStep(**record))
    return steps
