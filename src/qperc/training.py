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
the dataset's seed and never disturbs the training stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .ioutil import atomic_write_text
from .perceptron import check_value, measure

ACTIONS = ("none", "flip_non_matching", "flip_matching")

CONVERGENCE_MODES = ("strict", "functional")


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
    converged: bool
    final_weight: int
    epochs_run: int
    trace: list[TrainStep] = field(default_factory=list)


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
    return bin(weight ^ value).count("1")


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


def _bit_positions(mask: int) -> list[int]:
    positions = []
    pos = 0
    while mask:
        if mask & 1:
            positions.append(pos)
        mask >>= 1
        pos += 1
    return positions


def train(dataset: Dataset, optimal_weight: int, config: TrainConfig) -> TrainResult:
    """Run epochs of bit-flip updates until convergence or max_epochs.

    The trace records every example evaluation. epochs_run counts epochs
    started; a weight that is already converged at initialization returns
    immediately with epochs_run = 0 and an empty trace.
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
    if converged(weight):
        return TrainResult(True, weight, 0, trace)

    for epoch in range(1, config.max_epochs + 1):
        for ex in dataset.examples:
            p1 = measure(ex.value, weight, measurement)
            predicted = 1 if p1 >= 0.5 else 0
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
                candidates = _bit_positions(candidate_mask)
                if candidates:
                    action = attempted
                    weight, flipped = flip_bits(
                        weight, candidates, config.learning_rate, rng
                    )
            trace.append(
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
            if weight != before and converged(weight):
                return TrainResult(True, weight, epoch, trace)
    return TrainResult(False, weight, config.max_epochs, trace)


def save_trace(steps: Sequence[TrainStep], path: str | Path) -> None:
    """Write one JSON object per step, one step per line."""
    # A shallow dict per step: asdict() deep-copies and wrote a 65,536-step
    # trace 3x slower, and vars() leaves a dict attached to every step.
    lines = [
        json.dumps(
            {name: getattr(step, name) for name in _STEP_FIELDS},
            sort_keys=True,
            separators=(",", ":"),
        )
        for step in steps
    ]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


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
        positions = record["flipped_positions"]
        if not isinstance(positions, list) or any(
            type(p) is not int for p in positions
        ):
            raise ValueError(
                f"{path}: line {lineno}: field 'flipped_positions' must be a "
                f"list of integers, got {positions!r}"
            )
        record["flipped_positions"] = tuple(positions)
        steps.append(TrainStep(**record))
    return steps
