"""Binary-pattern perceptron on a state-vector simulator.

An integer value in [0, 2^m) with m = 2^n encodes an m-entry sign vector,
MSB first: bit 1 becomes -1 and bit 0 becomes +1. Input preparation maps
|0...0> to the normalized superposition whose amplitudes are those signs
over sqrt(m); weight unpreparation inverts that map for the weight value
and then flips every data qubit, so the overlap of input and weight ends
up as the amplitude of |1...1>. A final MCX copies that indicator onto an
ancilla (qubit n), and the probability of reading the ancilla as 1 equals
the squared normalized dot product of the two sign vectors. Two signs
differ exactly where the bits differ, so

    P(1) = ((sum_j i_j * w_j) / m)^2 = ((m - 2 * popcount(i ^ w)) / m)^2

There are two evaluators: the circuit, which is the reproduction, and
`closed_form_probability`, the popcount identity in integer arithmetic,
which is the oracle every circuit result is checked against.

`assemble_perceptron_circuit` builds the whole gate list for one pair. The
sign flips are realized gate by gate: for each position j carrying -1 an
MCZ over all n data qubits is conjugated by X on the qubits whose bit in j
is 0, which flips the phase of exactly |j>. That costs at most m MCZ and
2*m*n X gates per sign vector.

`measure_many` is the one circuit evaluator; `measure` is its one-row call.
After the Hadamard layer every data amplitude has the same magnitude, so
each sign oracle only multiplies amplitude j by a sign, and a +-1 multiply
is exact there. Each row is therefore the cached Hadamard-layer state
(computed once per n by the gate kernels) times the input's sign row times
the weight's sign row. What is left of the circuit is the fixed readout:
the Hadamard and X layers and the MCX, 2n+1 gates in one `Circuit`, run
over blocks of up to BLOCK_ROWS rows, so each gate is one numpy call per
block rather than one per row.

P is then the summed squared ancilla-1 amplitudes of each row. Each row's
P equals, bit for bit, the P of its full gate-by-gate circuit (74 gates
per input on average against weight 626 at n=4), so exact-mode outputs do
not depend on how inputs are batched. The per-call cost is one 2n+1-gate
list built and validated, plus one `check_value` per input and one for
the weight (a one-row n=4 `measure` takes about 75 us on a 2-core Xeon);
the per-row cost is two sign rows and about 2m * (2n + 2) amplitude
operations. Sampled mode adds one call of `statevector.sample_rates` per
call: it hashes each row's key to a uniform and reads the row's hit count
off one inverse binomial CDF table per distinct P.

`check_value` is the single range rule for encoded values; the dataset,
training, rendering and CLI layers all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .statevector import (
    Circuit,
    GateOp,
    apply_gate,
    check_shots,
    h,
    mcx,
    mcz,
    new_zero_state,
    run_circuit_rows,
    sample_rates,
    x,
)

MAX_DATA_QUBITS = 4

MODES = ("exact", "sampled")

DEFAULT_SHOTS = 8192

# Rows per block in measure_many: a 4096 x 32 complex block at n=4 is 2 MB,
# so memory stays flat however many inputs are evaluated.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class PerceptronConfig:
    """Evaluation settings shared by single measurements and batch runs.

    n      number of data qubits, 1 to 4 (values then range over 2^(2^n))
    shots  Bernoulli draws per sampled measurement
    mode   "exact" reads the ancilla probability off the state vector,
           "sampled" estimates it from `shots` seeded draws
    seed   sampled mode's key, hashed with each (input, weight) pair;
           ignored when mode is "exact"
    """

    n: int
    shots: int = DEFAULT_SHOTS
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DATA_QUBITS:
            raise ValueError(
                f"n must be between 1 and {MAX_DATA_QUBITS}, got {self.n}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "sampled":
            check_shots(self.shots)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def check_value(value: int, n: int, what: str) -> int:
    """Return m = 2^n, or raise ValueError naming `what` if value >= 2^m or < 0."""
    m = 1 << n
    if not 0 <= value < (1 << m):
        raise ValueError(
            f"{what} must be in [0, {(1 << m) - 1}] for n={n}, got {value}"
        )
    return m


def _sign_flips(value: int, n: int) -> list[GateOp]:
    """One X-MCZ-X sandwich per set bit j of value, MSB first; each flips |j>."""
    m = 1 << n
    ops = []
    for j in range(m):
        if (value >> (m - 1 - j)) & 1:
            flips = [x(q) for q in range(n) if not (j >> (n - 1 - q)) & 1]
            ops += flips + [mcz(range(n))] + flips
    return ops


def _unprep_layers(n: int) -> list[GateOp]:
    """The Hadamard layer then the X layer, which end weight unpreparation."""
    return [h(q) for q in range(n)] + [x(q) for q in range(n)]


def assemble_perceptron_circuit(input_value: int, weight: int, n: int) -> Circuit:
    """Full evaluation circuit on n data qubits plus the ancilla (qubit n).

    Input prep (H layer, input flips), weight unprep (weight flips, which
    are self-inverse, then H and X layers), then the MCX readout.
    """
    check_value(input_value, n, "input value")
    check_value(weight, n, "weight")
    ops = (
        [h(q) for q in range(n)]
        + _sign_flips(input_value, n)
        + _sign_flips(weight, n)
        + _unprep_layers(n)
        + [mcx(range(n), n)]
    )
    return Circuit(n + 1, ops)


def closed_form_probability(input_value: int, weight: int, n: int) -> float:
    """Reference ancilla probability, no circuit involved.

    The sign dot product is m - 2 * popcount(input ^ weight), so P is
    computed with integer arithmetic and a single final division; it is
    exact up to one float rounding.
    """
    m = check_value(input_value, n, "input value")
    check_value(weight, n, "weight")
    dot = m - 2 * (input_value ^ weight).bit_count()
    return (dot * dot) / (m * m)


def measure(input_value: int, weight: int, config: PerceptronConfig) -> float:
    """Evaluate one pair: the single row of measure_many((input_value,), ...)."""
    return float(measure_many((input_value,), weight, config)[0])


@lru_cache(maxsize=MAX_DATA_QUBITS)
def _hadamard_layer(n: int) -> np.ndarray:
    """The (n+1)-qubit state after H on every data qubit, read-only.

    Built by the gate kernels, so its amplitudes are the gate path's bits.
    """
    state = new_zero_state(n + 1)
    for q in range(n):
        state = apply_gate(state, h(q))
    state.amplitudes.setflags(write=False)
    return state.amplitudes


def _sign_rows(values: list[int], m: int) -> np.ndarray:
    """One row of m float signs per value, MSB first: a set bit is -1.0."""
    bits = np.array(values, dtype=np.int64)[:, None] >> np.arange(m - 1, -1, -1)
    return 1.0 - 2.0 * (bits & 1)


def measure_many(
    inputs: Iterable[int], weight: int, config: PerceptronConfig, epoch: int = 0
) -> np.ndarray:
    """Evaluate every input against one weight; P for each input, in order.

    Exact mode returns the ancilla's probability of 1 from each final state
    vector; sampled mode estimates it from config.shots draws keyed by
    (config.seed, input, weight), with the training epoch appended when it
    is not 0, so pairs with the same true probability get independent
    noise, each training epoch gets fresh noise, and a rerun gets the same
    estimate.
    """
    n = config.n
    values = list(inputs)
    for value in values:
        check_value(value, n, "input value")
    check_value(weight, n, "weight")
    circuit = Circuit(n + 1, _unprep_layers(n) + [mcx(range(n), n)])
    m = 1 << n
    # The ancilla is the lowest index bit: column 1 holds its |1> amplitudes.
    prepared = _hadamard_layer(n).reshape(m, 2)
    weight_signs = _sign_rows([weight], m)
    probs = np.empty(len(values))
    for start in range(0, len(values), BLOCK_ROWS):
        chunk = values[start : start + BLOCK_ROWS]
        block = prepared * (_sign_rows(chunk, m) * weight_signs)[:, :, None]
        block = block.reshape(len(chunk), 2 * m)
        run_circuit_rows(circuit, block)
        ones = block.reshape(len(chunk), m, 2)[:, :, 1]
        probs[start : start + len(chunk)] = np.sum(
            ones.real**2 + ones.imag**2, axis=1
        )
    if config.mode == "sampled":
        key = [config.seed, np.array(values, dtype=np.uint64), weight]
        if epoch:
            key.append(epoch)
        probs = sample_rates(probs, config.shots, key)
    return probs
