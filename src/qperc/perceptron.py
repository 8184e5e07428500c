"""Binary-pattern perceptron on a state-vector simulator.

An integer value in [0, 2^m) with m = 2^n encodes an m-entry sign vector,
MSB first: bit 1 becomes -1 and bit 0 becomes +1. Input preparation maps
|0...0> to the normalized superposition whose amplitudes are those signs
over sqrt(m); weight unpreparation inverts that map for the weight value
and then flips every data qubit, so the overlap of input and weight ends
up as the amplitude of |1...1>. A final MCX copies that indicator onto an
ancilla (qubit n), and the probability of reading the ancilla as 1 equals
the squared normalized dot product of the two sign vectors:

    P(1) = ((sum_j i_j * w_j) / m)^2

`closed_form_probability` evaluates that expression directly with integer
arithmetic and is the reference every circuit result can be checked
against.

The sign flips are realized gate by gate: for each position j carrying -1
an MCZ over all n data qubits is conjugated by X on the qubits whose bit
in j is 0, which flips the phase of exactly |j>. The construction costs at
most m MCZ and 2*m*n X gates per sign vector. `assemble_perceptron_circuit`
builds the whole gate list for one pair; it is the reference the tests
compare against.

`measure_many` is the one evaluator; `measure` is its one-row call. After
the Hadamard layer every data amplitude has the same magnitude, so each
sign oracle only multiplies amplitude j by a sign, and a +-1 multiply is
exact there. Each row is therefore the cached Hadamard-layer state
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
the per-row cost is two sign rows, about 2m * (2n + 2) amplitude
operations and, in sampled mode, one seeded binomial draw.

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
    binomial_estimate,
    h,
    mcx,
    mcz,
    new_zero_state,
    run_circuit_rows,
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
    seed   RNG seed for sampled mode, combined with each (input, weight)
           pair; ignored when mode is "exact"
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
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError(f"shots must be at least 1, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SignVector:
    """An m-entry vector of +1/-1 signs decoded from an integer value."""

    n: int
    signs: tuple[int, ...]
    source_value: int

    @property
    def m(self) -> int:
        return 1 << self.n


def check_value(value: int, n: int, what: str) -> int:
    """Return m = 2^n, or raise ValueError naming `what` if value >= 2^m or < 0."""
    m = 1 << n
    if not 0 <= value < (1 << m):
        raise ValueError(
            f"{what} must be in [0, {(1 << m) - 1}] for n={n}, got {value}"
        )
    return m


def encode_value(value: int, n: int) -> SignVector:
    """Decode `value` into its sign vector, MSB first.

    Bit j of the m-bit expansion (position 0 = most significant) maps to
    signs[j]: a set bit becomes -1, a clear bit +1. encode_value(12, 2)
    gives (-1, -1, 1, 1).
    """
    m = check_value(value, n, "value")
    return SignVector(n=n, signs=_signs(value, m), source_value=value)


def _signs(value: int, m: int) -> tuple[int, ...]:
    """The m signs of an already range-checked value, MSB first."""
    return tuple(-1 if (value >> (m - 1 - j)) & 1 else 1 for j in range(m))


def _sign_flips(signs: tuple[int, ...], n: int) -> list[GateOp]:
    """One X-MCZ-X sandwich per -1 entry; each flips the phase of |j>."""
    all_qubits = range(n)
    ops = []
    for j, sign in enumerate(signs):
        if sign == 1:
            continue
        zero_qubits = [q for q in all_qubits if not (j >> (n - 1 - q)) & 1]
        for q in zero_qubits:
            ops.append(x(q))
        ops.append(mcz(all_qubits))
        for q in zero_qubits:
            ops.append(x(q))
    return ops


def _input_prep(value: int, n: int) -> list[GateOp]:
    m = check_value(value, n, "input value")
    return [h(q) for q in range(n)] + _sign_flips(_signs(value, m), n)


def _unprep_layers(n: int) -> list[GateOp]:
    """The Hadamard layer then the X layer, which end weight unpreparation."""
    return [h(q) for q in range(n)] + [x(q) for q in range(n)]


def _weight_unprep(weight: int, n: int) -> list[GateOp]:
    m = check_value(weight, n, "weight")
    return _sign_flips(_signs(weight, m), n) + _unprep_layers(n)


def build_sign_oracle(sign_vector: SignVector) -> Circuit:
    """Diagonal circuit flipping the phase of |j> wherever signs[j] is -1."""
    return Circuit(sign_vector.n, _sign_flips(sign_vector.signs, sign_vector.n))


def build_input_prep(value: int, n: int) -> Circuit:
    """Map |0...0> to the sign-encoded superposition for `value`."""
    return Circuit(n, _input_prep(value, n))


def build_weight_unprep(weight: int, n: int) -> Circuit:
    """Map the sign-encoded state for `weight` to |1...1>.

    Runs the weight's own sign oracle (self-inverse), undoes the Hadamard
    layer, then flips every qubit so a perfect match lands on |1...1>.
    """
    return Circuit(n, _weight_unprep(weight, n))


def assemble_perceptron_circuit(input_value: int, weight: int, n: int) -> Circuit:
    """Full evaluation circuit on n data qubits plus the ancilla (qubit n)."""
    ops = _input_prep(input_value, n) + _weight_unprep(weight, n)
    ops.append(mcx(range(n), n))
    return Circuit(n + 1, ops)


def closed_form_probability(input_value: int, weight: int, n: int) -> float:
    """Reference ancilla probability, no circuit involved.

    Computes ((sum_j i_j * w_j) / m)^2 with integer arithmetic and a single
    final division, so it is exact up to one float rounding.
    """
    m = check_value(input_value, n, "input value")
    check_value(weight, n, "weight")
    dot = sum(a * b for a, b in zip(_signs(input_value, m), _signs(weight, m)))
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
    """One row of m float signs per value, MSB first, as _signs gives them."""
    bits = np.array(values, dtype=np.int64)[:, None] >> np.arange(m - 1, -1, -1)
    return 1.0 - 2.0 * (bits & 1)


def measure_many(
    inputs: Iterable[int], weight: int, config: PerceptronConfig
) -> np.ndarray:
    """Evaluate every input against one weight; P for each input, in order.

    Exact mode returns the ancilla's probability of 1 from each final state
    vector; sampled mode estimates it from config.shots draws seeded by
    (config.seed, input, weight), so pairs with the same true probability
    get independent noise and a rerun gets the same estimate.
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
        for row, value in enumerate(values):
            probs[row] = binomial_estimate(
                probs[row], config.shots, [config.seed, value, weight]
            )
    return probs
