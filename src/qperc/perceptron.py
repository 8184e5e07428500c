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
After the Hadamard layer every data amplitude is the same real number a,
1.0 times the H kernel's 1/sqrt(2) once per qubit, so each sign oracle only
multiplies amplitude j by a sign, and a +-1 multiply is exact there. The
input's and the weight's sign rows multiply to the sign row of
input ^ weight exactly, so each row is a times that one sign row, and
every row may carry its own weight. What is left of the circuit is the
fixed readout: the Hadamard and X layers and the MCX. The ancilla reads 1
only where the MCX copied data |1...1>, which the X layer moved there from
data |0...0>, so P is the square of one amplitude: data |0...0> after the
readout's Hadamard layer. `measure_many` computes only that amplitude's
light cone, n halvings of each row (qubit 0 first, the H kernel's add
then scale), in float64: the gate path's imaginary parts are +-0 and its
other ancilla-1 amplitudes exact zeros. It runs no gate and builds no
`Circuit`.

Each row's P equals, bit for bit, the P of its full gate-by-gate circuit
(74 gates per input on average against weight 626 at n=4), so exact-mode
outputs do not depend on how inputs are batched. The per-call cost is one
`check_value` each for the inputs and the weight, then held as uint16
arrays with the weight broadcast to the inputs' shape, so one weight and
a weight per input share one path (a one-row n=4 `measure` takes about
60 us on a 2-core Xeon); the per-row cost is one sign row and about 2m
float operations, in blocks of up to BLOCK_ROWS rows, so each step is one
numpy call per block. Sampled mode adds one call of
`statevector.sample_rates` per block: it hashes each row's key to a
uniform and reads the row's hit count off one inverse binomial CDF table
per distinct P. The call's blocks share one dict of tables, so each
table is built once per call, when a row first needs it; a block's size
bounds the uniforms as it bounds the amplitudes, and the tables are at most
one per distinct P of the circuit (13 at n=4).

`statevector.check_int` checks every integer setting, n's through
`check_n`, and `statevector.check_choice` every named choice. `check_value`
is the one rule for encoded values, alone or in a 1-D column. Each message
starts with the name of the value it rejects; the CLI and the dataset
sidecar parser name their flag or field from that first word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .statevector import (
    _INV_SQRT2,
    Circuit,
    GateOp,
    check_choice,
    check_int,
    check_shots,
    h,
    mcx,
    mcz,
    sample_rates,
    x,
)

MAX_DATA_QUBITS = 4

MODES = ("exact", "sampled")

DEFAULT_SHOTS = 8192

# Rows per block in measure_many: a 1024 x 16 float64 block at n=4 is
# 128 KB, which stays in cache, and memory stays flat however many inputs
# are evaluated.
BLOCK_ROWS = 1024


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
        check_n(self.n)
        check_choice("mode", self.mode, MODES)
        check_int("shots", self.shots)  # exact mode reads no shots: any int will do
        if self.mode == "sampled":
            check_shots(self.shots)
        check_int("seed", self.seed, 0)


def check_n(n: int) -> None:
    """Raise ValueError unless n is an int, 1 <= n <= MAX_DATA_QUBITS."""
    check_int("n", n, 1, MAX_DATA_QUBITS)


def check_value(value: int | Sequence[int], n: int, what: str) -> int:
    """Return m = 2^n, or raise ValueError naming `what` and the first of
    `value` (one value or a 1-D column) that is not a whole number in [0, 2^m).

    n is checked first, so a large n raises before 2^(2^n) is built. The
    test reads "not inside" so that NaN fails it; ints past int64 make an
    object array, which compares like the ints it holds.
    """
    check_n(n)
    m = 1 << n
    array = np.asarray(value)
    with np.errstate(invalid="ignore"):  # inf % 1 and NaN in an object array warn
        outside = ~((array >= 0) & (array < 1 << m) & (array % 1 == 0))
    if array.ndim > 1 or outside.any():
        # Index the caller's column, not the array: a list mixing -1 and
        # 2^63 becomes float64 and would print -1 as -1.0.
        bad = value[int(np.argmax(outside))] if array.ndim == 1 else value
        raise ValueError(
            f"{what} must be in [0, {(1 << m) - 1}] for n={n}, got {bad}"
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


def assemble_perceptron_circuit(input_value: int, weight: int, n: int) -> Circuit:
    """Full evaluation circuit on n data qubits plus the ancilla (qubit n).

    Input prep (H layer, input flips), weight unprep (weight flips, which
    are self-inverse, then H and X layers), then the MCX readout.
    """
    check_value(input_value, n, "input value")
    check_value(weight, n, "weight")
    ops = (
        [h(q) for q in range(n)]
        + _sign_flips(int(input_value), n)
        + _sign_flips(int(weight), n)
        + [h(q) for q in range(n)]
        + [x(q) for q in range(n)]
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
    dot = m - 2 * (int(input_value) ^ int(weight)).bit_count()
    return (dot * dot) / (m * m)


def measure(input_value: int, weight: int, config: PerceptronConfig) -> float:
    """Evaluate one pair: the single row of measure_many((input_value,), ...)."""
    return float(measure_many((input_value,), weight, config)[0])


def _sign_rows(values: np.ndarray, m: int) -> np.ndarray:
    """One row of m float signs per value, MSB first: a set bit is -1.0."""
    bits = values[:, None] >> np.arange(m - 1, -1, -1, dtype=np.uint8)
    return 1.0 - 2.0 * (bits & 1)


def measure_many(
    inputs: Iterable[int],
    weight: int | Sequence[int],
    config: PerceptronConfig,
    epoch: int = 0,
) -> np.ndarray:
    """Evaluate every input against its weight; P for each input, in order.

    `weight` is one weight for every input or a sequence of one weight per
    input. Exact mode returns the ancilla's probability of 1 from each
    final state vector; sampled mode estimates it from config.shots draws
    keyed by (config.seed, input, weight), with the training epoch
    appended when it is not 0, so pairs with the same true probability get
    independent noise, each training epoch gets fresh noise, and a rerun
    gets the same estimate.
    """
    n = config.n
    if not isinstance(inputs, (np.ndarray, Sequence)):
        inputs = list(inputs)
    check_value(inputs, n, "input value")
    check_value(weight, n, "weight")
    # Every in-range value is below 2^16, so uint16 holds inputs, weights
    # and their XOR whatever integer type the caller used.
    values = np.asarray(inputs, dtype=np.uint16)
    weights = np.asarray(weight, dtype=np.uint16)
    if weights.ndim and len(weights) != len(values):
        raise ValueError(f"got {len(weights)} weights for {len(values)} inputs")
    weights = np.broadcast_to(weights, values.shape)
    m = 1 << n
    # Every data amplitude after the H layer, multiplied as the H kernel
    # does, one qubit at a time: 2 ** (-n / 2) differs in the last bit.
    a = 1.0
    for _ in range(n):
        a *= _INV_SQRT2
    probs = np.empty(len(values))
    tables = {}
    for start in range(0, len(values), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        chunk, chunk_weights = values[rows], weights[rows]
        v = a * _sign_rows(chunk ^ chunk_weights, m)
        # The readout's light cone: the H layer's zero halves, qubit 0
        # first, with the H kernel's add and then scale.
        for _ in range(n):
            v = v.reshape(len(chunk), 2, -1)
            v = (v[:, 0, :] + v[:, 1, :]) * _INV_SQRT2
        probs[rows] = v[:, 0] ** 2
        if config.mode == "sampled":
            key = [config.seed, chunk, chunk_weights]
            if epoch:
                key.append(epoch)
            probs[rows] = sample_rates(probs[rows], config.shots, key, tables)
    return probs
