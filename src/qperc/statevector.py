"""Dense state-vector simulation for small qubit registers.

Amplitude indexing is MSB-first: qubit 0 owns the most significant bit of
the basis index, so an n-qubit register stores |b0 b1 ... b_{n-1}> at index
b0 * 2^(n-1) + b1 * 2^(n-2) + ... + b_{n-1}. The gate set is H, X, MCZ
(multi-controlled Z, symmetric in its qubits) and MCX (multi-controlled X).
All four are self-inverse and norm-preserving. Every gate kernel acts on
the last axis, so `run_circuit_rows` runs one circuit over a block of
states, one state per row, with the same arithmetic per row as
`run_circuit` applies to a single state.

The kernels work in place on reshaped views of the amplitudes and cache
no arrays: a gate's peak memory is the state plus at most one temporary
of the same size (X copies the whole state once, H, MCZ and MCX half of
it or less).

Registers are capped at 24 qubits; a dense complex128 vector at that size
is 256 MB, which is as far as this simulator is meant to go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class GateOp:
    """A single gate application.

    kind      one of "H", "X", "MCZ", "MCX"
    target    the acted-on qubit for H/X, the flipped qubit for MCX,
              None for MCZ (which treats all its qubits symmetrically)
    controls  participating qubits for MCZ, control qubits for MCX
    """

    kind: str
    target: int | None = None
    controls: frozenset[int] = frozenset()
    max_qubit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "controls", frozenset(self.controls))
        if self.kind in ("H", "X"):
            if self.target is None or self.controls:
                raise ValueError(f"{self.kind} takes one target and no controls")
        elif self.kind == "MCZ":
            if self.target is not None:
                raise ValueError("MCZ is symmetric; pass all qubits as controls")
            if not self.controls:
                raise ValueError("MCZ needs at least one qubit")
        elif self.kind == "MCX":
            if self.target is None or not self.controls:
                raise ValueError("MCX needs a target and at least one control")
            if self.target in self.controls:
                raise ValueError("MCX target must not be one of its controls")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = self.qubits()
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {self.kind} gate")
        object.__setattr__(self, "max_qubit", max(qubits))

    def qubits(self) -> frozenset[int]:
        """Every qubit index the gate touches."""
        if self.target is None:
            return self.controls
        return self.controls | {self.target}


@lru_cache(maxsize=None)
def h(qubit: int) -> GateOp:
    """Hadamard on one qubit."""
    return GateOp("H", target=qubit)


@lru_cache(maxsize=None)
def x(qubit: int) -> GateOp:
    """Bit flip on one qubit."""
    return GateOp("X", target=qubit)


def mcz(qubits: Iterable[int]) -> GateOp:
    """Phase flip on basis states where every listed qubit is 1."""
    return _mcz_cached(frozenset(qubits))


def mcx(controls: Iterable[int], target: int) -> GateOp:
    """Bit flip on `target` for basis states where every control is 1."""
    return _mcx_cached(frozenset(controls), target)


@lru_cache(maxsize=None)
def _mcz_cached(qubits: frozenset[int]) -> GateOp:
    return GateOp("MCZ", controls=qubits)


@lru_cache(maxsize=None)
def _mcx_cached(controls: frozenset[int], target: int) -> GateOp:
    return GateOp("MCX", target=target, controls=controls)


@dataclass
class Circuit:
    """An ordered gate list over a fixed-width register."""

    num_qubits: int
    ops: list[GateOp] = field(default_factory=list)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be at least 1")
        for op in self.ops:
            _check_op(op, self.num_qubits)


@dataclass
class StateVector:
    """2^num_qubits complex amplitudes, MSB-first basis ordering."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        expected = 1 << self.num_qubits
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm_squared(self) -> float:
        return float(np.sum(self.amplitudes.real**2 + self.amplitudes.imag**2))


def new_zero_state(num_qubits: int) -> StateVector:
    """The |00...0> state on `num_qubits` qubits (1 to 24 inclusive)."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"num_qubits must be between 1 and {MAX_QUBITS}, got {num_qubits}"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _check_op(op: GateOp, num_qubits: int) -> None:
    if op.max_qubit >= num_qubits:
        raise ValueError(
            f"{op.kind} gate touches qubit {op.max_qubit} "
            f"but the register has {num_qubits} qubits"
        )


def _apply_inplace(amps: np.ndarray, num_qubits: int, op: GateOp) -> None:
    """Apply one gate along the last axis of a C-contiguous state or block.

    Each kernel works on a reshaped view of `amps`: H and X on a view whose
    axis -2 is the target's bit, MCZ and MCX on a view with one size-2 axis
    per qubit (qubit 0 first), where fixing the controls' axes at 1 selects
    the states the gate acts on.
    """
    kind = op.kind
    lead = amps.shape[:-1]
    if kind == "X":
        view = amps.reshape(lead + (1 << op.target, 2, -1))
        view[...] = view[..., ::-1, :]
    elif kind == "H":
        view = amps.reshape(lead + (1 << op.target, 2, -1))
        zero, one = view[..., 0, :], view[..., 1, :]
        diff = zero - one
        zero += one
        one[...] = diff
        amps *= _INV_SQRT2
    elif kind in ("MCZ", "MCX"):
        cube = amps.reshape(lead + (2,) * num_qubits)
        index = [slice(None)] * num_qubits
        for q in op.controls:
            index[q] = 1
        hit = cube[(..., *index)]
        if kind == "MCZ":
            # A +-1 sign-array multiply, as MCZ is defined: a complex
            # multiply by 1.0 clears some signed zeros, so the states the
            # gate leaves alone are multiplied too.
            flipped = hit * -1.0
            amps *= 1.0
            hit[...] = flipped
        else:
            index[op.target] = slice(None, None, -1)
            hit[...] = cube[(..., *index)]
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Return the state after one gate; the input state is untouched."""
    _check_op(op, state.num_qubits)
    amps = state.amplitudes.copy()
    _apply_inplace(amps, state.num_qubits, op)
    return StateVector(state.num_qubits, amps)


def run_circuit_rows(circuit: Circuit, amps: np.ndarray) -> None:
    """Apply every gate of `circuit`, in order, to each row of `amps` in place.

    `amps` is a C-contiguous complex128 block of shape (rows, 2^num_qubits),
    one state per row. Every row gets exactly the arithmetic it would get
    on its own, so a row's amplitudes do not depend on the rows beside it.
    """
    n = circuit.num_qubits
    if amps.ndim != 2 or amps.shape[1] != 1 << n:
        raise ValueError(
            f"circuit is on {n} qubits but the block has shape {amps.shape}"
        )
    if amps.dtype != np.complex128 or not amps.flags.c_contiguous:
        raise ValueError("amps must be a C-contiguous complex128 block")
    for op in circuit.ops:
        _apply_inplace(amps, n, op)


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply every gate of `circuit` to `state`, in order."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit is on {circuit.num_qubits} qubits "
            f"but the state has {state.num_qubits}"
        )
    amps = state.amplitudes.copy()
    run_circuit_rows(circuit, amps.reshape(1, -1))
    return StateVector(circuit.num_qubits, amps)


def prob_qubit_one(state: StateVector, qubit: int) -> float:
    """Probability that measuring `qubit` yields 1."""
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    ones = state.amplitudes.reshape(1 << qubit, 2, -1)[:, 1, :]
    return float(np.sum(ones.real**2 + ones.imag**2))


def sample_qubit(
    state: StateVector, qubit: int, shots: int, seed: int | Sequence[int]
) -> float:
    """Estimate prob_qubit_one as the hit rate of one Binomial(shots, p) draw.

    See binomial_estimate for the draw; same state, qubit, shots and seed
    give the same estimate on any platform.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    return binomial_estimate(prob_qubit_one(state, qubit), shots, seed)


def binomial_estimate(p: float, shots: int, seed: int | Sequence[int]) -> float:
    """The hit rate of one Binomial(shots, p) draw, for shots >= 1.

    One fresh PCG64 generator is created per call from `seed`, an int or a
    sequence of ints as `np.random.default_rng` accepts, so results are
    bit-reproducible.
    """
    # Summed squares can overshoot 1 by an ulp, which binomial rejects.
    return int(np.random.default_rng(seed).binomial(shots, min(p, 1.0))) / shots
