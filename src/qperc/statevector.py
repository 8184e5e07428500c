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

Sampled readout (`sample_rates`, and `sample_qubit` on top of it) is
counter-based: each row's key words are folded into one uint64 with the
SplitMix64 finaliser, whose top 53 bits are a uniform, and the uniform is
mapped through the inverse CDF of Binomial(shots, P). A draw therefore
depends on its key and P only, and is the same on any platform. A table
has O(sqrt(shots)) entries; shots are capped at MAX_SHOTS, where the widest
(P = 0.5) has 655,441.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

MAX_SHOTS = 1 << 32

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# SplitMix64's increment and finaliser multipliers (Steele, Lea and Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LIMB = (1 << 64) - 1


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

    `seed` is the draw's key, an int or a sequence of ints; see
    sample_rates. The same state, qubit, shots and seed give the same
    estimate on any platform.
    """
    key = list(seed) if isinstance(seed, Sequence) else [seed]
    return float(sample_rates(np.array([prob_qubit_one(state, qubit)]), shots, key)[0])


def check_shots(shots: int) -> None:
    """Raise ValueError unless 1 <= shots <= MAX_SHOTS."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, a bijection of uint64 arrays (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(key: Sequence[int | np.ndarray], rows: int) -> np.ndarray:
    """One uniform in [0, 1) per row, hashed from the row's key words.

    A word is a non-negative int shared by every row or a uint64 array with
    one entry per row. Each word is folded in as its count of 64-bit limbs
    and then its limbs, least significant first, so a word of any size
    (config.seed has no bound) gets a key of its own, and an array entry
    folds exactly like the int of the same value.
    """
    h = np.zeros(1, dtype=np.uint64)
    for word in key:
        if isinstance(word, np.ndarray):
            limbs = [1, word]
        else:
            word = operator.index(word)
            if word < 0:
                raise ValueError(f"key words must be non-negative, got {word}")
            shifts = range(0, max(word.bit_length(), 1), 64)
            limbs = [(word >> s) & _LIMB for s in shifts]
            limbs = [len(limbs), *limbs]
        for limb in limbs:
            h = _mix64((h ^ np.uint64(limb)) + _GAMMA)
    h = np.broadcast_to(h, (rows,))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _binomial_cdf(shots: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, cdf): cdf[j] = P(X <= lo + j) for X ~ Binomial(shots, p), 0 < p < 1.

    The table covers mean +- (10 sd + 40), clipped to [0, shots]; by
    Bernstein's inequality the mass outside it is below 1e-21. It is
    normalised by its own total, so its last entry is exactly 1.0.
    """
    mean = shots * p
    half = 10.0 * math.sqrt(mean * (1.0 - p)) + 40.0
    lo = max(0, math.floor(mean - half))
    hi = min(shots, math.ceil(mean + half))
    k = np.arange(lo, hi, dtype=np.float64)
    # log pmf(k + 1) - log pmf(k), summed up from log pmf(lo) = 0
    steps = np.log((shots - k) / (k + 1.0)) + math.log(p / (1.0 - p))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return lo, cdf / cdf[-1]


def sample_rates(
    probs: np.ndarray, shots: int, key: Sequence[int | np.ndarray]
) -> np.ndarray:
    """The hit rate of one Binomial(shots, probs[r]) draw for every row r.

    Row r's draw is the inverse binomial CDF of one uniform hashed from its
    key words (see _uniforms), so it depends on its key and P only, never
    on the other rows of the call. One CDF table is built per distinct P;
    a P <= 0 reads 0 and a P >= 1 reads 1 (summed squares can overshoot 1
    by an ulp).
    """
    check_shots(shots)
    u = _uniforms(key, len(probs))
    counts = np.where(probs >= 1.0, float(shots), 0.0)
    distinct, inverse = np.unique(probs, return_inverse=True)
    for j, p in enumerate(distinct.tolist()):
        if 0.0 < p < 1.0:
            rows = inverse == j
            lo, cdf = _binomial_cdf(shots, p)
            counts[rows] = lo + np.searchsorted(cdf, u[rows], side="right")
    return counts / shots
