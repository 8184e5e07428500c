"""Dense state-vector simulation for small qubit registers.

Amplitude indexing is MSB-first: qubit 0 owns the most significant bit of
the basis index, so an n-qubit register stores |b0 b1 ... b_{n-1}> at index
b0 * 2^(n-1) + b1 * 2^(n-2) + ... + b_{n-1}. The gate set is H, X, MCZ
(multi-controlled Z, symmetric in its qubits) and MCX (multi-controlled X).
All four are self-inverse and norm-preserving. Every gate kernel acts on
the last axis, so on a block of states, one per row, each row gets the
arithmetic `run_circuit` gives a single state.

The kernels work in place on reshaped views of the amplitudes and cache
no arrays. H, MCZ and MCX each walk the state once, in tiles of 2^16
amplitudes. MCZ is diagonal: it negates the states where all its
qubits are 1, in place, and neither reads nor writes a tile that holds
none of them. An X costs no pass until the end of the call: it is kept as
a pending bit flip that the next H, MCZ or MCX on its qubit reads
through, with the same bytes as X then that gate. At the end, one pass
covers every pending qubit inside a tile, and one pass covers each
pending qubit above a tile. A pass of two or more tiles splits them
between two walkers, the calling thread and one daemon helper thread,
which is made the first time such a pass runs (a state of 17 or more
qubits), serves one caller at a time and is dropped in a child made by
fork; tiles are disjoint and each gets the same arithmetic, so the bytes
do not depend on the split. A pass's
scratch memory is bounded by the tile, whatever the register size: per
walker, one tile for X and MCX, two for H and none for MCZ, so at most
about 2 MB of float64 (4 MB of complex128) against 128 MB of real state
at the cap. MCZ's is only the buffers numpy runs a hit through when it
does not flatten to one stride.

The gate set is real, so a state that starts real stays real: real
amplitudes are held as float64 and complex ones as complex128, and the
kernels run unchanged on either. Registers are capped at 24 qubits, 128 MB
of float64 (256 MB of complex128), which is as far as this simulator goes.

Sampled readout (`sample_rates`, and `sample_qubit` on top of it) is
counter-based: each row's key words are folded into one uint64 with the
SplitMix64 finaliser, whose top 53 bits are a uniform, and the uniform is
mapped through the inverse CDF of Binomial(shots, P). A draw therefore
depends on its key and P only, and is the same on any platform. A table
has O(sqrt(shots)) entries; shots are capped at MAX_SHOTS, where the widest
(P = 0.5) has 655,441.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 24

MAX_SHOTS = 1 << 32

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Amplitudes per tile in _apply_inplace, a power of two: 512 KB of float64
# or 1 MB of complex128, which stays in a 2 MB L2 while a gate works on them.
_TILE = 1 << 16

# Threads that walk one pass's tiles: the caller, and one helper when this
# process may run on a second CPU. The helper is made on first use.
_WALKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_helper = None
_helper_lock = threading.Lock()


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
        check_int("num_qubits", self.num_qubits, 1)
        for op in self.ops:
            _check_op(op, self.num_qubits)


@dataclass
class StateVector:
    """2^num_qubits amplitudes, MSB-first basis ordering: float64 when the
    given ones are real (int, bool or float), complex128 when complex."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        self.amplitudes = amps.astype(np.result_type(amps, np.float64), copy=False)
        expected = 1 << self.num_qubits
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for {self.num_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm_squared(self) -> float:
        return float(np.sum(_squares(self.amplitudes)))


def new_zero_state(num_qubits: int) -> StateVector:
    """The |00...0> state on `num_qubits` qubits (1 to 24 inclusive)."""
    check_int("num_qubits", num_qubits, 1, MAX_QUBITS)
    amps = np.zeros(1 << num_qubits)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _squares(amps: np.ndarray) -> np.ndarray:
    """|a|^2 per amplitude; a real array is squared without reading .imag."""
    return amps.real**2 + amps.imag**2 if amps.dtype.kind == "c" else amps**2


def _check_op(op: GateOp, num_qubits: int) -> None:
    if op.max_qubit >= num_qubits:
        raise ValueError(
            f"{op.kind} gate touches qubit {op.max_qubit} "
            f"but the register has {num_qubits} qubits"
        )


class _Gate(NamedTuple):
    """A pass as _apply_inplace walks it and _apply_tile applies it,
    prepared once per kernel call.

    width is the target's stride s (the last qubit's for MCZ) when a
    (zero, one) pair fits in a tile, else half a tile; flipped says an X is
    pending on H's target. fixed is the mask of the controls whose bit a
    tile's start (its first amplitude's offset) fixes, and want the bits
    the start must hold there: 1, or 0 under a pending X. shape, hit and
    source index the cube of X, MCZ and MCX, and source reverses the axis
    of each qubit the pass flips.
    """

    kind: str
    s: int
    width: int
    flipped: bool = False
    fixed: int = 0
    want: int = 0
    shape: tuple = ()
    hit: tuple = ()
    source: tuple = ()


def _prepare(op: GateOp, n: int, flip: int = 0) -> _Gate:
    """Index `op` for _apply_tile on an n-qubit register.

    `flip` has bit n-1-q set for each qubit q with an X pending. H and the
    controls of MCZ and MCX read the state through those X's; an X on
    MCX's target commutes with it. An X is only ever prepared to apply
    pending X's, and its pass also flips every qubit `flip` sets inside
    its cube.
    """
    target = n - 1 if op.target is None else op.target
    s = 1 << (n - 1 - target)
    width = min(s, _TILE // 2)
    if op.kind == "H":
        return _Gate(op.kind, s, width, flipped=bool(flip & s))
    # The cube's axes: rows, then the target when a tile is two chunks,
    # then qubits `low` to n-1, whose bits vary in one chunk.
    split = width < s
    low = n + 1 - (width if split else min(1 << n, _TILE)).bit_length()
    index = [slice(None)] * (1 + split + n - low)
    fixed = want = 0
    for q in op.controls:
        bit = 1 << (n - 1 - q)
        if q < low:
            fixed |= bit
            want |= bit & ~flip
        else:
            index[1 + split + q - low] = 0 if flip & bit else 1
    shape = (-1,) + (2,) * (len(index) - 1)
    hit = tuple(index)
    if op.kind != "MCZ":
        index[1 if split else 1 + target - low] = slice(None, None, -1)
    if op.kind == "X":
        for q in range(low, n):
            if flip >> (n - 1 - q) & 1:
                index[1 + split + q - low] = slice(None, None, -1)
    return _Gate(op.kind, s, width, False, fixed, want, shape, hit, tuple(index))


def _passes(ops: list[GateOp], n: int) -> Iterable[_Gate]:
    """The passes that apply `ops` to an n-qubit register, in order.

    An X makes no pass of its own: it toggles its qubit's bit in a mask of
    pending X's, a Pauli frame (Knill, "Quantum computing with
    realistically noisy devices", Nature 434, 39, 2005), which the next H,
    MCZ or MCX on its qubit reads through. An H on a pending qubit uses
    H X = Z H and clears its bit. The X's still pending at the end get one
    pass for each qubit above a tile, and one pass for all those inside.
    """
    flip = 0
    for op in ops:
        if op.kind == "X":
            flip ^= 1 << (n - 1 - op.target)
            continue
        yield _prepare(op, n, flip)
        if op.kind == "H":
            flip &= ~(1 << (n - 1 - op.target))
    size = min(1 << n, _TILE)
    for q in range(n + 1 - size.bit_length()):
        if flip >> (n - 1 - q) & 1:
            yield _prepare(x(q), n)
    inner = flip & (size - 1)
    if inner:
        yield _prepare(x(n - inner.bit_length()), n, inner)


class _Helper:
    """A daemon thread that walks the second half of a pass's tiles.

    One caller at a time holds `busy`. It puts the walk in `job`, with a
    list for the walk's exception and a `done` lock of the pass's own, and
    releases `todo`; the thread runs the walk, then releases `busy`, so
    the caller finds it free on its next pass, and `done`. Being a daemon
    that waits only on these locks, the thread outlives no process and
    needs nothing from interpreter shutdown.
    """

    def __init__(self):
        self.busy = threading.Lock()
        self.todo = threading.Lock()
        self.todo.acquire()
        self.job = None
        threading.Thread(target=self._serve, name="qperc-tiles", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.todo.acquire()
            walk, errors, done = self.job
            self.job = None
            try:
                walk()
            except BaseException as error:
                errors.append(error)
            # Hold no view of the walked state between passes.
            walk = errors = None
            self.busy.release()
            done.release()

    def share(self, view: np.ndarray, tiles: Sequence[int], pairs: int, gate: _Gate) -> None:
        """Walk the second half of `tiles` on the helper, under the caller's
        contextvars context, and the first on the caller, who holds `busy`;
        return once both halves are done."""
        half = len(tiles) // 2
        errors, done = [], threading.Lock()
        done.acquire()
        run = contextvars.copy_context().run
        self.job = (partial(run, _walk, view, tiles[half:], pairs, gate), errors, done)
        self.todo.release()
        try:
            _walk(view, tiles[:half], pairs, gate)
        finally:
            done.acquire()
        if errors:
            raise errors[0]


def _drop_helper() -> None:
    """Forget the helper and its lock: a child made by fork has neither the
    thread nor, if another thread held the lock, the lock's owner."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _free_helper() -> _Helper | None:
    """The helper, made on first use, with its `busy` lock taken for one
    pass; None while another caller holds it, or when no thread can start
    (as once the interpreter is finalising)."""
    global _helper
    with _helper_lock:
        if _helper is None:
            try:
                _helper = _Helper()
            except RuntimeError:
                return None
        helper = _helper
    return helper if helper.busy.acquire(blocking=False) else None


def _apply_inplace(amps: np.ndarray, num_qubits: int, ops: Iterable[GateOp]) -> None:
    """Apply gates in order along the last axis of a C-contiguous state or block.

    Every op is checked against the register before any is applied, so an
    op out of range raises with the amplitudes unchanged. H, MCZ and MCX
    walk the amplitudes once each, as (zero, one) pairs of the pass's
    stride s: a tile is as many whole pairs as fill _TILE amplitudes, or,
    when one pair does not fit, a zero-half chunk of half a tile with its
    matching one-half chunk. An X costs no pass until the end of the call
    (see _passes): then one pass covers every pending qubit inside a tile,
    and one pass covers each pending qubit above a tile.

    A pass numbers the tiles it could touch (see _corner) and walks those
    it acts on: every tile for H, whose `fixed` is 0, as a range, and for
    X, MCZ and MCX a list of those whose start holds each control it fixes
    at its wanted bit. With _WALKERS at 2, two or more such tiles and the
    helper free, the helper thread walks the second half, under the
    caller's numpy settings, while the caller walks the first; the caller
    waits for it before the next pass starts, so gates keep their order.
    Another caller that finds the helper busy walks its pass alone.
    """
    ops = list(ops)
    for op in ops:
        _check_op(op, num_qubits)
    for gate in _passes(ops, num_qubits):
        view = amps.reshape(-1, 2, gate.s)
        pairs = max(1, _TILE // (2 * gate.s))
        tiles = range(-(-len(view) // pairs) * (gate.s // gate.width))
        if gate.fixed:
            tiles = [k for k in tiles if _start(k, pairs, gate) & gate.fixed == gate.want]
        helper = _free_helper() if _WALKERS > 1 and len(tiles) > 1 else None
        if helper is None:
            _walk(view, tiles, pairs, gate)
        else:
            helper.share(view, tiles, pairs, gate)


def _corner(k: int, pairs: int, gate: _Gate) -> tuple[int, int]:
    """Tile k's first pair and first column in the (-1, 2, s) view: tiles
    are numbered across a pair's chunks, then over blocks of `pairs` pairs."""
    block, chunk = divmod(k, gate.s // gate.width)
    return block * pairs, chunk * gate.width


def _start(k: int, pairs: int, gate: _Gate) -> int:
    """The offset of tile k's first amplitude."""
    p, c = _corner(k, pairs, gate)
    return 2 * gate.s * p + c


def _walk(view: np.ndarray, tiles: Sequence[int], pairs: int, gate: _Gate) -> None:
    """Apply `gate` to the listed tiles of `view`, shape (-1, 2, s)."""
    for k in tiles:
        p, c = _corner(k, pairs, gate)
        _apply_tile(view[p : p + pairs, :, c : c + gate.width], gate)


def _apply_tile(tile: np.ndarray, gate: _Gate) -> None:
    """Apply one pass to one (pairs, 2, width) tile that holds states it acts on.

    H alone works on the tile's zero and one halves: for a stride s of at
    most 4, the 1-D strided views tile[:, 0, j] and tile[:, 1, j], one pair
    per j, so numpy's inner loops run half the tile over s, not s
    amplitudes; else tile[:, 0] and tile[:, 1]. Its difference is half a
    tile, beside, when s > 4 and a tile holds several pairs, the three
    half-tile buffers numpy copies its in-place add through, as it cannot
    rule out overlap between the halves. On a flipped target it writes
    one - zero where it writes zero - one, and as IEEE addition commutes,
    the bytes are those of X then H.

    X, MCZ and MCX see a tile as a cube with one size-2 axis per qubit
    whose bit varies inside it (qubit 0 first, after one leading axis); the
    walk has already passed over the tiles where a control the tile's
    start fixes does not hold its wanted bit. MCZ negates its hit states in
    place, through numpy's two ufunc buffers of at most 8192 amplitudes
    each when the hit does not flatten to one stride; X and MCX copy their
    hit from the reversed source through at most a tile.
    """
    if gate.kind == "H":
        if gate.width <= 4:
            halves = [(tile[:, 0, j], tile[:, 1, j]) for j in range(gate.width)]
        else:
            halves = [(tile[:, 0], tile[:, 1])]
        for zero, one in halves:
            diff = one - zero if gate.flipped else zero - one
            zero += one
            one[...] = diff
        tile *= _INV_SQRT2
    else:
        cube = tile.reshape(gate.shape)
        if gate.kind == "MCZ":
            cube[gate.hit] *= -1.0
        else:
            cube[gate.hit] = cube[gate.source]


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """run_circuit of the one-gate Circuit [op]; the input state is untouched."""
    return run_circuit(Circuit(state.num_qubits, [op]), state)


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply every gate of `circuit` to `state`, in order."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit is on {circuit.num_qubits} qubits "
            f"but the state has {state.num_qubits}"
        )
    amps = state.amplitudes.copy()
    _apply_inplace(amps, circuit.num_qubits, circuit.ops)
    return StateVector(circuit.num_qubits, amps)


def prob_qubit_one(state: StateVector, qubit: int) -> float:
    """Probability that measuring `qubit` yields 1."""
    check_int("qubit", qubit, 0, state.num_qubits - 1)
    ones = state.amplitudes.reshape(1 << qubit, 2, -1)[:, 1, :]
    return float(np.sum(_squares(ones)))


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


def check_int(
    name: str, value: int, low: int | None = None, high: int | None = None
) -> None:
    """The one rule for an integer setting: raise ValueError, starting with
    `name`, unless `value` is a plain int (no bool, float or numpy int) in
    [low, high]. A bound left None is open; a `high` needs a `low`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")
    if low is not None and value < low:
        least = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {least}, got {value}")


def check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    """Raise ValueError, starting with `name`, unless `value` is one of `choices`."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_shots(shots: int) -> None:
    """Raise ValueError unless 1 <= shots <= MAX_SHOTS."""
    check_int("shots", shots, 1, MAX_SHOTS)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, a bijection of uint64 arrays (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(key: Sequence[int | np.ndarray], rows: int) -> np.ndarray:
    """One uniform in [0, 1) per row, hashed from the row's key words.

    A word is a non-negative int shared by every row or an unsigned integer
    array with one entry per row. Each word is folded in as its count of
    64-bit limbs and then its limbs, least significant first, so a word of
    any size (config.seed has no bound) gets a key of its own, and an array
    entry folds exactly like the int of the same value.
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
    probs: np.ndarray,
    shots: int,
    key: Sequence[int | np.ndarray],
    tables: dict[float, tuple[int, np.ndarray]] | None = None,
) -> np.ndarray:
    """The hit rate of one Binomial(shots, probs[r]) draw for every row r.

    Row r's draw is the inverse binomial CDF of one uniform hashed from its
    key words (see _uniforms), so it depends on its key and P only, never
    on the other rows of the call. One CDF table is built per distinct P,
    when a row first needs it, and kept in `tables` (P -> _binomial_cdf's
    table for these shots), so calls that pass one dict with the same
    shots build each table once. A P <= 0 reads 0 and a P >= 1 reads 1
    (summed squares can overshoot 1 by an ulp).
    """
    check_shots(shots)
    if tables is None:
        tables = {}
    u = _uniforms(key, len(probs))
    counts = np.where(probs >= 1.0, float(shots), 0.0)
    distinct, inverse = np.unique(probs, return_inverse=True)
    for j, p in enumerate(distinct.tolist()):
        if 0.0 < p < 1.0:
            rows = inverse == j
            if p not in tables:
                tables[p] = _binomial_cdf(shots, p)
            lo, cdf = tables[p]
            counts[rows] = lo + np.searchsorted(cdf, u[rows], side="right")
    return counts / shots
