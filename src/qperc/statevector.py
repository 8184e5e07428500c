"""Dense state-vector simulation for small qubit registers.

Amplitude indexing is MSB-first: qubit 0 owns the most significant bit of
the basis index, so an n-qubit register stores |b0 b1 ... b_{n-1}> at index
b0 * 2^(n-1) + b1 * 2^(n-2) + ... + b_{n-1}. The gate set is H, X, MCZ
(multi-controlled Z, symmetric in its qubits) and MCX (multi-controlled X).
All four are self-inverse and norm-preserving. Every gate kernel acts on
the last axis, so on a block of states, one per row, each row gets the
arithmetic `run_circuit` gives a single state.

The kernels work in place on reshaped views of the amplitudes and cache
no arrays. They walk the state in tiles of 2^17 amplitudes. A gate whose
(zero, one) pairs fit in a tile is tile-local, as every MCZ is; each run
of consecutive tile-local gates streams the state once, applying every
gate of the run to a tile before the next, and an H or MCX on a qubit
above a tile walks the state alone. MCZ is diagonal: it negates the
states where all its qubits are 1, in place, and neither reads nor
writes a tile that holds none of them. An X costs no pass until the end
of the call: it is kept as a pending bit flip that the next H, MCZ or
MCX on its qubit reads through, with the same bytes as X then that
gate. At the end, one tile-local pass covers every pending qubit inside
a tile, and one pass covers each pending qubit above a tile.
`run_circuit` copies its input into place in its first walk, not in a
walk of its own. A walk of two or more tiles splits them between two
walkers, the calling thread and one daemon helper thread, which is made
the first time such a walk runs (a state of 18 or more qubits), serves
one caller at a time and is dropped in a child made by fork; tiles are
disjoint and each gets the same arithmetic, so the bytes do not depend
on the split. A gate's scratch memory is bounded by the tile, whatever
the register size: per walker, one tile for X and MCX, two for H and
none for MCZ, so at most about 4 MB of float64 (8 MB of complex128)
against 128 MB of real state at the cap. MCZ's is only the ufunc
buffers, of 256 elements while the kernels walk, that numpy runs a hit
through when it does not flatten to one stride.

The gate set is real, so a state that starts real stays real: real
amplitudes are held as float64 and complex ones as complex128, and the
kernels run unchanged on either. Registers are capped at 24 qubits
(`rules.MAX_QUBITS`), 128 MB of float64 (256 MB of complex128), which is as
far as this simulator goes. `sample_qubit` draws through `sampling`.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .rules import MAX_QUBITS, check_int
from .sampling import sample_rates

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Amplitudes per tile in _apply_inplace, a power of two: 1 MB of float64
# or 2 MB of complex128. A float64 tile stays in a 2 MB L2 while a run of
# gates works on it; at 20 qubits only qubits 0-2 lie above a tile.
_TILE = 1 << 17

# Elements per numpy ufunc buffer while _apply_inplace walks. numpy copies
# an in-place ufunc on a strided half or hit through buffers; at its
# default of 8192 elements a float64 buffer is 64 KB, more than an L1
# cache holds, and at 256 it is 2 KB. MCZ's scratch shrinks to match.
_BUFSIZE = 256

# Threads that share a walk's tiles: the caller, and one helper when this
# process may run on a second CPU. The helper is made on first use.
_WALKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_helper = None
_helper_lock = threading.Lock()


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
        check_int("num_qubits", self.num_qubits, 1)
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
    """A daemon thread that walks the second half of a walk's tiles.

    One caller at a time holds `busy`. It puts the walk in `job`, with a
    list for the walk's exception and a `done` lock of the walk's own, and
    releases `todo`; the thread runs the walk, then releases `busy`, so
    the caller finds it free on its next walk, and `done`. Being a daemon
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
            # Hold no view of the walked state between walks.
            walk = errors = None
            self.busy.release()
            done.release()

    def share(self, walk: Callable[[Sequence[int]], None], tiles: Sequence[int]) -> None:
        """Run `walk` on the second half of `tiles` on the helper, under the
        caller's contextvars context, and on the first on the caller, who
        holds `busy`; return once both halves are done."""
        half = len(tiles) // 2
        errors, done = [], threading.Lock()
        done.acquire()
        run = contextvars.copy_context().run
        self.job = (partial(run, walk, tiles[half:]), errors, done)
        self.todo.release()
        try:
            walk(tiles[:half])
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
    walk; None while another caller holds it, or when no thread can start
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


def _apply_inplace(
    amps: np.ndarray,
    num_qubits: int,
    ops: Iterable[GateOp],
    source: np.ndarray | None = None,
) -> None:
    """Apply gates in order along the last axis of a C-contiguous state or block.

    Every op is checked against the register before any is applied, so an
    op out of range raises with the amplitudes unchanged. A pass is
    tile-local when a (zero, one) pair of its stride s fits in a tile
    (width == s): every MCZ, and every H or MCX whose target lies inside a
    tile. Each run of consecutive tile-local passes walks the amplitudes
    once, in contiguous chunks of _TILE, and applies each pass of the run
    to a chunk, in order, unless the chunk's start (its first amplitude's
    offset) fails a control the pass fixes. Any other pass walks alone, as
    zero-half chunks of half a tile, each with its matching one-half
    chunk. X's cost no pass until the end of the call (see _passes).

    With a `source`, the amplitudes are first set to it, as by np.copyto:
    the first run copies each source chunk into place just before it
    applies its passes, so the state streams once for both; when the
    first pass is not tile-local, one np.copyto comes first.

    A walk skips the tiles where none of its passes acts, unless it
    copies. With _WALKERS at 2, two or more tiles and the helper free, the
    helper thread walks the second half, under the caller's numpy
    settings, while the caller walks the first; the caller waits for it
    before the next walk starts, so gates keep their order. Another caller
    that finds the helper busy walks alone. Walks run with numpy's ufunc
    buffers at _BUFSIZE elements, and the caller's buffer size is restored
    on return.
    """
    ops = list(ops)
    for op in ops:
        _check_op(op, num_qubits)
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        for run in _runs(_passes(ops, num_qubits)):
            gate = run[0]
            if gate.width == gate.s:
                flat = amps.reshape(-1)
                tiles = range(-(-len(flat) // _TILE))
                if source is None:
                    tiles = [k for k in tiles if any(k * _TILE & g.fixed == g.want for g in run)]
                else:
                    source = source.reshape(-1)
                walk = partial(_walk_run, flat, source, run)
            else:
                if source is not None:
                    np.copyto(amps, source)
                view = amps.reshape(-1, 2, gate.s)
                chunks = gate.s // gate.width
                tiles = range(len(view) * chunks)
                if gate.fixed:
                    # Tile k is chunk k % chunks of pair k // chunks.
                    tiles = [
                        k
                        for k in tiles
                        if (2 * gate.s * (k // chunks) + gate.width * (k % chunks)) & gate.fixed
                        == gate.want
                    ]
                walk = partial(_walk_pass, view, gate)
            source = None
            helper = _free_helper() if _WALKERS > 1 and len(tiles) > 1 else None
            if helper is None:
                walk(tiles)
            else:
                helper.share(walk, tiles)
        if source is not None:
            np.copyto(amps, source)
    finally:
        np.setbufsize(bufsize)


def _runs(gates: Iterable[_Gate]) -> Iterable[list[_Gate]]:
    """Group passes in order: each run of consecutive tile-local passes
    (width == s) as one list, and each other pass as a list of its own."""
    run = []
    for gate in gates:
        if gate.width == gate.s:
            run.append(gate)
            continue
        if run:
            yield run
            run = []
        yield [gate]
    if run:
        yield run


def _walk_run(
    flat: np.ndarray, source: np.ndarray | None, run: list[_Gate], chunks: Sequence[int]
) -> None:
    """Copy each listed _TILE-amplitude chunk of `flat` from the flat
    `source`, if given, then apply each pass of `run` that acts on it, in
    order."""
    for k in chunks:
        start = k * _TILE
        chunk = flat[start : start + _TILE]
        if source is not None:
            chunk[...] = source[start : start + _TILE]
        for gate in run:
            if start & gate.fixed == gate.want:
                _apply_tile(chunk.reshape(-1, 2, gate.s), gate)


def _walk_pass(view: np.ndarray, gate: _Gate, tiles: Sequence[int]) -> None:
    """Apply `gate` to the listed (1, 2, width) tiles of `view`, shape (-1, 2, s)."""
    for k in tiles:
        p, c = divmod(k, gate.s // gate.width)
        c *= gate.width
        _apply_tile(view[p : p + 1, :, c : c + gate.width], gate)


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
    walk does not apply the pass to a tile where a control the tile's
    start fixes does not hold its wanted bit. MCZ negates its hit states in
    place, through numpy's two ufunc buffers of _BUFSIZE amplitudes each
    when the hit does not flatten to one stride; X and MCX copy their hit
    from the reversed source through at most a tile.
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
    amps = np.empty_like(state.amplitudes)
    _apply_inplace(amps, circuit.num_qubits, circuit.ops, source=state.amplitudes)
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

    `seed` is the draw's key, a non-negative int or a sequence of them; see
    sampling.sample_rates. The same state, qubit, shots and seed give the same
    estimate on any platform.
    """
    key = list(seed) if isinstance(seed, Sequence) else [seed]
    for word in key:
        check_int("seed", word, 0)
    return float(sample_rates(np.array([prob_qubit_one(state, qubit)]), shots, key)[0])

