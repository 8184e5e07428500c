import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare

from qperc import statevector
from qperc.rules import MAX_SHOTS
from qperc.sampling import _binomial_cdf, _mix64, _uniforms, sample_rates
from qperc.statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply_gate,
    h,
    mcx,
    mcz,
    new_zero_state,
    prob_qubit_one,
    run_circuit,
    sample_qubit,
    x,
)
from qperc.statevector import _apply_inplace

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Room for the Python objects a gate makes, beside its tiles of scratch.
SLACK_BYTES = 2**14


# A real state is held as float64, a complex one as complex128.
EITHER_DTYPE = pytest.mark.parametrize(
    "dtype", [np.float64, np.complex128], ids=["float64", "complex128"]
)


def walkers_scratch(tiles, amps):
    """The scratch bound of a pass: per walker, `tiles` tiles of amplitudes
    of `amps`'s dtype and SLACK_BYTES, for each of statevector._WALKERS."""
    tile = statevector._TILE * amps.itemsize
    return statevector._WALKERS * (tiles * tile + SLACK_BYTES)


def random_state(num_qubits, seed, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits)
    if dtype == np.complex128:
        amps = amps + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(num_qubits, amps)


def random_gate(num_qubits, rng):
    kind = rng.choice(["H", "X", "MCZ", "MCX"])
    if kind == "H":
        return h(int(rng.integers(num_qubits)))
    if kind == "X":
        return x(int(rng.integers(num_qubits)))
    qubits = list(rng.permutation(num_qubits))
    count = int(rng.integers(1, num_qubits))
    if kind == "MCZ":
        return mcz(qubits[:count])
    return mcx(qubits[:count], qubits[count])


def test_zero_state():
    state = new_zero_state(2)
    np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])
    assert state.num_qubits == 2
    assert state.amplitudes.dtype == np.float64


@pytest.mark.parametrize(
    "amps, dtype",
    [
        ([1, 0], np.float64),
        ([True, False], np.float64),
        ([1.0, 0.0], np.float64),
        (np.array([1, 0], dtype=np.int8), np.float64),
        (np.array([True, False]), np.float64),
        (np.array([1, 0], dtype=np.float32), np.float64),
        (np.array([1, 0], dtype=np.complex64), np.complex128),
        (np.array([1, 0], dtype=np.complex128), np.complex128),
        ([1 + 0j, 0], np.complex128),
    ],
    ids=repr,
)
def test_statevector_holds_real_amplitudes_as_float64(amps, dtype):
    # np.result_type(amps, np.float64): real input becomes float64, complex
    # input complex128
    state = StateVector(1, amps)
    assert state.amplitudes.dtype == dtype
    assert state.amplitudes.tolist() == [1, 0]


@EITHER_DTYPE
def test_gates_keep_the_state_dtype(dtype):
    state = StateVector(2, np.array([1, 0, 0, 0], dtype=dtype))
    circuit = Circuit(2, [h(0), x(1), mcz([0, 1]), mcx([0], 1), h(1)])
    assert apply_gate(state, h(0)).amplitudes.dtype == dtype
    assert run_circuit(circuit, state).amplitudes.dtype == dtype


@pytest.mark.parametrize("bad", [0, -1, 25])
def test_zero_state_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        new_zero_state(bad)


def test_hadamard_on_single_qubit():
    state = apply_gate(new_zero_state(1), h(0))
    np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_x_flips_most_significant_bit():
    # qubit 0 owns the top bit of the basis index
    state = apply_gate(new_zero_state(3), x(0))
    expected = np.zeros(8)
    expected[4] = 1
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_x_flips_least_significant_bit():
    state = apply_gate(new_zero_state(3), x(2))
    expected = np.zeros(8)
    expected[1] = 1
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_mcz_on_uniform_two_qubit_state():
    circuit = Circuit(2, [h(0), h(1), mcz([0, 1])])
    state = run_circuit(circuit, new_zero_state(2))
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5])


@pytest.mark.parametrize(
    "basis_in,basis_out",
    [(0, 0), (1, 1), (2, 3), (3, 2)],
)
def test_mcx_as_cnot_truth_table(basis_in, basis_out):
    amps = np.zeros(4)
    amps[basis_in] = 1
    state = apply_gate(StateVector(2, amps), mcx([0], 1))
    expected = np.zeros(4)
    expected[basis_out] = 1
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_mcx_requires_every_control_set():
    # |011> on 3 qubits: qubit 0 is clear, so mcx({0,1}, 2) must do nothing
    amps = np.zeros(8)
    amps[3] = 1
    state = apply_gate(StateVector(3, amps), mcx([0, 1], 2))
    np.testing.assert_array_equal(state.amplitudes, amps)


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("H", target=0, controls=frozenset({1}))
    with pytest.raises(ValueError):
        GateOp("MCZ", target=0, controls=frozenset({1}))
    with pytest.raises(ValueError):
        GateOp("MCZ")
    with pytest.raises(ValueError):
        GateOp("MCX", target=1, controls=frozenset({1}))
    with pytest.raises(ValueError):
        GateOp("MCX", target=1)
    with pytest.raises(ValueError):
        GateOp("Z", target=0)
    with pytest.raises(ValueError):
        GateOp("X", target=-1)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(2, [x(2)])
    with pytest.raises(ValueError):
        Circuit(0, [])


def test_apply_gate_rejects_out_of_range_qubit():
    with pytest.raises(ValueError):
        apply_gate(new_zero_state(2), h(2))


@pytest.mark.parametrize(
    "n, op, message",
    [
        (3, mcz([0, 4]), "MCZ gate touches qubit 4 but the register has 3 qubits"),
        (2, h(5), "H gate touches qubit 5 but the register has 2 qubits"),
    ],
    ids=["mcz-past-register", "h-past-register"],
)
def test_run_circuit_checks_ops_appended_after_construction(n, op, message):
    # Circuit checks its ops once, at construction; ops is a plain list
    circuit = Circuit(n, [h(0)])
    circuit.ops.append(op)
    with pytest.raises(ValueError, match=message):
        run_circuit(circuit, new_zero_state(n))


def test_an_out_of_range_op_changes_no_amplitude():
    # Every op is checked before any is applied, so the X and H before the
    # bad MCZ leave no trace, pending or applied.
    amps = random_state(3, seed=4).amplitudes
    before = amps.tobytes()
    with pytest.raises(ValueError, match="MCZ gate touches qubit 5"):
        _apply_inplace(amps, 3, [x(0), h(1), mcz([5])])
    assert amps.tobytes() == before


def test_run_circuit_register_size_mismatch():
    with pytest.raises(ValueError):
        run_circuit(Circuit(3, [h(0)]), new_zero_state(2))


def test_apply_gate_leaves_input_untouched():
    state = new_zero_state(2)
    before = state.amplitudes.copy()
    apply_gate(state, h(0))
    np.testing.assert_array_equal(state.amplitudes, before)


def test_statevector_shape_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))


@pytest.mark.parametrize(
    "op",
    [h(1), x(2), mcz([0, 2]), mcz([1]), mcx([0, 1], 3), mcx([3], 0)],
)
def test_gates_are_self_inverse(op):
    state = random_state(4, seed=11)
    twice = apply_gate(apply_gate(state, op), op)
    np.testing.assert_allclose(
        twice.amplitudes, state.amplitudes, atol=1e-12, rtol=0
    )


def test_mcz_is_diagonal():
    # magnitudes untouched, sign flipped exactly where both qubits are 1
    state = random_state(3, seed=5)
    out = apply_gate(state, mcz([0, 2]))
    np.testing.assert_allclose(
        np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-15
    )
    for k in range(8):
        sign = -1 if (k & 0b101) == 0b101 else 1
        assert out.amplitudes[k] == sign * state.amplitudes[k]


def test_norm_preserved_over_random_circuits():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 7))
        state = random_state(num_qubits, seed=seed + 100)
        amps_norm = state.norm_squared()
        assert abs(amps_norm - 1.0) < 1e-12
        for _ in range(100):
            state = apply_gate(state, random_gate(num_qubits, rng))
        assert abs(state.norm_squared() - 1.0) < 1e-9


def test_prob_qubit_one_on_basis_state():
    amps = np.zeros(4)
    amps[2] = 1  # |10>
    state = StateVector(2, amps)
    assert prob_qubit_one(state, 0) == 1.0
    assert prob_qubit_one(state, 1) == 0.0


def test_prob_qubit_one_after_hadamard():
    state = apply_gate(new_zero_state(1), h(0))
    assert abs(prob_qubit_one(state, 0) - 0.5) < 1e-12


def test_prob_qubit_one_rejects_bad_qubit():
    with pytest.raises(ValueError):
        prob_qubit_one(new_zero_state(2), 2)
    with pytest.raises(ValueError):
        prob_qubit_one(new_zero_state(2), -1)


def test_sample_qubit_trivial_probabilities():
    zero = new_zero_state(1)
    one = apply_gate(zero, x(0))
    for seed in (0, 1, 12345):
        assert sample_qubit(zero, 0, 100, seed) == 0.0
        assert sample_qubit(one, 0, 100, seed) == 1.0


def test_sample_qubit_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_qubit(new_zero_state(1), 0, 0, seed=1)


def test_sample_qubit_reproducible():
    state = apply_gate(new_zero_state(1), h(0))
    first = sample_qubit(state, 0, 4096, seed=7)
    second = sample_qubit(state, 0, 4096, seed=7)
    assert first == second
    others = {sample_qubit(state, 0, 4096, seed=s) for s in range(10)}
    assert len(others) > 1


def test_sample_qubit_statistical_accuracy():
    # p = 0.5 with 1e5 shots: off by more than 0.01 is a 6 sigma event
    state = apply_gate(new_zero_state(1), h(0))
    within = sum(
        abs(sample_qubit(state, 0, 100_000, seed) - 0.5) <= 0.01
        for seed in range(100)
    )
    assert within >= 99


def test_sample_qubit_rejects_shots_above_the_cap():
    state = apply_gate(new_zero_state(1), h(0))
    for shots in (MAX_SHOTS + 1, 1 << 63):
        with pytest.raises(ValueError, match="shots must be between 1 and"):
            sample_qubit(state, 0, shots, 0)
    assert 0.49 < sample_qubit(state, 0, MAX_SHOTS, 0) < 0.51


def test_sample_qubit_seed_limbs_beyond_64_bits():
    state = apply_gate(new_zero_state(1), h(0))
    draws = [sample_qubit(state, 0, 8192, seed) for seed in (0, 1 << 64, [0, 0])]
    assert len(set(draws)) == 3
    with pytest.raises(ValueError, match="non-negative"):
        sample_qubit(state, 0, 8192, [1, -1])


def test_mix64_is_the_splitmix64_finaliser():
    # The first three SplitMix64 outputs from seed 0 (Steele, Lea and Flood).
    gamma = 0x9E3779B97F4A7C15
    states = np.array([gamma * k % (1 << 64) for k in (1, 2, 3)], dtype=np.uint64)
    assert _mix64(states).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


@pytest.mark.parametrize(
    "key, uniform",
    [
        ([0], "0x1.7906ac21d0e58p-2"),
        ([1 << 64], "0x1.ef7186a178a00p-10"),
        ([7, 3, 77], "0x1.48776328e3ee0p-1"),
        ([12345, 0, 255, 1], "0x1.7b846b70ea5bap-2"),
    ],
)
def test_uniforms_are_pinned(key, uniform):
    assert _uniforms(key, 1).tolist() == [float.fromhex(uniform)]


def test_uniforms_fold_an_array_word_like_the_int_it_holds():
    rows = np.array([0, 3, 1 << 40], dtype=np.uint64)
    batched = _uniforms([7, rows, 77, 2], 3).tolist()
    assert batched == [_uniforms([7, int(r), 77, 2], 1)[0] for r in rows.tolist()]


@pytest.mark.parametrize("shots", [1, 2, 100, 8192, 10**5, 1 << 20])
@pytest.mark.parametrize(
    "p", [1e-30, 1e-6, 0.015625, 0.24999999999999983, 0.5, 0.765625, 1 - 1e-9]
)
def test_binomial_table_matches_scipy(shots, p):
    lo, cdf = _binomial_cdf(shots, p)
    hi = lo + len(cdf) - 1
    assert 0 <= lo <= hi <= shots
    assert cdf[-1] == 1.0
    assert np.max(np.abs(cdf - binom.cdf(np.arange(lo, hi + 1), shots, p))) < 1e-12
    assert binom.cdf(lo - 1, shots, p) + binom.sf(hi, shots, p) < 2.0**-60


def test_widest_binomial_table_stays_under_40_mb():
    tracemalloc.start()
    try:
        lo, cdf = _binomial_cdf(MAX_SHOTS, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cdf) == 655_441
    assert peak < 40 * 2**20


@st.composite
def _sample_rows(draw):
    size = draw(st.integers(1, 24))
    # a few distinct P, as in a circuit column, plus the certain ones
    ps = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)) + [0.0, 1.0]
    probs = [draw(st.sampled_from(ps)) for _ in range(size)]
    inputs = draw(st.lists(st.integers(0, 2**16), min_size=size, max_size=size))
    return probs, inputs


@settings(max_examples=100, deadline=None)
@given(_sample_rows(), st.integers(1, 10**6), st.randoms(use_true_random=False))
def test_sample_rates_row_depends_only_on_its_key_and_p(rows, shots, random):
    # any subset, order or chunking of the rows draws the same per row
    probs, inputs = rows

    def draw(picked):
        key = [5, np.array([inputs[r] for r in picked], dtype=np.uint64), 9]
        return sample_rates(np.array([probs[r] for r in picked]), shots, key).tolist()

    whole = draw(range(len(probs)))
    order = list(range(len(probs)))
    random.shuffle(order)
    cut = random.randint(0, len(order))
    for chunk in (order[:cut], order[cut:]):
        assert draw(chunk) == [whole[r] for r in chunk]
    for r, p in enumerate(probs):
        assert round(whole[r] * shots) / shots == whole[r]
        if p == 0.0 or p == 1.0:
            assert whole[r] == p


# Each setting draws from 65,536 keys [setting, row] fixed here. Its counts
# must fit Binomial(shots, P) with a chi-square p-value of at least 0.001,
# and their sample variance must be within 3% of shots * P * (1 - P),
# about 5.5 of its standard errors.
BINOMIAL_KEYS = 65_536


@pytest.mark.parametrize(
    "setting, shots, p",
    [(1, 16, 0.25), (2, 64, 0.140625), (3, 8192, 0.25), (4, 8192, 0.015625)],
)
def test_sample_rates_counts_are_binomial(setting, shots, p):
    rows = np.arange(BINOMIAL_KEYS, dtype=np.uint64)
    rates = sample_rates(np.full(BINOMIAL_KEYS, p), shots, [setting, rows])
    counts = np.rint(rates * shots).astype(np.int64)
    assert np.array_equal(counts / shots, rates)
    ratio = np.var(counts, ddof=1) / (shots * p * (1 - p))
    assert 0.97 <= ratio <= 1.03
    expected = BINOMIAL_KEYS * binom.pmf(np.arange(shots + 1), shots, p)
    # Pool adjacent counts, from 0 up, until each bin expects at least 5
    # draws; what is left over joins the last bin.
    starts, pooled = [0], 0.0
    for k, e in enumerate(expected):
        pooled += e
        if pooled >= 5.0:
            starts.append(k + 1)
            pooled = 0.0
    starts = starts[:-1]
    observed = np.add.reduceat(np.bincount(counts, minlength=shots + 1), starts)
    expected = np.add.reduceat(expected, starts)
    expected *= BINOMIAL_KEYS / expected.sum()
    assert chisquare(observed, expected).pvalue >= 1e-3


def test_kernels_need_at_most_one_state_sized_temporary():
    # 64 distinct MCZ and 64 distinct MCX gates: a kernel that kept an
    # index or sign array per gate would grow far past the bound. At 21
    # qubits the state is 32 tiles, so the passes are walked in halves, and
    # the walkers' scratch is under a quarter of the state, so a second
    # state-sized temporary cannot pass.
    n = 21
    rng = np.random.default_rng(0)
    mczs, mcxs = set(), set()

    def qubits(low):
        return [int(q) for q in rng.choice(n, int(rng.integers(low, 6)), replace=False)]

    while len(mczs) < 64:
        mczs.add(mcz(qubits(1)))
    while len(mcxs) < 64:
        target, *controls = qubits(2)
        mcxs.add(mcx(controls, target))
    ops = [h(q) for q in range(n)] + [x(q) for q in range(n)]
    circuit = Circuit(n, ops + sorted(mczs, key=repr) + sorted(mcxs, key=repr))
    state = new_zero_state(n)
    tracemalloc.start()
    try:
        run_circuit(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The returned copy of the state plus the scratch of one gate.
    assert state.amplitudes.dtype == np.float64
    assert len(state.amplitudes) > statevector._TILE
    assert walkers_scratch(2, state.amplitudes) < state.amplitudes.nbytes / 4
    bound = state.amplitudes.nbytes + walkers_scratch(2, state.amplitudes)
    assert peak <= bound


@pytest.mark.parametrize(
    "op",
    [
        h(0), h(20), h(19), h(11), x(0), x(20), x(19), x(11),
        # one qubit, and one control, at either end: the whole tile or
        # every other amplitude of it is hit
        mcz([0]), mcz([20]), mcx([0], 20), mcx([20], 0),
        mcz([1, 12, 19]), mcx([3, 15], 9),
        # X's pending at the end: one pass for each of 0 and 3, above a
        # tile, and one for 20, 16 and 12 together, inside one
        (x(0), x(3), x(20), x(16), x(12)),
    ],
    ids=repr,
)
@EITHER_DTYPE
def test_each_gate_needs_at_most_a_tile_or_two_of_scratch(op, dtype):
    n = 21
    ops = op if isinstance(op, tuple) else (op,)
    amps = random_state(n, seed=2, dtype=dtype).amplitudes
    assert amps.dtype == dtype
    # H's in-place add: when a tile holds several (zero, one) pairs of
    # stride above 4, numpy cannot rule out overlap between the halves and
    # copies through three half-tile buffers beside the half-tile
    # difference. MCZ negates its hit states in place, but numpy multiplies
    # a hit that does not flatten to one stride, as mcz([1, 12, 19])'s,
    # through two ufunc buffers of up to 8192 amplitudes: within a tile.
    tiles = {"H": 2, "MCZ": 0}.get(ops[0].kind, 1)
    if op == mcz([1, 12, 19]):
        tiles = 1
    bound = walkers_scratch(tiles, amps)
    assert bound < amps.nbytes / 4
    tracemalloc.start()
    try:
        _apply_inplace(amps, n, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def _reference_apply(block, n, op):
    """One gate by its defining arithmetic: XOR-mask index gathers for X and
    MCX, the hit columns of a copy multiplied by -1.0 for MCZ, paired sums
    for H."""
    index = np.arange(1 << n)

    def mask(qubits):
        return sum(1 << (n - 1 - q) for q in qubits)

    if op.kind == "X":
        return block[:, index ^ mask([op.target])]
    if op.kind == "MCX":
        hit = (index & mask(op.controls)) == mask(op.controls)
        return block[:, np.where(hit, index ^ mask([op.target]), index)]
    if op.kind == "MCZ":
        out = block.copy()
        out[:, (index & mask(op.controls)) == mask(op.controls)] *= -1.0
        return out
    out = block.copy()
    view = out.reshape(len(out), 1 << op.target, 2, -1)
    zero, one = view[:, :, 0, :], view[:, :, 1, :]
    diff = zero - one
    zero += one
    one[...] = diff
    out *= INV_SQRT2
    return out


@st.composite
def _gate_lists(draw, n):
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        qubits = draw(st.permutations(range(n)))
        kinds = ["H", "X", "MCZ", "MCX"] if n > 1 else ["H", "X", "MCZ"]
        kind = draw(st.sampled_from(kinds))
        if kind == "H":
            ops.append(h(qubits[0]))
        elif kind == "X":
            ops.append(x(qubits[0]))
        elif kind == "MCZ":
            ops.append(mcz(qubits[: draw(st.integers(1, n))]))
        else:
            count = draw(st.integers(1, n - 1))
            ops.append(mcx(qubits[:count], qubits[count]))
    return ops


def _assert_matches_reference(n, rows, ops, seed):
    # Entries from a small set, so exact and signed zeros are common.
    rng = np.random.default_rng(seed)
    parts = rng.choice([0.0, -0.0, 0.5, -0.5, 0.3], size=(2, rows, 1 << n))
    block = np.empty((rows, 1 << n), dtype=np.complex128)
    block.real, block.imag = parts
    expected = block.copy()
    for op in ops:
        expected = _reference_apply(expected, n, op)
    # gate by gate, and the gate list in one call
    one_call = block.copy()
    for op in ops:
        _apply_inplace(block, n, (op,))
    _apply_inplace(one_call, n, ops)
    assert block.tobytes() == expected.tobytes()
    assert one_call.tobytes() == expected.tobytes()


def _draw_case(data):
    n = data.draw(st.integers(1, 10), label="qubits")
    rows = data.draw(st.integers(1, 4), label="rows")
    ops = data.draw(_gate_lists(n), label="ops")
    return n, rows, ops, data.draw(st.integers(0, 2**32 - 1), label="seed")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_reference_bytes_property(data):
    _assert_matches_reference(*_draw_case(data))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_kernels_match_reference_bytes_across_tiles_property(monkeypatch, data):
    # 16-amplitude tiles: a state of 5 or more qubits, or a block of
    # several 4-qubit rows, spans many tiles, both runs of whole pairs and
    # split zero/one chunks, with controls inside a tile and fixed by its
    # offset.
    monkeypatch.setattr(statevector, "_TILE", 16)
    _assert_matches_reference(*_draw_case(data))


def _assert_real_matches_complex(n, rows, ops, seed):
    # The gate set is real: a real block run as float64 equals the real
    # part of the same block run as complex128, whose imaginary parts stay
    # zero, and the readouts square to the same bytes.
    rng = np.random.default_rng(seed)
    real = rng.choice([0.0, -0.0, 0.5, -0.5, 0.3], size=(rows, 1 << n))
    block = real.astype(np.complex128)
    _apply_inplace(real, n, ops)
    _apply_inplace(block, n, ops)
    assert real.dtype == np.float64
    assert np.array_equal(real, block.real)
    assert not block.imag.any()
    for real_row, complex_row in zip(real, block):
        held, run = StateVector(n, real_row), StateVector(n, complex_row)
        assert held.amplitudes.dtype == np.float64
        assert held.norm_squared().hex() == run.norm_squared().hex()
        for q in range(n):
            assert prob_qubit_one(held, q).hex() == prob_qubit_one(run, q).hex()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_state_matches_complex_state_property(data):
    _assert_real_matches_complex(*_draw_case(data))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_real_state_matches_complex_state_across_tiles_property(monkeypatch, data):
    monkeypatch.setattr(statevector, "_TILE", 16)
    _assert_real_matches_complex(*_draw_case(data))


@pytest.mark.parametrize("tile", [statevector._TILE, 16])
@pytest.mark.parametrize(
    "op",
    [mcz([0, 3]), mcz([4]), mcz(range(5)), mcx([0, 3], 1), mcx([4], 0), mcx([1], 4)],
    ids=repr,
)
def test_gates_leave_the_amplitudes_they_do_not_act_on_untouched(monkeypatch, tile, op):
    monkeypatch.setattr(statevector, "_TILE", tile)
    n = 5
    rng = np.random.default_rng(5)
    amps = np.empty(1 << n, dtype=np.complex128)
    amps.real, amps.imag = rng.choice([-0.0, -0.5, 0.5], size=(2, 1 << n))
    before = amps.copy()
    _apply_inplace(amps, n, (op,))
    control_mask = sum(1 << (n - 1 - q) for q in op.controls)
    alone = (np.arange(1 << n) & control_mask) != control_mask
    assert amps[alone].tobytes() == before[alone].tobytes()


def test_kernels_match_reference_bytes_at_20_qubits():
    ops = [
        # an X folded into an H above a tile, inside one, and at stride 2
        x(2), h(2), x(15), h(15), x(18), h(18),
        # flipped controls above a tile and inside one, and a flipped target
        x(1), mcz([1, 12]), mcx([1, 16], 7), x(16), mcz([16, 19]),
        x(7), mcx([3], 7),
        h(0), h(19), h(9), x(0), x(19), x(11),
        mcz([0]), mcz([19]), mcz([2, 9, 16]),
        mcx([0], 19), mcx([19], 0), mcx([1, 8, 13], 5), mcx([4, 17], 2),
        # stride 2 and 4
        h(18), h(17), x(18), x(17),
        # a run of tile-local gates between two that are not
        h(3), h(16), x(12), mcz([0, 7, 18]), mcx([2, 5], 14), h(6), x(19), x(1),
        # X's still pending at the end: 0, 3 and 4 above a tile, and 7, 9,
        # 11, 12, 13, 17, 18 and 19 inside one
        x(3), x(4), x(9), x(13), x(19),
    ]
    _assert_matches_reference(20, 1, ops, seed=20)


@pytest.mark.parametrize("tile", [statevector._TILE, 16])
def test_one_walker_gives_the_bytes_of_two(monkeypatch, tile):
    # Tiles are disjoint and each gets the same arithmetic, so how a
    # pass's tiles are split between walkers cannot change a byte.
    n = 18
    rng = np.random.default_rng(18)
    circuit = Circuit(n, [random_gate(n, rng) for _ in range(40 if tile > 16 else 12)])
    state = random_state(n, seed=18, dtype=np.float64)
    monkeypatch.setattr(statevector, "_TILE", tile)
    monkeypatch.setattr(statevector, "_WALKERS", 2)
    two = run_circuit(circuit, state).amplitudes
    monkeypatch.setattr(statevector, "_WALKERS", 1)
    one = run_circuit(circuit, state).amplitudes
    assert one.tobytes() == two.tobytes()


def test_the_helper_walks_under_the_callers_numpy_error_settings(monkeypatch):
    # H's sum overflows in all four tiles of h(0) at 18 qubits, two of
    # which the helper walks: the caller's errstate holds for them too.
    monkeypatch.setattr(statevector, "_WALKERS", 2)
    n = 18
    amps = np.full(1 << n, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            _apply_inplace(amps, n, [h(0)])
    assert np.isinf(amps[: 1 << (n - 1)]).all()
    amps = np.full(1 << n, 1e308)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _apply_inplace(amps, n, [h(0)])


@pytest.mark.parametrize("fails", [False, True])
def test_the_helper_holds_no_state_after_a_pass(monkeypatch, fails):
    # Once _apply_inplace returns, or raises from the helper's half, the
    # state it walked is free: the helper keeps no view of it, nor of an
    # exception's frames, until the next pass.
    monkeypatch.setattr(statevector, "_WALKERS", 2)
    n = 18
    amps = np.full(1 << n, 1e308 if fails else 1.0)
    with np.errstate(over="raise" if fails else "ignore"):
        try:
            _apply_inplace(amps, n, [h(0)])
        except FloatingPointError:
            assert fails
    assert statevector._helper is not None
    freed = weakref.ref(amps)
    del amps
    assert freed() is None


def test_threads_running_circuits_at_once_get_the_bytes_they_get_alone(monkeypatch):
    # Four callers on two CPUs, switching every microsecond: one at a time
    # shares a pass with the helper, and the others walk theirs alone.
    monkeypatch.setattr(statevector, "_WALKERS", 2)
    n = 17
    rng = np.random.default_rng(17)
    circuits = [Circuit(n, [random_gate(n, rng) for _ in range(24)]) for _ in range(4)]
    state = random_state(n, seed=17, dtype=np.float64)
    alone = [run_circuit(c, state).amplitudes.tobytes() for c in circuits]
    results = [None] * len(circuits)

    def run(k):
        results[k] = run_circuit(circuits[k], state).amplitudes.tobytes()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(circuits))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone


def test_a_circuit_still_running_at_interpreter_shutdown_finishes():
    # The main thread returns while a non-daemon thread runs its first
    # passes of several tiles, so the helper is made and used while the
    # interpreter is shutting down.
    n = 18
    ops = [h(q) for q in range(n)] + [mcx([0, 5], 17), x(3), mcz([2, 9]), h(0)]
    expected = run_circuit(Circuit(n, ops), new_zero_state(n)).amplitudes.tobytes()
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import hashlib, threading, time\n"
        "from qperc import statevector as sv\n"
        "sv._WALKERS = 2\n"
        f"n = {n}\n"
        "ops = [sv.h(q) for q in range(n)] + [sv.mcx([0, 5], 17), sv.x(3), sv.mcz([2, 9]), sv.h(0)]\n"
        "def run():\n"
        "    time.sleep(0.2)\n"
        "    state = sv.run_circuit(sv.Circuit(n, ops), sv.new_zero_state(n))\n"
        "    print(hashlib.sha256(state.amplitudes.tobytes()).hexdigest())\n"
        "threading.Thread(target=run).start()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == hashlib.sha256(expected).hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# Python 3.12 warns on a fork while a second thread exists, as here on purpose.
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_a_child_made_by_fork_walks_tiles_without_the_parents_helper(monkeypatch):
    # The helper thread does not exist in a child made by fork; a child
    # that kept the parent's helper would wait on it for ever.
    monkeypatch.setattr(statevector, "_WALKERS", 2)
    n = 18
    ops = [h(q) for q in range(n)] + [mcx([0, 5], 17), x(3), mcz([2, 9])]
    circuit = Circuit(n, ops)
    expected = run_circuit(circuit, new_zero_state(n)).amplitudes.tobytes()
    assert statevector._helper is not None
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = run_circuit(circuit, new_zero_state(n)).amplitudes.tobytes()
            code = 0 if got == expected else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its circuit in 10 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
