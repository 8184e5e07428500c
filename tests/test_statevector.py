import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qperc.statevector import (
    MAX_SHOTS,
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
    run_circuit_rows,
    sample_qubit,
    sample_rates,
    x,
)
from qperc.statevector import _binomial_cdf, _mix64, _uniforms

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
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
    assert state.amplitudes.dtype == np.complex128


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


def test_run_circuit_register_size_mismatch():
    with pytest.raises(ValueError):
        run_circuit(Circuit(3, [h(0)]), new_zero_state(2))


def test_run_circuit_rows_matches_run_circuit_row_by_row():
    rng = np.random.default_rng(3)
    circuit = Circuit(4, [random_gate(4, rng) for _ in range(60)])
    states = [random_state(4, seed=s) for s in range(5)]
    for rows in (1, 5):
        block = np.stack([s.amplitudes for s in states[:rows]])
        run_circuit_rows(circuit, block)
        for row, state in zip(block, states):
            assert np.array_equal(row, run_circuit(circuit, state).amplitudes)


@pytest.mark.parametrize(
    "block",
    [
        np.zeros(8, dtype=np.complex128),
        np.zeros((2, 4), dtype=np.complex128),
        np.zeros((2, 8)),
        np.zeros((8, 2), dtype=np.complex128).T,
    ],
)
def test_run_circuit_rows_rejects_bad_blocks(block):
    with pytest.raises(ValueError):
        run_circuit_rows(Circuit(3, [h(0)]), block)


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


def test_kernels_need_at_most_one_state_sized_temporary():
    # 64 distinct MCZ and 64 distinct MCX gates: a kernel that kept an
    # index or sign array per gate would grow far past the bound.
    n = 16
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
    # The returned copy of the state plus one same-size temporary.
    assert peak <= 3 * state.amplitudes.nbytes


def _reference_apply(block, n, op):
    """One gate by its defining arithmetic: XOR-mask index gathers for X and
    MCX, a +-1 sign-array multiply for MCZ, paired sums for H."""
    index = np.arange(1 << n)

    def mask(qubits):
        return sum(1 << (n - 1 - q) for q in qubits)

    if op.kind == "X":
        return block[:, index ^ mask([op.target])]
    if op.kind == "MCX":
        hit = (index & mask(op.controls)) == mask(op.controls)
        return block[:, np.where(hit, index ^ mask([op.target]), index)]
    if op.kind == "MCZ":
        hit = (index & mask(op.controls)) == mask(op.controls)
        return block * np.where(hit, -1.0, 1.0)
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_reference_bytes_property(data):
    n = data.draw(st.integers(1, 10), label="qubits")
    rows = data.draw(st.integers(1, 4), label="rows")
    ops = data.draw(_gate_lists(n), label="ops")
    # Entries from a small set, so exact and signed zeros are common.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = rng.choice([0.0, -0.0, 0.5, -0.5, 0.3], size=(2, rows, 1 << n))
    block = np.empty((rows, 1 << n), dtype=np.complex128)
    block.real, block.imag = parts
    expected = block.copy()
    for op in ops:
        expected = _reference_apply(expected, n, op)
    run_circuit_rows(Circuit(n, ops), block)
    assert block.tobytes() == expected.tobytes()
