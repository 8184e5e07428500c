import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from qperc import (
    Dataset,
    TrainConfig,
    count_non_matching_bits,
    generate_dataset,
    load_dataset,
    pattern_grid,
    perceptron,
    save_dataset,
    statevector,
    train,
)
from qperc.perceptron import (
    BLOCK_ROWS,
    MODES,
    PerceptronConfig,
    assemble_perceptron_circuit,
    check_value,
    closed_form_probability,
    measure,
    measure_many,
)
from qperc.statevector import (
    Circuit,
    h,
    mcx,
    new_zero_state,
    prob_qubit_one,
    run_circuit,
    sample_qubit,
    x,
)


def _signs(value, n):
    """The paper's sign vector of value, MSB first: a set bit is -1."""
    m = 1 << n
    return [-1 if (value >> (m - 1 - j)) & 1 else 1 for j in range(m)]


def _h_layer(n):
    return [h(q) for q in range(n)]


def _prepared_state(value, n):
    """The data register after the H layer and value's sign flips."""
    ops = _h_layer(n) + perceptron._sign_flips(value, n)
    return run_circuit(Circuit(n, ops), new_zero_state(n))


def _assert_encodes(value, signs):
    """value's sign vector, and the signs of its prepared amplitudes, are signs."""
    assert tuple(_signs(value, 2)) == signs
    amplitudes = _prepared_state(value, 2).amplitudes
    np.testing.assert_array_equal(np.sign(amplitudes.real), signs)


def test_encode_value_reference_case():
    _assert_encodes(12, (-1, -1, 1, 1))


def test_encode_value_extremes():
    _assert_encodes(0, (1, 1, 1, 1))
    _assert_encodes(15, (-1, -1, -1, -1))


def test_encode_value_msb_first():
    # position 0 is the most significant bit and the basis state |0...0>;
    # 1 sets only the last (least significant) position
    _assert_encodes(1, (1, 1, 1, -1))
    _assert_encodes(8, (-1, 1, 1, 1))


def test_sign_oracle_empty_for_all_plus():
    assert perceptron._sign_flips(0, 2) == []


def test_sign_oracle_gate_budget():
    # at most m MCZ and 2*m*n X gates per oracle
    n, m = 2, 4
    for value in range(16):
        kinds = [op.kind for op in perceptron._sign_flips(value, n)]
        assert kinds.count("MCZ") == _signs(value, n).count(-1) <= m
        assert kinds.count("X") <= 2 * m * n
        assert set(kinds) <= {"MCZ", "X"}


def test_sign_oracle_gate_budget_n4():
    n, m = 4, 16
    for value in (0, 626, 64909, 65535):
        kinds = [op.kind for op in perceptron._sign_flips(value, n)]
        assert kinds.count("MCZ") == _signs(value, n).count(-1) <= m
        assert kinds.count("X") <= 2 * m * n
        assert set(kinds) <= {"MCZ", "X"}


@pytest.mark.parametrize("value", range(16))
def test_input_prep_amplitudes_are_scaled_signs(value):
    expected = np.array(_signs(value, 2)) / 2.0
    state = _prepared_state(value, 2)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_input_prep_amplitudes_n3():
    rng = np.random.default_rng(2)
    for value in rng.integers(0, 256, size=10):
        expected = np.array(_signs(int(value), 3)) / np.sqrt(8)
        state = _prepared_state(int(value), 3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def _prep_then_unprep(i, w, n):
    """The data register after i's preparation and w's unpreparation."""
    ops = (
        _h_layer(n)
        + perceptron._sign_flips(i, n)
        + perceptron._sign_flips(w, n)
        + _h_layer(n)
        + [x(q) for q in range(n)]
    )
    return run_circuit(Circuit(n, ops), new_zero_state(n))


@pytest.mark.parametrize("weight", range(16))
def test_weight_unprep_inverts_its_own_prep(weight):
    # preparing a weight then unpreparing it must land on |11...1>
    state = _prep_then_unprep(weight, weight, 2)
    assert abs(abs(state.amplitudes[3]) - 1.0) < 1e-12


def test_all_ones_amplitude_is_normalized_dot_product():
    for i in range(16):
        for w in range(16):
            state = _prep_then_unprep(i, w, 2)
            dot = sum(a * b for a, b in zip(_signs(i, 2), _signs(w, 2)))
            assert abs(abs(state.amplitudes[3]) - abs(dot) / 4) < 1e-12


def test_assembled_circuit_shape():
    circuit = assemble_perceptron_circuit(3, 9, 2)
    assert circuit.num_qubits == 3
    last = circuit.ops[-1]
    assert last.kind == "MCX"
    assert last.target == 2
    assert last.controls == frozenset({0, 1})


def test_assembled_circuit_is_prep_then_unprep_then_readout():
    for n in (1, 2, 3):
        size = 1 << (1 << n)
        for i, w in ((0, 0), (1, size - 1), (size // 3, size // 2)):
            expected = (
                _h_layer(n)
                + perceptron._sign_flips(i, n)
                + perceptron._sign_flips(w, n)
                + _h_layer(n)
                + [x(q) for q in range(n)]
                + [mcx(range(n), n)]
            )
            assert assemble_perceptron_circuit(i, w, n).ops == expected


def test_assembled_circuit_checks_both_values():
    cases = ((16, 0, "input value"), (-1, 0, "input value"), (0, 16, "weight"))
    for i, w, what in cases:
        with pytest.raises(ValueError, match=rf"{what} must be in \[0, 15\] for n=2"):
            assemble_perceptron_circuit(i, w, 2)


def test_gate_kind_totals_n4_weight_626():
    totals = Counter()
    for value in range(1 << 16):
        totals.update(op.kind for op in assemble_perceptron_circuit(value, 626, 4).ops)
    assert totals == {"H": 524_288, "X": 3_407_872, "MCZ": 851_968, "MCX": 65_536}
    assert sum(totals.values()) / (1 << 16) == 74.0


def _record_circuits_and_gates(monkeypatch):
    """Record every Circuit and gate kernel call, from a cold first call on."""
    calls = []

    def counting(*args):
        calls.append(args)

    monkeypatch.setattr(statevector.Circuit, "__post_init__", counting)
    monkeypatch.setattr(statevector, "_apply_inplace", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_builds_no_circuit_and_runs_no_gate(monkeypatch, n):
    calls = _record_circuits_and_gates(monkeypatch)
    size = 1 << (1 << n)
    for config in (PerceptronConfig(n=n), PerceptronConfig(n=n, mode="sampled")):
        measure(size - 1, size // 3, config)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_many_builds_no_circuit_and_runs_no_gate(monkeypatch, n):
    calls = _record_circuits_and_gates(monkeypatch)
    size = 1 << (1 << n)
    for config in (PerceptronConfig(n=n), PerceptronConfig(n=n, mode="sampled")):
        measure_many(range(size), size // 3, config)
    assert calls == []


def test_measure_checks_each_value_once(monkeypatch):
    calls = []

    def counting(value, n, what):
        calls.append(what)
        return check_value(value, n, what)

    monkeypatch.setattr(perceptron, "check_value", counting)
    measure(626, 12345, PerceptronConfig(n=4))
    assert calls == ["input value", "weight"]
    calls.clear()
    closed_form_probability(626, 12345, 4)
    assert calls == ["input value", "weight"]
    with pytest.raises(ValueError, match="input value"):
        measure(16, 0, PerceptronConfig(n=2))
    with pytest.raises(ValueError, match="weight"):
        measure(0, 16, PerceptronConfig(n=2))


@pytest.mark.parametrize("n", [-1, 0, 5])
def test_n_out_of_range_is_refused_before_any_value_check(n):
    message = f"n must be between 1 and 4, got {n}"
    for call in (
        lambda: PerceptronConfig(n=n),
        lambda: check_value(0, n, "weight"),
        lambda: closed_form_probability(0, 0, n),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_check_value_bounds_and_message():
    assert check_value(0, 2, "weight") == 4
    assert check_value(15, 2, "weight") == 4
    for bad in (-1, 16):
        with pytest.raises(ValueError, match=r"--input must be in \[0, 15\] for n=2"):
            check_value(bad, 2, "--input")


_ANY_INT = st.integers(-5, 1 << 17) | st.integers(-(1 << 70), 1 << 70)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(_ANY_INT, max_size=8))
@example(2, [5, -1, 1 << 63])  # numpy makes this list float64
def test_check_value_on_a_column_is_the_scalar_check_of_its_first_bad_value(n, values):
    m = 1 << n
    bad = [v for v in values if not 0 <= v < 1 << m]
    if not bad:
        assert check_value(values, n, "weight") == m
        return
    with pytest.raises(ValueError) as scalar:
        check_value(bad[0], n, "weight")
    with pytest.raises(ValueError) as column:
        check_value(values, n, "weight")
    assert str(column.value) == str(scalar.value)


def test_check_value_refuses_nan_alone_and_in_a_column():
    nan = float("nan")
    message = r"^weight must be in \[0, 15\] for n=2, got nan$"
    for value in (nan, [1, nan, 2], np.array([3.0, nan]), [2, nan, 1 << 70]):
        with pytest.raises(ValueError, match=message):
            check_value(value, 2, "weight")


@pytest.mark.parametrize("mode", MODES)
def test_measure_many_takes_a_generator_and_a_0d_weight(mode):
    config = PerceptronConfig(n=3, mode=mode, shots=64, seed=3)
    expected = measure_many(list(range(0, 256, 3)), 77, config, 2).tobytes()
    generated = (i for i in range(0, 256, 3))
    assert measure_many(generated, np.array(77), config, 2).tobytes() == expected


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 4))
    top = (1 << (1 << n)) - 1
    return n, draw(st.integers(0, top)), draw(st.integers(0, top))


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_measure_exact_equals_closed_form(pair):
    n, i, w = pair
    p = measure(i, w, PerceptronConfig(n=n))
    assert abs(p - closed_form_probability(i, w, n)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_exact_probability_depends_only_on_distance(pair):
    # every pair at Hamming distance d reads the same P as (0, 2^d - 1)
    n, i, w = pair
    config = PerceptronConfig(n=n)
    reference = measure(0, (1 << (i ^ w).bit_count()) - 1, config)
    assert abs(measure(i, w, config) - reference) < 1e-12


def test_closed_form_reference_values():
    assert closed_form_probability(0, 1, 2) == 0.25
    assert closed_form_probability(0, 3, 2) == 0.0
    assert closed_form_probability(0, 15, 2) == 1.0
    for value in (0, 5, 12, 15):
        assert closed_form_probability(value, value, 2) == 1.0


def test_closed_form_range_checks():
    with pytest.raises(ValueError):
        closed_form_probability(16, 0, 2)
    with pytest.raises(ValueError):
        closed_form_probability(0, -1, 2)


def test_closed_form_matches_hamming_identity():
    # the sign dot product is m - 2 * (bit differences)
    rng = np.random.default_rng(9)
    for _ in range(200):
        i = int(rng.integers(0, 65536))
        w = int(rng.integers(0, 65536))
        d = bin(i ^ w).count("1")
        expected = ((16 - 2 * d) / 16) ** 2
        assert abs(closed_form_probability(i, w, 4) - expected) < 1e-15


def _sign_dot_probability(i, w, n):
    """The paper's P = ((sum_j i_j * w_j) / m)^2 from the two sign vectors."""
    m = 1 << n
    dot = sum(a * b for a, b in zip(_signs(i, n), _signs(w, n)))
    return (dot * dot) / (m * m)


def test_closed_form_equals_the_sign_dot_product():
    for n in (1, 2, 3):
        size = 1 << (1 << n)
        for i in range(size):
            for w in range(size):
                expected = _sign_dot_probability(i, w, n)
                assert closed_form_probability(i, w, n) == expected
    rng = np.random.default_rng(4)
    for i, w in rng.integers(0, 1 << 16, size=(20_000, 2)).tolist():
        assert closed_form_probability(i, w, 4) == _sign_dot_probability(i, w, 4)


def test_measure_exact_matches_closed_form_exhaustively():
    config = PerceptronConfig(n=2)
    for i in range(16):
        for w in range(16):
            gap = abs(measure(i, w, config) - closed_form_probability(i, w, 2))
            assert gap < 1e-9


def test_measure_exact_self_match():
    config = PerceptronConfig(n=2)
    for value in range(16):
        assert abs(measure(value, value, config) - 1.0) < 1e-12


def test_measure_exact_complement_match():
    config = PerceptronConfig(n=2)
    for value in range(16):
        assert abs(measure(value, value ^ 15, config) - 1.0) < 1e-12


def test_measure_is_symmetric():
    config = PerceptronConfig(n=3)
    rng = np.random.default_rng(21)
    for _ in range(50):
        i = int(rng.integers(0, 256))
        w = int(rng.integers(0, 256))
        assert abs(measure(i, w, config) - measure(w, i, config)) < 1e-12


def test_measure_sampled_deterministic_and_bounded():
    config = PerceptronConfig(n=2, mode="sampled", shots=2048, seed=3)
    first = measure(0, 1, config)
    assert first == measure(0, 1, config)
    assert 0.0 <= first <= 1.0


def test_measure_sampled_certain_outcomes():
    config = PerceptronConfig(n=2, mode="sampled", shots=512, seed=0)
    assert measure(7, 7, config) == 1.0
    assert measure(0, 3, config) == 0.0


def test_sampled_noise_is_independent_across_pairs_with_equal_p():
    # n=3 against weight 77: 256 inputs share 5 true probabilities
    shots = 16
    config = PerceptronConfig(n=3, mode="sampled", shots=shots, seed=5)
    groups = defaultdict(list)
    for i in range(256):
        groups[closed_form_probability(i, 77, 3)].append(measure(i, 77, config))
    noisy = {p: estimates for p, estimates in groups.items() if 0.0 < p < 1.0}
    assert len(noisy) == 3
    for p, estimates in noisy.items():
        assert len(set(estimates)) > 1
        hits = sum(round(e * shots) for e in estimates)
        assert binomtest(hits, shots * len(estimates), p).pvalue > 0.001


def test_sampled_epochs_draw_fresh_noise_for_the_same_pairs():
    config = PerceptronConfig(n=3, mode="sampled", shots=8192, seed=5)
    exact = measure_many(range(256), 77, PerceptronConfig(n=3))
    noisy = (exact > 0.0) & (exact < 1.0)
    assert noisy.sum() > 100
    outside = measure_many(range(256), 77, config)
    assert measure_many(range(256), 77, config, 0).tolist() == outside.tolist()
    first, second = (measure_many(range(256), 77, config, e) for e in (1, 2))
    assert first.tolist() == measure_many(range(256), 77, config, 1).tolist()
    # Two independent draws at 8192 shots tie with probability below 0.05.
    assert np.mean(first[noisy] != second[noisy]) > 0.8
    assert np.mean(first[noisy] != outside[noisy]) > 0.8
    assert (first[~noisy] == second[~noisy]).all()


def test_sampled_epochs_draw_uncorrelated_noise_over_the_n4_dataset():
    # Keys and bound fixed before the first run: the 65,536 n=4 inputs
    # against weight 626 (the train-n4 dataset), seed 5, 8192 shots,
    # epochs 1 and 2. Over the 52,664 rows with 0 < P < 1, the Pearson
    # correlation of the two epochs' z-scores must be below 0.02 in size,
    # about 4.6 of its standard errors (1 / sqrt(52,664)).
    shots = 8192
    config = PerceptronConfig(n=4, mode="sampled", shots=shots, seed=5)
    inputs = np.arange(1 << 16)
    p = ((16 - 2.0 * np.bitwise_count(inputs ^ 626)) / 16) ** 2
    noisy = (p > 0.0) & (p < 1.0)
    assert noisy.sum() == 52_664
    p = p[noisy]
    z1, z2 = (
        (measure_many(inputs, 626, config, epoch)[noisy] * shots - shots * p)
        / np.sqrt(shots * p * (1 - p))
        for epoch in (1, 2)
    )
    assert abs(np.corrcoef(z1, z2)[0, 1]) < 0.02


def test_check_value_refuses_fractions_and_nested_columns():
    cases = (
        (1.5, "1.5"), ([1, 2.5], "2.5"), (np.array([3.0, 0.25]), "0.25"),
        ([2, float("inf")], "inf"), ([[1, 16]], "[[1, 16]]"), ([[1, 2]], "[[1, 2]]"),
    )
    for value, shown in cases:
        message = rf"^weight must be in \[0, 15\] for n=2, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            check_value(value, 2, "weight")
    config = PerceptronConfig(n=2)
    for call in (
        lambda: measure(1.5, 0, config),
        lambda: measure_many([[1, 2]], 0, config),
        lambda: closed_form_probability(1.5, 0, 2),
    ):
        with pytest.raises(ValueError, match=r"^input value must be in \[0, 15\] for n=2, got "):
            call()


@pytest.mark.parametrize(
    "whole", [2.0, np.float64(2.0), np.int64(2)], ids=["float", "float64", "int64"]
)
def test_owners_of_a_whole_value_give_its_int_result(whole, tmp_path):
    # check_value admits any whole number; each owner computes on its int.
    assert closed_form_probability(whole, 0, 2) == closed_form_probability(2, 0, 2)
    assert closed_form_probability(0, whole, 2) == closed_form_probability(0, 2, 2)
    assert assemble_perceptron_circuit(whole, whole, 2) == (
        assemble_perceptron_circuit(2, 2, 2)
    )
    grid = pattern_grid(whole, 2)
    assert grid == pattern_grid(2, 2)
    assert {type(bit) for row in grid.cells for bit in row} == {int}
    assert type(grid.value) is int
    assert count_non_matching_bits(whole, 0, 4) == 1
    assert count_non_matching_bits(0, whole, 4) == 1
    dataset = generate_dataset(12, PerceptronConfig(n=2))
    config = TrainConfig(seed=5)  # functional: the complement of 12 is a target
    assert train(dataset, whole * 6, config) == train(dataset, 12, config)
    # Both ways to make a dataset save its weight as the int load_dataset reads.
    config = PerceptronConfig(n=2)
    column = measure_many(range(16), 2, config)
    for i, dataset in enumerate(
        [generate_dataset(whole, config), Dataset(config, whole, column)]
    ):
        path = tmp_path / f"{i}.csv"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert type(loaded.optimal_weight) is int and loaded.optimal_weight == 2


def test_config_validation():
    with pytest.raises(ValueError):
        PerceptronConfig(n=0)
    with pytest.raises(ValueError):
        PerceptronConfig(n=5)
    with pytest.raises(ValueError):
        PerceptronConfig(n=2, mode="fast")
    with pytest.raises(ValueError):
        PerceptronConfig(n=2, mode="sampled", shots=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        PerceptronConfig(n=2, seed=-1)


def _reference_state(i, w, n):
    """The final state of the gate-by-gate circuit for one pair."""
    return run_circuit(assemble_perceptron_circuit(i, w, n), new_zero_state(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_measure_many_equals_gate_reference_for_every_input(n):
    size = 1 << (1 << n)
    config = PerceptronConfig(n=n)
    for w in (0, 1, size // 3, size - 1):
        expected = [prob_qubit_one(_reference_state(i, w, n), n) for i in range(size)]
        assert measure_many(range(size), w, config).tolist() == expected


def test_measure_many_n4_rows_across_a_block_boundary():
    config = PerceptronConfig(n=4)
    for w in (626, 64909):
        probs = measure_many(range(1 << 16), w, config)
        assert probs.shape == (1 << 16,)
        for i in (0, BLOCK_ROWS - 1, BLOCK_ROWS, (1 << 16) - 1):
            assert probs[i] == prob_qubit_one(_reference_state(i, w, 4), 4)


def test_measure_many_n4_first_block_equals_gate_reference_bytes():
    # n=4 rows are the first whose bits tell the H kernel's add-then-scale
    # from other orders; the workflow's exhaustive step checks every row.
    probs = measure_many(range(BLOCK_ROWS), 0, PerceptronConfig(n=4))
    expected = [prob_qubit_one(_reference_state(i, 0, 4), 4) for i in range(BLOCK_ROWS)]
    assert probs.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_exact_column_is_the_weight_0_column_xor_permuted(n):
    # the input and weight sign rows multiply to the sign row of i ^ w
    # exactly, so no weight's column holds a value the weight-0 column lacks
    size = 1 << (1 << n)
    config = PerceptronConfig(n=n)
    base = measure_many(range(size), 0, config)
    weights = range(size) if n <= 3 else (0, 626, 65535, 12345)
    for w in weights:
        permuted = base[np.arange(size) ^ w]
        assert measure_many(range(size), w, config).tolist() == permuted.tolist()


def test_measure_many_sampled_rows_equal_sample_qubit_of_reference():
    config = PerceptronConfig(n=3, mode="sampled", shots=100, seed=7)
    probs = measure_many(range(256), 77, config)
    for i in range(256):
        state = _reference_state(i, 77, 3)
        assert probs[i] == sample_qubit(state, 3, 100, [7, i, 77])


def test_measure_many_checks_every_input():
    assert measure_many([], 3, PerceptronConfig(n=2)).shape == (0,)
    with pytest.raises(ValueError, match="input value must be in"):
        measure_many([0, 5, 16], 3, PerceptronConfig(n=2))


@st.composite
def _batches(draw):
    n = draw(st.integers(1, 4))
    top = (1 << (1 << n)) - 1
    inputs = draw(st.lists(st.integers(0, top), max_size=12))
    return n, inputs, draw(st.integers(0, top))


@settings(max_examples=100, deadline=None)
@given(_batches(), st.sampled_from(MODES))
def test_measure_many_rows_equal_the_gate_reference(batch, mode):
    # any inputs, repeats and order included: a row never sees its neighbours
    n, inputs, w = batch
    config = PerceptronConfig(n=n, mode=mode, shots=64, seed=3)
    probs = measure_many(inputs, w, config).tolist()
    assert len(probs) == len(inputs)
    for i, p in zip(inputs, probs):
        state = _reference_state(i, w, n)
        if mode == "exact":
            assert p == prob_qubit_one(state, n)
        else:
            assert p == sample_qubit(state, n, 64, [3, i, w])


@st.composite
def _weighted_batches(draw):
    n = draw(st.integers(1, 4))
    top = (1 << (1 << n)) - 1
    inputs = draw(st.lists(st.integers(0, top), max_size=12))
    weights = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    return n, inputs, weights


@settings(max_examples=60, deadline=None)
@given(_weighted_batches(), st.sampled_from(MODES), st.sampled_from([0, 2]))
def test_a_weight_per_input_equals_one_weight(batch, mode, epoch):
    n, inputs, weights = batch
    config = PerceptronConfig(n=n, mode=mode, shots=64, seed=3)
    w = weights[0]
    one = measure_many(inputs, w, config, epoch)
    assert measure_many(inputs, [w] * len(inputs), config, epoch).tobytes() == one.tobytes()


@settings(max_examples=60, deadline=None)
@given(_weighted_batches(), st.sampled_from(MODES), st.sampled_from([0, 2]))
def test_mixed_weights_equal_the_per_weight_calls_row_by_row(batch, mode, epoch):
    n, inputs, weights = batch
    config = PerceptronConfig(n=n, mode=mode, shots=64, seed=3)
    mixed = [weights[k % len(weights)] for k in range(len(inputs))]
    probs = measure_many(inputs, mixed, config, epoch).tolist()
    for i, w, p in zip(inputs, mixed, probs):
        assert p == measure_many([i], w, config, epoch)[0]


def test_mixed_weights_across_block_boundaries():
    # 3 * BLOCK_ROWS + 5 rows: every block carries several weights
    config = PerceptronConfig(n=4, mode="sampled", shots=100, seed=9)
    inputs = [(37 * k) % (1 << 16) for k in range(3 * BLOCK_ROWS + 5)]
    weights = [(626 + 1001 * k) % (1 << 16) for k in range(len(inputs))]
    probs = measure_many(inputs, weights, config, 2)
    for w in set(weights[BLOCK_ROWS - 3 : BLOCK_ROWS + 3]):
        rows = [k for k, wk in enumerate(weights) if wk == w]
        single = measure_many([inputs[k] for k in rows], w, config, 2)
        assert probs[rows].tolist() == single.tolist()


def test_measure_many_checks_the_weights():
    config = PerceptronConfig(n=2)
    with pytest.raises(ValueError, match="got 2 weights for 3 inputs"):
        measure_many([0, 1, 2], [3, 4], config)
    with pytest.raises(ValueError, match="got 1 weights for 0 inputs"):
        measure_many([], [3], config)
    for weights in ([1, 16, 2], [1, -1, 2], [1, 2, 1 << 70]):
        with pytest.raises(ValueError, match=r"^weight must be in \[0, 15\] for n=2, got "):
            measure_many([0, 1, 2], weights, config)
    with pytest.raises(ValueError, match=r"^weight must be in \[0, 15\] for n=2, got 16$"):
        measure_many([0, 1, 2], 16, config)
    with pytest.raises(ValueError, match=r"^input value must be in \[0, 15\] for n=2, got -5$"):
        measure_many([0, -5, 99], [1, 1, 1], config)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int32])
@pytest.mark.parametrize("mode", MODES)
def test_measure_many_takes_any_integer_type(dtype, mode):
    config = PerceptronConfig(n=3, mode=mode, shots=64, seed=3)
    inputs = list(range(0, 256, 5))
    weights = [(77 + 31 * k) % 256 for k in range(len(inputs))]
    typed = np.array(inputs, dtype=dtype)
    mixed = measure_many(inputs, weights, config, 2).tobytes()
    assert measure_many(typed, np.array(weights, dtype=dtype), config, 2).tobytes() == mixed
    one = measure_many(inputs, 77, config).tobytes()
    assert measure_many(typed, dtype(77), config).tobytes() == one


def test_the_readme_qubit_version_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = r"^\| (\d) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$"
    table = [[int(cell) for cell in cells] for cells in re.findall(row, readme, re.M)]
    assert [r[0] for r in table] == [1, 2, 3, 4]
    for n, qubits, m, gates, distinct, closed in table:
        assert (qubits, m) == (n + 1, 1 << n)
        if n <= 3:
            mean = np.mean([len(perceptron._sign_flips(v, n)) for v in range(1 << m)])
        else:  # bit j of a value is set in half of all 2^m values
            mean = sum(len(perceptron._sign_flips(1 << (m - 1 - j), n)) / 2 for j in range(m))
        assert mean == gates == (m + n * m) / 2
        probs = measure_many(range(1 << m), 0, PerceptronConfig(n=n))
        assert len(np.unique(probs)) == distinct
        by_distance = {closed_form_probability(0, (1 << d) - 1, n) for d in range(m + 1)}
        assert len(by_distance) == closed == m // 2 + 1
        assert len(set(format(p, ".12g") for p in probs.tolist())) == closed
