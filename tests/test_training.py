import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qperc.training as training
from qperc.dataset import Dataset, generate_dataset, label_from_probability
from qperc.perceptron import BLOCK_ROWS, PerceptronConfig, measure_many
from qperc.training import (
    TrainConfig,
    TrainResult,
    TrainStep,
    count_non_matching_bits,
    flip_bits,
    init_weight,
    load_trace,
    save_trace,
    trace_writer,
    train,
)

# first integers(0, 16) draw for these seeds, verified below in
# test_init_weight_matches_train_initialization:
#   seed 3  -> 12 (the optimal weight itself)
#   seed 38 -> 3  (its bitwise complement)
#   seed 7  -> 15
SEED_INIT_12 = 3
SEED_INIT_3 = 38
SEED_INIT_15 = 7


@pytest.fixture(scope="module")
def dataset12():
    return generate_dataset(12, PerceptronConfig(n=2))


def make_config(seed, lr=0.5, max_epochs=50, convergence="functional"):
    return TrainConfig(
        learning_rate=lr,
        max_epochs=max_epochs,
        seed=seed,
        convergence_mode=convergence,
    )


def test_init_weight_deterministic_and_in_range():
    for seed in range(50):
        first = init_weight(2, seed)
        assert first == init_weight(2, seed)
        assert 0 <= first < 16
    assert 0 <= init_weight(4, 0) < 65536


def test_init_weight_roughly_uniform():
    draws = np.array([init_weight(2, seed) for seed in range(10_000)])
    counts = np.bincount(draws, minlength=16)
    expected = 10_000 / 16
    sigma = math.sqrt(10_000 * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expected) <= 4 * sigma)


def test_init_weight_matches_train_initialization():
    assert init_weight(2, SEED_INIT_12) == 12
    assert init_weight(2, SEED_INIT_3) == 3
    assert init_weight(2, SEED_INIT_15) == 15


def test_count_non_matching_bits():
    assert count_non_matching_bits(12, 12, 4) == 0
    assert count_non_matching_bits(12, 3, 4) == 4
    assert count_non_matching_bits(0b1010, 0b1000, 4) == 1
    assert count_non_matching_bits(626, 626 ^ 5, 16) == 2


def test_count_non_matching_bits_range_checks():
    with pytest.raises(ValueError, match=r"^weight .* \[0, 15\] for n=2, got 16$"):
        count_non_matching_bits(16, 0, 4)
    with pytest.raises(ValueError, match=r"^value .* \[0, 15\] for n=2, got -1$"):
        count_non_matching_bits(0, -1, 4)


@pytest.mark.parametrize("m", [5, 32, 1, 0])
def test_count_non_matching_bits_takes_only_m_of_a_data_register(m):
    with pytest.raises(ValueError, match=rf"^m must be 2\^n for 1 <= n <= 4, got {m}$"):
        count_non_matching_bits(0, 0, m)


def test_flip_bits_full_rate_flips_everything():
    rng = np.random.default_rng(0)
    new, flipped = flip_bits(0b0000, [0, 1, 2, 3], 1.0, rng)
    assert new == 0b1111
    assert flipped == (0, 1, 2, 3)


def test_flip_bits_count_law():
    rng = np.random.default_rng(1)
    _, flipped = flip_bits(0, [0, 2, 5, 7, 9], 0.5, rng)
    assert len(flipped) == 2  # floor(0.5 * 5)
    _, flipped = flip_bits(0, [4], 0.1, rng)
    assert flipped == (4,)  # the max(1, ...) guard
    _, flipped = flip_bits(0, [1, 3, 6], 0.34, rng)
    assert len(flipped) == 1  # floor(1.02)


def test_flip_bits_subset_and_xor_consistency():
    rng = np.random.default_rng(2)
    candidates = [0, 3, 4, 6]
    for _ in range(20):
        new, flipped = flip_bits(0b1010101, candidates, 0.5, rng)
        assert set(flipped) <= set(candidates)
        mask = 0
        for p in flipped:
            mask |= 1 << p
        assert new == 0b1010101 ^ mask


def test_flip_bits_deterministic_given_seed():
    a = flip_bits(7, [0, 1, 2, 3, 4], 0.5, np.random.default_rng(42))
    b = flip_bits(7, [0, 1, 2, 3, 4], 0.5, np.random.default_rng(42))
    assert a == b


def test_flip_bits_rejects_empty_candidates():
    with pytest.raises(ValueError):
        flip_bits(0, [], 0.5, np.random.default_rng(0))


def test_flip_bits_rejects_repeated_candidates():
    # Bit 1 drawn twice would flip back: two flips reported, none made.
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^candidates must be distinct, got \[1, 1\]$"):
        flip_bits(0, [1, 1], 1.0, rng)
    assert rng.bit_generator.state == before


def test_train_converged_at_initialization(dataset12):
    result = train(dataset12, 12, make_config(SEED_INIT_12))
    assert result.converged
    assert result.final_weight == 12
    assert result.epochs_run == 0
    assert result.trace == []


def test_train_complement_counts_as_functional_convergence(dataset12):
    result = train(dataset12, 12, make_config(SEED_INIT_3))
    assert result.converged
    assert result.final_weight == 3
    assert result.epochs_run == 0


def test_train_strict_mode_rejects_complement(dataset12):
    # from weight 3 every prediction agrees with the w=12 labels, so no
    # update ever fires and strict convergence is unreachable
    result = train(dataset12, 12, make_config(SEED_INIT_3, max_epochs=5, convergence="strict"))
    assert not result.converged
    assert result.final_weight == 3
    assert result.epochs_run == 5
    assert all(step.action == "none" for step in result.trace)


def test_train_mismatch_with_no_candidates_is_recorded_as_none(dataset12):
    # weight 15 vs example 0: certain prediction of 1 against label 0, and
    # no matching bit positions exist to flip
    result = train(dataset12, 12, make_config(SEED_INIT_15, max_epochs=50))
    first = result.trace[0]
    assert first.example_value == 0
    assert first.predicted == 1
    assert first.actual == 0
    assert first.action == "none"
    assert first.flipped_positions == ()
    assert first.weight_before == 15
    assert first.weight_after == 15


def test_train_converges_across_seeds(dataset12):
    converged = sum(
        train(dataset12, 12, make_config(seed)).converged for seed in range(20)
    )
    assert converged == 20


def test_train_trace_is_reproducible(dataset12):
    first = train(dataset12, 12, make_config(9))
    second = train(dataset12, 12, make_config(9))
    assert first.converged == second.converged
    assert first.final_weight == second.final_weight
    assert first.epochs_run == second.epochs_run
    assert first.trace == second.trace


def test_trace_records_weight_transitions(dataset12):
    result = train(dataset12, 12, make_config(5))
    previous = None
    for step in result.trace:
        if previous is not None and previous.epoch == step.epoch:
            assert step.weight_before == previous.weight_after
        if step.action == "none":
            assert step.weight_before == step.weight_after
            assert step.flipped_positions == ()
        else:
            assert step.weight_before != step.weight_after
        previous = step


def test_trace_flip_count_law(dataset12):
    lr = 0.5
    checked = 0
    for seed in range(30):
        result = train(dataset12, 12, make_config(seed, lr=lr))
        for step in result.trace:
            d = count_non_matching_bits(step.weight_before, step.example_value, 4)
            if step.action == "flip_non_matching":
                candidates = d
            elif step.action == "flip_matching":
                candidates = 4 - d
            else:
                continue
            assert len(step.flipped_positions) == max(1, math.floor(lr * candidates))
            checked += 1
    assert checked > 0


def test_trace_hamming_monotonicity(dataset12):
    # pulls shrink the distance to the example by exactly the flip count,
    # pushes grow it by the same amount
    for seed in range(30):
        result = train(dataset12, 12, make_config(seed))
        for step in result.trace:
            before = count_non_matching_bits(step.weight_before, step.example_value, 4)
            after = count_non_matching_bits(step.weight_after, step.example_value, 4)
            k = len(step.flipped_positions)
            if step.action == "flip_non_matching":
                assert after == before - k
            elif step.action == "flip_matching":
                assert after == before + k


def test_trace_actions_match_prediction_agreement(dataset12):
    for seed in range(10):
        result = train(dataset12, 12, make_config(seed))
        for step in result.trace:
            if step.predicted == step.actual:
                assert step.action == "none"
            else:
                assert step.action in (
                    "flip_non_matching",
                    "flip_matching",
                ) or (step.action == "none" and step.flipped_positions == ())
            if step.action == "flip_non_matching":
                assert step.predicted == 0 and step.actual == 1
            if step.action == "flip_matching":
                assert step.predicted == 1 and step.actual == 0


def test_train_weights_stay_in_range(dataset12):
    for seed in range(10):
        result = train(dataset12, 12, make_config(seed))
        for step in result.trace:
            assert 0 <= step.weight_after < 16


def test_trace_round_trip(tmp_path, dataset12):
    result = train(dataset12, 12, make_config(5))
    path = tmp_path / "trace.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)
    assert loaded == result.trace


def test_trace_file_is_json_lines(tmp_path, dataset12):
    import json

    result = train(dataset12, 12, make_config(5))
    path = tmp_path / "trace.jsonl"
    save_trace(result.trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.trace)
    record = json.loads(lines[0])
    assert set(record) == {
        "epoch",
        "example_value",
        "p1",
        "predicted",
        "actual",
        "action",
        "flipped_positions",
        "weight_before",
        "weight_after",
    }



@pytest.mark.parametrize(
    "edit, field",
    [
        pytest.param(lambda r: r.pop("p1"), None, id="missing"),
        pytest.param(lambda r: r.update(extra=1), None, id="extra"),
        pytest.param(lambda r: r.clear(), None, id="empty"),
        pytest.param(lambda r: r.update(epoch=[1]), "epoch", id="epoch"),
        pytest.param(
            lambda r: r.update(example_value=3.0), "example_value", id="example_value"
        ),
        pytest.param(lambda r: r.update(p1="high"), "p1", id="p1"),
        pytest.param(lambda r: r.update(p1=True), "p1", id="p1_bool"),
        pytest.param(lambda r: r.update(predicted=None), "predicted", id="predicted"),
        pytest.param(lambda r: r.update(actual="x"), "actual", id="actual"),
        pytest.param(lambda r: r.update(action=None), "action", id="action"),
        pytest.param(lambda r: r.update(action="jump"), "action", id="action_unknown"),
        pytest.param(
            lambda r: r.update(flipped_positions=[True]),
            "flipped_positions",
            id="flipped_positions",
        ),
        pytest.param(
            lambda r: r.update(weight_before=False), "weight_before", id="weight_before"
        ),
        pytest.param(
            lambda r: r.update(weight_after={}), "weight_after", id="weight_after"
        ),
    ],
)
def test_load_trace_rejects_wrong_fields_naming_line(tmp_path, dataset12, edit, field):
    import json

    path = tmp_path / "trace.jsonl"
    save_trace(train(dataset12, 12, make_config(5)).trace, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2") as exc:
        load_trace(path)
    if field is not None:
        assert f"line 2: field {field!r}" in str(exc.value)


def test_load_trace_names_the_line_of_a_non_utf8_byte(tmp_path, dataset12):
    path = tmp_path / "trace.jsonl"
    save_trace(train(dataset12, 12, make_config(5)).trace, path)
    raw = path.read_bytes()
    offset = raw.index(b"\n") + 10  # inside line 2
    path.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1 :])
    with pytest.raises(ValueError) as exc:
        load_trace(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        f"{path}: line 2: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"in position {offset}: invalid start byte)"
    )


def test_load_trace_rejects_non_list_flipped_positions(tmp_path, dataset12):
    import json

    path = tmp_path / "trace.jsonl"
    save_trace(train(dataset12, 12, make_config(5)).trace, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["flipped_positions"] = 5
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3: field 'flipped_positions'"):
        load_trace(path)


@st.composite
def _steps(draw):
    """A step train could write: bits flip only on a miss, and only where
    weight_before ^ example_value equals actual (candidates at m = 16)."""
    p1 = draw(st.floats(0.0, 1.0))
    actual = draw(st.integers(0, 1))
    value, weight = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
    flipped = ()
    if label_from_probability(p1) != actual:
        mask = weight ^ value ^ (0 if actual else 0xFFFF)
        drawn = draw(st.sets(st.integers(0, 15)))
        flipped = tuple(sorted(p for p in drawn if mask >> p & 1))
    epoch = draw(st.integers(1, 1000))
    return TrainStep(epoch, value, p1, actual, flipped, weight)


def test_train_step_stores_six_fields_and_derives_three():
    names = [f.name for f in dataclasses.fields(TrainStep)]
    assert names == [
        "epoch", "example_value", "p1", "actual", "flipped_positions", "weight_before",
    ]
    hit = TrainStep(1, 3, 0.75, 1, (), 5)
    assert (hit.predicted, hit.action, hit.weight_after) == (1, "none", 5)
    pull = TrainStep(1, 3, 0.25, 1, (1, 2), 5)
    assert (pull.predicted, pull.action, pull.weight_after) == (
        0, "flip_non_matching", 3,
    )
    push = TrainStep(1, 3, 0.75, 0, (0, 3), 5)
    assert (push.predicted, push.action, push.weight_after) == (1, "flip_matching", 12)


@settings(max_examples=50, deadline=None)
@given(st.lists(_steps(), max_size=20))
def test_save_load_trace_round_trip_property(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(steps, path)
        assert load_trace(path) == steps


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(convergence_mode="loose")
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        TrainConfig(seed=-1)


def test_train_rejects_out_of_range_target(dataset12):
    with pytest.raises(ValueError):
        train(dataset12, 16, make_config(0))


def reference_train(dataset, optimal_weight, config):
    """The per-example loop: measure_many of one row per example, flip_bits on a miss."""
    m = 1 << dataset.config.n
    full_mask = (1 << m) - 1
    targets = {optimal_weight}
    if config.convergence_mode == "functional":
        targets.add(optimal_weight ^ full_mask)
    rng = np.random.default_rng(config.seed)
    weight = int(rng.integers(0, 1 << m))
    trace = []
    if weight in targets:
        return TrainResult(True, weight, 0, trace)
    updates = 0
    for epoch in range(1, config.max_epochs + 1):
        for value, label in enumerate(dataset.labels.tolist()):
            p1 = float(measure_many((value,), weight, dataset.config, epoch)[0])
            predicted = 1 if p1 >= 0.5 else 0
            before, action, flipped = weight, "none", ()
            if predicted != label:
                if predicted == 0:
                    mask, attempted = weight ^ value, "flip_non_matching"
                else:
                    mask, attempted = ~(weight ^ value) & full_mask, "flip_matching"
                candidates = [p for p in range(m) if mask >> p & 1]
                if candidates:
                    action = attempted
                    weight, flipped = flip_bits(
                        weight, candidates, config.learning_rate, rng
                    )
            step = TrainStep(epoch, value, p1, label, flipped, before)
            assert (step.predicted, step.action, step.weight_after) == (
                predicted, action, weight,
            )
            trace.append(step)
            if weight != before:
                updates += 1
                if weight in targets:
                    return TrainResult(True, weight, epoch, trace, updates)
    return TrainResult(False, weight, config.max_epochs, trace, updates)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_train_equals_per_example_reference_n2(dataset12, seed):
    config = make_config(seed)
    assert train(dataset12, 12, config) == reference_train(dataset12, 12, config)


@pytest.mark.parametrize(
    "measurement",
    [PerceptronConfig(n=3), PerceptronConfig(n=3, mode="sampled", shots=64, seed=5)],
    ids=["exact", "sampled"],
)
@pytest.mark.parametrize("convergence", ["functional", "strict"])
def test_train_equals_per_example_reference_n3(measurement, convergence):
    dataset = generate_dataset(77, measurement)
    for seed in (1, 2, 3):
        config = make_config(seed, max_epochs=5, convergence=convergence)
        result = train(dataset, 77, config)
        assert result == reference_train(dataset, 77, config)
        assert result.updates == sum(s.action != "none" for s in result.trace)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_train_equals_per_example_reference_property(data):
    n = data.draw(st.sampled_from([2, 3]), label="n")
    weight = data.draw(st.integers(0, (1 << (1 << n)) - 1), label="weight")
    if data.draw(st.booleans(), label="sampled"):
        seed = data.draw(st.integers(0, 2**32), label="dataset seed")
        measurement = PerceptronConfig(n=n, mode="sampled", shots=64, seed=seed)
    else:
        measurement = PerceptronConfig(n=n)
    config = TrainConfig(
        learning_rate=data.draw(st.floats(0, 1, exclude_min=True), label="lr"),
        max_epochs=data.draw(st.integers(1, 5), label="max_epochs"),
        seed=data.draw(st.integers(0, 2**32), label="seed"),
        convergence_mode=data.draw(st.sampled_from(["strict", "functional"])),
    )
    dataset = generate_dataset(weight, measurement)
    assert train(dataset, weight, config) == reference_train(dataset, weight, config)


def test_train_equals_reference_across_look_ahead_blocks(monkeypatch):
    # The first 8,192 n=4 examples, two strict epochs against a target the
    # run never reaches: the second epoch is one look-ahead chunk of 8,192
    # rows, which measure_many splits into BLOCK_ROWS blocks.
    full = generate_dataset(626, PerceptronConfig(n=4))
    dataset = Dataset(full.config, 626, full.probabilities[:8192])
    config = make_config(3, max_epochs=2, convergence="strict")
    chunks = []
    measure_many = training.measure_many

    def spy(inputs, weight, measurement, epoch):
        chunks.append(len(inputs))
        return measure_many(inputs, weight, measurement, epoch)

    monkeypatch.setattr(training, "measure_many", spy)
    result = train(dataset, 12345, config)
    assert chunks[0] == training.LOOKAHEAD_ROWS
    assert max(chunks) > BLOCK_ROWS
    assert result == reference_train(dataset, 12345, config)


def test_train_on_step_receives_the_trace(dataset12):
    config = make_config(5)
    steps = []
    streamed = train(dataset12, 12, config, steps.append)
    held = train(dataset12, 12, config)
    assert streamed.trace == []
    assert steps == held.trace
    assert (streamed.converged, streamed.final_weight, streamed.epochs_run) == (
        held.converged, held.final_weight, held.epochs_run,
    )
    assert streamed.updates == held.updates > 0


def test_trace_writer_writes_save_trace_bytes(tmp_path, dataset12):
    config = make_config(5)
    saved, streamed = tmp_path / "saved.jsonl", tmp_path / "streamed.jsonl"
    save_trace(train(dataset12, 12, config).trace, saved)
    with trace_writer(streamed) as write:
        train(dataset12, 12, config, write)
    assert streamed.read_bytes() == saved.read_bytes()


def test_trace_writer_leaves_no_file_when_the_block_raises(tmp_path, dataset12):
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError):
        with trace_writer(path) as write:
            for step in train(dataset12, 12, make_config(5)).trace:
                write(step)
            raise RuntimeError("stop")
    assert list(tmp_path.iterdir()) == []
