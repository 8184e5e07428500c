"""The package's exports and the benchmark's per-layer spans all resolve, and
each rejecting message starts with the name of what it rejects."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import qperc
from qperc import (
    PerceptronConfig,
    TrainConfig,
    assemble_perceptron_circuit,
    closed_form_probability,
    count_non_matching_bits,
    generate_dataset,
    measure,
    measure_many,
    pattern_grid,
    train,
)
from qperc.perceptron import check_n
from qperc.statevector import Circuit, check_shots, new_zero_state

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    assert [name for name, count in Counter(qperc.__all__).items() if count > 1] == []
    for name in qperc.__all__:
        assert hasattr(qperc, name), name


def test_every_benchmark_span_resolves():
    # benchmarks/tracing.py wraps these functions; a deleted one would
    # silently drop its per-layer metric.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for module, attr in tracing.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


_N2 = PerceptronConfig(n=2)

# (parameter, call): the call rejects that parameter's value. The CLI and
# the dataset sidecar parser name the flag or field from the first word.
_REJECTIONS = [
    ("n", lambda: check_n(5)),
    ("shots", lambda: check_shots(0)),
    ("n", lambda: PerceptronConfig(n=0)),
    ("shots", lambda: PerceptronConfig(n=2, mode="sampled", shots=0)),
    ("mode", lambda: PerceptronConfig(n=2, mode="fast")),
    ("seed", lambda: PerceptronConfig(n=2, seed=-1)),
    ("learning_rate", lambda: TrainConfig(learning_rate=0)),
    ("max_epochs", lambda: TrainConfig(max_epochs=0)),
    ("seed", lambda: TrainConfig(seed=-1)),
    ("convergence_mode", lambda: TrainConfig(convergence_mode="loose")),
    ("input_value", lambda: measure(16, 0, _N2)),
    ("weight", lambda: measure(0, 16, _N2)),
    ("weight", lambda: measure_many([0, 1], [1, 16], _N2)),
    ("input_value", lambda: closed_form_probability(-1, 0, 2)),
    ("weight", lambda: closed_form_probability(0, 1.5, 2)),
    ("input_value", lambda: assemble_perceptron_circuit(16, 0, 2)),
    ("weight", lambda: assemble_perceptron_circuit(0, 16, 2)),
    ("optimal_weight", lambda: train(generate_dataset(12, _N2), 16, TrainConfig())),
    ("value", lambda: pattern_grid(16, 2)),
    ("n", lambda: pattern_grid(0, 5)),
    ("weight", lambda: count_non_matching_bits(16, 0, 4)),
    ("value", lambda: count_non_matching_bits(0, 16, 4)),
    ("m", lambda: count_non_matching_bits(0, 0, 5)),
    ("n", lambda: PerceptronConfig(n=True)),
    ("shots", lambda: PerceptronConfig(n=2, mode="sampled", shots=64.0)),
    ("seed", lambda: PerceptronConfig(n=2, seed=1.5)),
    ("seed", lambda: TrainConfig(seed=1.5)),
    ("seed", lambda: TrainConfig(seed=True)),
    ("max_epochs", lambda: TrainConfig(max_epochs=2.5)),
    ("n", lambda: check_n(2.0)),
    ("num_qubits", lambda: new_zero_state(2.0)),
    ("num_qubits", lambda: Circuit(2.0, [])),
    ("rows", lambda: pattern_grid(5, 2, 2.0, 2.0)),
]


@pytest.mark.parametrize("parameter, call", _REJECTIONS)
def test_a_rejecting_message_starts_with_its_parameter_name(parameter, call):
    with pytest.raises(ValueError) as exc:
        call()
    names = (parameter + " ", parameter.replace("_", " ") + " ")
    assert str(exc.value).startswith(names)
