"""Quantum perceptron simulator.

Binary patterns are encoded as +1/-1 sign vectors on the amplitudes of a
uniform superposition; the overlap between an input pattern and a weight
pattern is read off an ancilla qubit. The package covers single
evaluations (circuit and closed form), exhaustive probability sweeps,
labeled dataset generation, bit-flip training, and pattern rendering.
"""

from .dataset import (
    Dataset,
    DatasetFormatError,
    generate_dataset,
    label_from_probability,
    load_dataset,
    save_dataset,
)
from .perceptron import (
    DEFAULT_SHOTS,
    PerceptronConfig,
    assemble_perceptron_circuit,
    closed_form_probability,
    measure,
    measure_many,
)
from .render import PatternGrid, pattern_grid, render_ascii, render_pgm
from .rules import MAX_DATA_QUBITS, MAX_QUBITS, check_value
from .statevector import (
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
from .sweep import (
    MAX_SWEEP_QUBITS,
    SweepMatrix,
    compute_sweep,
    load_sweep_csv,
    save_sweep,
)
from .training import (
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

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Dataset",
    "DatasetFormatError",
    "DEFAULT_SHOTS",
    "GateOp",
    "MAX_DATA_QUBITS",
    "MAX_QUBITS",
    "MAX_SWEEP_QUBITS",
    "PatternGrid",
    "PerceptronConfig",
    "StateVector",
    "SweepMatrix",
    "TrainConfig",
    "TrainResult",
    "TrainStep",
    "apply_gate",
    "assemble_perceptron_circuit",
    "check_value",
    "closed_form_probability",
    "compute_sweep",
    "count_non_matching_bits",
    "flip_bits",
    "generate_dataset",
    "h",
    "init_weight",
    "label_from_probability",
    "load_dataset",
    "load_sweep_csv",
    "load_trace",
    "mcx",
    "mcz",
    "measure",
    "measure_many",
    "new_zero_state",
    "pattern_grid",
    "prob_qubit_one",
    "render_ascii",
    "render_pgm",
    "run_circuit",
    "sample_qubit",
    "save_dataset",
    "save_sweep",
    "save_trace",
    "trace_writer",
    "train",
    "x",
]
