"""Every n=4 input against weight 0, byte for byte against its full circuit.

    python .github/scripts/exhaustive_readout.py

`measure_many` reads P off the readout's light cone, starting from a
float product rather than a gate-kernel state, so this compares all
65,536 rows with `run_circuit` of `assemble_perceptron_circuit`. Tier-1
checks that every exact column is the weight-0 column XOR-permuted, so
this covers every n=4 pair. Exits non-zero on the first row that differs.
"""

import sys

import numpy as np

from qperc.perceptron import PerceptronConfig, assemble_perceptron_circuit, measure_many
from qperc.statevector import new_zero_state, prob_qubit_one, run_circuit

probs = measure_many(np.arange(1 << 16), 0, PerceptronConfig(n=4))
for v in range(1 << 16):
    state = run_circuit(assemble_perceptron_circuit(v, 0, 4), new_zero_state(5))
    expected = np.float64(prob_qubit_one(state, 4))
    if probs[v].tobytes() != expected.tobytes():
        sys.exit(f"input {v}: measure_many gave {probs[v]!r}, its circuit {expected!r}")
print(f"{len(probs)} rows equal their circuits byte for byte")
