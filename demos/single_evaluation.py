"""Evaluate one input pattern against one weight pattern.

Walks through the full pipeline for a single pair: draw the two patterns
(set bits are sign -1, shown filled), build the circuit, and compare the
state-vector probability against the closed-form value and a sampled
estimate.
"""

from qperc import (
    PerceptronConfig,
    assemble_perceptron_circuit,
    closed_form_probability,
    measure,
    pattern_grid,
    render_ascii,
)

N = 2
INPUT_VALUE = 12
WEIGHT = 8

print(f"n = {N} data qubits, patterns have {2**N} cells")
for label, value in (("input", INPUT_VALUE), ("weight", WEIGHT)):
    print(f"\n{label} {value} (filled cells carry sign -1):")
    print(render_ascii(pattern_grid(value, N)))

circuit = assemble_perceptron_circuit(INPUT_VALUE, WEIGHT, N)
kinds = [op.kind for op in circuit.ops]
print(
    f"\ncircuit: {circuit.num_qubits} qubits, {len(circuit.ops)} gates "
    f"({kinds.count('H')} H, {kinds.count('X')} X, "
    f"{kinds.count('MCZ')} MCZ, {kinds.count('MCX')} MCX)"
)

exact = measure(INPUT_VALUE, WEIGHT, PerceptronConfig(n=N))
reference = closed_form_probability(INPUT_VALUE, WEIGHT, N)
print(f"\nexact ancilla probability : {exact:.12g}")
print(f"closed-form reference     : {reference:.12g}")
print(f"difference                : {abs(exact - reference):.2e}")

for shots in (128, 2048, 32768):
    sampled = measure(
        INPUT_VALUE, WEIGHT, PerceptronConfig(n=N, mode="sampled", shots=shots, seed=1)
    )
    print(f"sampled with {shots:5d} shots  : {sampled:.6f}")

print("\nthe estimate tightens toward the exact value as shots grow")
