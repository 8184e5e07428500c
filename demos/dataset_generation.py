"""Generate a labeled dataset and inspect what gets labeled positive.

Every value in [0, 2^(2^n) - 1] is measured against a fixed optimal
weight; values whose ancilla probability reaches 0.5 are labeled 1. At
n = 2 only the weight itself and its bitwise complement clear the
threshold, so the dataset has exactly two positives out of sixteen rows.
"""

import tempfile
from pathlib import Path

import numpy as np

from qperc import PerceptronConfig, generate_dataset, load_dataset, save_dataset

OPTIMAL_WEIGHT = 12

dataset = generate_dataset(OPTIMAL_WEIGHT, PerceptronConfig(n=2))
print(f"generated {len(dataset.labels)} rows against weight {OPTIMAL_WEIGHT}\n")

# Row k of the label and probability columns is the value k.
print("value  label  probability")
for value, (label, p) in enumerate(zip(dataset.labels, dataset.probabilities)):
    marker = "  <-- positive" if label else ""
    print(f"{value:5d}  {label:5d}  {p:11.6f}{marker}")

positives = [int(value) for value in np.flatnonzero(dataset.labels == 1)]
complement = OPTIMAL_WEIGHT ^ 15
print(f"\npositives: {positives}")
print(f"that is the weight ({OPTIMAL_WEIGHT}) and its complement ({complement})")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_data.csv"
    save_dataset(dataset, path)
    print(f"\nsaved to CSV + JSON sidecar; first rows of {path.name}:")
    for line in path.read_text().splitlines()[:4]:
        print(f"  {line}")
    reloaded = load_dataset(path)
    print(f"reloaded {len(reloaded.labels)} rows, provenance mode={reloaded.config.mode!r}")
