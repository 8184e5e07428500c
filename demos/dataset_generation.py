"""Generate a labeled dataset and inspect what gets labeled positive.

Every value in [0, 2^(2^n) - 1] is measured against a fixed optimal
weight; values whose ancilla probability reaches 0.5 are labeled 1. At
n = 2 only the weight itself and its bitwise complement clear the
threshold, so the dataset has exactly two positives out of sixteen rows.
"""

import tempfile
from pathlib import Path

from qperc import PerceptronConfig, generate_dataset, load_dataset, save_dataset

OPTIMAL_WEIGHT = 12

dataset = generate_dataset(OPTIMAL_WEIGHT, PerceptronConfig(n=2))
print(f"generated {len(dataset.examples)} rows against weight {OPTIMAL_WEIGHT}\n")

print("value  label  probability")
for ex in dataset.examples:
    marker = "  <-- positive" if ex.label else ""
    print(f"{ex.value:5d}  {ex.label:5d}  {ex.probability:11.6f}{marker}")

positives = [ex.value for ex in dataset.examples if ex.label == 1]
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
    print(f"reloaded {len(reloaded.examples)} rows, provenance mode={reloaded.config.mode!r}")
