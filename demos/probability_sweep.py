"""Sweep every (input, weight) pair at n = 2 and chart the structure.

The 16 x 16 matrix of ancilla probabilities is 1.0 on the diagonal, where
input and weight coincide, and also on the anti-diagonal, where the weight
is the input's bitwise complement: flipping every bit negates the whole
sign vector, and the squared overlap cannot tell the two apart.
"""

from qperc import PerceptronConfig, compute_sweep

sweep = compute_sweep(PerceptronConfig(n=2))
print(f"sweep for n = {sweep.config.n}: {sweep.probs.shape[0]} x {sweep.probs.shape[1]} cells")
print(f"largest gap to the closed form: {sweep.max_abs_deviation:.2e}\n")

# at n = 2 the normalized dot product is 0, +-1/2, or +-1, so squared
# probabilities only take three values
SHADES = {0.0: "  ", 0.25: "::", 1.0: "@@"}

header = "    " + " ".join(f"{w:2d}" for w in range(16))
print(header)
for i in range(16):
    row = " ".join(SHADES.get(round(p, 4), "??") for p in sweep.probs[i])
    print(f"{i:2d} |{row}")

print("\n@@ marks probability 1.0: the main diagonal and the complement")
print("anti-diagonal both light up; everything else stays below 1.0")
