"""The benchmark's own oracle and the checks it runs on program outputs.

P(i, w) = ((m - 2 * popcount(i XOR w)) / m)^2 with m = 2^n, computed here
from that formula alone; nothing is taken from qperc. Each check returns
(attempted, failed): one operation per dataset row, sweep cell, training
step or circuit, and every operation that disagrees with the oracle fails.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

PROB_TOL = 1e-9
# A correct sampler trips the sweep band with probability below this,
# summed over every cell of one benchmark run.
SAMPLER_FALSE_ALARM = 1e-6


def oracle_p(i: int, w: int, n: int) -> float:
    m = 1 << n
    d = (i ^ w).bit_count()
    return ((m - 2 * d) / m) ** 2


def oracle_label(i: int, w: int, n: int) -> int:
    return 1 if oracle_p(i, w, n) >= 0.5 else 0


def complement(w: int, n: int) -> int:
    return w ^ ((1 << (1 << n)) - 1)


def dataset_csv(weight: int, n: int) -> str:
    """The exact-mode dataset for `weight`, rows as `value,label,probability`."""
    lines = ["value,label,probability"]
    for v in range(1 << (1 << n)):
        p = oracle_p(v, weight, n)
        lines.append(f"{v},{oracle_label(v, weight, n)},{format(p, '.12g')}")
    return "\n".join(lines) + "\n"


def dataset_meta(weight: int, n: int) -> str:
    meta = {"mode": "exact", "n": n, "optimal_weight": weight, "seed": 0, "shots": 8192}
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"


def check_dataset(csv_text: str, weight: int, n: int) -> tuple[int, int]:
    """Every row: value in order, probability within PROB_TOL, label by 0.5."""
    rows = 1 << (1 << n)
    lines = csv_text.splitlines()
    body = lines[1:] if lines and lines[0] == "value,label,probability" else lines
    failed = rows - min(len(body), rows)
    for index, line in enumerate(body[:rows]):
        try:
            value, label, prob = line.split(",")
            value, label, prob = int(value), int(label), float(prob)
        except ValueError:
            failed += 1
            continue
        if (
            value != index
            or abs(prob - oracle_p(index, weight, n)) > PROB_TOL
            or label != oracle_label(index, weight, n)
        ):
            failed += 1
    return rows, failed


@lru_cache(maxsize=None)
def _log_pmf_table(shots: int, p: float) -> tuple[float, ...]:
    lp, lq = math.log(p), math.log1p(-p)
    base = math.lgamma(shots + 1)
    return tuple(
        base - math.lgamma(k + 1) - math.lgamma(shots - k + 1) + k * lp + (shots - k) * lq
        for k in range(shots + 1)
    )


@lru_cache(maxsize=None)
def binomial_band(shots: int, p: float, alpha: float) -> tuple[int, int]:
    """Hit counts [lo, hi] that Binomial(shots, p) leaves with prob < alpha."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return shots, shots
    pmf = [math.exp(x) for x in _log_pmf_table(shots, p)]
    lo, tail = 0, 0.0
    while tail + pmf[lo] < alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = shots, 0.0
    while tail + pmf[hi] < alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def check_sweep_sampled(
    csv_text: str, n: int, shots: int, cells_per_run: int
) -> tuple[int, int]:
    """Every cell a whole number of hits inside its binomial band."""
    size = 1 << (1 << n)
    alpha = SAMPLER_FALSE_ALARM / cells_per_run
    lines = csv_text.splitlines()
    cells = size * size
    if not lines or lines[0] != "," + ",".join(str(w) for w in range(size)):
        return cells, cells
    failed = 0
    body = lines[1:]
    failed += size * max(0, size - len(body))
    for i, line in enumerate(body[:size]):
        fields = line.split(",")
        if len(fields) != size + 1 or fields[0] != str(i):
            failed += size
            continue
        for w, text in enumerate(fields[1:]):
            try:
                hits = float(text) * shots
            except ValueError:
                failed += 1
                continue
            lo, hi = binomial_band(shots, oracle_p(i, w, n), alpha)
            k = round(hits)
            if abs(hits - k) > 1e-6 or not lo <= k <= hi:
                failed += 1
    return cells, failed


def check_trace(
    trace_text: str, weight: int, n: int, labels: list[int]
) -> tuple[int, int, dict]:
    """Every training step against the oracle, plus the weight's path.

    A step fails when its p1 is off by more than PROB_TOL, its prediction
    or label disagrees, its flips do not turn weight_before into
    weight_after, or it does not start from the previous step's weight.
    Once the weight reaches `weight` or its complement, which classify
    every example correctly, any further update is a failure.
    """
    settled = {weight, complement(weight, n)}
    attempted = failed = updates = 0
    prev_after = None
    reached = False
    final = None
    pairs = []
    for line in trace_text.splitlines():
        if not line.strip():
            continue
        attempted += 1
        try:
            s = json.loads(line)
            before, after = s["weight_before"], s["weight_after"]
            flipped = sum(1 << b for b in s["flipped_positions"])
            ok = (
                abs(s["p1"] - oracle_p(s["example_value"], before, n)) <= PROB_TOL
                and s["predicted"] == (1 if s["p1"] >= 0.5 else 0)
                and s["actual"] == labels[s["example_value"]]
                and before ^ flipped == after
                and (s["action"] == "none") == (flipped == 0)
                and (prev_after is None or before == prev_after)
                and not (reached and after != before)
            )
        except (ValueError, KeyError, TypeError, IndexError):
            failed += 1
            continue
        if not ok:
            failed += 1
        pairs.append((s["example_value"], before))
        updates += s["action"] != "none"
        reached = reached or after in settled
        prev_after = final = after
    facts = {"updates": updates, "final_weight": final, "settled": reached, "pairs": pairs}
    return attempted, failed, facts


def check_circuit(record: dict) -> tuple[int, int]:
    """The mirror must bring the register back to |0...0> within PROB_TOL."""
    ok = abs(record.get("p_zero", 0.0) - 1.0) <= PROB_TOL and abs(
        record.get("norm", 0.0) - 1.0
    ) <= PROB_TOL
    return 1, 0 if ok else 1


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""
