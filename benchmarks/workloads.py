"""The four workloads: inputs from the workload seed, one unit's command,
and the checks on that unit's outputs.

A unit is one fresh worker process: one `qperc` CLI invocation, or one
20-qubit circuit and its mirror. Inputs are built here, before any unit
is timed; the program only receives them as files and flags.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import oracle

# Units per run never exceed this; the sweep's false-alarm budget is
# spread over this many units' cells.
MAX_UNITS = 64


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


class Workload:
    name = ""

    def __init__(self, tiny: bool, seed: int, work: Path):
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self._gate_counts: dict = {}

    def command(self, k: int) -> tuple[str, list[str]]:
        """Worker mode and arguments of unit k."""
        raise NotImplementedError

    def check(self, k: int, record: dict, stdout: str) -> tuple[int, int, dict]:
        """(attempted, failed, facts) for unit k's outputs."""
        raise NotImplementedError

    def evals(self, k: int, facts: dict) -> int:
        raise NotImplementedError

    def gates(self, k: int, facts: dict, record: dict, perceptron) -> int:
        """Gate applications in unit k, from the circuits qperc assembles.

        Counted after the unit, outside its time; memoized per pair, so
        units that repeat the same pairs cost one assembly per pair.
        """
        return sum(
            self._gate_count(i, w, perceptron) for i, w in self.pairs(k, facts)
        )

    def pairs(self, k: int, facts: dict):
        raise NotImplementedError

    def _gate_count(self, i: int, w: int, perceptron) -> int:
        key = (i, w)
        count = self._gate_counts.get(key)
        if count is None:
            count = len(perceptron.assemble_perceptron_circuit(i, w, self.n).ops)
            self._gate_counts[key] = count
        return count


class GenData(Workload):
    """`qperc gen-data --n 4 --weight 626`: 65,536 evaluations, one CSV."""

    name = "gen-data-n4"

    def __init__(self, tiny, seed, work):
        super().__init__(tiny, seed, work)
        self.n, self.weight = (2, 12) if tiny else (4, 626)
        self.out = work / "data.csv"

    def command(self, k):
        return "cli", [
            "gen-data", "--n", str(self.n), "--weight", str(self.weight),
            "--out", str(self.out),
        ]

    def check(self, k, record, stdout):
        attempted, failed = oracle.check_dataset(
            oracle.read_text(self.out), self.weight, self.n
        )
        try:
            meta = json.loads(oracle.read_text(Path(str(self.out) + ".meta.json")))
            meta_ok = (meta["n"], meta["optimal_weight"], meta["mode"]) == (
                self.n, self.weight, "exact",
            )
        except (ValueError, KeyError, TypeError):
            meta_ok = False
        ones = sum(
            oracle.oracle_label(v, self.weight, self.n) for v in range(attempted)
        )
        expected = f"wrote {attempted} rows ({ones} labeled 1) to {self.out}"
        if not meta_ok or stdout.strip() != expected:
            failed = max(failed, 1)
        return attempted, failed, {"sha256": sha256(self.out), "labeled_1": ones}

    def evals(self, k, facts):
        return 1 << (1 << self.n)

    def pairs(self, k, facts):
        return ((v, self.weight) for v in range(1 << (1 << self.n)))


class SweepSampled(Workload):
    """`qperc sweep --n 3 --mode sampled --shots 8192`: 65,536 cells."""

    name = "sweep-n3-sampled"

    def __init__(self, tiny, seed, work):
        super().__init__(tiny, seed, work)
        self.n, self.shots = (2, 256) if tiny else (3, 8192)
        self.sampling_seed = self.rng.randrange(2**31)
        self.out = work / "sweep.csv"

    def command(self, k):
        return "cli", [
            "sweep", "--n", str(self.n), "--mode", "sampled",
            "--shots", str(self.shots), "--seed", str(self.sampling_seed),
            "--out", str(self.out),
        ]

    def check(self, k, record, stdout):
        size = 1 << (1 << self.n)
        attempted, failed = oracle.check_sweep_sampled(
            oracle.read_text(self.out), self.n, self.shots, size * size * MAX_UNITS
        )
        return attempted, failed, {"sha256": sha256(self.out)}

    def evals(self, k, facts):
        return (1 << (1 << self.n)) ** 2

    def pairs(self, k, facts):
        size = 1 << (1 << self.n)
        return ((i, w) for i in range(size) for w in range(size))


class Train(Workload):
    """`qperc train` on the n=4, weight-626 dataset, one epoch per seed.

    The convergence target passed is a weight orthogonal to the dataset's
    (`--convergence strict`), which training settles away from, so every
    invocation evaluates exactly one full epoch whatever its seed. The
    natural stopping rule makes the work per seed range from about 100 to
    66,000 evaluations, and no run length could average that out.
    """

    name = "train-n4"

    def __init__(self, tiny, seed, work):
        super().__init__(tiny, seed, work)
        self.n, self.weight = (2, 12) if tiny else (4, 626)
        m = 1 << self.n
        self.target = self.weight ^ ((1 << (m // 2)) - 1)
        self.rows = 1 << m
        self.data = work / "train.csv"
        self.data.write_text(oracle.dataset_csv(self.weight, self.n))
        Path(str(self.data) + ".meta.json").write_text(
            oracle.dataset_meta(self.weight, self.n)
        )
        self.labels = [oracle.oracle_label(v, self.weight, self.n) for v in range(self.rows)]
        self.train_seeds = [self.rng.randrange(2**31) for _ in range(MAX_UNITS)]

    def _trace(self, k):
        return self.work / f"trace-{k}.jsonl"

    def command(self, k):
        return "cli", [
            "train", "--data", str(self.data), "--seed", str(self.train_seeds[k]),
            "--max-epochs", "1", "--convergence", "strict",
            "--optimal-weight", str(self.target), "--trace-out", str(self._trace(k)),
        ]

    def check(self, k, record, stdout):
        text = oracle.read_text(self._trace(k))
        attempted, failed, facts = oracle.check_trace(
            text, self.weight, self.n, self.labels
        )
        printed = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(": ")
            printed[key] = value
        converged = printed.get("converged") == "True"
        final = printed.get("final weight")
        ok = printed.get("updates applied") == str(facts["updates"])
        if facts["final_weight"] is not None:
            ok = ok and final == str(facts["final_weight"])
        if converged:
            # Only the strict target stops training; at initialization
            # that leaves an empty trace.
            ok = ok and final == str(self.target)
        else:
            ok = ok and attempted == self.rows
        # The invocation itself is one operation when it evaluated nothing.
        attempted = max(attempted, 1)
        if not ok:
            failed = max(failed, 1)
        facts.update(
            sha256=sha256(self._trace(k)),
            seed=self.train_seeds[k],
            converged=converged,
            evals=len(facts["pairs"]),
        )
        return attempted, failed, facts

    def evals(self, k, facts):
        return facts["evals"]

    def pairs(self, k, facts):
        return facts["pairs"]


class Circuit20q(Workload):
    """A random H/X/MCZ/MCX circuit on 20 qubits, then its mirror.

    The seed picks qubits and order only. The mix is fixed so that every
    seed does the same work: H and X once on each qubit (H's cost depends
    on its qubit, and each X target caches one index array), and 35 MCZ
    and 35 MCX on 3 to 5 qubits each (their cost does not depend on which).
    """

    name = "circuit-20q"

    def __init__(self, tiny, seed, work):
        super().__init__(tiny, seed, work)
        self.qubits, multi = (6, 4) if tiny else (20, 35)
        rng = self.rng
        gates = [{"kind": "H", "target": q} for q in range(self.qubits)]
        gates += [{"kind": "X", "target": q} for q in range(self.qubits)]
        for _ in range(multi):
            gates.append({"kind": "MCZ", "controls": rng.sample(range(self.qubits), rng.randint(3, 5))})
            chosen = rng.sample(range(self.qubits), rng.randint(3, 5))
            gates.append({"kind": "MCX", "controls": chosen[1:], "target": chosen[0]})
        rng.shuffle(gates)
        self.gate_file = work / "gates.json"
        self.gate_file.write_text(json.dumps({"num_qubits": self.qubits, "gates": gates}))

    def command(self, k):
        return "circuit", ["--gates", str(self.gate_file)]

    def check(self, k, record, stdout):
        attempted, failed = oracle.check_circuit(record)
        return attempted, failed, {}

    def evals(self, k, facts):
        return 2

    def gates(self, k, facts, record, perceptron):
        return record.get("gates_applied", 0)


WORKLOADS = {w.name: w for w in (GenData, SweepSampled, Train, Circuit20q)}
