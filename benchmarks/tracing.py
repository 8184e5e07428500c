"""Spans around qperc's public functions, for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program. qperc's
modules import names directly (`from .perceptron import measure`), so a
function is bound in several namespaces; `Tracer.install` replaces every
binding under `qperc` that is the same object as a function named in
SPANS. Spans nest on a stack: a span's self time is its duration minus the
durations of the spans it directly encloses.

Everything is aggregated in memory (calls, sums, a 1%-wide latency
histogram for `measure`) and returned by `report()` at the end of the unit.
Time spent in the tracer's own bookkeeping hooks is taken off the clock.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import sys
from collections import Counter

SPANS = {
    ("qperc.cli", "cmd_simulate"): "cli.handler",
    ("qperc.cli", "cmd_sweep"): "cli.handler",
    ("qperc.cli", "cmd_gen_data"): "cli.handler",
    ("qperc.cli", "cmd_train"): "cli.handler",
    ("qperc.cli", "cmd_render"): "cli.handler",
    ("qperc.perceptron", "measure"): "perceptron.measure",
    ("qperc.perceptron", "assemble_perceptron_circuit"): "perceptron.assemble",
    ("qperc.statevector", "run_circuit"): "statevector.run_circuit",
    ("qperc.statevector", "prob_qubit_one"): "statevector.prob_qubit_one",
    ("qperc.statevector", "sample_qubit"): "statevector.sample_qubit",
    ("qperc.sweep", "compute_sweep"): "sweep.compute_sweep",
    ("qperc.sweep", "save_sweep"): "sweep.save_sweep",
    ("qperc.dataset", "generate_dataset"): "dataset.generate_dataset",
    ("qperc.dataset", "save_dataset"): "dataset.save_dataset",
    ("qperc.dataset", "load_dataset"): "dataset.load_dataset",
    ("qperc.training", "train"): "training.train",
    ("qperc.training", "save_trace"): "training.save_trace",
    ("qperc.ioutil", "atomic_write_bytes"): "ioutil.atomic_write",
}

HISTOGRAM_SPANS = ("perceptron.measure",)
HIST_BASE = 1.01


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, clock):
        self._clock = clock
        self._hook_s = 0.0
        # One frame per open span: [start, child seconds, bytes written].
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self.spans = {name: [0, 0.0, 0.0, 0] for name in set(SPANS.values())}
        self.hist = {name: Counter() for name in HISTOGRAM_SPANS}
        self.gate_kinds: Counter = Counter()
        self.circuits = 0
        self.bytes_moved = 0
        self.rss_growth_kb = 0
        self.estimates: set = set()
        self.bytes_read = 0
        self.train = Counter()

    def now(self) -> float:
        return self._clock() - self._hook_s

    # Hooks run outside every span's time.

    def _after_assemble(self, args, circuit, _):
        self.gate_kinds.update(op.kind for op in circuit.ops)
        self.circuits += 1

    def _before_run(self, args):
        return _maxrss_kb()

    def _after_run(self, args, state, rss_before):
        self.bytes_moved += len(args[0].ops) * state.amplitudes.nbytes
        self.rss_growth_kb += max(0, _maxrss_kb() - rss_before)

    def _after_sample(self, args, estimate, _):
        self.estimates.add(estimate)

    def _after_load(self, args, dataset, _):
        path = str(args[0])
        self.bytes_read += os.path.getsize(path) + os.path.getsize(path + ".meta.json")

    def _after_train(self, args, result, _):
        self.train["evals"] += len(result.trace)
        self.train["updates"] += sum(step.action != "none" for step in result.trace)
        self.train["steps_held"] += len(result.trace)

    def _after_write(self, args, _, __):
        # Bytes count for the write and for every span still open around it.
        nbytes = len(args[1])
        self.spans["ioutil.atomic_write"][3] += nbytes
        for frame in self._stack:
            frame[2] += nbytes

    def _hooks(self, name):
        return {
            "perceptron.assemble": (None, self._after_assemble),
            "statevector.run_circuit": (self._before_run, self._after_run),
            "statevector.sample_qubit": (None, self._after_sample),
            "dataset.load_dataset": (None, self._after_load),
            "training.train": (None, self._after_train),
            "ioutil.atomic_write": (None, self._after_write),
        }.get(name, (None, None))

    def _hook(self, fn, *args):
        t = self._clock()
        out = fn(*args)
        self._hook_s += self._clock() - t
        return out

    def _wrap(self, fn, name):
        before, after = self._hooks(name)
        record = self.spans[name]
        hist = self.hist.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = self._hook(before, args) if before else None
            frame = [self.now(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.now() - frame[0]
                stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                record[3] += frame[2]
                if stack:
                    stack[-1][1] += duration
                if hist is not None and duration > 0:
                    hist[int(math.log(duration) / math.log(HIST_BASE))] += 1
            if after:
                self._hook(after, args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for (module_name, attr), name in SPANS.items():
            fn = getattr(importlib.import_module(module_name), attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qperc" and not module_name.startswith("qperc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s, "bytes": b}
                for name, (c, t, s, b) in self.spans.items()
            },
            "hist": {name: dict(h) for name, h in self.hist.items()},
            "gate_kinds": dict(self.gate_kinds),
            "circuits": self.circuits,
            "bytes_moved": self.bytes_moved,
            "rss_growth_kb": self.rss_growth_kb,
            "distinct_estimates": len(self.estimates),
            "bytes_read": self.bytes_read,
            "train": dict(self.train),
        }


def histogram_percentile(hist: dict, q: float) -> float:
    """Seconds at quantile q of a HIST_BASE histogram (bin centre)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    need = q * total
    seen = 0
    for b in sorted(hist, key=int):
        seen += hist[b]
        if seen >= need:
            return HIST_BASE ** (int(b) + 0.5)
    return HIST_BASE ** (int(max(hist, key=int)) + 0.5)
