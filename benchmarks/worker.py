"""One benchmark unit, run in a fresh interpreter by run.py.

Modes:

  setup    import qperc and build the CLI parser, nothing else (not
           calibrated: the probe is too short for the timer, and loops
           run right after it misread the machine's speed)
  cli      run `qperc.cli.main(argv)` on the arguments after `--`
  circuit  run a gate list from a JSON file on |0...0>, then its mirror

While a unit runs, a SIGALRM timer interrupts it every CAL_INTERVAL_S and
times a fixed loop (the calibration) of the same kind of work as the unit:
small numpy calls for the CLI, large-array kernels for a 20-qubit circuit.
The loop's duration tracks how fast this machine is running at that
moment; run.py divides the unit's time by the mean speed factor, so
machine-speed drift between runs cancels. The calibration's own time is
reported so it can be subtracted.

With `--trace`, wrappers from tracing.py are installed on qperc's public
functions before the unit starts, and their aggregates are written out.

The unit writes one JSON object to `--out`; its exit code is the program's.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

CAL_INTERVAL_S = 0.1


class InterpreterLoop:
    """Small-array numpy calls driven from Python, the mix of one
    perceptron evaluation; it tracked their speed better than pure Python."""

    # Typical duration, interleaved with a unit, on the reference machine
    # (the 2-core Xeon the benchmark was written on). Only the ratio
    # matters: normalized times read in that machine's seconds.
    ref_s = 0.0014

    def __init__(self):
        self.order = np.arange(32)[::-1].copy()

    def __call__(self):
        x = np.ones(32, dtype=np.complex128)
        for _ in range(200):
            x = x[self.order]
            x *= 1.0
            np.sum(x.reshape(4, 2, -1)[:, 1, :].real ** 2)


class MemoryLoop:
    """One gather and one sign multiply over 4 MB arrays, larger than L2:
    the access pattern of the X/MCX and MCZ kernels on a 20-qubit state."""

    ref_s = 0.004

    def __init__(self):
        size = 1 << 18
        index = np.arange(size)
        self.perm = index ^ (1 << 7)
        self.signs = np.where(index & 5 == 5, -1.0, 1.0)
        self.amps = np.ones(size, dtype=np.complex128)
        self.scratch = np.empty_like(self.amps)

    def __call__(self):
        np.take(self.amps, self.perm, out=self.scratch)
        np.multiply(self.scratch, self.signs, out=self.amps)


class Calibrator:
    """Samples machine speed on a timer and keeps its own time apart."""

    def __init__(self, loop):
        self.loop = loop
        self.samples: list[float] = []
        self.total = 0.0

    def sample(self, *_):
        t = time.perf_counter()
        self.loop()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.total += d

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if len(self.samples) < 3:
            # Units shorter than a few ticks still need a speed reading.
            for _ in range(3 - len(self.samples)):
                self.sample()

    def clock(self) -> float:
        """perf_counter with calibration time taken out."""
        return time.perf_counter() - self.total

    def speed(self) -> float:
        """Trimmed mean calibration time over the reference; >1 is slower."""
        s = sorted(self.samples)
        cut = len(s) // 10
        kept = s[cut : len(s) - cut]
        return sum(kept) / len(kept) / self.loop.ref_s

    def record(self) -> dict:
        return {
            "cal_total_s": self.total,
            "cal_samples": len(self.samples),
            "speed": self.speed(),
        }


def _import_qperc(src: str):
    sys.path.insert(0, src)
    import qperc
    import qperc.cli

    here = Path(qperc.__file__).resolve()
    if Path(src).resolve() not in here.parents:
        raise SystemExit(f"qperc imported from {here}, not from {src}")
    return qperc


def _run_setup(args) -> tuple[int, dict]:
    qperc = _import_qperc(args.src)
    qperc.cli.build_parser()
    return 0, {}


def _run_cli(args, cal: Calibrator, tracer) -> tuple[int, dict]:
    qperc = _import_qperc(args.src)
    if tracer is not None:
        tracer.install()
    rc = qperc.cli.main(args.argv)
    sys.stdout.flush()
    return rc, {}


def _run_circuit(args, cal: Calibrator, tracer) -> tuple[int, dict]:
    _import_qperc(args.src)
    from qperc import statevector

    if tracer is not None:
        tracer.install()
    spec = json.loads(Path(args.gates).read_text())
    n = spec["num_qubits"]
    makers = {
        "H": lambda g: statevector.h(g["target"]),
        "X": lambda g: statevector.x(g["target"]),
        "MCZ": lambda g: statevector.mcz(g["controls"]),
        "MCX": lambda g: statevector.mcx(g["controls"], g["target"]),
    }
    ops = [makers[g["kind"]](g) for g in spec["gates"]]
    circuit = statevector.Circuit(n, ops)
    mirror = statevector.Circuit(n, ops[::-1])
    t0 = cal.clock()
    state = statevector.run_circuit(circuit, statevector.new_zero_state(n))
    state = statevector.run_circuit(mirror, state)
    run_s = cal.clock() - t0
    amp0 = complex(state.amplitudes[0])
    return 0, {
        "run_s": run_s,
        "gates_applied": 2 * len(ops),
        "p_zero": amp0.real**2 + amp0.imag**2,
        "norm": state.norm_squared(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cli", "circuit"))
    parser.add_argument("--src", required=True, help="directory holding qperc/")
    parser.add_argument("--out", required=True, help="JSON result file")
    parser.add_argument("--gates", help="gate list (circuit mode)")
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    # Everything after `--` goes to qperc unparsed (cli mode).
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1 :]

    if args.mode == "setup":
        rc, record = _run_setup(args)
    else:
        cal = Calibrator(InterpreterLoop() if args.mode == "cli" else MemoryLoop())
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(cal.clock)
        cal.start()
        try:
            run = _run_cli if args.mode == "cli" else _run_circuit
            rc, record = run(args, cal, tracer)
        finally:
            cal.stop()
        record.update(cal.record())
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.report()
    Path(args.out).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
