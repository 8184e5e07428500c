"""qperc benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload gen-data-n4 --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json and described in NOTES.md. A run
builds the workload's inputs from --seed, times set-up (fresh interpreters
that import qperc and build the CLI parser), then runs units, each a fresh
worker process, one after another, for about --seconds. Every unit's
outputs are checked against the benchmark's own oracle.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the run makes one untraced and one
traced unit and reports the per-layer metrics instead. Unit times are
normalized for machine speed (see worker.py) and exclude the
calibration's own time; set-up time is raw. A fuller record, with the
environment, raw times and output hashes, is written under
.bench_results/ in the checkout.

Exit code 0 with a result line, or 2 without one when qperc cannot be run
from this checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import histogram_percentile
from workloads import MAX_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_PROBES = 7
# A run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0


class SetupError(Exception):
    pass


def spawn(cmd: list[str], cwd: Path, stdout: Path, timeout: float) -> tuple[int, float, int]:
    """Run cmd to completion; (exit code, wall seconds, child max RSS in KB)."""
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)

        def kill(*_):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def worker_cmd(mode: str, out: Path, extra: list[str], traced: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--src", str(SRC), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if mode == "cli":
        return cmd + ["--"] + extra
    return cmd + extra


def run_unit(workload, k: int, traced: bool, tmp: Path, deadline: float) -> dict:
    mode, extra = workload.command(k)
    out = tmp / f"unit-{k}-{int(traced)}.json"
    log = tmp / f"unit-{k}-{int(traced)}.log"
    rc, wall, maxrss = spawn(
        worker_cmd(mode, out, extra, traced), tmp, log, deadline - time.perf_counter()
    )
    try:
        record = json.loads(out.read_text())
    except (OSError, ValueError):
        record = {}
    stdout = log.read_text(encoding="utf-8", errors="replace")
    unit = {"k": k, "traced": traced, "rc": rc, "raw_wall_s": wall, "maxrss_kb": maxrss}
    if rc != 0 or "speed" not in record:
        unit.update(ok=False, output=stdout[-2000:])
        return unit
    speed = record["speed"]
    unit.update(
        ok=True,
        speed=speed,
        wall_s=(wall - record["cal_total_s"]) / speed,
        record=record,
        stdout=stdout,
    )
    return unit


def measure_setup(tmp: Path, deadline: float) -> list[float]:
    """Seconds for a fresh interpreter to import qperc and build the CLI
    parser, one raw wall time per probe."""
    values = []
    for i in range(SETUP_PROBES):
        out = tmp / f"setup-{i}.json"
        log = tmp / f"setup-{i}.log"
        rc, wall, _ = spawn(worker_cmd("setup", out, [], False), tmp, log,
                            deadline - time.perf_counter())
        if rc != 0 or not out.exists():
            raise SetupError(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        values.append(wall)
    return values


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qperc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under `kind`."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_perceptron():
    sys.path.insert(0, str(SRC))
    from qperc import perceptron

    return perceptron


def end_to_end(workload, units: list[dict], setup: list[float]) -> dict:
    perceptron = _import_perceptron()
    walls = [u["wall_s"] for u in units]
    total = sum(walls)
    evals = sum(workload.evals(u["k"], u["facts"]) for u in units)
    gates = sum(workload.gates(u["k"], u["facts"], u["record"], perceptron) for u in units)
    if "run_s" in units[0]["record"]:
        # The library path: gate throughput of run_circuit alone.
        gate_time = sum(u["record"]["run_s"] / u["speed"] for u in units)
    else:
        gate_time = total
    return {
        "wall_s": statistics.median(walls),
        "evals_per_s": evals / total,
        "gates_per_s": gates / gate_time,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(u["maxrss_kb"] for u in units) / 1024,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    t = traced["record"]["trace"]
    speed = traced["speed"]
    spans = t["spans"]

    def calls(name):
        return spans[name]["calls"]

    def self_s(name):
        return spans[name]["self_s"] / speed

    def total_s(name):
        return spans[name]["total_s"] / speed

    circuits = t["circuits"]
    kinds = t["gate_kinds"]
    hist = t["hist"]["perceptron.measure"]
    train = t["train"]
    metrics = {
        "perceptron.assemble.calls": calls("perceptron.assemble"),
        "perceptron.assemble.self_s": self_s("perceptron.assemble"),
        "perceptron.gates_per_eval": sum(kinds.values()) / circuits if circuits else 0.0,
    }
    for kind in ("H", "X", "MCZ", "MCX"):
        metrics[f"perceptron.gates_per_eval.{kind}"] = (
            kinds.get(kind, 0) / circuits if circuits else 0.0
        )
    metrics.update({
        "perceptron.measure.calls": calls("perceptron.measure"),
        "perceptron.measure.p50_us": histogram_percentile(hist, 0.50) / speed * 1e6,
        "perceptron.measure.p99_us": histogram_percentile(hist, 0.99) / speed * 1e6,
        "statevector.run_circuit.self_s": self_s("statevector.run_circuit"),
        "statevector.bytes_moved_computed": t["bytes_moved"],
        "statevector.rss_growth_mb": t["rss_growth_kb"] / 1024,
        "statevector.prob_qubit_one.self_s": self_s("statevector.prob_qubit_one"),
        "statevector.sample_qubit.self_s": self_s("statevector.sample_qubit"),
        "statevector.sample_qubit.distinct_estimates": t["distinct_estimates"],
        "sweep.compute_sweep.self_s": self_s("sweep.compute_sweep"),
        "sweep.save_sweep.s": total_s("sweep.save_sweep"),
        "sweep.bytes_written": spans["sweep.save_sweep"]["bytes"],
        "dataset.generate_dataset.self_s": self_s("dataset.generate_dataset"),
        "dataset.save_dataset.s": total_s("dataset.save_dataset"),
        "dataset.bytes_written": spans["dataset.save_dataset"]["bytes"],
        "dataset.load_dataset.s": total_s("dataset.load_dataset"),
        "dataset.bytes_read": t["bytes_read"],
        "training.train.self_s": self_s("training.train"),
        "training.evals": train.get("evals", 0),
        "training.updates": train.get("updates", 0),
        "training.update_ratio": (
            train["updates"] / train["evals"] if train.get("evals") else 0.0
        ),
        "training.save_trace.s": total_s("training.save_trace"),
        "training.trace_bytes": spans["training.save_trace"]["bytes"],
        "training.trace_steps_held": train.get("steps_held", 0),
        "ioutil.atomic_write.calls": calls("ioutil.atomic_write"),
        "ioutil.atomic_write.s": total_s("ioutil.atomic_write"),
        "ioutil.atomic_write.bytes": spans["ioutil.atomic_write"]["bytes"],
        "cli.handler.self_s": self_s("cli.handler"),
        "trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    return metrics


def run(args) -> dict:
    if not (SRC / "qperc" / "__init__.py").is_file():
        raise SetupError(f"no qperc package under {SRC}")
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup = measure_setup(tmp, deadline)
        workload = WORKLOADS[args.workload](args.tiny, args.seed, tmp)
        units = []
        t0 = time.perf_counter()
        if args.trace:
            plan = [(0, False), (0, True)]
        else:
            plan = ((k, False) for k in range(MAX_UNITS))
        for k, traced in plan:
            unit = run_unit(workload, k, traced, tmp, deadline)
            units.append(unit)
            attempted, failed, facts = (
                workload.check(k, unit.get("record", {}), unit.get("stdout", ""))
            )
            if not unit["ok"]:
                failed = attempted
            unit.update(attempted=attempted, failed=failed, facts=facts)
            if not unit["ok"]:
                break
            if args.trace:
                continue
            # Start another unit only if it should end within --seconds.
            longest = max(u["raw_wall_s"] for u in units)
            if time.perf_counter() - t0 + longest > args.seconds:
                break
        attempted = sum(u["attempted"] for u in units)
        failed = sum(u["failed"] for u in units)
        all_ok = all(u["ok"] for u in units)
        if not all_ok:
            metrics = {}
        elif args.trace:
            metrics = per_layer(units[0], units[1])
        else:
            metrics = end_to_end(workload, units, setup)
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        result = {
            "correct": all_ok and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics.get(name, 0.0), "unit": unit}
                for name, unit in declared.items()
            },
        }
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "environment": environment(args.seed),
            "setup_s": setup,
            "error_rate": failed / attempted if attempted else 1.0,
            "units": [
                {key: value for key, value in u.items()
                 if key not in ("record", "stdout", "facts")}
                | {"facts": {f: v for f, v in u["facts"].items() if f != "pairs"}}
                for u in units
            ],
            "run_s": time.perf_counter() - started,
            "result": result,
        }
        results = ROOT / ".bench_results"
        results.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
        (results / name).write_text(json.dumps(record, indent=1) + "\n")
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qperc benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs (n=2, 6 qubits), for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    env = record["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(record['units'])} units, error_rate={record['error_rate']:.3g}, "
        f"env={json.dumps(env, sort_keys=True)}"
    )
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
