"""Command-line interface.

Subcommands: simulate, sweep, gen-data, train, render. Every command is
deterministic given its full flag set; when --seed is omitted the QPERC_SEED
environment variable is consulted, and 0 is the fallback. Exit codes: 0 on
success, 2 for usage or validation problems, 1 for internal errors. The
commands check no flag: the library rule that owns it raises, and main()
puts the flag named by the message's first word before the message.
render writes one encoding of its output, to stdout's bytes or to --out, so
the ASCII grid is UTF-8 on any stdout; train() gets one sink, a file or a no-op.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .dataset import generate_dataset, load_dataset, save_dataset
from .ioutil import atomic_write_bytes
from .perceptron import DEFAULT_SHOTS, MODES, PerceptronConfig, measure
from .render import RENDER_FORMATS, pattern_grid, render_ascii, render_pgm
from .sweep import SWEEP_FORMATS, compute_sweep, save_sweep
from .training import CONVERGENCE_MODES, TrainConfig, trace_writer, train

ENV_SEED = "QPERC_SEED"


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


# The flag behind each value name a rule's message starts with. The seed is
# left out: it may come from QPERC_SEED, and its message already names it.
_FIELD_FLAGS = {
    "n": "--n",
    "input": "--input",
    "weight": "--weight",
    "optimal": "--optimal-weight",
    "value": "--value",
    "shots": "--shots",
    "learning_rate": "--lr",
    "max_epochs": "--max-epochs",
}


def _perceptron_config(args: argparse.Namespace) -> PerceptronConfig:
    return PerceptronConfig(
        n=args.n,
        shots=args.shots,
        mode=args.mode,
        seed=_resolve_seed(args.seed),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    p = measure(args.input, args.weight, _perceptron_config(args))
    print(format(p, ".12g"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep = compute_sweep(_perceptron_config(args))
    save_sweep(sweep, args.out, args.format)
    if sweep.max_abs_deviation is not None:
        print(
            "oracle check: max |circuit - closed form| = "
            f"{sweep.max_abs_deviation:.3e}"
        )
    size = sweep.probs.shape[0]
    print(f"wrote {size}x{size} sweep to {args.out}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.weight, _perceptron_config(args))
    save_dataset(dataset, args.out)
    labels = dataset.labels
    print(f"wrote {len(labels)} rows ({int(labels.sum())} labeled 1) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    optimal = args.optimal_weight
    if optimal is None:
        optimal = dataset.optimal_weight
    config = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.max_epochs,
        seed=_resolve_seed(args.seed),
        convergence_mode=args.convergence,
    )
    sink = contextlib.nullcontext(lambda step: None)
    if args.trace_out:
        sink = trace_writer(args.trace_out)
    with sink as on_step:
        result = train(dataset, optimal, config, on_step)
    print(f"converged: {result.converged}")
    print(f"final weight: {result.final_weight}")
    print(f"epochs run: {result.epochs_run}")
    print(f"updates applied: {result.updates}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    grid = pattern_grid(args.value, args.n, args.rows, args.cols)
    if args.format == "ascii":
        data = (render_ascii(grid) + "\n").encode("utf-8")
    else:
        data = render_pgm(grid)
    if args.out in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        atomic_write_bytes(args.out, data)
    return 0


def _add_measure_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=MODES, default="exact")
    sub.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    _add_seed_flag(sub)


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed", type=int, help=f"RNG seed (default: ${ENV_SEED}, then 0)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperc",
        description="Quantum perceptron simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="evaluate one (input, weight) pair")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--input", type=int, required=True)
    sim.add_argument("--weight", type=int, required=True)
    _add_measure_flags(sim)
    sim.set_defaults(handler=cmd_simulate)

    swp = subs.add_parser("sweep", help="probability matrix over all pairs")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--format", choices=SWEEP_FORMATS, default="csv")
    _add_measure_flags(swp)
    swp.set_defaults(handler=cmd_sweep)

    gen = subs.add_parser("gen-data", help="exhaustive labeled dataset")
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--weight", type=int, default=626)
    gen.add_argument("--out", required=True)
    _add_measure_flags(gen)
    gen.set_defaults(handler=cmd_gen_data)

    trn = subs.add_parser("train", help="bit-flip training against a dataset")
    trn.add_argument("--data", required=True)
    trn.add_argument(
        "--optimal-weight",
        type=int,
        default=None,
        help="convergence target (default: the dataset's own weight)",
    )
    trn.add_argument("--lr", type=float, default=0.5)
    trn.add_argument("--max-epochs", type=int, default=1000)
    _add_seed_flag(trn)
    trn.add_argument("--convergence", choices=CONVERGENCE_MODES, default="functional")
    trn.add_argument("--trace-out", default=None)
    trn.set_defaults(handler=cmd_train)

    ren = subs.add_parser("render", help="draw a value's bit pattern")
    ren.add_argument("--value", type=int, required=True)
    ren.add_argument("--n", type=int, required=True)
    ren.add_argument("--rows", type=int, default=None)
    ren.add_argument("--cols", type=int, default=None)
    ren.add_argument("--format", choices=RENDER_FORMATS, default="ascii")
    ren.add_argument("--out", default=None, help="output path ('-' for stdout)")
    ren.set_defaults(handler=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # A rule raises a plain ValueError; a DatasetFormatError starts with a path.
        flag = type(exc) is ValueError and _FIELD_FLAGS.get(str(exc).split(" ", 1)[0])
        print(f"error: {flag}: {exc}" if flag else f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
