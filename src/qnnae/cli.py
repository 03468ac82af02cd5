"""Command-line front end.

Subcommands:
    pqm       probe a pattern memory file with an input bit string
    evaluate  score a single architecture on a CSV dataset
    sweep     score a range of hidden-neuron counts, with CSV/SVG export
    synth     generate a synthetic CSV dataset

Exit codes: 0 success; 1 input/data error; 2 resource error (grid budget,
out of memory) or a malformed command line.
Option precedence: command-line flags > config file (`--config`, key=value
lines) > built-in defaults.  All randomness flows from --seed (default 0,
never time-based).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from . import dataio, evaluate, pqm, svgplot
from .mlp import ACTIVATIONS, MlpArchitecture, TrainConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RESOURCE_ERROR = 2

_TRAIN_CONFIG_FIELDS = {"alpha": "l2_alpha", "max_iter": "max_iter",
                        "learning_rate": "learning_rate", "tolerance": "tolerance"}
DEFAULTS = {
    **{key: getattr(TrainConfig, field) for key, field in _TRAIN_CONFIG_FIELDS.items()},
    "samples": evaluate.DEFAULT_NUM_SAMPLES,
    "seed": 0,
    "train_fraction": dataio.SplitSpec.train_fraction,
    "hidden_lo": evaluate.DEFAULT_HIDDEN_RANGE[0],
    "hidden_hi": evaluate.DEFAULT_HIDDEN_RANGE[1],
    "activation": MlpArchitecture.activation,
    "budget": evaluate.DEFAULT_GRID_BUDGET,
    "threads": 1,
}

def _load_config_file(path) -> dict:
    """key -> (value, line number) for the key=value lines of `path`."""
    values = {}
    for lineno, line in dataio.content_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = type(DEFAULTS[key])(value.strip()), lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no settings")
    return values


def _check_setting(key: str, value) -> None:
    """Reject a value that `key` may not take, whatever the other settings are."""
    if key in ("threads", "samples", "budget") and value < 1:
        raise ValueError(f"{key} must be >= 1, got {value}")
    # a grid is counted and sliced with index-sized integers
    if key == "budget" and value > sys.maxsize:
        raise ValueError(f"budget must be <= {sys.maxsize}, got {value}")
    # numpy rejects a negative seed only when the first generator is built,
    # after the input is read, and without naming the flag
    if key == "seed" and value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    if key in _TRAIN_CONFIG_FIELDS:
        TrainConfig(**{_TRAIN_CONFIG_FIELDS[key]: value})
    if key == "train_fraction":
        dataio.SplitSpec(value)
    if key == "activation" and value not in ACTIVATIONS:
        raise ValueError(f"must be one of {ACTIVATIONS}, got {value!r}")


def _resolve(args: argparse.Namespace, unread: Tuple[str, ...]) -> Tuple[dict, TrainConfig, dataio.SplitSpec]:
    """Apply flag > config-file > default precedence for the shared options.

    Also checks each setting and the hidden range its two keys make, naming
    the line of a bad one from the file, and builds the training settings and
    the split before any data is read.  A key in `unread`, a setting the run
    does not read, is checked only when it comes from a flag, so one config
    file can serve every command and mode.
    """
    from_file = _load_config_file(args.config) if args.config else {}
    cfg = dict(DEFAULTS)
    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
        elif key in from_file:
            cfg[key] = from_file[key][0]
        if flag_value is None and key in unread:
            continue
        try:
            _check_setting(key, cfg[key])
        except ValueError as exc:
            if flag_value is not None or key not in from_file:
                raise
            where = f"{args.config}:{from_file[key][1]}"
            raise ValueError(f"{where}: bad value for {key}: {exc}") from exc
    if "hidden_lo" not in unread:
        try:
            evaluate.check_hidden_range(cfg["hidden_lo"], cfg["hidden_hi"])
        except ValueError as exc:
            # --hidden-range sets both bounds, so a bound without a flag came
            # from the file or is the default (lo=1, which is never at fault)
            in_file = {key for key in ("hidden_lo", "hidden_hi")
                       if getattr(args, key, None) is None and key in from_file}
            if not in_file:
                raise
            key = "hidden_hi" if "hidden_hi" in in_file and cfg["hidden_lo"] >= 1 else "hidden_lo"
            where = f"{args.config}:{from_file[key][1]}"
            raise ValueError(f"{where}: bad value for {key}: {exc}") from exc
    train_cfg = TrainConfig(**{field: cfg[key] for key, field in _TRAIN_CONFIG_FIELDS.items()})
    split_spec = dataio.SplitSpec(cfg["train_fraction"], cfg["seed"])
    return cfg, train_cfg, split_spec


def _check_output_path(flag: str, path: Optional[str],
                       others: Tuple[Tuple[str, Optional[str]], ...] = ()) -> None:
    """Reject an output path that cannot be opened for writing, before any work.

    Only None means "not given"; an empty path is an error.  `others` holds
    (flag, path) for the command's other files, read or written; an output
    that resolves to one of them, or is a hard link to it, would destroy it,
    so it is an error too.
    """
    if path is None:
        return
    if not path:
        raise ValueError(f"{flag}: empty path")
    for other_flag, other in others:
        if other is None:
            continue
        if os.path.realpath(other) == os.path.realpath(path) or (
                os.path.exists(other) and os.path.exists(path) and os.path.samefile(other, path)):
            raise ValueError(f"{flag} and {other_flag} name the same file: {path}")
    if os.path.isdir(path):
        raise ValueError(f"{flag}: {path} is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.exists(directory):
        raise ValueError(f"{flag}: directory {directory} does not exist")
    if not os.path.isdir(directory):
        raise ValueError(f"{flag}: {directory} is not a directory")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"{flag}: directory {directory} is not writable")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ValueError(f"{flag}: {path} is not writable")


def _input_files(args: argparse.Namespace) -> Tuple[Tuple[str, Optional[str]], ...]:
    """(name, path) of the files `evaluate` and `sweep` read."""
    return ("dataset", args.dataset), ("--config", args.config)


def _config_summary(cfg: dict) -> str:
    return (
        f"alpha={cfg['alpha']} max_iter={cfg['max_iter']} "
        f"learning_rate={cfg['learning_rate']} tolerance={cfg['tolerance']} "
        f"samples={cfg['samples']} hidden_range=[{cfg['hidden_lo']},{cfg['hidden_hi']}) "
        f"train_fraction={cfg['train_fraction']} activation={cfg['activation']} "
        f"seed={cfg['seed']} threads={cfg['threads']} budget={cfg['budget']}"
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--alpha", type=float,
                        help=f"L2 penalty (default {DEFAULTS['alpha']})")
    parser.add_argument("--max-iter", dest="max_iter", type=int,
                        help=f"training iterations (default {DEFAULTS['max_iter']})")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float,
                        help="scale of each network's first training step, L-BFGS's "
                             "initial inverse-Hessian scale "
                             f"(default {DEFAULTS['learning_rate']})")
    parser.add_argument("--tolerance", type=float,
                        help=f"gradient-norm stopping tolerance (default {DEFAULTS['tolerance']})")
    parser.add_argument("--samples", type=int,
                        help=f"weight samples per architecture (default {DEFAULTS['samples']})")
    parser.add_argument("--seed", type=int, help=f"master RNG seed (default {DEFAULTS['seed']})")
    parser.add_argument("--train-fraction", dest="train_fraction", type=float,
                        help=f"train split fraction (default {DEFAULTS['train_fraction']})")
    parser.add_argument("--activation", choices=ACTIVATIONS,
                        help=f"hidden-layer activation (default {DEFAULTS['activation']})")
    parser.add_argument("--threads", type=int, help="accepted, but work runs in one thread")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnnae", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pqm = sub.add_parser("pqm", help="probe a pattern memory")
    p_pqm.add_argument("memory_file", help="one bit string per line, # comments allowed")
    p_pqm.add_argument("input_bits", help="input bit string")
    p_pqm.add_argument("--shots", type=int, help="also estimate by sampling")
    p_pqm.add_argument("--circuit", action="store_true",
                       help="also run the state-vector circuit and print the difference")
    p_pqm.add_argument("--seed", type=int, default=DEFAULTS["seed"])

    p_eval = sub.add_parser("evaluate", help="score one architecture")
    p_eval.add_argument("dataset", help="CSV dataset (f1,...,fk,label header)")
    p_eval.add_argument("--hidden", type=int, required=True, help="hidden neurons")
    p_eval.add_argument("--exhaustive", action="store_true",
                        help="score every point of a weight grid instead of sampling; "
                             "untrained, it checks the circuit's math but does not "
                             "rank architectures")
    p_eval.add_argument("--levels",
                        help="comma-separated grid levels (exhaustive mode; default "
                             f"{','.join(f'{v:g}' for v in evaluate.DEFAULT_GRID_LEVELS)})")
    p_eval.add_argument("--budget", type=int,
                        help=f"max grid points (default {DEFAULTS['budget']})")
    p_eval.add_argument("--train-grid", action="store_true",
                        help="train each grid point before scoring it (exhaustive "
                             "mode): the paper's mode, which ranks architectures")
    p_eval.add_argument("--out", help="write the report CSV here")
    _add_common_options(p_eval)

    p_sweep = sub.add_parser("sweep", help="score a hidden-neuron range")
    p_sweep.add_argument("dataset")
    p_sweep.add_argument("--hidden-range", dest="hidden_range", type=int, nargs=2,
                         metavar=("LO", "HI"), help=f"half-open range (default {DEFAULTS['hidden_lo']} {DEFAULTS['hidden_hi']})")
    p_sweep.add_argument("--out", help="write the report CSV here (default stdout)")
    p_sweep.add_argument("--plot", help="write an accuracy-vs-score SVG scatter here")
    _add_common_options(p_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("kind", choices=dataio.SYNTHETIC_KINDS)
    p_synth.add_argument("--n", type=int, default=400)
    p_synth.add_argument("--noise", type=float, default=0.2)
    p_synth.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p_synth.add_argument("--out", required=True)

    return parser


def _cmd_pqm(args: argparse.Namespace) -> int:
    if args.shots is not None and args.shots < 1:
        raise ValueError(f"--shots must be >= 1, got {args.shots}")
    _check_setting("seed", args.seed)
    memory = pqm.PatternMemory.from_file(args.memory_file)
    input_pattern = pqm.BitString.from_string(args.input_bits)
    outcome = pqm.retrieve_analytic(memory, input_pattern)
    # built before any output, so running out of memory prints only the error
    circuit_needed = args.circuit or args.shots is not None
    state = pqm.retrieval_state(memory, input_pattern) if circuit_needed else None
    print(f"p0={outcome.p0:.6f} p1={outcome.p1:.6f}")
    if args.circuit:
        exact = pqm.retrieve_exact_from_circuit(memory, input_pattern, state=state)
        print(
            f"circuit_p0={exact.p0:.6f} circuit_p1={exact.p1:.6f} "
            f"difference={abs(exact.p0 - outcome.p0):.3e}"
        )
    if args.shots is not None:
        estimate, counts = pqm.retrieve_circuit(
            memory, input_pattern, args.shots, args.seed, state=state
        )
        print(
            f"shots={args.shots} freq0={estimate.p0:.6f} "
            f"counts0={counts[0]} counts1={counts[1]}"
        )
    return EXIT_OK


def _parse_levels(text: str) -> Tuple[float, ...]:
    try:
        levels = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--levels must be comma-separated numbers, got {text!r}") from None
    evaluate.check_grid_levels(levels)
    return levels


def _write_reports(reports: List[evaluate.ArchitectureReport], out: Optional[str]) -> None:
    """The report CSV, written to `out` or, without a path, printed."""
    if out is not None:
        evaluate.write_reports_csv(reports, out)
    else:
        sys.stdout.write(evaluate.report_csv(reports))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    unread = ("hidden_lo", "hidden_hi", "samples" if args.exhaustive else "budget")
    cfg, train_cfg, split_spec = _resolve(args, unread)
    if args.hidden < 1:
        raise ValueError(f"--hidden must be >= 1, got {args.hidden}")
    if args.exhaustive:
        levels = (evaluate.DEFAULT_GRID_LEVELS if args.levels is None
                  else _parse_levels(args.levels))
        if args.samples is not None:
            raise ValueError("--samples has no effect with --exhaustive")
    else:
        for flag, given in (("--levels", args.levels is not None),
                            ("--train-grid", args.train_grid),
                            ("--budget", args.budget is not None)):
            if given:
                raise ValueError(f"{flag} needs --exhaustive")
    _check_output_path("--out", args.out, _input_files(args))
    if args.show_config:
        print(_config_summary(cfg))
        return EXIT_OK
    dataset = dataio.load_csv(args.dataset)
    arch = evaluate.architecture_for(dataset, args.hidden, cfg["activation"])
    if args.exhaustive:
        grid = evaluate.WeightGrid(levels, arch.weight_count, cfg["budget"])
        report = evaluate.evaluate_exhaustive(
            arch, dataset, grid, args.train_grid, train_cfg, cfg["seed"], split_spec
        )
    else:
        report = evaluate.evaluate_sampled(
            arch, dataset, cfg["samples"], train_cfg, cfg["seed"], split_spec
        )
    print(f"score_p0={report.score_p0:.6f} mean_accuracy={report.mean_accuracy:.6f} "
          f"samples={report.num_samples} excluded={report.excluded}")
    _write_reports([report], args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    args.hidden_lo, args.hidden_hi = args.hidden_range or (None, None)
    cfg, train_cfg, split_spec = _resolve(args, ("budget",))
    _check_output_path("--out", args.out, _input_files(args))
    _check_output_path("--plot", args.plot, (*_input_files(args), ("--out", args.out)))
    if args.show_config:
        print(_config_summary(cfg))
        return EXIT_OK
    dataset = dataio.load_csv(args.dataset)
    reports = evaluate.sweep(
        dataset,
        hidden_range=(cfg["hidden_lo"], cfg["hidden_hi"]),
        num_samples=cfg["samples"],
        train_cfg=train_cfg,
        seed=cfg["seed"],
        split_spec=split_spec,
        activation=cfg["activation"],
    )
    _write_reports(reports, args.out)
    if args.plot is not None:
        svgplot.write_scatter(
            args.plot,
            [r.mean_accuracy for r in reports],
            [r.score_p0 for r in reports],
            xlabel="mean validation accuracy",
            ylabel="P(c=0)",
            title=dataset.name,
            point_labels=[str(r.architecture.hidden_neurons) for r in reports],
        )
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    _check_setting("seed", args.seed)
    _check_output_path("--out", args.out)
    dataset = dataio.make_synthetic(args.kind, args.n, args.noise, args.seed)
    dataio.write_csv(dataset, args.out)
    print(f"wrote {dataset.num_examples} rows to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "pqm": _cmd_pqm,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except evaluate.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
