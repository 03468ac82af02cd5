"""Command-line front end.

Subcommands:
    pqm       probe a pattern memory file with an input bit string
    evaluate  score a single architecture on a CSV dataset
    sweep     score a range of hidden-neuron counts, with CSV/SVG export
    synth     generate a synthetic CSV dataset

Exit codes: 0 success, 1 input/data error, 2 resource/budget error.
Option precedence: command-line flags > config file (`--config`, key=value
lines) > built-in defaults.  All randomness flows from --seed (default 0,
never time-based).
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

from . import dataio, evaluate, pqm, svgplot
from .mlp import TrainConfig

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RESOURCE_ERROR = 2

DEFAULTS = {
    "alpha": 1e-5,
    "max_iter": 400,
    "learning_rate": 1.0,
    "tolerance": 1e-5,
    "samples": evaluate.DEFAULT_NUM_SAMPLES,
    "seed": 0,
    "train_fraction": 0.1,
    "hidden_lo": evaluate.DEFAULT_HIDDEN_RANGE[0],
    "hidden_hi": evaluate.DEFAULT_HIDDEN_RANGE[1],
    "activation": "logistic",
    "budget": evaluate.DEFAULT_GRID_BUDGET,
    "threads": 1,
}

def _load_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = type(DEFAULTS[key])(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Apply flag > config-file > default precedence for the shared options."""
    from_file = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = dict(DEFAULTS)
    cfg.update(from_file)
    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    if cfg["threads"] < 1:
        raise ValueError(f"threads must be >= 1, got {cfg['threads']}")
    return cfg


def _config_summary(cfg: dict) -> str:
    return (
        f"alpha={cfg['alpha']} max_iter={cfg['max_iter']} "
        f"learning_rate={cfg['learning_rate']} tolerance={cfg['tolerance']} "
        f"samples={cfg['samples']} hidden_range=[{cfg['hidden_lo']},{cfg['hidden_hi']}) "
        f"train_fraction={cfg['train_fraction']} activation={cfg['activation']} "
        f"seed={cfg['seed']} threads={cfg['threads']}"
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        max_iter=cfg["max_iter"],
        l2_alpha=cfg["alpha"],
        learning_rate=cfg["learning_rate"],
        tolerance=cfg["tolerance"],
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--alpha", type=float, help="L2 penalty (default 1e-5)")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="training iterations (default 400)")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--tolerance", type=float, help="gradient-norm stopping tolerance")
    parser.add_argument("--samples", type=int, help="weight samples per architecture (default 1000)")
    parser.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    parser.add_argument("--train-fraction", dest="train_fraction", type=float,
                        help="train split fraction (default 0.1)")
    parser.add_argument("--activation", choices=("logistic", "tanh", "relu"))
    parser.add_argument("--threads", type=int, help="worker threads (default 1)")
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
    p_pqm.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("evaluate", help="score one architecture")
    p_eval.add_argument("dataset", help="CSV dataset (f1,...,fk,label header)")
    p_eval.add_argument("--hidden", type=int, required=True, help="hidden neurons")
    p_eval.add_argument("--exhaustive", action="store_true",
                        help="enumerate a weight grid instead of sampling")
    p_eval.add_argument("--levels", default="-1,0,1",
                        help="comma-separated grid levels (exhaustive mode)")
    p_eval.add_argument("--budget", type=int, help="max grid points (default 3^12)")
    p_eval.add_argument("--train-grid", action="store_true",
                        help="train each grid point (exhaustive mode)")
    p_eval.add_argument("--out", help="write the report CSV here")
    _add_common_options(p_eval)

    p_sweep = sub.add_parser("sweep", help="score a hidden-neuron range")
    p_sweep.add_argument("dataset")
    p_sweep.add_argument("--hidden-range", dest="hidden_range", type=int, nargs=2,
                         metavar=("LO", "HI"), help="half-open range (default 1 20)")
    p_sweep.add_argument("--out", help="write the report CSV here (default stdout)")
    p_sweep.add_argument("--plot", help="write an accuracy-vs-score SVG scatter here")
    _add_common_options(p_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.add_argument("kind", choices=dataio.SYNTHETIC_KINDS)
    p_synth.add_argument("--n", type=int, default=400)
    p_synth.add_argument("--noise", type=float, default=0.2)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    return parser


def _cmd_pqm(args: argparse.Namespace) -> int:
    if args.shots is not None and args.shots < 1:
        raise ValueError(f"--shots must be >= 1, got {args.shots}")
    memory = pqm.PatternMemory.from_file(args.memory_file)
    input_pattern = pqm.BitString.from_string(args.input_bits)
    outcome = pqm.retrieve_analytic(memory, input_pattern)
    print(f"p0={outcome.p0:.6f} p1={outcome.p1:.6f}")
    if args.circuit:
        exact = pqm.retrieve_exact_from_circuit(memory, input_pattern)
        print(
            f"circuit_p0={exact.p0:.6f} circuit_p1={exact.p1:.6f} "
            f"difference={abs(exact.p0 - outcome.p0):.3e}"
        )
    if args.shots is not None:
        estimate, counts = pqm.retrieve_circuit(memory, input_pattern, args.shots, args.seed)
        print(
            f"shots={args.shots} freq0={estimate.p0:.6f} "
            f"counts0={counts[0]} counts1={counts[1]}"
        )
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if args.show_config:
        print(_config_summary(cfg))
        return EXIT_OK
    dataset = dataio.load_csv(args.dataset)
    split_spec = dataio.SplitSpec(cfg["train_fraction"], cfg["seed"], stratified=True)
    arch = evaluate.architecture_for(dataset, args.hidden, cfg["activation"])
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        map_fn = pool.map if cfg["threads"] > 1 else None
        if args.exhaustive:
            levels = tuple(float(v) for v in args.levels.split(","))
            grid = evaluate.WeightGrid(levels, arch.weight_count, cfg["budget"])
            report = evaluate.evaluate_exhaustive(
                arch, dataset, grid, args.train_grid, _train_config(cfg),
                cfg["seed"], split_spec, map_fn,
            )
        else:
            report = evaluate.evaluate_sampled(
                arch, dataset, cfg["samples"], _train_config(cfg),
                cfg["seed"], split_spec, map_fn,
            )
    print(f"score_p0={report.score_p0:.6f} mean_accuracy={report.mean_accuracy:.6f} "
          f"samples={report.num_samples} excluded={report.excluded}")
    if args.out:
        evaluate.write_reports_csv([report], args.out)
    else:
        print(evaluate.REPORT_CSV_HEADER)
        print(evaluate.report_csv_row(report))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if args.hidden_range is not None:
        cfg["hidden_lo"], cfg["hidden_hi"] = args.hidden_range
    if args.show_config:
        print(_config_summary(cfg))
        return EXIT_OK
    dataset = dataio.load_csv(args.dataset)
    split_spec = dataio.SplitSpec(cfg["train_fraction"], cfg["seed"], stratified=True)
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        reports = evaluate.sweep(
            dataset,
            hidden_range=(cfg["hidden_lo"], cfg["hidden_hi"]),
            num_samples=cfg["samples"],
            train_cfg=_train_config(cfg),
            seed=cfg["seed"],
            split_spec=split_spec,
            activation=cfg["activation"],
            map_fn=pool.map if cfg["threads"] > 1 else None,
        )
    if args.out:
        evaluate.write_reports_csv(reports, args.out)
    else:
        print(evaluate.REPORT_CSV_HEADER)
        for report in reports:
            print(evaluate.report_csv_row(report))
    if args.plot:
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
    except (pqm.CapacityError, evaluate.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
