"""Command line entry point.

    fusionrec --config exp.ini prepare
    fusionrec --config exp.ini --out runs/office benchmark --models vbpr,bm3
    fusionrec report runs/office/vbpr runs/office/bm3

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
failure (divergence, numerics, I/O mid-run).
"""

import argparse
import os
import sys
from dataclasses import replace

from . import experiment as ex
from .models import MODEL_TAGS, ModelData


def positive_int(text):
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionrec",
        description="Multimodal recommender benchmark pipeline.")
    parser.add_argument("--config", metavar="PATH",
                        help="experiment INI file")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override every seed in the config")
    parser.add_argument("--out", metavar="DIR",
                        help="override the configured output directory")
    parser.add_argument("--threads", type=positive_int, default=1, metavar="N",
                        help="threads that rank blocks of evaluated users "
                             "(default 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", help="filter, split, and bind features")
    sub.add_parser("tune", help="grid-search lr x reg on validation Recall@20")
    sub.add_parser("train", help="tune, checkpoint the winner, evaluate")
    sub.add_parser("evaluate", help="score a trained checkpoint on the test part")
    bench = sub.add_parser("benchmark", help="run a model roster end to end")
    bench.add_argument("--models", metavar="CSV",
                       help=f"comma-separated roster (default {','.join(MODEL_TAGS)})")
    rep = sub.add_parser("report", help="merge per-run metrics into one table")
    rep.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    return parser


def _load(args) -> ex.ExperimentConfig:
    if not args.config:
        raise ex.ConfigError(f"{args.command} requires --config")
    config = ex.load_config(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if args.seed is not None:
        config = replace(
            config,
            split_seed=args.seed,
            trainer=replace(config.trainer, seed=args.seed),
        )
    return config


def run(args) -> int:
    if args.command == "report":
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
            out_path = os.path.join(args.out, "report.md")
            ex.cmd_report(args.run_dirs, out_path)
            print(f"merged report at {out_path}")
        else:
            print(ex.cmd_report(args.run_dirs), end="")
        return 0
    config = _load(args)
    if args.command == "prepare":
        ex.cmd_prepare(config)
        print(f"prepared split under {config.out_dir}/prepared")
        return 0
    if args.command == "tune":
        split, store = ex.cmd_prepare(config)
        best = ex.cmd_tune(config, split, ModelData.from_split(split, store),
                           ex.run_dir(config), threads=args.threads)
        print(f"best lr={best.lr} reg={best.reg} "
              f"recall@20={best.best_value:.4f}")
        return 0
    if args.command == "train":
        ex.run_single(config, threads=args.threads)
        print(f"run artifacts under {ex.run_dir(config)}")
        return 0
    if args.command == "evaluate":
        ex.check_trained_split(config, ex.run_dir(config))
        split, store = ex.cmd_prepare(config)
        report = ex.cmd_evaluate(config, split, store, ex.run_dir(config),
                                 threads=args.threads)
        for k in config.cutoffs:
            line = " ".join(f"{m}@{k}={report.get(m, k):.4f}"
                            for m in ("recall", "ndcg"))
            print(line)
        return 0
    if args.command == "benchmark":
        models = None
        if args.models is not None:
            models = tuple(t.strip() for t in args.models.split(",") if t.strip())
        ex.cmd_benchmark(config, models=models, threads=args.threads)
        print(f"benchmark report at {config.out_dir}/report.md")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return run(args)
    except (ex.ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything mid-run is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
