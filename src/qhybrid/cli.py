"""Command-line entry point.

Verbs: train-ae, encode, qtransform, train-clf, eval, pipeline. Each verb
names a target stage; it runs that stage and every stage upstream of it,
each served from the cache when its record still matches; ``eval`` is
another name for ``train-clf``, whose stage also scores the classifier.
Exit codes: 0 success, 1 internal error, 2 bad config/data,
3 threshold failure under --check.
"""

from __future__ import annotations

import argparse
import sys

from .archive import ArchiveError
from .config import ConfigError, load_config
from .data import IdxFormatError
from .pipeline import (
    FEATURE_SETS,
    STAGES,
    StageError,
    StagePaths,
    check_thresholds,
    run_pipeline,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_CHECK = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhybrid",
        description="hybrid quantum-classical digit classification experiments",
    )
    parser.add_argument("--config", required=True, help="path to key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    parser.add_argument("--force", action="store_true",
                        help="re-run every stage the verb runs, even when its cached outputs "
                             "match the config and inputs")
    parser.add_argument("--check", action="store_true",
                        help="after running, fail (exit 3) if the verb's stages miss their floors")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train-ae", help="train the autoencoder stage")
    sub.add_parser("encode", help="cache latent features from the trained autoencoder")
    sub.add_parser("qtransform", help="run the quantum feature transform over latents")
    p = sub.add_parser("train-clf", aliases=["eval"],
                       help="train a classifier on a chosen feature set and test it")
    p.add_argument("--features", choices=FEATURE_SETS, default="quantum")
    sub.add_parser("pipeline", help="run every stage end to end with caching")
    return parser


def _run(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)

    features = getattr(args, "features", None)
    target = {"pipeline": "summary", "train-clf": f"clf-{features}",
              "eval": f"clf-{features}"}.get(args.command, args.command)
    if target == "summary":
        print(run_pipeline(cfg, force=args.force), end="")
    else:
        run_pipeline(cfg, target, force=args.force)
        for path in STAGES[target].outputs(StagePaths(cfg.out_dir)):
            print(f"output: {path}")

    if args.check:
        failures = check_thresholds(cfg, StagePaths(cfg.out_dir), target)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return EXIT_CHECK
        print("all checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, IdxFormatError, ArchiveError, StageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
