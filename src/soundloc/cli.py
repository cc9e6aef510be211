"""Command-line entry point.

Exit codes: 0 success, 1 aborted training run, 2 contract violation
(bad config or argument), 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, synth
from .autodiff import ContractViolation
from .checkpoint import CheckpointError
from .harness import RunConfig, TrainingAborted


def _load_config(path: str, seed: int | None) -> RunConfig:
    cfg = RunConfig.load(path)
    if seed is not None:
        d = cfg.to_dict()
        d["seed"] = seed
        cfg = RunConfig.from_dict(d)
    return cfg


def _config_beside(ckpt: str, explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    sibling = Path(ckpt).parent / "config.json"
    if not sibling.is_file():
        raise ContractViolation(
            f"no config.json next to {ckpt}; pass --config explicitly")
    return sibling


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    _, log = harness.train(cfg)
    print(f"trained {log.trainable_params} of {log.total_params} parameters; "
          f"final loss {log.final_loss:.6f} "
          f"({log.wall_clock_sec:.1f}s) -> {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(_config_beside(args.ckpt, args.config), args.seed)
    model = harness.load_model(cfg, args.ckpt)
    out = Path(args.out) if args.out else Path(args.ckpt).parent
    report = harness.evaluate(model, cfg, args.benchmark, out_dir=out)
    row = report.as_dict()
    print(", ".join(f"{k}={harness._fmt(row[k])}"
                    for k in harness.REPORT_COLUMNS[1:]))
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    values = [_parse_value(v) for v in args.values.split(",") if v]
    if not values:
        raise ContractViolation("--values must list at least one value")
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    rows = harness.ablate(cfg, args.dimension, values, out_dir=out)
    print(json.dumps(rows, indent=1))
    return 0


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def cmd_render(args) -> int:
    cfg = _load_config(_config_beside(args.ckpt, args.config), args.seed)
    model = harness.load_model(cfg, args.ckpt)
    scenes = harness.benchmark_stream(cfg, args.benchmark)
    index = harness.render_heatmaps(model, scenes, args.out)
    print(f"wrote {len(index)} heatmap triples to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, args.seed)
    count = args.count if args.count is not None else cfg.train_samples
    if count < 1:
        raise ContractViolation(f"--count must be >= 1, got {count}")
    mode = harness.BENCHMARKS.get(args.benchmark, args.benchmark)
    synth.dump_dataset(synth.SceneStream(cfg.generator, count, mode, base_seed=cfg.seed),
                       args.out)
    print(f"wrote {count} scenes ({mode}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="soundloc",
                                description="Sound-aware localization workbench")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="run a full training job")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="score a checkpoint on one benchmark")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--benchmark", required=True,
                    choices=sorted(harness.BENCHMARKS))
    sp.add_argument("--config", default=None,
                    help="defaults to config.json beside the checkpoint")
    sp.add_argument("--out", default=None,
                    help="report directory (default: checkpoint's directory)")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ablate", help="sweep one design dimension")
    sp.add_argument("--config", required=True)
    sp.add_argument("--dimension", required=True,
                    choices=harness.ABLATION_DIMENSIONS)
    sp.add_argument("--values", required=True,
                    help="comma-separated values, e.g. 4,8,16")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("render", help="export heatmap PGMs for a benchmark")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--benchmark", default="s4-analog",
                    choices=sorted(harness.BENCHMARKS))
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--benchmark", default="s4-analog")
    sp.add_argument("--count", type=int, default=None)
    sp.set_defaults(func=cmd_gen_data)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, CheckpointError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except TrainingAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
