"""One benchmark workload, run in a process of its own.

``run.py`` starts this file; it is not meant to be called by hand.  The
process sets up (imports, configuration and, for ``eval-suite``, a
checkpoint made by a child process), records the moment of its first timed
call, runs closed-loop timed calls into ``soundloc.harness`` for the given
number of seconds, then checks the outputs and writes a JSON result file.

With ``--trace 1`` the calls alternate between untraced and traced, with
every traced function wrapped (see ``tracer.py``); the difference in
throughput between the two kinds of call is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from soundloc import harness
from soundloc.harness import RunConfig

import checks
from tracer import Tracer, layer_metrics

WORKLOADS = ("train-b16", "train-ensemble-b8", "eval-suite")
EVAL_BENCHMARKS = ("s4-analog", "ms3-analog", "extended-analog", "heard")

# Input sizes.  "full" is what BENCHMARK.json runs; "tiny" keeps every
# workload's shape (batch size, fusion mode, benchmarks) at a few seconds,
# for the benchmark's own tests.
SIZES = {
    "full": {"train_samples": 256, "epochs": 2, "eval_samples": 512,
             "checkpoint_samples": 120, "grad_coords": 2, "alone_scenes": 8},
    "tiny": {"train_samples": 40, "epochs": 2, "eval_samples": 16,
             "checkpoint_samples": 40, "grad_coords": 1, "alone_scenes": 2},
}
MATCHED_DECODE_BATCH = 8


def monotonic() -> float:
    """System-wide clock, comparable between this process and its parent."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def train_config(workload: str, seed: int, size: str, out_dir: Path) -> RunConfig:
    """The default RunConfig, shortened; ensemble prompts at B = 8 for
    ``train-ensemble-b8``."""
    sz = SIZES[size]
    d = RunConfig(seed=seed, epochs=sz["epochs"], train_samples=sz["train_samples"],
                  out_dir=str(out_dir)).to_dict()
    if workload == "train-ensemble-b8":
        d["prompt"]["fusion_mode"] = "ensemble"
        d["batch_size"] = 8
    return RunConfig.from_dict(d)


def eval_config(seed: int, size: str, out_dir: Path) -> RunConfig:
    """Checkpoint config: the default model trained one epoch at B = 4.

    Eval cost does not depend on how well the model learned, but the output
    checks do: these 24 cheap steps already lift masks across the 0.5
    threshold behind mIoU and the F-score."""
    sz = SIZES[size]
    return RunConfig(seed=seed, epochs=1, batch_size=4, train_samples=sz["checkpoint_samples"],
                     eval_samples=sz["eval_samples"], out_dir=str(out_dir))


def timed_calls(call, seconds: float, tracer: Tracer | None = None) -> list[tuple]:
    """Closed loop: call once, then again while the next call is expected
    to end within ``seconds`` of the first call's start.

    With a tracer, calls alternate untraced and traced, at least one of
    each.  Returns ``(seconds, result, traced)`` per call.
    """
    out = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(out) % 2 == 1
        if traced:
            tracer.install()
        try:
            t = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t
        finally:
            if traced:
                tracer.uninstall()
        out.append((dt, result, traced))
        if (tracer is None or len(out) >= 2) and time.perf_counter() - t0 + dt > seconds:
            return out


def environment() -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{info.get('name', '?')} {info.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- train workloads -------------------------------------------------------------

def run_train(args, result: dict) -> None:
    cfg = train_config(args.workload, args.seed, args.size, args.out / "train")
    ckpt = Path(cfg.out_dir) / "model.splt"
    samples = cfg.epochs * checks.train_split_size(cfg)
    per_call = checks.expected_steps(cfg)
    calls = []

    def call():
        model, log = harness.train(cfg)
        calls.append({"steps": log.steps, "sha256": checks.sha256_file(ckpt)})
        return model, log

    result["first_call"] = monotonic()
    if args.setup_only:
        return
    tracer = Tracer() if args.trace else None
    timed = timed_calls(call, args.seconds, tracer)
    finish_timing(result, timed, samples, tracer)
    model, log = timed[-1][1]

    t = time.perf_counter()
    loaded = harness.load_model(cfg, ckpt)
    load_ms = (time.perf_counter() - t) * 1e3
    if tracer:
        result["layers"] = {**layer_metrics(result["spans"], "train", load_ms),
                            **result["trace"]}

    result["attempted"] = per_call * len(timed)
    result["failed"] = sum(len(checks.bad_steps(c["steps"], cfg)) for c in calls)
    result["model_sha256"] = sorted({c["sha256"] for c in calls})
    result["checks"] = {
        "step_count": checks.check_step_count(log.steps, cfg),
        "loss_decreases": checks.check_loss_decreases(log.steps),
        "frozen_encoders": checks.check_frozen(model, log),
        "reload_final_loss": checks.check_reload(cfg, loaded, model, log),
        "gradient": checks.gradient_check(cfg, model, SIZES[args.size]["grad_coords"]),
        "same_checkpoint_every_call": (len(result["model_sha256"]) == 1,
                                       {"sha256": result["model_sha256"]}),
    }


# -- eval workload ---------------------------------------------------------------

def make_checkpoint(seed: int, size: str, out_dir: Path, trace_file: Path | None) -> None:
    cfg = eval_config(seed, size, out_dir)
    if trace_file is None:
        harness.train(cfg)
        return
    with Tracer() as tracer:
        harness.train(cfg)
    trace_file.write_text(json.dumps(tracer.spans()))


def run_eval(args, result: dict) -> None:
    ckpt_dir = args.out / "checkpoint"
    trace_file = args.out / "checkpoint_spans.json"
    subprocess.run([sys.executable, __file__, "--make-checkpoint", str(ckpt_dir),
                    "--seed", str(args.seed), "--size", args.size]
                   + (["--trace-file", str(trace_file)] if args.trace else []), check=True)
    cfg = eval_config(args.seed, args.size, ckpt_dir)
    t = time.perf_counter()
    model = harness.load_model(cfg, ckpt_dir / "model.splt")
    load_ms = (time.perf_counter() - t) * 1e3
    report_dir = args.out / "reports"
    scenes_per_suite = cfg.eval_samples * len(EVAL_BENCHMARKS)
    digests = []

    def call():
        for bench in EVAL_BENCHMARKS:
            harness.evaluate(model, cfg, bench, out_dir=report_dir)
        digests.append({name: checks.sha256_file(report_dir / name)
                        for b in EVAL_BENCHMARKS
                        for name in (f"report_{b}.csv", f"report_{b}.json")})

    result["first_call"] = monotonic()
    if args.setup_only:
        return
    tracer = Tracer() if args.trace else None
    timed = timed_calls(call, args.seconds, tracer)
    finish_timing(result, timed, scenes_per_suite, tracer)
    if tracer:
        # the checkpoint's training spans follow the workload's own
        offset = len(result["spans"])
        result["spans"] += [dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1)
                            for s in json.loads(trace_file.read_text())]
        result["layers"] = {**layer_metrics(result["spans"], "eval", load_ms),
                            **result["trace"]}

    size = cfg.encoder.image_size
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 98]))
    invalid = 0
    result["checks"] = {}
    for bench in EVAL_BENCHMARKS:
        scenes = harness.benchmark_scenes(cfg, bench)
        masks = [ev.pred_mask for ev in harness.predict_eval_samples(model, scenes)]
        bad = checks.bad_masks(masks, size)
        invalid += len(bad)
        alone = rng.choice(len(scenes), size=SIZES[args.size]["alone_scenes"], replace=False)
        result["checks"].update({
            f"{bench}.masks_valid": (not bad, {"invalid": bad[:10]}),
            f"{bench}.chunk_vs_alone": checks.check_chunk_vs_alone(model, scenes, masks, alone),
            f"{bench}.matched_decode": checks.check_matched_decode(
                model, scenes[:MATCHED_DECODE_BATCH]),
            f"{bench}.reports": checks.check_reports(
                report_dir, bench, checks.reference_metrics(masks, scenes)),
        })
    result["checks"]["same_reports_every_call"] = (
        all(d == digests[0] for d in digests), {"calls": len(digests)})
    result["attempted"] = scenes_per_suite * len(timed)
    result["failed"] = invalid * len(timed)
    result["report_sha256"] = digests[-1]


# -- timing ----------------------------------------------------------------------

def finish_timing(result: dict, timed, samples: int, tracer: Tracer | None) -> None:
    """Throughput of the untraced calls, peak RSS and, for a traced run, the
    spans and the tracing overhead."""
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["call_seconds"] = [dt for dt, _, _ in timed]
    result["samples_per_s"] = statistics.median(
        samples / dt for dt, _, traced in timed if not traced)
    if tracer is None:
        return
    traced_sps = statistics.median(samples / dt for dt, _, traced in timed if traced)
    result["trace"] = {"trace.samples_per_s": traced_sps,
                       "trace.overhead_pct": 100.0 * (1.0 - traced_sps / result["samples_per_s"])}
    result["spans"] = tracer.spans()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--out", type=Path, help="run directory")
    ap.add_argument("--result", type=Path, help="where to write the JSON result")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed call (a set-up time sample)")
    ap.add_argument("--make-checkpoint", type=Path, metavar="DIR",
                    help="train the eval-suite checkpoint into DIR and exit")
    ap.add_argument("--trace-file", type=Path,
                    help="with --make-checkpoint: trace the training, write its spans here")
    args = ap.parse_args(argv)

    if args.make_checkpoint:
        make_checkpoint(args.seed, args.size, args.make_checkpoint, args.trace_file)
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "size": args.size}
    if args.workload == "eval-suite":
        run_eval(args, result)
    else:
        run_train(args, result)
    result["environment"] = environment()
    args.result.write_text(json.dumps(result, default=_plain) + "\n")
    return 0


def _plain(v):
    """JSON for the numpy scalars some checks return."""
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


if __name__ == "__main__":
    sys.exit(main())
