"""Run one soundloc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-b16 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is used from ``src/`` as it
stands; nothing is installed.  The workload runs in a child process with
one BLAS thread (``workload.py``); set-up is sampled in three processes
and reported as the median.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result (checks, environment, spans)
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def git_commit(root: Path) -> str:
    """HEAD of the repository at ``root`` itself, never of a directory above."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> float:
    """Start a workload process, wait for it and return its start time."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv], env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: workload process timed out: {argv}")
    if code != 0:
        raise SystemExit(f"perfbench: workload process failed with exit code {code}")
    return start


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: every workload at a few seconds (for the tests)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "soundloc" / "__init__.py").is_file():
        print(f"perfbench: no soundloc sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = HERE / "runs" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--size", args.size]

    setup = []
    for k in range(SETUP_SAMPLES - 1):
        probe = run_dir / f"setup{k}"
        start = run_child(common + ["--out", str(probe), "--result", str(probe / "result.json"),
                                    "--setup-only"], env, deadline)
        setup.append(json.loads((probe / "result.json").read_text())["first_call"] - start)
    out_file = run_dir / "result.json"
    start = run_child(common + ["--out", str(run_dir), "--result", str(out_file)], env, deadline)
    res = json.loads(out_file.read_text())
    setup.append(res["first_call"] - start)

    if args.trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        measured = {"setup_s": statistics.median(setup),
                    "samples_per_s": res["samples_per_s"],
                    "peak_rss_mib": res["peak_rss_mib"]}
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    failed_checks = sorted(name for name, (ok, _) in res["checks"].items() if not ok)
    res.update(setup_s_samples=setup, git_commit=git_commit(root), metrics=metrics,
               failed_checks=failed_checks)
    (results / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    for name, (ok, detail) in sorted(res["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'} {json.dumps(detail)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed_checks,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
