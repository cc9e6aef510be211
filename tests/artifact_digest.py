"""Print the sha256 of every artifact a fixed set of CLI runs writes.

Two trees that compute the same bytes print the same lines, so comparing
this script's output before and after a change (or on two CPU counts)
checks that the change kept every artifact byte for byte:

    PYTHONPATH=src python tests/artifact_digest.py > before.txt
    PYTHONPATH=src taskset -c 0 python tests/artifact_digest.py > one-cpu.txt
    diff before.txt one-cpu.txt

Through ``soundloc.cli.main`` it trains ``none`` at B = 16 and ``ensemble``
and ``fused`` at B = 8 (96 scenes, 2 epochs), scores each run on four
benchmarks, renders 8 heatmaps of each, dumps a 6-scene ``gen-data`` set
and runs a two-value ``epochs`` ablation.  It prints one ``sha256
relative/path`` line per file, sorted by path.  ``trainlog.json`` is hashed
by its ``steps`` and ``config.json`` without ``out_dir``: the rest of them
records wall-clock time and paths.  Takes about ten seconds on two CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from soundloc import cli

RUNS = {"none": 16, "ensemble": 8, "fused": 8}      # fusion mode: batch size
BENCHMARKS = ("s4-analog", "ms3-analog", "extended-analog", "heard")


def soundloc(*argv: str) -> None:
    """Run one CLI command; its printout (wall-clock time included) is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"soundloc {' '.join(argv)} exited {code}")


def write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields))
    return str(path)


def digest(path: Path) -> str:
    if path.name == "trainlog.json":
        data = json.dumps(json.loads(path.read_text())["steps"], sort_keys=True).encode()
    elif path.name == "config.json":
        cfg = json.loads(path.read_text())
        cfg.pop("out_dir")
        data = json.dumps(cfg, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def make_artifacts(root: Path, configs: Path) -> None:
    for mode, batch in RUNS.items():
        run = root / mode
        config = write_config(configs / f"{mode}.json", train_samples=96, epochs=2,
                              batch_size=batch, eval_samples=8,
                              prompt={"fusion_mode": mode}, out_dir=str(run))
        soundloc("train", "--config", config)
        ckpt = str(run / "model.splt")
        for bench in BENCHMARKS:
            soundloc("eval", "--ckpt", ckpt, "--benchmark", bench)
        soundloc("render", "--ckpt", ckpt, "--out", str(run / "heatmaps"))
    small = write_config(configs / "small.json", train_samples=16, epochs=1, batch_size=8,
                         eval_samples=8, warmup_epochs=0, out_dir=str(root / "small"))
    soundloc("gen-data", "--config", small, "--out", str(root / "gen-data"), "--count", "6")
    soundloc("ablate", "--config", small, "--dimension", "epochs", "--values", "1,2",
             "--out", str(root / "ablation"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "artifacts"
        make_artifacts(root, Path(tmp))
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
