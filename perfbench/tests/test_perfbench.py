"""Fast tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Every workload runs end to end at its tiny size, and every output check is
shown to fail on a planted error.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from soundloc import autodiff as ad  # noqa: E402
from soundloc import harness, metrics  # noqa: E402
from soundloc.model import SoundLocalizer  # noqa: E402
from soundloc.synth import SceneFlags  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- whole workloads at tiny size ------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_size(name, trace):
    proc = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "results", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "train-b16", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_wrapped_function():
    before = (harness.train, ad.backward, SoundLocalizer.perceive)
    with Tracer():
        assert harness.train is not before[0]
    assert (harness.train, ad.backward, SoundLocalizer.perceive) == before


def test_layer_metrics_split_self_time_and_steps():
    def span(name, start, end, parent, **attrs):
        return {"name": name, "start_ns": start * 10**6, "end_ns": end * 10**6,
                "parent": parent, **attrs}
    tape = {"nodes": 3, "by_op": {"matmul": 2, "add": 1}, "bytes": 2**20}
    spans = [
        span("harness.train", 0, 100, -1),                                  # 0
        span("synth.make_batch", 0, 4, 0, scenes=2),                        # 1
        span("harness.warmup_image_encoder", 4, 10, 0),                     # 2
        span("autodiff.warmup_backward", 5, 7, 2),                          # 3
        span("harness.batch_loss", 10, 30, 0),                              # 4
        span("model.perceive", 10, 15, 4),                                  # 5
        span("trace.tape_walk", 30, 31, 0),                                 # 6
        span("autodiff.backward", 31, 61, 0, tape=tape),                    # 7
        span("optim.step", 61, 63, 0),                                      # 8
        span("harness.predict_eval_samples", 63, 73, 0, scenes=5),          # 9
        span("metrics.ciou", 73, 75, 0),                                    # 10
        span("harness.batch_loss", 75, 80, 0),                              # 11: probe loss
        span("harness.save_model", 80, 90, 0),                              # 12
    ]
    out = layer_metrics(spans, "train", load_ms=3.0)
    assert out["harness.step_ms"] == 52.0          # 10..63 less the 1 ms tape walk
    assert out["autodiff.backward_ms"] == 30.0
    assert out["model.perceive_ms"] == 5.0
    assert out["harness.batch_loss_self_ms"] == 15.0
    assert out["harness.steps_traced"] == 1.0
    assert out["synth.scene_ms"] == 2.0
    assert out["harness.predict_ms_per_scene"] == 2.0
    assert out["metrics.report_ms"] == 2.0
    assert out["harness.write_outputs_ms"] == 10.0
    assert out["autodiff.tape_nodes.matmul"] == 2.0 and out["autodiff.tape_mib"] == 1.0
    assert out["trace.unattributed_pct"] == pytest.approx(10.0)   # 90..100


# -- planted errors: training ------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = workload.train_config("train-b16", 5, "tiny", out)
    model, log = harness.train(cfg)
    return cfg, model, log, out / "model.splt"


def test_training_checks_pass_on_the_real_run(trained):
    cfg, model, log, ckpt = trained
    assert checks.bad_steps(log.steps, cfg) == []
    assert checks.check_step_count(log.steps, cfg)[0]
    assert checks.check_loss_decreases(log.steps)[0]
    assert checks.check_frozen(model, log)[0]
    assert checks.check_reload(cfg, harness.load_model(cfg, ckpt), model, log)[0]
    assert checks.gradient_check(cfg, model, coords_per_tensor=1)[0]


def test_step_check_catches_wrong_total_and_bad_parts(trained):
    cfg, _, log, _ = trained
    steps = [dict(s) for s in log.steps]
    steps[1]["total"] += 1e-3
    steps[2]["l_reg"] = float("nan")
    steps[3]["l_img"] = -steps[3]["l_img"]
    assert checks.bad_steps(steps, cfg) == [1, 2, 3]


def test_step_count_and_loss_checks_catch_planted_logs(trained):
    cfg, _, log, _ = trained
    assert not checks.check_step_count(log.steps[:-1], cfg)[0]
    swapped = [dict(s, epoch=1 - s["epoch"]) for s in log.steps]
    assert not checks.check_loss_decreases(swapped)[0]


def test_frozen_check_catches_a_moved_frozen_parameter(trained):
    _, model, log, _ = trained
    p = next(iter(model.encoder_parameters().values()))
    saved = p.data.copy()
    try:
        p.data = p.data + np.float32(1e-3)
        assert not checks.check_frozen(model, log)[0]
    finally:
        p.data = saved


def test_reload_check_catches_a_changed_checkpoint(trained, tmp_path):
    cfg, model, log, ckpt = trained
    params = {k: t.data.copy() for k, t in model.parameters().items()}
    params["decoder.head_b"] += np.float32(1e-2)
    moved = tmp_path / "model.splt"
    from soundloc import checkpoint
    checkpoint.save_checkpoint(moved, params)
    assert not checks.check_reload(cfg, harness.load_model(cfg, moved), model, log)[0]


def test_gradient_check_catches_a_scaled_gradient(trained, monkeypatch):
    cfg, model, _, _ = trained
    real = ad.backward

    def scaled(root):
        real(root)
        seen, todo = set(), [root]
        while todo:
            t = todo.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t.op is None and t.grad is not None:
                t.grad = t.grad * 1.01
            todo.extend(t.parents)

    monkeypatch.setattr(ad, "backward", scaled)
    ok, detail = checks.gradient_check(cfg, model, coords_per_tensor=1)
    assert not ok and detail["mismatched"]


# -- planted errors: evaluation ----------------------------------------------------

@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval")
    cfg = workload.eval_config(7, "tiny", out)
    harness.train(cfg)
    model = harness.load_model(cfg, out / "model.splt")
    scenes = harness.benchmark_scenes(cfg, "extended-analog")
    harness.evaluate(model, cfg, "extended-analog", out_dir=out)
    masks = [ev.pred_mask for ev in harness.predict_eval_samples(model, scenes)]
    return cfg, model, scenes, masks, out


def test_eval_checks_pass_on_the_real_run(evaluated):
    cfg, model, scenes, masks, out = evaluated
    assert checks.bad_masks(masks, cfg.encoder.image_size) == []
    assert checks.check_chunk_vs_alone(model, scenes, masks, range(4))[0]
    assert checks.check_matched_decode(model, scenes[:8])[0]
    assert checks.check_reports(out, "extended-analog",
                                checks.reference_metrics(masks, scenes))[0]


def test_mask_check_catches_out_of_range_nan_and_shape(evaluated):
    cfg, _, _, masks, _ = evaluated
    planted = [m.copy() for m in masks[:4]]
    planted[0][3, 3] = 1.5
    planted[1][0, 0] = np.nan
    planted[2] = planted[2][:-1]
    assert checks.bad_masks(planted, cfg.encoder.image_size) == [0, 1, 2]


def test_chunk_check_catches_a_perturbed_mask(evaluated):
    _, model, scenes, masks, _ = evaluated
    planted = [m.copy() for m in masks]
    planted[2] += 1e-4
    assert not checks.check_chunk_vs_alone(model, scenes, planted, [2])[0]


def test_matched_decode_check_catches_a_perturbed_prediction(evaluated, monkeypatch):
    _, model, scenes, _, _ = evaluated
    real = SoundLocalizer.predict_masks
    monkeypatch.setattr(SoundLocalizer, "predict_masks",
                        lambda self, im, au: real(self, im, au) * np.float32(1 + 1e-6))
    assert not checks.check_matched_decode(model, scenes[:8])[0]


def test_report_check_catches_a_perturbed_mask(evaluated):
    _, _, scenes, masks, out = evaluated
    planted = [m.copy() for m in masks]
    planted[0] = planted[0] * 0.5
    ok, detail = checks.check_reports(out, "extended-analog",
                                      checks.reference_metrics(planted, scenes))
    assert not ok and "json per_sample confidence" in detail["mismatched"]


def test_report_check_catches_an_altered_report_value(evaluated, tmp_path):
    _, _, scenes, masks, out = evaluated
    ref = checks.reference_metrics(masks, scenes)
    for name in ("report_extended-analog.csv", "report_extended-analog.json"):
        shutil.copy(out / name, tmp_path / name)
    path = tmp_path / "report_extended-analog.csv"
    rows = list(csv.reader(path.open()))
    rows[1][2] = repr(float(rows[1][2]) + 1e-9)      # auc
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    ok, detail = checks.check_reports(tmp_path, "extended-analog", ref)
    assert not ok and detail["mismatched"] == ["csv auc"]


def test_reference_metrics_agree_with_the_program_on_random_masks():
    rng = np.random.default_rng(0)
    n, s = 60, 8

    class Scene:
        pass

    scenes, masks, evs = [], [], []
    for i in range(n):
        sc = Scene()
        sc.gt_mask = rng.random((s, s)) < 0.3
        sc.gt_box_mask = sc.gt_mask | (rng.random((s, s)) < 0.1)
        sc.flags = SceneFlags(matched=bool(rng.random() < 0.7), visible=True,
                              audible=bool(rng.random() < 0.8))
        # coarse values so that confidences tie, as silent scenes do
        m = np.round(rng.random((s, s)) * 4) / 4
        scenes.append(sc)
        masks.append(m)
        evs.append(metrics.EvalSample(pred_mask=m, gt_mask=sc.gt_mask, flags=sc.flags,
                                      gt_box_mask=sc.gt_box_mask))
    ref = checks.reference_metrics(masks, scenes)
    rep = metrics.compute_report(evs)
    for key in checks.REPORT_KEYS:
        assert ref[key] == pytest.approx(getattr(rep, key), abs=1e-12), key
    assert ref["per_sample_iou"] == rep.per_sample_iou
