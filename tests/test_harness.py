"""Tests for run configuration, the training loop, evaluation, ablations,
rendering, and the command-line surface.

Training-based tests run on deliberately tiny configs (one or two epochs,
dozens of samples) so the whole module stays in the tens of seconds; the
full-scale quantitative gates live in the acceptance suite.
"""

import dataclasses
import functools
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import tracemalloc
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import formats, harness, metrics, synth
from soundloc.autodiff import ContractViolation
from soundloc.checkpoint import load_checkpoint, save_checkpoint
from soundloc.cli import main
from soundloc.encoders import EncoderConfig
from soundloc.harness import (
    OptimConfig,
    RunConfig,
    TrainingAborted,
    batch_loss,
    benchmark_scenes,
    build_model,
    evaluate,
    final_loss_of,
    load_model,
    parameter_checksum,
    predict_eval_samples,
    render_heatmaps,
    token_order_label,
    train,
)
from soundloc.losses import LossWeights
from soundloc.model import SoundLocalizer
from soundloc.prompting import PromptConfig

from _gradcheck import grad_check
from _oracles import decode_export
from _workers import SHARES, error_of, inline


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _tiny_cfg(out_dir, **overrides) -> RunConfig:
    base = dict(seed=0, epochs=1, train_samples=64, eval_samples=8,
                batch_size=16, warmup_epochs=1, out_dir=str(out_dir))
    base.update(overrides)
    return RunConfig(**base)


def _python_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new Python process that imports soundloc from this
    source tree."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def _run_python(code: str, *args: str) -> str:
    """``_python_child``'s standard output; it must succeed."""
    proc = _python_child(code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- scoring shared with the scene worker -------------------------------------

_OPEN_SET = synth.GeneratorConfig(train_class_count=5)      # unheard needs held-out classes


def _stream_cfg(cfg: RunConfig, eval_samples: int) -> RunConfig:
    return dataclasses.replace(cfg, eval_samples=eval_samples, generator=_OPEN_SET)


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("pred_mask", "gt_mask", "gt_box_mask"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.flags == b.flags


def _chunk_of(cfg: RunConfig, benchmark: str):
    """The chunk a list of a benchmark's stream's scenes is, by its first scene's seed."""
    mode = harness.BENCHMARKS[benchmark]
    first = {synth._sample_seed(cfg.seed, mode, k * synth.PREDICT_CHUNK): k
             for k in range(harness.benchmark_stream(cfg, benchmark).chunks)}
    return lambda scenes: first[scenes[0].seed]


def _in_the_worker(function, k):
    """``function()`` with the pid that ran it, as item 1 of
    ``synth.alternate(2, ...)``, the scene worker's; item 0 does nothing."""
    return (os.getpid(), function()) if k else None


def _worker_call(function):
    """``function()`` run in the scene worker."""
    pid, result = list(synth.alternate(2, functools.partial(_in_the_worker, function)))[1]
    assert pid == synth._worker.pid != os.getpid()
    return result


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = _tiny_cfg(out)
    model, log = train(cfg)
    return cfg, model, log, out


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.batch_size == 16
        assert cfg.epochs == 20
        assert cfg.optimizer.lr == 1e-3
        assert cfg.optimizer.weight_decay == 1e-5
        assert (cfg.optimizer.beta1, cfg.optimizer.beta2) == (0.9, 0.999)
        assert cfg.optimizer.eps == 1e-8

    def test_schema_is_pinned(self):
        """The exact settable keys, top level and per block: adding or
        retiring a config knob shows up here."""
        d = RunConfig().to_dict()
        assert set(d) == {"seed", "dtype", "encoder", "prompt", "loss", "generator",
                          "optimizer", "batch_size", "epochs", "train_samples",
                          "eval_samples", "val_fraction", "warmup_epochs", "warmup_lr",
                          "out_dir"}
        assert {block: set(d[block]) for block in harness._BLOCKS} == {
            "encoder": {"embed_dim", "image_size", "patch_size", "text_layers",
                        "text_heads", "max_text_len"},
            "prompt": {"context_length", "va_position", "fusion_mode"},
            "loss": {"lambda1", "lambda2", "lambda3", "temperature", "p_plus", "p_minus"},
            "generator": {"num_classes", "image_size", "single_radius", "multi_radius",
                          "snr_db", "mismatch_fraction", "silent_fraction",
                          "train_class_count"},
            "optimizer": {"lr", "weight_decay", "beta1", "beta2", "eps"},
        }

    def test_round_trip_lossless(self, tmp_path):
        cfg = RunConfig(seed=7, dtype="float64", epochs=3, batch_size=4,
                        out_dir="runs/x")
        cfg.prompt.context_length = 8
        cfg.loss.lambda3 = 0.25
        path = tmp_path / "config.json"
        cfg.save(path)
        back = RunConfig.load(path)
        assert back.to_dict() == cfg.to_dict()
        assert isinstance(back.generator.single_radius, tuple)
        assert back.prompt.context_length == 8
        assert back.loss.lambda3 == 0.25

    def test_double_round_trip_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        RunConfig().save(p1)
        RunConfig.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [
        {"dtype": "float16"},
        {"batch_size": 1},
        {"val_fraction": 1.0},
        {"val_fraction": -0.1},
        {"epochs": -3},
        {"warmup_epochs": -1},
        {"seed": -1},
        {"warmup_lr": 0.0},
        {"warmup_lr": -3e-3},
        {"train_samples": 1},
        {"train_samples": 0},
        {"train_samples": 4, "val_fraction": 0.7},
        {"eval_samples": 0},
        {"encoder": EncoderConfig(image_size=64)},   # scenes are 32 pixels wide
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ContractViolation):
            RunConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"lr": 0.0}, {"lr": -0.001}, {"weight_decay": -1e-5},
        {"beta1": -0.1}, {"beta1": 1.0}, {"beta2": 1.0}, {"beta2": 1.5},
        {"eps": 0.0}, {"eps": -1e-8},
        {"lr": math.nan}, {"beta1": math.nan}, {"eps": math.nan},
    ])
    def test_invalid_optimizer(self, bad):
        with pytest.raises(ContractViolation, match=next(iter(bad))):
            OptimConfig(**bad)

    def test_optimizer_range_edges_accepted(self):
        cfg = OptimConfig(weight_decay=0.0, beta1=0.0, beta2=0.0)
        assert (cfg.weight_decay, cfg.beta1, cfg.beta2) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_floats_refused_in_every_field(self, value):
        """Every float field, at top level and in every block, refuses a
        value no float64 can hold finitely, naming the field."""
        blocks = {None: RunConfig, **harness._BLOCKS}
        checked = 0
        for block, kind in blocks.items():
            for f in dataclasses.fields(kind):
                if typing.get_type_hints(kind)[f.name] is not float:
                    continue
                d = RunConfig().to_dict()
                (d if block is None else d[block])[f.name] = value
                with pytest.raises(ContractViolation, match=f"'{f.name}'"):
                    RunConfig.from_dict(d)
                checked += 1
        assert checked >= 14

    # Config fields drawn for the property below: values that fit together,
    # and small ranges around them that include zero and negative values.
    # "classes" is (num_classes, train_class_count); "fractions" is
    # (mismatch_fraction, silent_fraction).
    FITTING = {"single_radius": st.tuples(st.integers(2, 3), st.integers(4, 5)),
               "multi_radius": st.tuples(st.integers(2, 3), st.integers(3, 4)),
               "patch_size": st.sampled_from([1, 2, 4]),
               "text_heads": st.sampled_from([1, 2, 4, 8]),
               "embed_dim": st.sampled_from([16, 32]),
               "text_layers": st.integers(0, 2),
               "max_text_len": st.sampled_from([8, 32]),
               "context_length": st.integers(0, 4),
               "classes": st.integers(1, 8).flatmap(
                   lambda k: st.tuples(st.just(k), st.integers(1, k))),
               "encoder_size": st.sampled_from([12, 16]),
               "generator_size": st.none(),      # as wide as the encoder's
               "epochs": st.integers(0, 2),
               "fractions": st.tuples(st.sampled_from([0.0, 0.25, 0.5]),
                                      st.sampled_from([0.0, 0.25, 0.5]))}
    ANY = {"single_radius": st.tuples(st.integers(-1, 12), st.integers(-1, 12)),
           "multi_radius": st.tuples(st.integers(-1, 8), st.integers(-1, 8)),
           "patch_size": st.integers(-1, 8),
           "text_heads": st.integers(-1, 8),
           "embed_dim": st.integers(-1, 48),
           "text_layers": st.integers(-2, 3),
           "max_text_len": st.integers(-1, 8),
           "context_length": st.integers(-1, 10),
           "classes": st.tuples(st.integers(-1, 9), st.integers(-1, 9)),
           "encoder_size": st.integers(-2, 24),
           "generator_size": st.integers(-2, 24),
           "epochs": st.integers(-3, 3),
           "fractions": st.tuples(st.floats(-1, 2), st.floats(-1, 2))}

    @st.composite
    def config_values(draw):
        """One or two fields from the wide ranges, the rest from fitting values."""
        wide, fitting = TestRunConfig.ANY, TestRunConfig.FITTING
        wild = draw(st.sets(st.sampled_from(sorted(wide)), min_size=1, max_size=2))
        return {k: draw((wide if k in wild else fitting)[k], label=k) for k in sorted(wide)}

    @settings(max_examples=100, deadline=None)
    @given(v=config_values())
    @example(v={"single_radius": (3, 5), "multi_radius": (2, 3), "patch_size": 4,
                "text_heads": 4, "embed_dim": 32, "text_layers": 1, "max_text_len": 8,
                "context_length": 4, "classes": (8, 8), "encoder_size": 16,
                "generator_size": None, "epochs": 0, "fractions": (1.5, -0.75)})
    def test_config_values_build_or_violate_contract(self, v):
        """A config either ends in ``ContractViolation`` when it loads, or
        builds the model it describes, makes 4 scenes of every mode its
        generator has classes for, refuses the other modes with
        ``ContractViolation``, and decodes all pairs of one scene per mode."""
        d = RunConfig(out_dir="unused").to_dict()
        d["generator"].update(
            single_radius=list(v["single_radius"]), multi_radius=list(v["multi_radius"]),
            num_classes=v["classes"][0], train_class_count=v["classes"][1],
            mismatch_fraction=v["fractions"][0], silent_fraction=v["fractions"][1],
            image_size=v["encoder_size"] if v["generator_size"] is None else v["generator_size"])
        d["encoder"].update(patch_size=v["patch_size"], text_heads=v["text_heads"],
                            embed_dim=v["embed_dim"], text_layers=v["text_layers"],
                            max_text_len=v["max_text_len"], image_size=v["encoder_size"])
        d["prompt"].update(context_length=v["context_length"], va_position=None)
        d["epochs"] = v["epochs"]
        try:
            cfg = RunConfig.from_dict(d)
        except ContractViolation:
            return
        model = build_model(cfg)
        assert len(model.text_encoder.blocks) == cfg.encoder.text_layers
        gen = cfg.generator
        # extended mode's mismatched-audio scenes, if 4 scenes hold any,
        # need a second class, like ms3's extra sources.
        has_classes = {"ms3": gen.num_classes >= 2,
                       "extended": gen.num_classes >= 2 or not round(4 * gen.mismatch_fraction),
                       "unheard": bool(gen.test_class_set)}
        firsts = []
        for mode in synth.MODES:
            if not has_classes.get(mode, True):
                with pytest.raises(ContractViolation, match=f"{mode} mode"):
                    synth.make_batch(gen, 4, mode, base_seed=cfg.seed)
                continue
            try:
                firsts.append(synth.make_batch(gen, 4, mode, base_seed=cfg.seed)[0])
            except synth.SceneSpecError as exc:   # discs too crowded to place
                assert "could not place" in str(exc)
        # One scene per mode keeps the all-pairs decode small.
        with ad.no_grad():
            percept = model.perceive(*harness.stack_batch(firsts))
            s_img, _, _, _ = model.similarity_tables(percept)
        n = len(firsts)
        assert percept.grid.shape == (n, cfg.encoder.n_cells, cfg.encoder.embed_dim)
        assert s_img.shape == (n, n) and np.isfinite(s_img.data).all()


class TestTraining:
    def test_artifacts_written(self, tiny_run):
        _, _, _, out = tiny_run
        assert (out / "config.json").is_file()
        assert (out / "model.splt").is_file()
        assert (out / "trainlog.json").is_file()

    def test_saved_config_matches(self, tiny_run):
        cfg, _, _, out = tiny_run
        assert RunConfig.load(out / "config.json") == cfg

    def test_step_log_schema(self, tiny_run):
        _, _, log, out = tiny_run
        assert log.steps
        for entry in log.steps:
            assert set(entry) == {"epoch", "step", "l_img", "l_feat", "l_reg",
                                  "total"}
            assert math.isfinite(entry["total"])
        disk = json.loads((out / "trainlog.json").read_text())
        assert disk["steps"] == log.steps
        assert disk["warmup_stats"] == log.warmup_stats

    @pytest.mark.parametrize("mode", ["none", "ensemble"])
    def test_trains_without_context_tokens(self, tmp_path, mode):
        """With ``context_length`` 0 the meta-net feeds no prompt: it is not
        trained, and its records keep their initial values."""
        cfg = _tiny_cfg(tmp_path, train_samples=24, batch_size=8, warmup_epochs=0)
        cfg.prompt = PromptConfig(context_length=0, fusion_mode=mode)
        model, log = train(cfg)
        assert log.steps and all(math.isfinite(e["total"]) for e in log.steps)
        assert not any(k.startswith("meta_net.") for k in model.trainable_parameters())
        init = build_model(cfg).parameters()
        saved = load_checkpoint(tmp_path / "model.splt")
        meta = [k for k in init if k.startswith("meta_net.")]
        assert meta and all(np.array_equal(saved[k], init[k].data) for k in meta)
        assert not np.array_equal(saved["decoder.head_w"], init["decoder.head_w"].data)

    @pytest.mark.parametrize("snr_db", synth.SNR_DB_RANGE)
    def test_trains_finite_at_the_snr_edges(self, tmp_path, snr_db):
        """float32 training at either end of the accepted range keeps every
        step's loss, the probe loss and the checkpoint finite."""
        cfg = _tiny_cfg(tmp_path, train_samples=24, batch_size=8)
        cfg.generator = dataclasses.replace(cfg.generator, snr_db=snr_db)
        assert cfg.dtype == "float32"
        _, log = train(cfg)
        assert log.steps and all(math.isfinite(e["total"]) for e in log.steps)
        assert math.isfinite(log.final_loss)
        assert all(np.isfinite(a).all() for a in load_checkpoint(tmp_path / "model.splt").values())

    def test_trainlog_records_run_metadata(self, tiny_run):
        _, _, log, out = tiny_run
        run = json.loads((out / "trainlog.json").read_text())["run"]
        assert run == log.run
        assert set(run) == {"numpy", "blas", "blas_threads", "block_threads",
                            "synth_processes", "freed_memory_kept"}
        assert run["numpy"] == np.__version__
        assert run["blas"] and isinstance(run["blas"], str)
        assert run["blas_threads"] == {v: os.environ.get(v) for v in
                                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
        assert run["block_threads"] == ad.block_threads() >= 1
        assert run["synth_processes"] == synth.scene_processes() == \
            (1 + min(1, ad._WORKERS) if hasattr(os, "fork") else 1)
        assert run["freed_memory_kept"] is ad.FREED_MEMORY_KEPT

    @pytest.mark.parametrize("mallopt", [True, False])
    def test_freed_memory_kept_only_with_mallopt(self, mallopt):
        """glibc keeps freed memory; where ``mallopt`` cannot be found the
        import still succeeds and the run block says so."""
        if mallopt and platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt is glibc's")
        hide = ("import ctypes, types\n"
                "ctypes.CDLL = lambda name: types.SimpleNamespace()\n")
        code = ((hide if not mallopt else "")
                + "import soundloc\nfrom soundloc import harness\n"
                  "print(harness.run_metadata()['freed_memory_kept'])")
        assert _run_python(code).strip() == str(mallopt)

    def test_checkpoint_reproduces_final_loss(self, tiny_run):
        cfg, _, log, out = tiny_run
        reloaded = load_model(cfg, out / "model.splt")
        assert abs(final_loss_of(reloaded, cfg) - log.final_loss) <= 1e-9

    def test_frozen_checksum_unchanged(self, tiny_run):
        cfg, model, log, _ = tiny_run
        assert log.frozen_checksum_before == log.frozen_checksum_after
        assert parameter_checksum(model.encoder_parameters()) == \
            log.frozen_checksum_after

    def test_trainable_partition(self, tiny_run):
        _, model, log, _ = tiny_run
        trainable = set(model.trainable_parameters())
        frozen = set(model.encoder_parameters())
        assert not trainable & frozen
        assert 0 < log.trainable_params < log.total_params
        assert log.trainable_params == sum(
            p.size for p in model.trainable_parameters().values())

    def test_default_parameter_names(self):
        """The default model's parameters by name, in checkpoint order;
        adding or removing one shows up here."""
        attn = ("attn.wq", "attn.wk", "attn.wv", "attn.wo",
                "attn.bq", "attn.bk", "attn.bv", "attn.bo")
        block = ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2") + attn
        groups = (
            ("image_encoder", ("patch_w", "patch_b", "pos", "lnf_g", "lnf_b",
                               "block.ln1_g", "block.ln1_b")
             + tuple(f"block.{n}" for n in attn)),
            ("text_encoder", ("pos", "lnf_g", "lnf_b", "proj")
             + tuple(f"block{i}.{n}" for i in (0, 1) for n in block)),
            ("meta_net", ("base", "w1", "b1", "w2", "b2")),
            ("tokenizer", ("w1", "b1", "w2", "b2", "key_w", "key_b", "query")),
            ("decoder", ("scale_w", "scale_b", "shift_w", "shift_b", "head_w", "head_b")
             + tuple(f"block.{n}" for n in block)),
        )
        names = [f"{part}.{n}" for part, ns in groups for n in ns]
        model = build_model(RunConfig(out_dir="unused"))
        assert list(model.parameters()) == names
        assert len(names) == 85
        assert list(model.encoder_parameters()) == [
            n for n in names if n.startswith(("image_encoder.", "text_encoder."))]
        assert list(model.trainable_parameters()) == [
            n for n in names if n.startswith(("meta_net.", "tokenizer.", "decoder."))]

    def test_validation_history_recorded(self, tiny_run):
        cfg, _, log, _ = tiny_run
        assert len(log.val_history) == cfg.epochs
        assert set(log.val_history[0]) == {"epoch", "ciou", "miou"}

    def test_loss_decreases(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "dec", epochs=4, train_samples=128)
        _, log = train(cfg, write_artifacts=False)
        totals = [s["total"] for s in log.steps]
        assert len(totals) >= 20
        assert np.mean(totals[-10:]) < np.mean(totals[:10])

    def test_nonfinite_loss_aborts_with_stats(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg(tmp_path / "abort", train_samples=32)
        real = harness.batch_loss

        def poisoned(model, images, audios, weights):
            total, parts = real(model, images, audios, weights)
            parts["total"] = float("nan")
            return total, parts

        monkeypatch.setattr(harness, "batch_loss", poisoned)
        with pytest.raises(TrainingAborted, match="non-finite loss at step 0"):
            train(cfg)
        stats = json.loads((tmp_path / "abort" / "abort_stats.json").read_text())
        assert stats["step"] == 0
        assert all("data_absmax" in v for v in stats["params"].values())

    def test_nonfinite_gradient_aborts_with_stats(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg(tmp_path / "abort", train_samples=32, warmup_epochs=0)
        real = ad.backward

        def poisoned(root):
            # Backward as usual, then turn the first leaf gradient found to NaN.
            real(root)
            todo, seen = [root], set()
            while todo:
                t = todo.pop()
                if t._id in seen:
                    continue
                seen.add(t._id)
                if not t.parents and t.grad is not None:
                    t.grad = np.full_like(t.grad, np.nan)
                    return
                todo.extend(t.parents)

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(TrainingAborted, match="non-finite gradient at step 0"):
            train(cfg)
        stats = json.loads((tmp_path / "abort" / "abort_stats.json").read_text())
        assert stats["step"] == 0
        assert [v.get("grad_finite") for v in stats["params"].values()].count(False) == 1

    def test_each_step_releases_its_graph(self, tmp_path, monkeypatch):
        """No array of a step's graph is alive when the next step's
        ``batch_loss`` starts: two graphs never coexist."""
        cfg = _tiny_cfg(tmp_path, train_samples=48, warmup_epochs=0)
        real, refs, alive = harness.batch_loss, [], []

        def spy(model, images, audios, weights):
            alive.append(sum(r() is not None for r in refs))
            total, parts = real(model, images, audios, weights)
            if total.parents:                   # not the no-grad probe loss
                refs.append(weakref.ref(total.parents[0].data))
            return total, parts

        monkeypatch.setattr(harness, "batch_loss", spy)
        train(cfg, write_artifacts=False)
        assert len(refs) == 3 and alive == [0] * 4

    def test_each_warmup_step_releases_its_graph(self, tmp_path):
        """Likewise for the image encoder's warmup: a step's graph is gone
        before the next step's encoder forward starts."""
        cfg = _tiny_cfg(tmp_path, train_samples=48, warmup_epochs=2)
        model = build_model(cfg)
        real, refs, alive = model.image_encoder.forward, [], []

        def spy(images):
            alive.append(sum(r() is not None for r in refs))
            grid, pooled = real(images)
            refs.append(weakref.ref(grid.data))
            return grid, pooled

        model.image_encoder.forward = spy
        harness.warmup_image_encoder(model, harness.split_scenes(cfg)[0], cfg)
        assert len(refs) == 6 and alive == [0] * 6


class TestEvaluate:
    def test_untrained_smoke(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        report = evaluate(build_model(cfg), cfg, "s4-analog", out_dir=tmp_path)
        for v in (report.ciou, report.auc, report.miou, report.fscore):
            assert math.isfinite(v)
        assert len(report.per_sample_iou) == cfg.eval_samples

    def test_report_files(self, tiny_run, tmp_path):
        cfg, model, _, _ = tiny_run
        evaluate(model, cfg, "s4-analog", out_dir=tmp_path)
        with (tmp_path / "report_s4-analog.csv").open() as fh:
            header, row = fh.read().splitlines()
        columns = ["benchmark", "ciou", "auc", "miou", "fscore", "ap", "max_f1", "loc_acc"]
        assert header.split(",") == columns
        assert row.split(",")[0] == "s4-analog"
        twin = json.loads((tmp_path / "report_s4-analog.json").read_text())
        assert twin["benchmark"] == "s4-analog"
        assert set(twin["metrics"]) >= set(columns[1:])
        assert len(twin["per_sample"]) == cfg.eval_samples
        assert {"iou", "confidence", "flags"} == set(twin["per_sample"][0])

    def test_evaluate_twice_identical(self, tiny_run, tmp_path):
        cfg, model, _, _ = tiny_run
        a, b = tmp_path / "a", tmp_path / "b"
        evaluate(model, cfg, "extended-analog", out_dir=a)
        evaluate(model, cfg, "extended-analog", out_dir=b)
        for name in ("report_extended-analog.csv", "report_extended-analog.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_benchmark(self, tiny_run):
        cfg, model, _, _ = tiny_run
        with pytest.raises(ContractViolation, match="benchmark"):
            evaluate(model, cfg, "s5-analog")

    def test_unheard_requires_class_split(self, tiny_run):
        cfg, _, _, _ = tiny_run
        with pytest.raises(ContractViolation, match="held-out"):
            benchmark_scenes(cfg, "unheard")

    def test_prediction_chunking_irrelevant(self, tiny_run, monkeypatch):
        cfg, model, _, _ = tiny_run
        scenes = benchmark_scenes(cfg, "s4-analog")
        monkeypatch.setattr(harness, "PREDICT_CHUNK", 3)
        small = predict_eval_samples(model, scenes)
        monkeypatch.setattr(harness, "PREDICT_CHUNK", 64)
        big = predict_eval_samples(model, scenes)
        monkeypatch.setattr(harness, "PREDICT_CHUNK", 5)     # 8 scenes: 5 + 3
        streamed = predict_eval_samples(model, (s for s in scenes))
        assert len(small) == len(big) == len(streamed) == len(scenes)
        for a, b, c in zip(small, big, streamed):
            assert np.array_equal(a.pred_mask, b.pred_mask)
            assert np.array_equal(a.pred_mask, c.pred_mask)

    def test_peak_memory_does_not_grow_with_the_scenes(self):
        """Scenes are made as they are predicted: past the per-scene results
        (~11 KiB), a scene more costs no memory at the peak. Holding every
        scene, as a list, costs ~108 KiB per scene."""
        cfg = RunConfig()
        model = build_model(cfg)

        def peak(n):
            run = dataclasses.replace(cfg, eval_samples=n)
            tracemalloc.start()
            try:
                evaluate(model, run, "s4-analog")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)                                   # fills the generator's caches
        growth = (peak(512) - peak(128)) / (512 - 128)
        assert growth < 32 * 1024, f"{growth / 1024:.1f} KiB per scene"

    @pytest.mark.skipif(not SHARES, reason="needs a scene worker")
    def test_worker_peak_memory_does_not_grow_with_the_scenes(self, fresh_worker):
        """The scene worker's share of a stream does not pile up either: its
        traced peak (``tracemalloc``, run in the worker) while it scores 8 of
        16 chunks exceeds its peak while it scores 2 of 4 by less than half a
        MiB (0.015 MiB measured; a worker that kept each chunk's scored
        result, ~0.2 MiB, grew by 1.27 MiB)."""
        cfg = RunConfig()
        model = build_model(cfg)

        def worker_peak(chunks):
            run = dataclasses.replace(cfg, eval_samples=chunks * synth.PREDICT_CHUNK)
            _worker_call(tracemalloc.start)
            try:
                evaluate(model, run, "s4-analog")
                return _worker_call(tracemalloc.get_traced_memory)[1]
            finally:
                _worker_call(tracemalloc.stop)

        worker_peak(2)                              # fills the generator's caches
        growth = worker_peak(16) - worker_peak(4)
        assert growth < 2 ** 19, f"{growth / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("eval_samples", [40, 72])      # chunks of 32 + 8 and 32 + 32 + 8
    @pytest.mark.parametrize("bench", sorted(harness.BENCHMARKS))
    def test_stream_scores_equal_inline(self, tiny_run, tmp_path, monkeypatch, bench,
                                        eval_samples):
        """With a scene worker this process scores only the even chunks; the
        rows and reports are inline's, byte for byte."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], eval_samples)
        scored = []
        score = harness._score_chunk
        monkeypatch.setattr(harness, "_score_chunk",
                            lambda m, scenes: scored.append(len(scenes)) or score(m, scenes))
        got = predict_eval_samples(model, harness.benchmark_stream(cfg, bench))
        chunks = harness.benchmark_stream(cfg, bench).chunks
        assert len(scored) == ((chunks + 1) // 2 if SHARES else chunks)
        if SHARES:      # what the worker makes, it makes itself
            pid = synth._worker.pid
            children = Path(f"/proc/{pid}/task/{pid}/children")
            assert not children.is_file() or children.read_text() == ""
        want = inline(monkeypatch, lambda: predict_eval_samples(
            model, harness.benchmark_stream(cfg, bench)))
        _assert_same_rows(got, want)
        evaluate(model, cfg, bench, out_dir=tmp_path / "shared")
        inline(monkeypatch, lambda: evaluate(model, cfg, bench, out_dir=tmp_path / "inline"))
        for ext in ("csv", "json"):
            name = f"report_{bench}.{ext}"
            assert (tmp_path / "shared" / name).read_bytes() == \
                (tmp_path / "inline" / name).read_bytes()

    def test_render_over_a_stream_equals_inline(self, tiny_run, tmp_path, monkeypatch):
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 72)
        render_heatmaps(model, harness.benchmark_stream(cfg, "ms3-analog"), tmp_path / "shared")
        inline(monkeypatch, lambda: render_heatmaps(
            model, harness.benchmark_stream(cfg, "ms3-analog"), tmp_path / "inline"))
        names = sorted(p.name for p in (tmp_path / "inline").iterdir())
        assert len(names) == 3 * 72 + 1
        assert sorted(p.name for p in (tmp_path / "shared").iterdir()) == names
        for name in names:
            assert (tmp_path / "shared" / name).read_bytes() == \
                (tmp_path / "inline" / name).read_bytes(), name

    @pytest.mark.parametrize("failing,lowest", [
        ((1,), 1),          # only a worker's chunk fails
        ((2, 3), 2),        # this process's chunk and the worker's next one
        ((1, 2), 1),        # the worker's chunk and this process's next one
    ])
    def test_scoring_error_is_inlines(self, tiny_run, monkeypatch, fresh_worker, failing,
                                      lowest):
        """Scoring that raises, in the worker or here, raises the error inline
        scoring raises, lowest chunk first; the next call's rows are inline's."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 136)      # five chunks
        chunk_of = _chunk_of(cfg, "s4-analog")
        score = harness._score_chunk

        def failing_score(m, scenes):
            if chunk_of(scenes) in failing:
                raise ContractViolation(f"chunk {chunk_of(scenes)} cannot be scored")
            return score(m, scenes)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_score_chunk", failing_score)
            want = inline(monkeypatch,
                          lambda: error_of(lambda: evaluate(model, cfg, "s4-analog")))
            assert want == (ContractViolation, f"chunk {lowest} cannot be scored")
            assert error_of(lambda: evaluate(model, cfg, "s4-analog")) == want
        _assert_same_rows(
            predict_eval_samples(model, harness.benchmark_stream(cfg, "heard")),
            inline(monkeypatch, lambda: predict_eval_samples(
                model, harness.benchmark_stream(cfg, "heard"))))

    @pytest.mark.skipif(not SHARES, reason="needs a scene worker")
    @pytest.mark.parametrize("when", ["between calls", "mid-call"])
    def test_killed_worker(self, tiny_run, monkeypatch, fresh_worker, when):
        """A worker killed between calls (the model cannot be sent) or while it
        scores (the reply never comes): the call scores its chunks here, without
        hanging, with inline's reports, and the next call forks a new worker."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 136)
        want = inline(monkeypatch, lambda: evaluate(model, cfg, "extended-analog"))
        with monkeypatch.context() as patch:
            if when == "between calls":
                evaluate(model, cfg, "s4-analog")
                pid = synth._worker.pid
                os.kill(pid, signal.SIGKILL)
            else:
                parent, score = os.getpid(), harness._score_chunk

                def score_or_die(m, scenes):
                    if os.getpid() != parent:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return score(m, scenes)

                patch.setattr(harness, "_score_chunk", score_or_die)
            got = []
            call = threading.Thread(
                target=lambda: got.append(evaluate(model, cfg, "extended-analog")))
            call.start()
            call.join(timeout=120)
            assert not call.is_alive() and len(got) == 1
        assert synth._worker.pid is None
        assert got[0].as_dict() == want.as_dict()
        assert got[0].per_sample_iou == want.per_sample_iou
        assert evaluate(model, cfg, "extended-analog").as_dict() == want.as_dict()
        assert synth._worker.pid is not None

    @pytest.mark.skipif(not SHARES, reason="needs a scene worker")
    def test_interrupt_leaves_no_stale_reply(self, tiny_run, monkeypatch, fresh_worker):
        """A KeyboardInterrupt while this process scores chunk 2 leaves the
        worker's chunk 3 unread; the worker is ended and the next call's rows
        are inline's."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 136)
        chunk_of, score, parent = _chunk_of(cfg, "ms3-analog"), harness._score_chunk, os.getpid()

        def interrupted(m, scenes):
            if os.getpid() == parent and chunk_of(scenes) == 2:
                raise KeyboardInterrupt
            return score(m, scenes)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_score_chunk", interrupted)
            with pytest.raises(KeyboardInterrupt):
                evaluate(model, cfg, "ms3-analog")
        assert synth._worker is None
        for bench in ("ms3-analog", "s4-analog"):
            _assert_same_rows(
                predict_eval_samples(model, harness.benchmark_stream(cfg, bench)),
                inline(monkeypatch, lambda: predict_eval_samples(
                    model, harness.benchmark_stream(cfg, bench))))

    @pytest.mark.skipif(not SHARES, reason="needs a scene worker")
    @pytest.mark.parametrize("plant", ["does not unpickle", "does not pickle"])
    def test_job_the_worker_cannot_take_is_scored_here(self, tiny_run, monkeypatch,
                                                       fresh_worker, plant):
        """A model whose unpickling raises in the worker ends the worker; one
        that does not pickle (it holds a lambda) is never sent, and the worker
        stays.  Either way this process scores every chunk, without an error
        or a hang, with inline's rows, and the next call's rows are inline's."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 136)      # five chunks
        want = inline(monkeypatch, lambda: predict_eval_samples(
            model, harness.benchmark_stream(cfg, "s4-analog")))
        parent, score, scored, got = os.getpid(), harness._score_chunk, [], []

        def set_state(self, state):
            if os.getpid() != parent:
                raise ValueError("no model unpickles in the worker")
            self.__dict__.update(state)

        with monkeypatch.context() as patch:
            if plant == "does not unpickle":
                patch.setattr(SoundLocalizer, "__setstate__", set_state, raising=False)
            else:
                patch.setattr(model, "note", lambda: None, raising=False)
            patch.setattr(harness, "_score_chunk",
                          lambda m, scenes: scored.append(len(scenes)) or score(m, scenes))
            call = threading.Thread(target=lambda: got.append(predict_eval_samples(
                model, harness.benchmark_stream(cfg, "s4-analog"))))
            call.start()
            call.join(timeout=120)
            assert not call.is_alive() and len(got) == 1
            assert len(scored) == 5
            assert (synth._worker.pid is None) == (plant == "does not unpickle")
        _assert_same_rows(got[0], want)
        _assert_same_rows(
            predict_eval_samples(model, harness.benchmark_stream(cfg, "heard")),
            inline(monkeypatch, lambda: predict_eval_samples(
                model, harness.benchmark_stream(cfg, "heard"))))
        assert synth._worker.pid is not None

    @pytest.mark.skipif(not SHARES, reason="needs a scene worker")
    def test_worker_forked_after_the_block_pool(self, tiny_run, monkeypatch, fresh_worker):
        """A worker forked once the block pool's threads run scores the same
        bytes; it runs every block of the fused primitives itself."""
        model = tiny_run[1]
        cfg = _stream_cfg(tiny_run[0], 72)
        ad._pool.submit(lambda: None).result()
        assert ad._pool.executor is not None and threading.active_count() > 1
        got = predict_eval_samples(model, harness.benchmark_stream(cfg, "extended-analog"))
        assert synth._worker is not None and synth._worker.pid is not None
        _assert_same_rows(got, inline(monkeypatch, lambda: predict_eval_samples(
            model, harness.benchmark_stream(cfg, "extended-analog"))))


class TestDeterminism:
    def test_checkpoints_reports_pgms_identical(self, tiny_run, tmp_path):
        cfg, model_a, _, out_a = tiny_run
        cfg_b = RunConfig.from_dict({**cfg.to_dict(),
                                     "out_dir": str(tmp_path / "rerun")})
        model_b, _ = train(cfg_b)
        assert (out_a / "model.splt").read_bytes() == \
            (tmp_path / "rerun" / "model.splt").read_bytes()

        ra, rb = tmp_path / "ra", tmp_path / "rb"
        evaluate(model_a, cfg, "s4-analog", out_dir=ra)
        evaluate(model_b, cfg_b, "s4-analog", out_dir=rb)
        for name in ("report_s4-analog.csv", "report_s4-analog.json"):
            assert (ra / name).read_bytes() == (rb / name).read_bytes()

        scenes = benchmark_scenes(cfg, "s4-analog")[:2]
        ha, hb = tmp_path / "ha", tmp_path / "hb"
        render_heatmaps(model_a, scenes, ha)
        render_heatmaps(model_b, scenes, hb)
        for f in sorted(p.name for p in ha.iterdir()):
            assert (ha / f).read_bytes() == (hb / f).read_bytes()

    @pytest.mark.skipif(_CPUS < 2, reason="needs two CPUs to compare with one")
    def test_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        """Criterion 9's run on every CPU here, and in a process pinned to one
        CPU before it imports soundloc (so it runs every block of its
        primitives and makes every scene itself), scored on each benchmark of
        perfbench's suite.  Here the worker makes the second chunk of the 48
        training scenes (32 + 16) and makes and scores the second of each
        benchmark's 40 (32 + 8)."""
        suite = ("s4-analog", "ms3-analog", "extended-analog", "heard")
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from soundloc import autodiff as ad, harness, synth\n"
            "assert ad.block_threads() == synth.scene_processes() == 1\n"
            "cfg = harness.RunConfig(epochs=1, train_samples=48, eval_samples=40,\n"
            "                        warmup_epochs=1, out_dir=sys.argv[1])\n"
            "model, _ = harness.train(cfg)\n"
            f"for bench in {suite!r}:\n"
            "    harness.evaluate(model, cfg, bench, out_dir=sys.argv[1])\n")
        _run_python(child, str(tmp_path / "one"))

        assert ad.block_threads() > 1 and synth.scene_processes() > 1
        cfg = RunConfig(epochs=1, train_samples=48, eval_samples=40, warmup_epochs=1,
                        out_dir=str(tmp_path / "all"))
        model, _ = train(cfg)
        for bench in suite:
            evaluate(model, cfg, bench, out_dir=tmp_path / "all")
        names = ["model.splt"] + [f"report_{b}.{ext}" for b in suite for ext in ("csv", "json")]
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "all" / name).read_bytes(), name


class TestAblate:
    @pytest.mark.parametrize("pos,label", [
        (1, "[V_A][V_1][V_2][V_3][V_4]"),
        (2, "[V_1][V_A][V_2][V_3][V_4]"),
        (3, "[V_1][V_2][V_A][V_3][V_4]"),
        (4, "[V_1][V_2][V_3][V_A][V_4]"),
        (5, "[V_1][V_2][V_3][V_4][V_A]"),
    ])
    def test_token_order_labels(self, pos, label):
        assert token_order_label(4, pos) == label

    def test_context_length_rows_and_files(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "base", train_samples=32, eval_samples=8,
                        batch_size=8, warmup_epochs=0)
        rows = harness.ablate(cfg, "context_length", [4, 8], out_dir=tmp_path)
        assert [r["ctx"] for r in rows] == ["ctx=4", "ctx=8"]
        assert all(list(r) == ["ctx", "ciou", "auc"] for r in rows)
        with (tmp_path / "ablation_context_length.csv").open() as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "ctx,ciou,auc"
        assert len(lines) == 3
        disk = json.loads((tmp_path / "ablation_context_length.json").read_text())
        assert disk == rows

    def test_va_position_rows(self, tmp_path):
        cfg = _tiny_cfg(tmp_path / "base", train_samples=32, eval_samples=8,
                        batch_size=8, warmup_epochs=0)
        rows = harness.ablate(cfg, "va_position", [1, 5], out_dir=tmp_path)
        assert all(list(r) == ["ctx", "va_index", "token_order", "ciou", "auc"]
                   for r in rows)
        assert rows[0]["token_order"] == "[V_A][V_1][V_2][V_3][V_4]"
        assert rows[1]["token_order"] == "[V_1][V_2][V_3][V_4][V_A]"
        assert [r["va_index"] for r in rows] == ["pos=1", "pos=5"]

    def test_invalid_dimension_and_value(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg(tmp_path)
        with pytest.raises(ContractViolation, match="dimension"):
            harness.ablate(cfg, "learning_rate", [1])
        with pytest.raises(ContractViolation, match="fusion_mode"):
            harness.ablate(cfg, "fusion", ["bogus"])
        # Every value is checked, by the config loader, before the first run trains.
        trained = []
        monkeypatch.setattr(harness, "train", lambda sub, **kw: trained.append(sub))
        for dimension in ("context_length", "va_position", "epochs"):
            for value in ("x", "2.5", 2.5, True):
                with pytest.raises(ContractViolation, match=f"field '{dimension}' must be int"):
                    harness.ablate(cfg, dimension, [4, value])
        with pytest.raises(ContractViolation, match="va_position"):
            harness.ablate(cfg, "va_position", [1, 9])
        assert trained == []

    def test_unknown_dimension_or_no_values_refused(self, tmp_path):
        """Before any work, and whichever of the two is wrong."""
        cfg = _tiny_cfg(tmp_path / "base")
        with pytest.raises(ContractViolation, match="dimension must be one of"):
            harness.ablate(cfg, "bogus", [])
        for dimension in harness.ABLATION_DIMENSIONS:
            with pytest.raises(ContractViolation, match="at least one value"):
                harness.ablate(cfg, dimension, [], out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestRender:
    class _EchoModel:
        """Stands in for a localizer that predicts the ground truth."""

        def __init__(self, scenes):
            self._masks = np.stack([s.gt_mask.astype(np.float64)
                                    for s in scenes])

        def predict_masks(self, images, audios):
            return self._masks[: images.shape[0]]

    def test_heatmap_triples_and_index(self, tiny_run, tmp_path):
        cfg, model, _, _ = tiny_run
        scenes = benchmark_scenes(cfg, "s4-analog")[:3]
        index = render_heatmaps(model, scenes, tmp_path)
        assert len(index) == 3
        for entry in index:
            assert 0.0 <= entry["iou"] <= 1.0
            for f in entry["files"].values():
                assert (tmp_path / f).is_file()
        assert json.loads((tmp_path / "index.json").read_text()) == index

    def test_pgm_round_trip_bit_exact(self, tiny_run, tmp_path):
        cfg, model, _, _ = tiny_run
        scenes = benchmark_scenes(cfg, "s4-analog")[:1]
        render_heatmaps(model, scenes, tmp_path)
        src = tmp_path / "sample_00000_pred.pgm"
        again = tmp_path / "copy.pgm"
        formats.write_pgm(again, decode_export(src))
        assert src.read_bytes() == again.read_bytes()

    def test_perfect_prediction_zero_difference(self, tmp_path):
        scenes = synth.make_batch(synth.GeneratorConfig(), 2, "s4", base_seed=3)
        index = render_heatmaps(self._EchoModel(scenes), scenes, tmp_path)
        assert [e["iou"] for e in index] == [1.0, 1.0]
        for i in range(2):
            diff = decode_export(tmp_path / f"sample_{i:05d}_diff.pgm")
            assert not diff.any()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg_path = root / "config.json"
    _tiny_cfg(out, train_samples=32, eval_samples=8, batch_size=8,
              warmup_epochs=0).save(cfg_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, out


class TestCli:
    def test_train_writes_checkpoint(self, cli_run, capsys):
        _, out = cli_run
        assert (out / "model.splt").is_file()

    def test_eval_subcommand(self, cli_run, capsys):
        _, out = cli_run
        code = main(["eval", "--ckpt", str(out / "model.splt"),
                     "--benchmark", "s4-analog"])
        assert code == 0
        assert "ciou=" in capsys.readouterr().out
        assert (out / "report_s4-analog.csv").is_file()

    def test_seed_override_recorded(self, cli_run, tmp_path):
        cfg_path, _ = cli_run
        cfg = RunConfig.load(cfg_path)
        d = cfg.to_dict()
        d["out_dir"] = str(tmp_path / "seeded")
        seeded_path = tmp_path / "cfg.json"
        RunConfig.from_dict(d).save(seeded_path)
        assert main(["--seed", "5", "train", "--config", str(seeded_path)]) == 0
        written = json.loads((tmp_path / "seeded" / "config.json").read_text())
        assert written["seed"] == 5

    def test_render_subcommand(self, cli_run, tmp_path):
        _, out = cli_run
        code = main(["render", "--ckpt", str(out / "model.splt"),
                     "--out", str(tmp_path), "--benchmark", "s4-analog"])
        assert code == 0
        assert (tmp_path / "index.json").is_file()

    def test_gen_data_subcommand(self, cli_run, tmp_path, capsys):
        cfg_path, _ = cli_run
        code = main(["gen-data", "--config", str(cfg_path),
                     "--out", str(tmp_path), "--count", "4"])
        assert code == 0
        assert (tmp_path / "index.json").is_file()

    def test_contract_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        d = RunConfig().to_dict()
        d["batch_size"] = 1
        bad.write_text(json.dumps(d))
        assert main(["train", "--config", str(bad)]) == 2
        assert "contract violation" in capsys.readouterr().err
        # Unknown keys, at top level and inside every block, are named.
        for block in (None, "encoder", "prompt", "loss", "generator", "optimizer"):
            d = RunConfig().to_dict()
            (d if block is None else d[block])["bogus"] = 1
            bad.write_text(json.dumps(d))
            assert main(["train", "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("contract violation: unknown key(s)"), err
            assert "bogus" in err and err.count("\n") == 1
        # Values of the wrong type, at top level and inside blocks, are named.
        for block, key, value in ((None, "batch_size", "16"), (None, "epochs", 2.5),
                                  ("prompt", "fusion_mode", 3), ("prompt", "va_position", "x"),
                                  ("generator", "single_radius", [7, "11"]),
                                  ("optimizer", "lr", True)):
            d = RunConfig().to_dict()
            (d if block is None else d[block])[key] = value
            bad.write_text(json.dumps(d))
            assert main(["train", "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("contract violation:"), err
            assert f"'{key}'" in err and err.count("\n") == 1
        # Values of the right type that no scene or model can be built
        # from end in exit 2 before any work, not in a traceback later.
        for block, key, value in (("generator", "single_radius", [11, 7]),
                                  ("generator", "single_radius", [20, 25]),
                                  ("generator", "image_size", 16),
                                  ("encoder", "patch_size", 0),
                                  ("encoder", "embed_dim", 0),
                                  ("encoder", "text_heads", 0),
                                  ("encoder", "text_layers", -1),
                                  ("encoder", "embed_dim", 40),
                                  ("encoder", "max_text_len", 4),
                                  ("prompt", "context_length", 40),
                                  ("encoder", "image_size", 64),
                                  (None, "epochs", -3),
                                  (None, "warmup_epochs", -1),
                                  (None, "seed", -1),
                                  (None, "warmup_lr", 0.0),
                                  (None, "train_samples", 1),
                                  (None, "train_samples", 0),
                                  (None, "eval_samples", 0),
                                  ("optimizer", "lr", -0.001),
                                  ("optimizer", "weight_decay", -1e-5),
                                  ("optimizer", "beta1", 1.0),
                                  ("optimizer", "beta2", -0.5),
                                  ("optimizer", "eps", 0.0),
                                  ("optimizer", "lr", math.inf),
                                  ("loss", "temperature", math.nan),
                                  ("generator", "snr_db", synth.SNR_DB_RANGE[0] - 0.5),
                                  ("generator", "snr_db", synth.SNR_DB_RANGE[1] + 0.5)):
            d = RunConfig().to_dict()
            (d if block is None else d[block])[key] = value
            bad.write_text(json.dumps(d))
            assert main(["train", "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("contract violation:"), err
            assert key in err and err.count("\n") == 1
        # A fused prompt with no context tokens would be empty.
        d = RunConfig().to_dict()
        d["prompt"].update(fusion_mode="fused", context_length=0, va_position=None)
        bad.write_text(json.dumps(d))
        assert main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation:"), err
        assert "context_length" in err and err.count("\n") == 1
        # A one-class generator has no second class for ms3's extra sources
        # or for extended's mismatched audio; nothing is written.
        d = RunConfig().to_dict()
        d["generator"].update(num_classes=1, train_class_count=1)
        bad.write_text(json.dumps(d))
        for benchmark, mode in (("ms3-analog", "ms3"), ("extended-analog", "extended")):
            data = tmp_path / f"data-{mode}"
            assert main(["gen-data", "--config", str(bad), "--out", str(data),
                         "--benchmark", benchmark, "--count", "4"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"contract violation: {mode} mode"), err
            assert err.count("\n") == 1 and not data.exists()
        # Each extended-mode fraction must lie in [0, 1], not only their sum.
        for mismatch, silent in ((1.5, -0.75), (-0.25, 0.5)):
            d = RunConfig().to_dict()
            d["generator"].update(mismatch_fraction=mismatch, silent_fraction=silent)
            bad.write_text(json.dumps(d))
            data = tmp_path / "data-fractions"
            assert main(["gen-data", "--config", str(bad), "--out", str(data),
                         "--benchmark", "extended-analog", "--count", "8"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("contract violation: mismatch_fraction"), err
            assert err.count("\n") == 1 and not data.exists()
        # The --seed override is checked like the config's own seed.
        bad.write_text(json.dumps(RunConfig().to_dict()))
        assert main(["--seed", "-1", "train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation:"), err
        assert "seed" in err and err.count("\n") == 1
        # gen-data names its own --count, not the generator's batch size.
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "data"),
                     "--count", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation:"), err
        assert "--count" in err and err.count("\n") == 1

    @pytest.mark.parametrize("block,key,value", [
        ("encoder", "embed_dim", 2 ** 40),
        ("encoder", "image_size", 2 ** 20),
        ("generator", "image_size", 2 ** 20),
        ("encoder", "max_text_len", 2 ** 40),
        ("encoder", "text_layers", 2 ** 40),
        ("prompt", "context_length", 2 ** 30),
        (None, "batch_size", 2 ** 40),
        (None, "train_samples", 2 ** 40),
    ])
    def test_oversized_config_exits_2(self, tmp_path, block, key, value):
        """A size no run could allocate is refused at load: exit 2 and one
        line, nothing written."""
        d = RunConfig(out_dir=str(tmp_path / "out")).to_dict()
        (d if block is None else d[block])[key] = value
        if block == "encoder" and key == "image_size":      # as a run needs them
            d["generator"][key] = value
        self._assert_refused_under_2_gib(tmp_path, d, key)

    @pytest.mark.parametrize("changes", [
        {"batch_size": 64, "encoder": {"image_size": 128}, "generator": {"image_size": 128}},
        {"batch_size": 64, "encoder": {"image_size": 128, "patch_size": 32},
         "generator": {"image_size": 128}},
        {"encoder": {"max_text_len": 512}, "prompt": {"context_length": 511}},
    ], ids=["decoder-scores", "masked-images", "text-scores"])
    def test_oversized_combination_exits_2(self, tmp_path, changes):
        """Fields each within its ceiling whose combination makes one step
        array too large (the decoder's scores, the masked images, the text
        encoder's scores) are refused at load too."""
        d = RunConfig(out_dir=str(tmp_path / "out")).to_dict()
        for key, value in changes.items():
            if isinstance(value, dict):
                d[key].update(value)
            else:
                d[key] = value
        self._assert_refused_under_2_gib(tmp_path, d, "batch_size")

    @staticmethod
    def _assert_refused_under_2_gib(tmp_path, d, word):
        """``soundloc train`` on config ``d`` exits 2 with one line naming
        ``word`` and writes nothing.  The child's address space is capped at
        2 GiB, so a config that gets past the load fails fast instead of paging."""
        (tmp_path / "big.json").write_text(json.dumps(d))
        proc = _python_child(
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
            "from soundloc.cli import main\n"
            "sys.exit(main(['train', '--config', sys.argv[1]]))\n",
            str(tmp_path / "big.json"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("contract violation:"), proc.stderr
        assert word in proc.stderr and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_retired_keys_exit_2(self, cli_run, tmp_path, capsys):
        """A config.json written before the one-valued knobs were retired
        (their old defaults added to today's) loads neither for train nor
        for eval: one stderr line names every retired key."""
        retired = {None: {"warmup": True,
                          "reference_scale": {"image_size": 352, "audio_seconds": 10,
                                              "audio_sample_rate_hz": 16000, "epochs": 20,
                                              "batch_size": 16, "learning_rate": 1e-3,
                                              "weight_decay": 1e-5,
                                              "trainable_params_approx": 2_380_000}},
                   "encoder": {"channels": 3, "audio_frames": 8, "audio_feature_dim": 16,
                               "frozen": True},
                   "prompt": {"meta_mode": "shared"}}
        old = tmp_path / "old"
        old.mkdir()
        d = RunConfig(out_dir=str(old)).to_dict()
        for block, keys in retired.items():
            (d if block is None else d[block]).update(keys)
        (old / "config.json").write_text(json.dumps(d))
        _, out = cli_run
        (old / "model.splt").write_bytes((out / "model.splt").read_bytes())
        for argv in (["train", "--config", str(old / "config.json")],
                     ["eval", "--ckpt", str(old / "model.splt"), "--benchmark", "s4-analog"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("contract violation: unknown key(s)"), err
            assert err.count("\n") == 1
            for keys in retired.values():
                for key in keys:
                    assert key in err, (key, err)
        assert sorted(p.name for p in old.iterdir()) == ["config.json", "model.splt"]

    def test_bad_ablate_values_exit_2_before_training(self, cli_run, monkeypatch, capsys,
                                                      tmp_path):
        cfg_path, _ = cli_run
        trained = []
        monkeypatch.setattr(harness, "train", lambda sub, **kw: trained.append(sub))
        # The config loader checks each value and names the field it sets.
        for dimension in ("context_length", "va_position", "epochs"):
            for values in ("x", "2.5", "4,x"):
                assert main(["ablate", "--config", str(cfg_path), "--dimension", dimension,
                             "--values", values]) == 2
                err = capsys.readouterr().err
                assert err.startswith("contract violation:"), err
                assert f"field '{dimension}'" in err and err.count("\n") == 1
        assert main(["ablate", "--config", str(cfg_path), "--dimension", "fusion",
                     "--values", "none,bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation: fusion_mode"), err
        assert err.count("\n") == 1
        # A fused config cannot drop its context tokens; the 0 is refused
        # before the 4 trains.
        d = RunConfig.load(cfg_path).to_dict()
        d["prompt"]["fusion_mode"] = "fused"
        fused = tmp_path / "fused.json"
        fused.write_text(json.dumps(d))
        assert main(["ablate", "--config", str(fused), "--dimension", "context_length",
                     "--values", "4,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation:"), err
        assert "context_length" in err and err.count("\n") == 1
        # A 40-token context does not fit the text encoder's 32 positions;
        # the 40 is refused before the 4 trains.
        assert main(["ablate", "--config", str(cfg_path), "--dimension", "context_length",
                     "--values", "4,40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("contract violation: context_length 40"), err
        assert "max_text_len" in err and err.count("\n") == 1
        assert trained == []

    def test_extended_kinds_over_the_batch_exit_2(self, cli_run, tmp_path, capsys):
        """Fractions that round to more mismatched and silent scenes than
        ``eval_samples`` end in one line and exit 2, before any scene is scored."""
        cfg_path, out = cli_run
        d = RunConfig.load(cfg_path).to_dict()
        d["eval_samples"] = 3
        d["generator"].update(mismatch_fraction=0.5, silent_fraction=0.5)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(d))
        assert main(["eval", "--ckpt", str(out / "model.splt"), "--config", str(cfg),
                     "--benchmark", "extended-analog", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("contract violation: extended mode rounds its fractions to 2 "
                       "mismatched and 2 silent scenes, more than the batch of 3\n")
        assert not (tmp_path / "report_extended-analog.csv").exists()

    def test_missing_sibling_config_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.splt"
        ckpt.write_bytes(b"not really")
        assert main(["eval", "--ckpt", str(ckpt),
                     "--benchmark", "s4-analog"]) == 2

    def test_io_errors_exit_3(self, cli_run, tmp_path, capsys):
        garbled = tmp_path / "config.json"
        garbled.write_text("{not json")
        assert main(["train", "--config", str(garbled)]) == 3
        capsys.readouterr()
        # A config that is not UTF-8, for every subcommand that loads one.
        garbled.write_bytes(b"\xff" + json.dumps(RunConfig().to_dict()).encode())
        for argv in (["train"], ["ablate", "--dimension", "epochs", "--values", "0"],
                     ["gen-data", "--out", str(tmp_path / "data")],
                     ["eval", "--ckpt", str(tmp_path / "model.splt"), "--benchmark", "heard"],
                     ["render", "--ckpt", str(tmp_path / "model.splt"),
                      "--out", str(tmp_path / "maps")]):
            assert main(argv + ["--config", str(garbled)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and err.count("\n") == 1, err
            assert "utf-8" in err
        assert main(["eval", "--ckpt", str(tmp_path / "missing.splt"),
                     "--config", str(tmp_path / "nowhere.json"),
                     "--benchmark", "s4-analog"]) == 3
        capsys.readouterr()
        # A checkpoint that does not fit the configured model, one shorter
        # than its header, one holding a NaN and one naming a parameter
        # twice: one line on stderr, no traceback.
        cfg_path, out = cli_run
        d = RunConfig.load(cfg_path).to_dict()
        d["prompt"]["context_length"] = 8
        d["prompt"]["va_position"] = 9
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps(d))
        short = tmp_path / "short.splt"
        short.write_bytes(b"SPLT\x01")
        state = load_checkpoint(out / "model.splt")
        repeated = tmp_path / "repeated.splt"
        save_checkpoint(repeated, {"decoder.head_b": state["decoder.head_b"]})
        repeated.write_bytes((out / "model.splt").read_bytes() + repeated.read_bytes()[8:])
        state["decoder.head_b"][0] = np.nan
        poisoned = tmp_path / "nan.splt"
        save_checkpoint(poisoned, state)
        for ckpt, cfg, reason in (
                (out / "model.splt", wider, "meta_net.base (4, 64) where the model has (8, 64)"),
                (short, cfg_path, "shorter than the 8-byte header"),
                (poisoned, cfg_path, "'decoder.head_b' holds NaN or infinite values"),
                (repeated, cfg_path, "'decoder.head_b' appears twice")):
            assert main(["eval", "--ckpt", str(ckpt), "--config", str(cfg),
                         "--benchmark", "s4-analog", "--out", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and err.count("\n") == 1, err
            assert reason in err

    def test_retired_audio_projection_exits_3(self, cli_run, tmp_path, capsys):
        """A checkpoint saved while the audio side had a linear projection
        (identity weights, zero bias, between the image and text encoders)
        does not load: one stderr line names both retired records."""
        cfg_path, out = cli_run
        state = load_checkpoint(out / "model.splt")
        names = list(state)
        at = names.index("text_encoder.pos")
        old = {n: state[n] for n in names[:at]}
        old["audio_encoder.proj_w"] = np.eye(16)
        old["audio_encoder.proj_b"] = np.zeros(16)
        old.update((n, state[n]) for n in names[at:])
        ckpt = tmp_path / "old.splt"
        save_checkpoint(ckpt, old)
        assert main(["eval", "--ckpt", str(ckpt), "--config", str(cfg_path),
                     "--benchmark", "s4-analog", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1, err
        assert "unexpected: audio_encoder.proj_w, audio_encoder.proj_b" in err
        assert "missing" not in err
        assert not (tmp_path / "report_s4-analog.csv").exists()

    def test_training_abort_exits_1(self, cli_run, monkeypatch, capsys):
        cfg_path, _ = cli_run
        def explode(cfg):
            raise TrainingAborted("non-finite loss at step 3")
        monkeypatch.setattr(harness, "train", explode)
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "aborted" in capsys.readouterr().err

    def test_unknown_benchmark_choice_rejected(self, cli_run, capsys):
        _, out = cli_run
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--ckpt", str(out / "model.splt"),
                  "--benchmark", "s5-analog"])
        assert exc.value.code == 2

    def test_empty_ablate_values_exit_2(self, cli_run):
        cfg_path, _ = cli_run
        assert main(["ablate", "--config", str(cfg_path),
                     "--dimension", "epochs", "--values", ""]) == 2


class TestBatchLossGradient:
    """The whole-pipeline gradient oracle: reverse-mode gradients of the
    training loss against central differences, through the all-pairs
    decode, the upsample, the masked re-encode and both InfoNCE tables."""

    @pytest.mark.parametrize("fusion", ["none", "fused", "ensemble"])
    def test_batch_loss_matches_central_differences(self, fusion):
        model = SoundLocalizer(EncoderConfig(embed_dim=16, image_size=8, patch_size=4),
                               PromptConfig(context_length=2, fusion_mode=fusion), seed=70)
        model.apply_freezing()
        params = model.trainable_parameters()
        rng = np.random.default_rng(71)
        for p in params.values():   # move off the identity init so every path is live
            p.data = p.data + rng.normal(0.0, 0.1, p.shape)
        images = rng.uniform(size=(3, 8, 8, 3))
        audios = rng.normal(size=(3, 8000))
        pick = np.random.default_rng(72)

        def loss(_):
            return batch_loss(model, images, audios, LossWeights())[0]

        report = grad_check(
            loss, params, h=1e-6, tol=1e-6,
            coords=lambda name, t: pick.choice(t.size, size=min(4, t.size), replace=False))
        assert report.ok, report.failures[:3]
        assert not report.non_finite
        assert report.max_rel_error.keys() == params.keys()
