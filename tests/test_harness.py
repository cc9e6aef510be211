"""Tests for run configuration, the training loop, evaluation, ablations,
rendering, and the command-line surface.

Training-based tests run on deliberately tiny configs (one or two epochs,
dozens of samples) so the whole module stays in the tens of seconds; the
full-scale quantitative gates live in the acceptance suite.
"""

import json
import math

import numpy as np
import pytest

from soundloc import formats, harness, metrics, synth
from soundloc.autodiff import ContractViolation
from soundloc.cli import main
from soundloc.harness import (
    REPORT_COLUMNS,
    RunConfig,
    TrainingAborted,
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


def _tiny_cfg(out_dir, **overrides) -> RunConfig:
    base = dict(seed=0, epochs=1, train_samples=64, eval_samples=8,
                batch_size=16, warmup_epochs=1, out_dir=str(out_dir))
    base.update(overrides)
    return RunConfig(**base)


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
        assert cfg.reference_scale["batch_size"] == 16

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
    ])
    def test_invalid_configs(self, bad):
        with pytest.raises(ContractViolation):
            RunConfig(**bad)


class TestTraining:
    def test_artifacts_written(self, tiny_run):
        _, _, _, out = tiny_run
        assert (out / "config.json").is_file()
        assert (out / "model.splt").is_file()
        assert (out / "trainlog.json").is_file()

    def test_saved_config_matches(self, tiny_run):
        cfg, _, _, out = tiny_run
        assert json.loads((out / "config.json").read_text()) == cfg.to_dict()

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
        assert header.split(",") == list(REPORT_COLUMNS)
        assert row.split(",")[0] == "s4-analog"
        twin = json.loads((tmp_path / "report_s4-analog.json").read_text())
        assert twin["benchmark"] == "s4-analog"
        assert set(twin["metrics"]) >= set(REPORT_COLUMNS[1:])
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

    def test_prediction_chunking_irrelevant(self, tiny_run):
        cfg, model, _, _ = tiny_run
        scenes = benchmark_scenes(cfg, "s4-analog")
        small = predict_eval_samples(model, scenes, chunk=3)
        big = predict_eval_samples(model, scenes, chunk=64)
        for a, b in zip(small, big):
            assert np.array_equal(a.pred_mask, b.pred_mask)


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
                        batch_size=8, warmup=False)
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
                        batch_size=8, warmup=False)
        rows = harness.ablate(cfg, "va_position", [1, 5], out_dir=tmp_path)
        assert all(list(r) == ["ctx", "va_index", "token_order", "ciou", "auc"]
                   for r in rows)
        assert rows[0]["token_order"] == "[V_A][V_1][V_2][V_3][V_4]"
        assert rows[1]["token_order"] == "[V_1][V_2][V_3][V_4][V_A]"
        assert [r["va_index"] for r in rows] == ["pos=1", "pos=5"]

    def test_invalid_dimension_and_value(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        with pytest.raises(ContractViolation, match="dimension"):
            harness.ablate(cfg, "learning_rate", [1])
        with pytest.raises(ContractViolation, match="fusion value"):
            harness.ablate(cfg, "fusion", ["bogus"])


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
        formats.write_pgm(again, formats.read_pgm(src))
        assert src.read_bytes() == again.read_bytes()

    def test_perfect_prediction_zero_difference(self, tmp_path):
        scenes = synth.make_batch(synth.GeneratorConfig(), 2, "s4", base_seed=3)
        index = render_heatmaps(self._EchoModel(scenes), scenes, tmp_path)
        assert [e["iou"] for e in index] == [1.0, 1.0]
        for i in range(2):
            diff = formats.read_pgm(tmp_path / f"sample_{i:05d}_diff.pgm")
            assert not diff.any()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg_path = root / "config.json"
    _tiny_cfg(out, train_samples=32, eval_samples=8, batch_size=8,
              warmup=False).save(cfg_path)
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

    def test_missing_sibling_config_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.splt"
        ckpt.write_bytes(b"not really")
        assert main(["eval", "--ckpt", str(ckpt),
                     "--benchmark", "s4-analog"]) == 2

    def test_io_errors_exit_3(self, cli_run, tmp_path, capsys):
        garbled = tmp_path / "config.json"
        garbled.write_text("{not json")
        assert main(["train", "--config", str(garbled)]) == 3
        assert main(["eval", "--ckpt", str(tmp_path / "missing.splt"),
                     "--config", str(tmp_path / "nowhere.json"),
                     "--benchmark", "s4-analog"]) == 3
        capsys.readouterr()
        # A checkpoint that does not fit the configured model, and one
        # shorter than its header: one line on stderr, no traceback.
        cfg_path, out = cli_run
        d = RunConfig.load(cfg_path).to_dict()
        d["prompt"]["context_length"] = 8
        d["prompt"]["va_position"] = 9
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps(d))
        short = tmp_path / "short.splt"
        short.write_bytes(b"SPLT\x01")
        for ckpt, cfg, reason in (
                (out / "model.splt", wider, "meta_net.base (4, 64) where the model has (8, 64)"),
                (short, cfg_path, "shorter than the 8-byte header")):
            assert main(["eval", "--ckpt", str(ckpt), "--config", str(cfg),
                         "--benchmark", "s4-analog", "--out", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("i/o error: ") and err.count("\n") == 1, err
            assert reason in err

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
