"""Acceptance gate: ten release criteria, one test and one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict
line; without ``-s`` the lines still appear for any failing criterion.
Criteria 7 and 8 share one full-defaults training run (a few minutes on
one core) and score it on the first 1024 scenes of their benchmarks;
everything else is seconds.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import harness, metrics
from soundloc.encoders import EncoderConfig, TextEncoder
from soundloc.harness import (
    RunConfig,
    ablate,
    benchmark_scenes,
    benchmark_stream,
    build_model,
    evaluate,
    predict_eval_samples,
    render_heatmaps,
    train,
)
from soundloc.layers import TransformerBlock
from soundloc.losses import (
    LossWeights,
    area_regularization,
    infonce_symmetric,
    total_loss,
)
from soundloc.metrics import EvalSample
from soundloc.prompting import MetaNet, assemble_prompt
from soundloc.synth import SceneFlags

from _gradcheck import apply_primitive
from _oracles import (
    ap_loops,
    area_reg_loops,
    auc_loops,
    ciou_loops,
    fd_gradient,
    fscore_loops,
    infonce_loops,
    loc_acc_loops,
    max_f1_loops,
    miou_loops,
)

H = 1e-4
INFONCE_2X2 = 0.42146291237480704
S_2X2 = [[1.0, 0.2], [0.3, 0.8]]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: finite-difference gradients for every primitive ------------

def _signed(rng, shape, lo=0.05, hi=2.0):
    """Magnitudes bounded away from zero (keeps |x| >> h at relu/abs kinks)."""
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def _op_cases(rng):
    """inputs + kwargs for one random instance of each primitive."""
    axis = int(rng.integers(0, 2))
    keep = bool(rng.integers(0, 2))
    x34 = rng.normal(size=(3, 4))
    bshape = (3, 4) if rng.random() < 0.5 else (1, 4)   # exercise broadcasting
    strong = rng.normal(size=(3, 4))
    strong += np.where(np.linalg.norm(strong, axis=1, keepdims=True) < 0.5, 1.0, 0.0)
    return {
        "add": ([x34, rng.normal(size=bshape)], {}),
        "sub": ([x34, rng.normal(size=bshape)], {}),
        "mul": ([x34, rng.normal(size=bshape)], {}),
        "div": ([x34, _signed(rng, bshape, 0.5, 1.5)], {}),
        "neg": ([x34], {}),
        "matmul": ([rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))], {}),
        "linear": ([rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)),
                    rng.normal(size=2)], {}),
        "attention": ([rng.normal(size=(2, 2, 3, 4)) for _ in range(3)],
                      {"causal": bool(rng.integers(0, 2))}),
        "relu": ([_signed(rng, (3, 4))], {}),
        "sigmoid": ([rng.normal(size=(3, 4))], {}),
        "abs": ([_signed(rng, (3, 4))], {}),
        "exp": ([rng.normal(size=(3, 4))], {}),
        "log": ([rng.uniform(0.5, 2.5, (3, 4))], {}),
        "sum": ([x34], {"axis": axis, "keepdims": keep}),
        "mean": ([x34], {"axis": axis, "keepdims": keep}),
        "softmax": ([rng.uniform(-2, 2, (3, 4))], {"axis": axis}),
        "log_softmax": ([rng.uniform(-2, 2, (3, 4))], {"axis": axis}),
        "layer_norm": ([rng.normal(size=(3, 4)), rng.uniform(0.5, 1.5, 4),
                        rng.normal(size=4)], {}),
        "l2_normalize": ([strong], {}),
        "reshape": ([x34], {"shape": (2, 6)}),
        "transpose": ([rng.normal(size=(2, 3, 4))],
                      {"axes": tuple(rng.permutation(3))}),
        "getitem": ([x34], {"key": rng.integers(0, 3, 5)}),
        "concat": ([rng.normal(size=(2, 4)), rng.normal(size=(3, 4))],
                   {"axis": 0}),
        "masked_fill": ([x34], {"mask": rng.random((3, 4)) > 0.5,
                                "value": float(rng.normal())}),
        "resize_bilinear": ([rng.normal(size=(3, 5))], {"out_h": 5, "out_w": 8}),
    }


def _max_rel(a, b):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / denom).max())


def _fd_check_primitive(name, inputs, kwargs, rng):
    tensors = [ad.Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
               for x in inputs]
    out = apply_primitive(name, tensors, **kwargs)
    w = rng.normal(size=out.shape)
    ad.backward((out * ad.constant(w)).sum())
    worst = 0.0
    for k in range(len(inputs)):
        def f(arr, _k=k):
            probe = [ad.constant(arr if j == _k else inputs[j])
                     for j in range(len(inputs))]
            return float((apply_primitive(name, probe, **kwargs).data * w).sum())
        numeric = fd_gradient(f, np.asarray(inputs[k], dtype=np.float64), H)
        worst = max(worst, _max_rel(tensors[k].grad, numeric))
    return worst


def _area_table(rng, b=3):
    """Entries kept > 10h away from both L1 targets (0.4 diag, 0.0 off)."""
    m = rng.uniform(0.05, 0.95, (b, b))
    return np.where(np.abs(m - 0.4) < 0.01, m + 0.02, m)


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = {}
    missing = set(ad.PRIMITIVES) - set(_op_cases(np.random.default_rng(0)))
    assert not missing, f"primitives without a gradient case: {missing}"
    for i, name in enumerate(sorted(ad.PRIMITIVES)):
        rng = np.random.default_rng([41, i])
        worst[name] = max(
            _fd_check_primitive(name, *(_op_cases(rng)[name]), rng)
            for _ in range(100))

    rng = np.random.default_rng(42)
    w_inf = w_area = w_total = 0.0
    weights = LossWeights()
    for trial in range(100):
        tau = 0.5 if trial % 2 else 0.07
        s = rng.normal(size=(3, 3))
        t = ad.Tensor(s.copy(), requires_grad=True)
        ad.backward(infonce_symmetric(t, tau))
        num = fd_gradient(
            lambda arr: float(infonce_symmetric(ad.constant(arr), tau).data), s, H)
        w_inf = max(w_inf, _max_rel(t.grad, num))

        m = _area_table(rng)
        t = ad.Tensor(m.copy(), requires_grad=True)
        ad.backward(area_regularization(t, 0.4, 0.0))
        num = fd_gradient(
            lambda arr: float(area_regularization(ad.constant(arr), 0.4, 0.0).data), m, H)
        w_area = max(w_area, _max_rel(t.grad, num))

        s1, s2, m = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), _area_table(rng)
        parts = [ad.Tensor(x.copy(), requires_grad=True) for x in (s1, s2, m)]
        ad.backward(total_loss(infonce_symmetric(parts[0], tau),
                               infonce_symmetric(parts[1], tau),
                               area_regularization(parts[2], weights.p_plus, weights.p_minus),
                               weights))
        for k, x in enumerate((s1, s2, m)):
            def f(arr, _k=k):
                probe = [ad.constant(arr if j == _k else (s1, s2, m)[j])
                         for j in range(3)]
                return float(total_loss(
                    infonce_symmetric(probe[0], tau),
                    infonce_symmetric(probe[1], tau),
                    area_regularization(probe[2], weights.p_plus, weights.p_minus),
                    weights).data)
            w_total = max(w_total, _max_rel(parts[k].grad, fd_gradient(f, x, H)))

    elapsed = time.perf_counter() - start
    peak = max(max(worst.values()), w_inf, w_area, w_total)
    ok = peak < 1e-4 and elapsed < 60.0
    _verdict(1, ok, f"{len(worst)} primitives + 3 losses x 100 instances, "
                    f"worst rel err {peak:.2e} (<1e-4), {elapsed:.1f}s (<60s)")
    assert ok


# -- criterion 2: InfoNCE identities -----------------------------------------

def test_criterion_2_infonce_identities():
    rng = np.random.default_rng(7)
    ln_err = max(
        abs(float(infonce_symmetric(
            ad.constant(np.full((b, b), 0.3)), 0.07).data) - math.log(b))
        for b in (2, 4, 8, 16))
    shift_err = perm_err = 0.0
    for _ in range(20):
        s = rng.normal(size=(5, 5))
        base = float(infonce_symmetric(ad.constant(s), 0.07).data)
        for c in (-3.0, 0.4, 17.5):
            shift_err = max(shift_err, abs(
                float(infonce_symmetric(ad.constant(s + c), 0.07).data) - base))
        p = rng.permutation(5)
        perm_err = max(perm_err, abs(
            float(infonce_symmetric(ad.constant(s[p][:, p]), 0.07).data) - base))
    two = float(infonce_symmetric(ad.constant(np.array(S_2X2)), 1.0).data)
    oracle_err = max(abs(two - infonce_loops(S_2X2, 1.0)), abs(two - INFONCE_2X2))
    ok = ln_err < 1e-9 and shift_err < 1e-9 and perm_err < 1e-9 and oracle_err < 1e-12
    _verdict(2, ok, f"ln B err {ln_err:.1e}, shift err {shift_err:.1e}, "
                    f"perm err {perm_err:.1e} (<1e-9); 2x2 vs oracle "
                    f"{oracle_err:.1e} (<1e-12)")
    assert ok


# -- criterion 3: area regularization ----------------------------------------

def test_criterion_3_area_regularization():
    exact = np.full((4, 4), 0.1)
    np.fill_diagonal(exact, 0.7)
    at_target = float(area_regularization(ad.constant(exact), 0.7, 0.1).data)
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(50):
        m = rng.uniform(0, 1, (3, 3))
        ours = float(area_regularization(ad.constant(m), 0.4, 0.0).data)
        if ours != area_reg_loops(m.tolist(), 0.4, 0.0):
            mismatches += 1
    ok = at_target == 0.0 and mismatches == 0
    _verdict(3, ok, f"exact-target loss {at_target} (== 0.0); 50 random 3x3 "
                    f"vs double loop: {mismatches} mismatches (exact)")
    assert ok


# -- criterion 4: metric oracle equivalence ----------------------------------

_POS = SceneFlags(matched=True, visible=True, audible=True)
_SIL = SceneFlags(matched=False, visible=True, audible=False)
_MIS = SceneFlags(matched=False, visible=False, audible=True)


def _metric_case(rng):
    samples = []
    for _ in range(int(rng.integers(2, 10))):
        style = rng.integers(0, 4)
        if style == 0:
            pred = np.zeros((8, 8))
        elif style == 1:
            pred = (rng.random((8, 8)) > 0.5).astype(np.float64)
        else:
            pred = rng.uniform(size=(8, 8))
        if style == 3:
            pred[pred > 0.9] = 0.9
        gt = rng.random((8, 8)) > float(rng.uniform(0.3, 0.9))
        box = gt
        if rng.random() < 0.4:
            box = np.zeros((8, 8), dtype=bool)
            r0, c0 = rng.integers(0, 5, size=2)
            box[r0:r0 + 4, c0:c0 + 4] = True
        samples.append(EvalSample(
            pred_mask=pred, gt_mask=gt, gt_box_mask=box,
            flags=[_POS, _SIL, _MIS][int(rng.integers(0, 3))]))
    return samples


def test_criterion_4_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        samples = _metric_case(rng)
        rep = metrics.compute_report(samples)
        pairs = [(rep.ciou, ciou_loops(samples)), (rep.auc, auc_loops(samples)),
                 (rep.miou, miou_loops(samples)), (rep.fscore, fscore_loops(samples)),
                 (rep.ap, ap_loops(samples)), (rep.max_f1, max_f1_loops(samples)),
                 (rep.loc_acc, loc_acc_loops(samples))]
        mismatches += sum(ours != oracle for ours, oracle in pairs)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(4, ok, f"200 random 8x8 cases x 7 metrics: {mismatches} mismatches "
                    f"(exact, 64-bit), {elapsed:.1f}s (<30s)")
    assert ok


# -- criterion 5: causal prefix invariance -----------------------------------

def test_criterion_5_causal_prefix_invariance(monkeypatch):
    enc = TextEncoder(EncoderConfig(), np.random.default_rng(3))
    hidden = []
    block_forward = TransformerBlock.forward

    def spy(blk, x):
        hidden.append(block_forward(blk, x))
        return hidden[-1]

    def hidden_states(tokens):
        """Each layer's (1, T, d) output, read by a spy on the blocks."""
        hidden.clear()
        enc.forward(ad.constant(tokens[None]))
        assert len(hidden) == enc.cfg.text_layers
        return hidden[:]

    monkeypatch.setattr(TransformerBlock, "forward", spy)
    d = enc.cfg.embed_dim
    rng = np.random.default_rng(55)
    checked = violations = 0
    for m in (0, 4, 8, 16):
        for p in range(1, m + 2):
            for _ in range(50):
                ctx = ad.constant(rng.normal(size=(m, d)))
                va = ad.constant(rng.normal(size=d))
                tokens = assemble_prompt(ctx[None], va[None], p)[0].data
                t = tokens.shape[0]
                if t == 1:
                    # A one-token prompt has no suffix to perturb, so the
                    # invariant reduces to forward determinism.  (Appending
                    # a token instead would change the matmul shapes, and
                    # BLAS may reorder reductions across shapes.)
                    k, other = 1, tokens.copy()
                else:
                    k = int(rng.integers(1, t))
                    other = tokens.copy()
                    other[k:] += rng.normal(size=(t - k, d))
                for ha, hb in zip(hidden_states(tokens), hidden_states(other)):
                    checked += 1
                    if not np.array_equal(ha.data[0, :k], hb.data[0, :k]):
                        violations += 1
    ok = violations == 0
    _verdict(5, ok, f"50 prompts x all (M, p), M in {{0,4,8,16}}: "
                    f"{violations} prefix changes in {checked} layer "
                    f"comparisons (exact)")
    assert ok


# -- criterion 6: prompt assembly orders and bottleneck width ----------------

PRINTED_ORDERS = {
    1: "[V_A][V_1][V_2][V_3][V_4]",
    2: "[V_1][V_A][V_2][V_3][V_4]",
    3: "[V_1][V_2][V_A][V_3][V_4]",
    4: "[V_1][V_2][V_3][V_A][V_4]",
    5: "[V_1][V_2][V_3][V_4][V_A]",
}


def test_criterion_6_prompt_mechanics():
    d = 8
    ctx = ad.constant(np.arange(1, 5, dtype=np.float64)[:, None] * np.ones(d))
    va = ad.constant(np.full(d, -1.0))
    bad_orders = []
    for p, printed in PRINTED_ORDERS.items():
        tokens = assemble_prompt(ctx[None], va[None], p)[0].data
        labels = "".join(
            "[V_A]" if row[0] == -1.0 else f"[V_{int(row[0])}]"
            for row in tokens)
        if labels != printed or not np.array_equal(tokens[p - 1], va.data):
            bad_orders.append(p)
    widths_ok = all(
        MetaNet(4, dim, np.random.default_rng(0)).hidden == dim // 16
        and MetaNet(4, dim, np.random.default_rng(0)).w1.shape == (dim, dim // 16)
        for dim in (32, 64, 128))
    ok = not bad_orders and widths_ok
    _verdict(6, ok, f"token orders wrong at positions {bad_orders or 'none'} "
                    f"(all 5 printed orders); meta-net hidden width d/16: "
                    f"{'yes' if widths_ok else 'no'}")
    assert ok


# -- criteria 7 and 8: one full-defaults training run ------------------------

# Scenes scored by criteria 7 and 8, the first of each benchmark.  On 64
# scenes cIoU moves in steps of 1/64 with a standard error of ~0.05, so one
# rounding trajectory could decide the verdict; on 1024 it is ~0.0125.
SCORED_SCENES = 1024


@pytest.fixture(scope="module")
def trained_default(tmp_path_factory):
    """The default run at seed 0, and its config set to score ``SCORED_SCENES``."""
    cfg = RunConfig(out_dir=str(tmp_path_factory.mktemp("default_run")))
    model, log = train(cfg, write_artifacts=False)
    return dataclasses.replace(cfg, eval_samples=SCORED_SCENES), model, log


def test_criterion_7_synthetic_learning(trained_default):
    cfg, model, log = trained_default
    trained = metrics.compute_report(
        predict_eval_samples(model, benchmark_stream(cfg, "s4-analog")))
    untrained = metrics.compute_report(
        predict_eval_samples(build_model(cfg), benchmark_stream(cfg, "s4-analog")))
    diff = trained.ciou - untrained.ciou
    ok = diff >= 0.5 and trained.miou >= 0.6 and log.wall_clock_sec < 600.0
    _verdict(7, ok, f"s4-analog ({cfg.eval_samples} scenes) cIoU {trained.ciou:.4f} vs "
                    f"untrained {untrained.ciou:.4f} (diff {diff:.4f} >= 0.5), "
                    f"mIoU {trained.miou:.4f} (>= 0.6), "
                    f"train {log.wall_clock_sec:.0f}s (< 600s)")
    assert ok


def test_criterion_8_mismatch_suppression(trained_default):
    cfg, model, _ = trained_default
    evs = predict_eval_samples(model, benchmark_stream(cfg, "extended-analog"))
    conf_matched = np.mean([e.confidence for e in evs if e.flags.matched])
    conf_mis = np.mean([e.confidence for e in evs
                        if e.flags.audible and not e.flags.matched])
    conf_sil = np.mean([e.confidence for e in evs if not e.flags.audible])
    ap = metrics.average_precision(evs)
    ok = (conf_mis < conf_matched and conf_sil < conf_matched
          and ap is not None and ap >= 0.8)
    _verdict(8, ok, f"mean confidence matched {conf_matched:.4f} vs mismatched "
                    f"{conf_mis:.4f} / silent {conf_sil:.4f} (strictly lower); "
                    f"extended-analog ({cfg.eval_samples} scenes) "
                    f"AP {'none' if ap is None else f'{ap:.4f}'} (>= 0.8)")
    assert ok


# -- criterion 9: byte-level determinism -------------------------------------

def test_criterion_9_determinism(tmp_path):
    def run(tag):
        cfg = RunConfig(epochs=1, train_samples=48, eval_samples=8,
                        warmup_epochs=1, out_dir=str(tmp_path / tag))
        model, _ = train(cfg)
        evaluate(model, cfg, "s4-analog", out_dir=tmp_path / tag)
        render_heatmaps(model, benchmark_scenes(cfg, "s4-analog")[:2],
                        tmp_path / tag / "maps")
        return tmp_path / tag

    a, b = run("a"), run("b")
    compared = ["model.splt", "report_s4-analog.csv", "report_s4-analog.json"]
    compared += [f"maps/{p.name}" for p in sorted((a / "maps").iterdir())]
    unequal = [f for f in compared
               if (a / f).read_bytes() != (b / f).read_bytes()]
    ok = not unequal
    _verdict(9, ok, f"{len(compared)} files (checkpoint, reports, PGMs) "
                    f"byte-compared across two identical runs; "
                    f"unequal: {unequal or 'none'}")
    assert ok


# -- criterion 10: ablation table structure ----------------------------------

def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_criterion_10_ablation_tables(tmp_path):
    base = RunConfig(epochs=1, train_samples=16, eval_samples=8, batch_size=8,
                     warmup_epochs=0, out_dir=str(tmp_path / "base"))
    problems = []

    ablate(base, "context_length", [4, 8, 16], out_dir=tmp_path)
    header, rows = _read_table(tmp_path / "ablation_context_length.csv")
    if header != ["ctx", "ciou", "auc"]:
        problems.append(f"context_length header {header}")
    if [r[0] for r in rows] != ["ctx=4", "ctx=8", "ctx=16"]:
        problems.append(f"context_length rows {[r[0] for r in rows]}")

    ablate(base, "va_position", [1, 2, 3, 4, 5], out_dir=tmp_path)
    header, rows = _read_table(tmp_path / "ablation_va_position.csv")
    if header != ["ctx", "va_index", "token_order", "ciou", "auc"]:
        problems.append(f"va_position header {header}")
    want = [["ctx=4", f"pos={p}", PRINTED_ORDERS[p]] for p in range(1, 6)]
    if [r[:3] for r in rows] != want:
        problems.append(f"va_position rows {[r[:3] for r in rows]}")

    ablate(base, "epochs", [20, 40, 50], out_dir=tmp_path)
    header, rows = _read_table(tmp_path / "ablation_epochs.csv")
    if header != ["ctx", "epochs", "ciou", "auc"]:
        problems.append(f"epochs header {header}")
    if [r[:2] for r in rows] != [["ctx=4", "20"], ["ctx=4", "40"],
                                 ["ctx=4", "50"]]:
        problems.append(f"epochs rows {[r[:2] for r in rows]}")

    ablate(base, "fusion", ["none", "fused", "ensemble"], out_dir=tmp_path)
    header, rows = _read_table(tmp_path / "ablation_fusion.csv")
    if header != ["method", "fusion", "ensemble", "ciou", "auc"]:
        problems.append(f"fusion header {header}")
    if [r[:3] for r in rows] != [["soundloc", "", ""], ["soundloc", "yes", ""],
                                 ["soundloc", "", "yes"]]:
        problems.append(f"fusion rows {[r[:3] for r in rows]}")

    for name in ("context_length", "va_position", "epochs", "fusion"):
        _, rows = _read_table(tmp_path / f"ablation_{name}.csv")
        for r in rows:
            float(r[-1]), float(r[-2])     # ciou/auc cells must be numeric

    ok = not problems
    _verdict(10, ok, "tables for context length, audio-token position, "
                     "training duration, and fusion match the published "
                     f"layouts; problems: {problems or 'none'}")
    assert ok
