"""Output checks for the benchmark workloads.

Each check compares the program's output with a computation made here,
apart from the program, or with a property the method must have.  None
compares with a stored copy of an earlier output.  Every check returns
``(ok, detail)``; ``detail`` is a short JSON-ready description.

The metric reference below is a plain loop over masks and does not import
``soundloc.metrics``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from soundloc import autodiff as ad
from soundloc import harness, synth
from soundloc.harness import RunConfig

REPORT_KEYS = ("ciou", "auc", "miou", "fscore", "ap", "max_f1", "loc_acc")
LOSS_PARTS = ("l_img", "l_feat", "l_reg", "total")


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- training --------------------------------------------------------------------

def train_split_size(cfg: RunConfig) -> int:
    """Training scenes per epoch: the scenes left after the validation share."""
    return cfg.train_samples - int(round(cfg.val_fraction * cfg.train_samples))


def expected_steps(cfg: RunConfig) -> int:
    """Optimizer steps a run takes; a final batch of one sample is skipped."""
    n = train_split_size(cfg)
    per_epoch = n // cfg.batch_size + (1 if n % cfg.batch_size >= 2 else 0)
    return cfg.epochs * per_epoch


def bad_steps(steps: list[dict], cfg: RunConfig) -> list[int]:
    """Steps whose loss parts are not finite and non-negative, or whose
    total is not lambda1*l_img + lambda2*l_feat + lambda3*l_reg."""
    w = cfg.loss
    bad = []
    for k, s in enumerate(steps):
        parts = [s[p] for p in LOSS_PARTS]
        if not all(math.isfinite(v) and v >= 0.0 for v in parts):
            bad.append(k)
            continue
        total = w.lambda1 * s["l_img"] + w.lambda2 * s["l_feat"] + w.lambda3 * s["l_reg"]
        # the program sums in float32: allow a few float32 ulps of the total
        if abs(total - s["total"]) > 1e-6 * max(1.0, abs(total)):
            bad.append(k)
    return bad


def check_step_count(steps: list[dict], cfg: RunConfig):
    want = expected_steps(cfg)
    return len(steps) == want, {"steps": len(steps), "expected": want}


def check_loss_decreases(steps: list[dict]):
    """Mean loss of the last epoch is below that of the first."""
    epochs = sorted({s["epoch"] for s in steps})
    first = [s["total"] for s in steps if s["epoch"] == epochs[0]]
    last = [s["total"] for s in steps if s["epoch"] == epochs[-1]]
    a, b = sum(first) / len(first), sum(last) / len(last)
    return len(epochs) >= 2 and b < a, {"first_epoch": a, "last_epoch": b}


def encoder_checksum(model) -> str:
    h = hashlib.sha256()
    params = model.encoder_parameters()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


def check_frozen(model, log):
    """The encoders did not move during the main loop, and the log's
    checksum describes the model that came back."""
    own = encoder_checksum(model)
    ok = log.frozen_checksum_before == log.frozen_checksum_after == own
    return ok, {"before": log.frozen_checksum_before[:16],
                "after": log.frozen_checksum_after[:16], "model": own[:16]}


def check_reload(cfg: RunConfig, loaded, model, log):
    """The reloaded checkpoint has the trained parameters and reproduces the
    logged final loss bit for bit."""
    trained = model.parameters()
    same = all(np.array_equal(t.data, trained[k].data)
               for k, t in loaded.parameters().items())
    again = harness.final_loss_of(loaded, cfg)
    return same and again == log.final_loss, {
        "params_equal": same, "final_loss": log.final_loss, "reloaded": again}


def gradient_check(cfg: RunConfig, model, coords_per_tensor: int, batch: int = 4,
                   tol: float = 1e-6, steps: tuple[float, ...] = (1e-7, 2e-8)):
    """Central differences on a float64 copy of the trained model.

    The loss is ``harness.batch_loss`` on the first ``batch`` training scenes
    of the workload; ``coords_per_tensor`` seeded coordinates of every
    trainable tensor are compared with the reverse-mode gradient.  Error is
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.

    The loss has ReLU kinks, and a difference quotient whose interval holds
    one can be off by far more than ``tol``.  A mismatch therefore counts
    only when halving the step leaves the quotient unchanged; otherwise the
    next, smaller step is tried, and a coordinate kinked at every step is
    skipped.  At most a tenth of the coordinates may be skipped.
    """
    d = cfg.to_dict()
    d["dtype"] = "float64"
    cfg64 = RunConfig.from_dict(d)
    m64 = harness.build_model(cfg64)
    m64.load_state({k: t.data for k, t in model.parameters().items()})
    m64.apply_freezing()
    images, audios = harness.stack_batch(
        synth.make_batch(cfg.generator, batch, "train", base_seed=cfg.seed))
    params = m64.trainable_parameters()
    for t in params.values():
        t.zero_grad()
    loss, _ = harness.batch_loss(m64, images, audios, cfg.loss)
    ad.backward(loss)

    def quotient(flat: np.ndarray, i: int, h: float) -> float:
        orig = flat[i]
        with ad.no_grad():
            flat[i] = orig + h
            up = harness.batch_loss(m64, images, audios, cfg.loss)[0].item()
            flat[i] = orig - h
            down = harness.batch_loss(m64, images, audios, cfg.loss)[0].item()
        flat[i] = orig
        return (up - down) / (2.0 * h)

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 97]))
    worst, where, compared, skipped, mismatched = 0.0, "", 0, 0, []
    for name in sorted(params):
        t = params[name]
        grad = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        flat = t.data.reshape(-1)   # a view: writes reach the parameter
        for i in rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False):
            for h in steps:
                num = quotient(flat, i, h)
                err = rel(grad[i], num)
                if err <= tol or rel(quotient(flat, i, h / 2), num) <= tol:
                    break
            else:
                skipped += 1
                continue
            compared += 1
            if err > tol:
                mismatched.append(f"{name}[{i}]")
            if not err <= worst:
                worst, where = err, f"{name}[{i}]"
    ok = not mismatched and skipped <= (compared + skipped) // 10
    return ok, {"compared": compared, "skipped_at_kinks": skipped, "tensors": len(params),
                "batch": batch, "worst_rel_error": worst, "at": where,
                "mismatched": mismatched[:10], "tol": tol}


# -- evaluation ------------------------------------------------------------------

def bad_masks(masks: list[np.ndarray], size: int) -> list[int]:
    """Indices of masks that are not (size, size), finite and in [0, 1]."""
    return [i for i, m in enumerate(masks)
            if m.shape != (size, size) or not np.isfinite(m).all()
            or m.min() < 0.0 or m.max() > 1.0]


def check_chunk_vs_alone(model, scenes, masks, indices, tol: float = 1e-6):
    """A scene's mask does not depend on the batch it was decoded in."""
    worst = 0.0
    for i in indices:
        alone = model.predict_masks(scenes[i].image[None], scenes[i].audio[None])[0]
        worst = max(worst, float(np.abs(alone.astype(np.float64) - masks[i]).max()))
    return worst <= tol, {"scenes": len(indices), "max_abs_diff": worst, "tol": tol}


def check_matched_decode(model, scenes):
    """``predict_masks`` equals the diagonal of the all-pairs decode."""
    images, audios = harness.stack_batch(scenes)
    b = len(scenes)
    with ad.no_grad():
        _, _, _, dec = model.similarity_tables(model.perceive(images, audios))
    diag = dec.image_masks.data[np.arange(b) * b + np.arange(b)]
    pred = model.predict_masks(images, audios)
    return bool(np.array_equal(diag, pred)), {
        "batch": b, "max_abs_diff": float(np.abs(diag - pred).max())}


def _iou(pred: np.ndarray, gt: np.ndarray) -> float:
    union = int(np.count_nonzero(pred | gt))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(pred & gt)) / union


def reference_metrics(masks: list[np.ndarray], scenes) -> dict:
    """cIoU, AUC, mIoU, F-score, AP, max-F1 and loc-acc by a plain loop.

    Box metrics binarize at half the mask's own maximum against the box
    ground truth; mIoU and the pooled F-score (beta^2 = 0.3) threshold at 0.5
    against the exact mask; detection ranks scenes by mask maximum, and a
    scene is positive when its audio matches and the source is visible and
    audible.
    """
    n = len(masks)
    box_iou, conf, positive = [], [], []
    iou_sum, tp, fp, fn = 0.0, 0, 0, 0
    for m, s in zip(masks, scenes):
        peak = float(m.max())
        conf.append(peak)
        half = m >= 0.5 * peak if peak > 0.0 else np.zeros(m.shape, dtype=bool)
        box_iou.append(_iou(half, np.asarray(s.gt_box_mask, dtype=bool)))
        pred, gt = m >= 0.5, np.asarray(s.gt_mask, dtype=bool)
        iou_sum += _iou(pred, gt)
        tp += int(np.count_nonzero(pred & gt))
        fp += int(np.count_nonzero(pred & ~gt))
        fn += int(np.count_nonzero(~pred & gt))
        positive.append(s.flags.matched and s.flags.visible and s.flags.audible)

    out = {"ciou": sum(v >= 0.5 for v in box_iou) / n,
           "auc": sum(sum(v >= k / 20 for v in box_iou) / n for k in range(1, 21)) / 20,
           "miou": iou_sum / n}
    if tp == 0:
        out["fscore"] = 0.0
    else:
        p, r = tp / (tp + fp), tp / (tp + fn)
        out["fscore"] = 1.3 * p * r / (0.3 * p + r)

    n_pos = sum(positive)
    if n_pos == 0:
        out.update(ap=None, max_f1=None, loc_acc=None)
    else:
        order = sorted(range(n), key=lambda i: (-conf[i], i))
        ranked = [positive[i] for i in order]
        prec, hits = [], 0
        for k, p in enumerate(ranked, start=1):
            hits += p
            prec.append(hits / k)
        for k in range(n - 2, -1, -1):
            prec[k] = max(prec[k], prec[k + 1])
        out["ap"] = sum(prec[k] for k in range(n) if ranked[k]) / n_pos
        # one sweep down the ranking, scoring only where the confidence changes
        best, hits = 0.0, 0
        for k, i in enumerate(order):
            hits += positive[i]
            if k + 1 == n or conf[order[k + 1]] != conf[i]:
                false_pos = k + 1 - hits
                best = max(best, 2 * hits / (2 * hits + false_pos + (n_pos - hits)))
        out["max_f1"] = best
        out["loc_acc"] = sum(box_iou[i] >= 0.5 for i in range(n) if positive[i]) / n_pos
    out["per_sample_iou"] = box_iou
    out["confidence"] = conf
    return out


def _same(report_value, ref, tol: float = 1e-12) -> bool:
    if ref is None:
        return report_value is None or (isinstance(report_value, float)
                                        and math.isnan(report_value))
    return report_value is not None and abs(report_value - ref) <= tol


def check_reports(report_dir: Path, benchmark: str, ref: dict):
    """The CSV and JSON reports on disk agree with the reference metrics."""
    with (report_dir / f"report_{benchmark}.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    twin = json.loads((report_dir / f"report_{benchmark}.json").read_text())
    mismatched = []
    if len(rows) != 1 or rows[0]["benchmark"] != benchmark:
        mismatched.append("csv rows")
    for key in REPORT_KEYS:
        if rows and not _same(float(rows[0][key]), ref[key]):
            mismatched.append(f"csv {key}")
        if not _same(twin["metrics"][key], ref[key]):
            mismatched.append(f"json {key}")
    per = twin["per_sample"]
    if len(per) != len(ref["per_sample_iou"]):
        mismatched.append("json per_sample count")
    else:
        if any(p["iou"] != v for p, v in zip(per, ref["per_sample_iou"])):
            mismatched.append("json per_sample iou")
        if any(p["confidence"] != v for p, v in zip(per, ref["confidence"])):
            mismatched.append("json per_sample confidence")
    return not mismatched, {"mismatched": mismatched}
