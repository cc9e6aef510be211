"""Brute-force reference implementations the test suite compares against.

Everything here is written as plain loops over Python scalars, on
purpose: no shared code with the package, no vectorization.  Where a
test asserts exact (``==``) agreement, the oracle performs its sums and
divisions in the same order as the library's documented fixed order;
everything else is free-form.  The exceptions are the gathered grounding
forms and the ensemble slice sum, which compose the package's primitives:
they are the per-row copies and the position-by-position sum that the
package's forms must match bit for bit.
"""

import cmath
import math
import struct
from pathlib import Path

import numpy as np

from soundloc import autodiff as ad
from soundloc.grounding import POOL_EPS
from soundloc.prompting import assemble_prompt


# -- finite differences ------------------------------------------------------

def fd_gradient(f, x, h=1e-4):
    """Central-difference gradient of scalar f at x, one entry at a time."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b, floor=1e-6):
    """Max elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


# -- contrastive loss --------------------------------------------------------

def infonce_loops(sims, tau):
    """Row+column cross-entropy on the diagonal, written as scalar loops."""
    b = len(sims)
    total = 0.0
    for i in range(b):
        row = [sims[i][j] / tau for j in range(b)]
        total += row[i] - math.log(sum(math.exp(v) for v in row))
    for j in range(b):
        col = [sims[i][j] / tau for i in range(b)]
        total += col[j] - math.log(sum(math.exp(v) for v in col))
    return -total / (2 * b)


def area_reg_loops(pair_means, p_plus, p_minus):
    """Summed L1 to the matched/unmatched targets, double loop.

    Accumulates each row before adding it to the total, mirroring the
    library's documented rowwise-then-across reduction order.
    """
    b = len(pair_means)
    total = 0.0
    for i in range(b):
        row = 0.0
        for j in range(b):
            target = p_plus if i == j else p_minus
            row += abs(pair_means[i][j] - target)
        total += row
    return total


# -- mask metrics ------------------------------------------------------------

def half_max_binarize_loops(pred):
    peak = max(max(row) for row in pred.tolist())
    if peak == 0.0:
        return [[False] * len(pred[0]) for _ in pred]
    return [[v >= 0.5 * peak for v in row] for row in pred.tolist()]


def iou_loops(pred_bin, gt_bin):
    inter = union = 0
    for prow, grow in zip(pred_bin, gt_bin):
        for p, g in zip(prow, grow):
            p = bool(p)
            g = bool(g)
            if p and g:
                inter += 1
            if p or g:
                union += 1
    if union == 0:
        return 1.0
    return inter / union


def _box_iou_of(sample):
    return iou_loops(half_max_binarize_loops(sample.pred_mask), sample.gt_box_mask)


def ciou_loops(samples, threshold=0.5):
    hits = 0
    for s in samples:
        if _box_iou_of(s) >= threshold:
            hits += 1
    return hits / len(samples)


def auc_loops(samples):
    ious = [_box_iou_of(s) for s in samples]
    n = len(samples)
    total = 0.0
    for step in range(1, 21):
        t = step / 20
        total += sum(1 for v in ious if v >= t) / n
    return total / 20


def miou_loops(samples, abs_threshold=0.5):
    acc = 0.0
    for s in samples:
        pred_bin = [[v >= abs_threshold for v in row] for row in s.pred_mask.tolist()]
        acc += iou_loops(pred_bin, s.gt_mask)
    return acc / len(samples)


def fscore_loops(samples, abs_threshold=0.5, beta2=0.3):
    tp = fp = fn = 0
    for s in samples:
        for prow, grow in zip(s.pred_mask.tolist(), s.gt_mask.tolist()):
            for pv, gv in zip(prow, grow):
                p = pv >= abs_threshold
                g = bool(gv)
                if p and g:
                    tp += 1
                elif p and not g:
                    fp += 1
                elif g and not p:
                    fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return (1 + beta2) * precision * recall / (beta2 * precision + recall)


def ap_loops(samples):
    """Interpolated average precision; ranking ties kept in list order."""
    order = sorted(range(len(samples)), key=lambda i: -samples[i].confidence)
    labels = [bool(samples[i].flags.positive) for i in order]
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    precisions = []
    tp = 0
    for rank, is_pos in enumerate(labels, start=1):
        if is_pos:
            tp += 1
        precisions.append(tp / rank)
    for k in range(len(precisions) - 2, -1, -1):
        if precisions[k + 1] > precisions[k]:
            precisions[k] = precisions[k + 1]
    total = 0.0
    for k, is_pos in enumerate(labels):
        if is_pos:
            total += precisions[k] / n_pos
    return total


def max_f1_loops(samples):
    n_pos = sum(1 for s in samples if s.flags.positive)
    if n_pos == 0:
        return None
    best = 0.0
    for t in sorted({s.confidence for s in samples}, reverse=True):
        tp = fp = 0
        for s in samples:
            if s.confidence >= t:
                if s.flags.positive:
                    tp += 1
                else:
                    fp += 1
        f1 = 2 * tp / (2 * tp + fp + (n_pos - tp))
        if f1 > best:
            best = f1
    return best


def loc_acc_loops(samples, threshold=0.5):
    positives = [s for s in samples if s.flags.positive]
    if not positives:
        return None
    return ciou_loops(positives, threshold)


# -- mask-grounded pooling ----------------------------------------------------

def masked_pool_loops(cells, mask):
    """Unit-norm mask-weighted mean of (cells, d) features; scalar loops."""
    n, d = len(cells), len(cells[0])
    mass = sum(float(w) for w in mask)
    pooled = [sum(float(cells[i][k]) * float(mask[i]) for i in range(n)) / mass
              for k in range(d)]
    norm = math.sqrt(sum(v * v for v in pooled))
    return [v / norm for v in pooled]


# -- gathered grounding -------------------------------------------------------
# Row k of N conditions or masks belongs to image k // (N / B).  These gather a
# copy of that image's grid or pixels for every row: the reference that the
# broadcast forms must match bit for bit.

def _gather_rows(t, n):
    return t[np.arange(n) // (n // t.shape[0])]


def gathered_decode_logits(decoder, grid, cond):
    """``MaskDecoder.decode_logits`` on a gathered (N, cells, d) grid."""
    n, (_, cells, d) = cond.shape[0], grid.shape
    scale = ad.linear(cond, decoder.scale_w, decoder.scale_b).reshape(n, 1, d)
    shift = ad.linear(cond, decoder.shift_w, decoder.shift_b).reshape(n, 1, d)
    x = decoder.block.forward(_gather_rows(grid, n) * scale + shift)
    return ad.linear(x, decoder.head_w, decoder.head_b).reshape(n, cells)


def gathered_masked_pool(grids, masks):
    """``masked_pool`` on gathered (N, cells, d) grids."""
    w = masks.reshape(masks.shape + (1,))
    num = (_gather_rows(grids, masks.shape[0]) * w).sum(axis=1)
    denom = ad.relu(w.sum(axis=1) - POOL_EPS) + POOL_EPS
    return ad.l2_normalize(num / denom, axis=-1)


def gathered_masked_reencode(images, masks, encoder):
    """``masked_reencode`` on gathered (N, S, S, C) images."""
    weighted = _gather_rows(images, masks.shape[0]) * masks.reshape(masks.shape + (1,))
    return ad.l2_normalize(encoder.forward(weighted)[1], axis=-1)


# -- ensemble prompts ----------------------------------------------------------

def ensemble_slice_sum(model, pooled_i, audio_j):
    """Ensemble-mode ``prompt_embeddings``: the M + 1 position slices of the
    stacked text-encoder output added one after another, then scaled."""
    context = model.meta_net.forward(pooled_i)
    n, m1 = context.shape[0], model.prompt_cfg.context_length + 1
    variants = [assemble_prompt(context, audio_j, pos) for pos in range(1, m1 + 1)]
    emb = model.text_encoder.forward(ad.concat(variants, axis=0))
    total = emb[:n]
    for k in range(1, m1):
        total = total + emb[k * n:(k + 1) * n]
    return total * (1.0 / m1)


# -- image resizing ----------------------------------------------------------

def bilinear_loops(img, out_h, out_w):
    """Bilinear upsampling, half-pixel centers, edge-clamped; scalar loops."""
    img = np.asarray(img, dtype=np.float64)
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        sy = (oy + 0.5) * in_h / out_h - 0.5
        y0 = max(0, min(in_h - 1, math.floor(sy)))
        y1 = min(in_h - 1, y0 + 1)
        wy = min(1.0, max(0.0, sy - y0))
        for ox in range(out_w):
            sx = (ox + 0.5) * in_w / out_w - 0.5
            x0 = max(0, min(in_w - 1, math.floor(sx)))
            x1 = min(in_w - 1, x0 + 1)
            wx = min(1.0, max(0.0, sx - x0))
            top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
            bot = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
            out[oy, ox] = top * (1 - wy) + bot * wy
    return out


# -- spectra -----------------------------------------------------------------

def dft_power_loops(frame, bins=None):
    """One-sided periodogram 2/N^2 |X_k|^2 via a direct DFT, looped.

    ``bins`` restricts the computation to selected bins (the full direct
    transform is quadratic and slow in pure Python).
    """
    n = len(frame)
    if bins is None:
        bins = range(n // 2 + 1)
    out = []
    for k in bins:
        acc = 0.0 + 0.0j
        for t, v in enumerate(frame):
            acc += v * cmath.exp(-2j * math.pi * k * t / n)
        out.append(2.0 / (n * n) * abs(acc) ** 2)
    return out


def filterbank_edges_loops():
    """The 18 documented band edges: DFT bin 20 + 27 j for j = 0 .. 17."""
    return [20 + 27 * j for j in range(18)]


def filterbank_loops(n_bins=501):
    """16 triangular bands over one-sided DFT bins, one weight at a time.

    Band j rises linearly from 0 at edge j to 1 at edge j + 1 (its center)
    and falls back to 0 at edge j + 2; it is 0 everywhere else.
    """
    edges = filterbank_edges_loops()
    fb = []
    for j in range(16):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        row = []
        for b in range(n_bins):
            if lo <= b <= mid:
                row.append((b - lo) / (mid - lo))
            elif mid < b <= hi:
                row.append((hi - b) / (hi - mid))
            else:
                row.append(0.0)
        fb.append(row)
    return fb


# -- scalar attention --------------------------------------------------------

def softmax_loops(xs):
    m = max(xs)
    exps = [math.exp(v - m) for v in xs]
    z = sum(exps)
    return [v / z for v in exps]


def attention_loops(q, k, v, causal=False):
    """softmax(q k^T / sqrt(dh)) v over the last two axes; scalar loops.

    With ``causal`` query i attends to keys 0..i only.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    out = np.zeros(q.shape[:-1] + (v.shape[-1],))
    dh = q.shape[-1]
    for lead in np.ndindex(q.shape[:-2]):
        for i in range(q.shape[-2]):
            keys = range(i + 1) if causal else range(k.shape[-2])
            scores = [sum(float(q[lead][i, c]) * float(k[lead][j, c]) for c in range(dh))
                      / math.sqrt(dh) for j in keys]
            for j, p in zip(keys, softmax_loops(scores)):
                for c in range(v.shape[-1]):
                    out[lead][i, c] += p * float(v[lead][j, c])
    return out


# -- exported files ----------------------------------------------------------

def decode_export(path):
    """The array an exported PGM, PPM or SPLA file holds, in the writers' units.

    Only the exact layouts the writers emit decode: ``P5`` or ``P6``, then
    width, one space, height, maxval 255, each ended by one newline, then
    exactly the pixel bytes; or ``SPLA``, a little-endian u32 count and
    exactly that many little-endian float32 samples.
    """
    raw = Path(path).read_bytes()
    if raw[:4] == b"SPLA":
        (count,) = struct.unpack("<I", raw[4:8])
        assert len(raw) == 8 + 4 * count
        return np.array(struct.unpack(f"<{count}f", raw[8:]), dtype=np.float64)
    magic, size, maxval, pixels = raw.split(b"\n", 3)
    width, height = (int(v) for v in size.split(b" "))
    shape = {b"P5": (height, width), b"P6": (height, width, 3)}[magic]
    assert maxval == b"255" and len(pixels) == math.prod(shape)
    return np.array([b / 255.0 for b in pixels], dtype=np.float64).reshape(shape)
