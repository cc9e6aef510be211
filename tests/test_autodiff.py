"""Gradient correctness and tape semantics for the tensor engine.

The heavy lifting is a finite-difference sweep: every differentiable
primitive is exercised on a batch of random instances and its
reverse-mode gradient compared against central differences (h = 1e-4,
relative tolerance 1e-4).  Kinked ops (relu, absolute) get inputs
bounded away from their kinks so the comparison is meaningful.
"""

import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soundloc.autodiff as ad
from soundloc.autodiff import ContractViolation, Tensor

from _gradcheck import grad_check
from _oracles import attention_loops, bilinear_loops, fd_gradient, rel_err

N_INSTANCES = 100


def _rand(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _away_from(rng, *shape, gap=0.05):
    """Random values with |x| >= gap, for ops with a kink at zero."""
    mag = rng.uniform(gap, 1.0, shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(mag * sign, requires_grad=True)


def _weighted(out):
    """Scalarize with fixed sign-alternating weights so every output entry
    matters.  Must be deterministic: the checker re-evaluates the loss for
    each finite-difference probe and the weights may not move."""
    n = out.size
    w = (np.linspace(0.5, 1.5, n) * np.where(np.arange(n) % 2, 1.0, -1.0))
    return (out * ad.constant(w.reshape(out.shape))).sum()


# Each case: name -> builder(rng) returning (params dict, loss fn).
def _case_add(rng):
    p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 4)}
    return p, lambda q: _weighted(q["a"] + q["b"])


def _case_sub(rng):
    p = {"a": _rand(rng, 2, 3, 4), "b": _rand(rng, 3, 1)}
    return p, lambda q: _weighted(q["a"] - q["b"])


def _case_mul(rng):
    p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)}
    return p, lambda q: _weighted(q["a"] * q["b"])


def _case_div(rng):
    p = {"a": _rand(rng, 3, 4), "b": _away_from(rng, 3, 4, gap=0.5)}
    return p, lambda q: _weighted(q["a"] / q["b"])


def _case_neg(rng):
    p = {"a": _rand(rng, 5)}
    return p, lambda q: _weighted(-q["a"])


def _case_matmul(rng):
    p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 4, 5)}
    return p, lambda q: _weighted(q["a"] @ q["b"])


def _case_matmul_batched(rng):
    p = {"a": _rand(rng, 2, 3, 4), "b": _rand(rng, 2, 4, 5)}
    return p, lambda q: _weighted(q["a"] @ q["b"])


def _case_matmul_broadcast(rng):
    p = {"a": _rand(rng, 1, 2, 3), "b": _rand(rng, 4, 3, 5)}
    return p, lambda q: _weighted(q["a"] @ q["b"])


def _case_linear(rng):
    p = {"x": _rand(rng, 2, 3, 4), "w": _rand(rng, 4, 5), "b": _rand(rng, 5)}
    return p, lambda q: _weighted(ad.linear(q["x"], q["w"], q["b"]))


def _case_attention(rng):
    p = {n: _rand(rng, 2, 2, 3, 4) for n in "qkv"}
    return p, lambda q: _weighted(ad.attention(q["q"], q["k"], q["v"]))


def _case_attention_causal(rng):
    p = {n: _rand(rng, 2, 2, 3, 4) for n in "qkv"}
    return p, lambda q: _weighted(ad.attention(q["q"], q["k"], q["v"], causal=True))


def _case_relu(rng):
    p = {"a": _away_from(rng, 4, 4)}
    return p, lambda q: _weighted(ad.relu(q["a"]))


def _case_sigmoid(rng):
    p = {"a": _rand(rng, 4, 4, lo=-4.0, hi=4.0)}
    return p, lambda q: _weighted(ad.sigmoid(q["a"]))


def _case_exp(rng):
    p = {"a": _rand(rng, 3, 3)}
    return p, lambda q: _weighted(ad.exp(q["a"]))


def _case_log(rng):
    p = {"a": _rand(rng, 3, 3, lo=0.3, hi=3.0)}
    return p, lambda q: _weighted(ad.log(q["a"]))


def _case_absolute(rng):
    p = {"a": _away_from(rng, 4, 3)}
    return p, lambda q: _weighted(ad.absolute(q["a"]))


def _case_sum_all(rng):
    p = {"a": _rand(rng, 3, 4)}
    return p, lambda q: q["a"].sum()


def _case_sum_axis(rng):
    p = {"a": _rand(rng, 2, 3, 4)}
    return p, lambda q: _weighted(q["a"].sum(axis=1))


def _case_mean_axes(rng):
    p = {"a": _rand(rng, 2, 3, 4)}
    return p, lambda q: _weighted(q["a"].mean(axis=(1, 2)))


def _case_mean_keepdims(rng):
    p = {"a": _rand(rng, 3, 4)}
    return p, lambda q: _weighted(q["a"].mean(axis=-1, keepdims=True))


def _case_softmax(rng):
    p = {"a": _rand(rng, 3, 5, lo=-2.0, hi=2.0)}
    return p, lambda q: _weighted(ad.softmax(q["a"], axis=-1))


def _case_softmax_axis0(rng):
    p = {"a": _rand(rng, 4, 3, lo=-2.0, hi=2.0)}
    return p, lambda q: _weighted(ad.softmax(q["a"], axis=0))


def _case_log_softmax(rng):
    p = {"a": _rand(rng, 3, 5, lo=-2.0, hi=2.0)}
    return p, lambda q: _weighted(ad.log_softmax(q["a"], axis=-1))


def _case_layer_norm(rng):
    p = {"x": _rand(rng, 2, 4, 6), "g": _rand(rng, 6, lo=0.5, hi=1.5),
         "b": _rand(rng, 6)}
    return p, lambda q: _weighted(ad.layer_norm(q["x"], q["g"], q["b"]))


def _case_l2_normalize(rng):
    p = {"a": _away_from(rng, 3, 6, gap=0.2)}
    return p, lambda q: _weighted(ad.l2_normalize(q["a"], axis=-1))


def _case_reshape(rng):
    p = {"a": _rand(rng, 3, 4)}
    return p, lambda q: _weighted(q["a"].reshape(2, 6))


def _case_transpose(rng):
    p = {"a": _rand(rng, 2, 3, 4)}
    return p, lambda q: _weighted(ad.transpose(q["a"], (2, 0, 1)))


def _case_getitem_slice(rng):
    p = {"a": _rand(rng, 4, 5)}
    return p, lambda q: _weighted(q["a"][1:3, ::2])


def _case_getitem_fancy(rng):
    idx = rng.integers(0, 4, 6)  # repeats force gradient accumulation
    p = {"a": _rand(rng, 4, 5)}
    return p, lambda q: _weighted(q["a"][idx])


def _case_concat(rng):
    p = {"a": _rand(rng, 2, 3), "b": _rand(rng, 4, 3)}
    return p, lambda q: _weighted(ad.concat([q["a"], q["b"]], axis=0))


def _case_masked_fill(rng):
    mask = rng.random((3, 4)) < 0.4
    p = {"a": _rand(rng, 3, 4)}
    return p, lambda q: _weighted(ad.masked_fill(q["a"], mask, -2.5))


def _case_resize_bilinear(rng):
    p = {"a": _rand(rng, 2, 4, 4)}
    return p, lambda q: _weighted(ad.resize_bilinear(q["a"], 8, 8))


OP_CASES = {
    name[len("_case_"):]: fn
    for name, fn in sorted(globals().items()) if name.startswith("_case_")
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_gradients_match_finite_differences(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    worst = 0.0
    for _ in range(N_INSTANCES):
        params, loss = OP_CASES[op](rng)
        report = grad_check(loss, params, h=1e-4, tol=1e-4)
        assert report.ok, f"{op}: {report.failures[:3]}"
        worst = max(worst, report.worst())
    assert worst < 1e-4


def test_grad_check_agrees_with_external_differencer():
    """The built-in checker and an independent FD routine must agree on a
    composite function, so a checker bug cannot mask an engine bug."""
    rng = np.random.default_rng(7)
    a0 = rng.uniform(-1, 1, (3, 4))
    w = rng.standard_normal((3, 3))

    def composite(arr):
        t = Tensor(arr, requires_grad=True)
        out = ad.softmax(t @ ad.transpose(t, (1, 0)), axis=-1)
        return float((out * ad.constant(w)).sum().data)

    t = Tensor(a0.copy(), requires_grad=True)
    out = (ad.softmax(t @ ad.transpose(t, (1, 0)), axis=-1) * ad.constant(w)).sum()
    ad.backward(out)
    assert rel_err(t.grad, fd_gradient(composite, a0)) < 1e-6


class TestTapeSemantics:
    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            t = Tensor(data.copy(), requires_grad=True)
            loss = ad.softmax(t @ t, axis=-1).sum() + (t * t).mean()
            ad.backward(loss)
            grads.append(t.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        ad.backward((t * 3.0).sum())
        ad.backward((t * 3.0).sum())
        assert np.array_equal(t.grad, [6.0, 6.0])
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor([2.0], requires_grad=True)
        y = t * t + t * t      # two paths, d/dt = 4t
        ad.backward(y.sum())
        assert np.allclose(t.grad, [8.0])

    def test_fancy_index_repeats_accumulate(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(t[np.array([0, 0, 1])].sum())
        assert np.array_equal(t.grad, [2.0, 1.0, 0.0])

    def test_no_grad_suppresses_taping(self):
        t = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = (t * 2.0).sum()
        assert not y.requires_grad
        assert y.parents == ()

    def test_backward_rejects_non_scalar_root(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractViolation):
            ad.backward(t * 2.0)

    def test_constant_blocks_gradient(self):
        c = ad.constant([1.0, 2.0])
        t = Tensor([3.0, 4.0], requires_grad=True)
        ad.backward((c * t).sum())
        assert c.grad is None
        assert np.array_equal(t.grad, [1.0, 2.0])

    def test_interior_gradients_are_released(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        gamma = Tensor(np.ones(5), requires_grad=True)
        h = ad.layer_norm(ad.transpose(a, (1, 0)) @ w, gamma, ad.constant(np.zeros(5)))
        root = ad.concat([h, h * 2.0], axis=1).mean()
        ad.backward(root)

        nodes, leaves, todo = {}, {}, [root.node]
        while todo:
            n = todo.pop()
            if isinstance(n, Tensor):
                leaves[id(n)] = n
            elif n._id not in nodes:
                nodes[n._id] = n
                todo.extend(n.parents)
        assert len(nodes) > 5 and len(leaves) == 3
        assert root.grad is None and h.grad is None
        assert not any(hasattr(n, "grad") for n in nodes.values())
        for t in leaves.values():
            assert t.grad.shape == t.shape and t.grad.flags.c_contiguous

    def test_frozen_operand_costs_no_gradient(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)))
        loss = (x @ w).sum()
        calls = []
        real = np.matmul

        def spy(*args, **kw):
            calls.append(args[0].shape)
            return real(*args, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        ad.backward(loss)
        assert len(calls) == 1
        assert w.grad is None
        assert np.allclose(x.grad, np.broadcast_to(w.data.sum(axis=1), (2, 3, 4)))


    def test_first_gradient_through_transpose_keeps_the_zero_fill_layout(self):
        rng = np.random.default_rng(8)
        for dtype in (np.float32, np.float64):
            x = Tensor(rng.standard_normal((2, 3, 4)).astype(dtype), requires_grad=True)
            w = rng.standard_normal((4, 2, 3)).astype(dtype)
            ad.backward((ad.transpose(x, (2, 0, 1)) * ad.constant(w)).sum())
            want = np.zeros_like(x.data) + w.transpose(1, 2, 0)
            assert x.grad.dtype == want.dtype
            assert x.grad.strides == want.strides
            assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_interior_gradients_are_not_copied_into_a_layout(self, dtype, monkeypatch):
        """A column slice and a transpose of an interior ``exp`` feed the loss:
        their gradients reach ``exp`` in other layouts than its output's, and
        backward adds them as they come, with no copy.  Only the leaf's
        gradient is laid out like its data."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4)).astype(dtype), requires_grad=True)
        ca = rng.standard_normal((3, 2)).astype(dtype)
        cb = rng.standard_normal((4, 3)).astype(dtype)
        h = ad.exp(x)
        loss = ((h[:, 1:3] * ad.constant(ca)).sum()
                + (ad.transpose(h, (1, 0)) * ad.constant(cb)).sum())
        copies = []
        real = np.copyto

        def spy(dst, *args, **kw):
            copies.append(dst.shape)
            return real(dst, *args, **kw)

        monkeypatch.setattr(np, "copyto", spy)
        ad.backward(loss)
        assert copies == []
        want = np.zeros((3, 4), dtype)
        want[:, 1:3] = ca
        want = (want + cb.T) * np.exp(x.data)
        assert x.grad.dtype == want.dtype and x.grad.flags.c_contiguous
        assert x.grad.tobytes() == want.tobytes()


def _composed_attention(q, k, v, causal):
    """The attention layer as separate primitives (matmul, scale, mask, softmax, matmul)."""
    t = q.shape[-2]
    scores = (q @ ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(q.shape[-1]))
    if causal:
        scores = ad.masked_fill(scores, np.triu(np.ones((t, t), dtype=bool), k=1), -np.inf)
    return ad.softmax(scores, axis=-1) @ v


def _layer_norm_formula(x, gamma, beta, g, eps=1e-5):
    """Forward and gradients of layer norm, written as plain expressions; the
    parameter gradients sum the leading axes one at a time, first to last."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    dgamma, dbeta = g * xhat, g
    for _ in range(x.ndim - 1):
        dgamma, dbeta = dgamma.sum(axis=0), dbeta.sum(axis=0)
    return xhat * gamma + beta, dx, dgamma, dbeta


# Each case: a primitive and its operand shapes, mostly with a leading axis of 7;
# the empty ones are an empty batch, whose 3-D arrays split into no block.
_BLOCKED_CASES = {
    "attention": (ad.attention, ((7, 2, 5, 4),) * 3),
    "attention-causal": (lambda q, k, v: ad.attention(q, k, v, causal=True), ((7, 2, 5, 4),) * 3),
    "linear-2d": (ad.linear, ((7, 6), (6, 5), (5,))),
    "linear-3d": (ad.linear, ((7, 3, 6), (6, 5), (5,))),
    # Summing a one-column block over items would go pairwise, which numpy
    # does from 8 items on, so this case has more.
    "linear-3d-one-column": (ad.linear, ((19, 3, 6), (6, 1), (1,))),
    "layer_norm-2d": (ad.layer_norm, ((7, 16), (16,), (16,))),
    "layer_norm-3d": (ad.layer_norm, ((7, 3, 16), (16,), (16,))),
    "attention-empty": (ad.attention, ((0, 2, 5, 4),) * 3),
    "linear-2d-empty": (ad.linear, ((0, 6), (6, 5), (5,))),
    "linear-3d-empty": (ad.linear, ((0, 3, 6), (6, 5), (5,))),
    "layer_norm-3d-empty": (ad.layer_norm, ((0, 3, 16), (16,), (16,))),
}


@pytest.fixture(scope="module")
def three_workers():
    pool = ThreadPoolExecutor(3)
    yield pool
    pool.shutdown()


class TestFusedPrimitives:
    """``linear``, ``attention`` and ``layer_norm`` against what they replace."""

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_matches_scalar_oracle(self, causal):
        rng = np.random.default_rng(9)
        q, k, v = (rng.standard_normal((2, 3, 5, 4)) for _ in range(3))
        out = ad.attention(*(ad.constant(a) for a in (q, k, v)), causal=causal)
        assert rel_err(out.data, attention_loops(q, k, v, causal)) < 1e-12

    # Shapes are (items, t, heads, dh).  dh = 4 scales by 0.5, a power of
    # two; dh = 3 by a scale that rounds.  The last shape's scores (4 or
    # 8 MiB) are split into ~1 MiB blocks, so backward rebuilds the
    # probabilities block by block.
    @pytest.mark.parametrize("shape", [(3, 6, 2, 4), (3, 6, 2, 3), (64, 64, 4, 16)],
                             ids=["dh4", "dh3", "blocks"])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_is_bit_equal_to_the_composed_layer(self, dtype, causal, shape):
        """Output and every input gradient, with the inputs laid out as the
        attention layer lays them out (heads split off by a transpose)."""
        rng = np.random.default_rng(10)
        arrays = [rng.standard_normal(shape).astype(dtype) for _ in range(3)]
        w = ad.constant(rng.standard_normal(np.take(shape, (0, 2, 1, 3))).astype(dtype))
        results = []
        for fn in (ad.attention, _composed_attention):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*(ad.transpose(t, (0, 2, 1, 3)) for t in leaves), causal)
            ad.backward((out * w).sum())
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_is_bit_equal_to_matmul_plus_bias(self, dtype):
        rng = np.random.default_rng(11)
        x, w, b = (rng.standard_normal(s).astype(dtype) for s in ((2, 3, 4), (4, 5), (5,)))
        g = ad.constant(rng.standard_normal((2, 3, 5)).astype(dtype))
        results = []
        for fn in (ad.linear, lambda x, w, b: x @ w + b):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
            out = fn(*leaves)
            ad.backward((out * g).sum())
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == dtype and np.array_equal(got, want)

    def test_linear_skips_gradients_nobody_reads(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4))
        ad.backward(ad.linear(x, w, b).sum())
        assert x.grad is None and b.grad is None
        assert np.array_equal(w.grad, np.full((3, 4), 2.0))

    # The second shape is split into 2 or 3 blocks of ~1 MiB.
    @pytest.mark.parametrize("shape", [(4, 5, 16), (20, 64, 256)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_is_bit_equal_to_the_formula(self, dtype, shape):
        """Output and the gradients of x, gamma and beta."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal(shape).astype(dtype)
        gamma, beta = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        g = rng.standard_normal(shape).astype(dtype)
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        out = ad.layer_norm(*leaves)
        ad.backward((out * ad.constant(g)).sum())
        wants = _layer_norm_formula(x, gamma, beta, g)
        for got, want in zip([out.data] + [t.grad for t in leaves], wants):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_layer_norm_keeps_no_normalized_copy(self):
        """Besides x and its output, a layer_norm node keeps only per-row
        statistics: backward rebuilds xhat from x."""
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((64, 8, 64)), requires_grad=True)
        gamma, beta = (Tensor(rng.standard_normal(64), requires_grad=True) for _ in range(2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.layer_norm(x, gamma, beta)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= kept < out.data.nbytes + x.data.nbytes // 2

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_keeps_only_row_statistics(self, causal):
        """Besides its inputs and output, an attention node keeps only each
        row's max and sum: backward rebuilds the probabilities from q and k."""
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.standard_normal((64, 4, 64, 16)), requires_grad=True)
                   for _ in range(3))
        scores = 64 * 4 * 64 * 64 * 8           # 8 MiB
        ad.attention(q, k, v, causal=causal)    # the block pool's first use imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.attention(q, k, v, causal=causal)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= kept < out.data.nbytes + scores // 8

    @staticmethod
    def _backward_peak(out, g):
        """The most bytes that backward from ``sum(out * g)`` holds at once."""
        loss = (out * ad.constant(g)).sum()
        tracemalloc.start()
        try:
            ad.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_backward_without_a_pool_runs_in_blocks(self, causal, monkeypatch):
        """With no block pool (one CPU, a forked child), backward still rebuilds
        the probabilities ~1 MiB at a time: its peak stays below the gradients
        and one whole scores array."""
        monkeypatch.setattr(ad, "_pool", None)
        rng = np.random.default_rng(16)
        shape = (64, 4, 64, 16)
        q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(3))
        out = ad.attention(q, k, v, causal=causal)
        grads = 3 * out.data.nbytes                 # 6 MiB
        scores = 64 * 4 * 64 * 64 * 8               # 8 MiB
        assert self._backward_peak(out, rng.standard_normal(shape)) < grads + scores

    def test_layer_norm_backward_without_a_pool_runs_in_blocks(self, monkeypatch):
        """With no block pool, backward rebuilds xhat ~1 MiB at a time: besides
        the output's gradient and the gradients of x and of gamma's rows, it
        holds less than one more array of x's size (a whole xhat and its
        product with the gradient would be two)."""
        monkeypatch.setattr(ad, "_pool", None)
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((256, 64, 64)), requires_grad=True)   # 8 MiB
        gamma, beta = (Tensor(rng.standard_normal(64), requires_grad=True) for _ in range(2))
        out = ad.layer_norm(x, gamma, beta)
        peak = self._backward_peak(out, rng.standard_normal(x.shape))
        assert peak < 4 * x.data.nbytes

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)), ((2, 4), (2, 4, 5), (5,)),
        ((4,), (4, 5), (5,))])
    def test_linear_contract(self, shapes):
        with pytest.raises(ContractViolation):
            ad.linear(*(Tensor(np.zeros(s)) for s in shapes))

    @pytest.mark.parametrize("shapes,causal", [
        (((2, 3, 4), (2, 3, 5), (2, 3, 5)), False),
        (((2, 3, 4), (2, 5, 4), (2, 4, 4)), False),
        (((2, 3, 4), (2, 5, 4), (2, 5, 4)), True)])
    def test_attention_contract(self, shapes, causal):
        with pytest.raises(ContractViolation):
            ad.attention(*(Tensor(np.zeros(s)) for s in shapes), causal=causal)

    @pytest.mark.parametrize("grads", ["all", "first", "rest"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(_BLOCKED_CASES))
    def test_blocked_runs_equal_one_whole_block(self, case, dtype, grads, monkeypatch,
                                                three_workers):
        """Blocks of the leading axis, run one after another on this thread or
        on several threads, give the bytes of one block of the whole array:
        every block makes the same per-item calls."""
        fn, shapes = _BLOCKED_CASES[case]
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        wants = {"all": [True] * 3, "first": [True, False, False], "rest": [False, True, True]}
        g = None

        def run():
            nonlocal g
            leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, wants[grads])]
            out = fn(*leaves)
            if g is None:
                g = rng.standard_normal(out.shape).astype(dtype)
            ad.backward((out * ad.constant(g)).sum())
            return [out.data] + [t.grad for t in leaves]

        pools = ((None, 0), (ad._pool, ad._WORKERS), (three_workers, 3))
        monkeypatch.setattr(ad, "_pool", None)
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1 << 40)  # one block of the whole array
        whole = run()
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)        # one leading row per block
        for pool, workers in pools:
            monkeypatch.setattr(ad, "_pool", pool)
            monkeypatch.setattr(ad, "_WORKERS", workers)
            for got, want in zip(run(), whole):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.dtype == dtype and np.array_equal(got, want)

    def test_pool_is_made_on_first_use(self):
        """``import soundloc`` leaves ``concurrent.futures`` unimported; the first
        split block imports it, and ``block_threads`` reads the same throughout."""
        child = (
            "import sys\n"
            "import numpy as np\n"
            "import soundloc\n"
            "from soundloc import autodiff as ad\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "threads = ad.block_threads()\n"
            "assert threads == 1 + ad._WORKERS\n"
            "ad._BLOCK_BYTES = 1\n"
            "ad._blocked(lambda s: None, np.zeros((4, 1, 1)))\n"
            "assert ad.block_threads() == threads\n"
            "assert ('concurrent.futures' in sys.modules) == (threads > 1)\n")
        src = str(Path(ad.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=60)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), row_bytes=st.integers(0, 3 << 20),
           block_bytes=st.integers(1, 1 << 21), workers=st.integers(0, 4))
    @example(n=0, row_bytes=8, block_bytes=1, workers=0)
    @example(n=0, row_bytes=8, block_bytes=1, workers=2)
    def test_blocks_cover_range_once_in_order(self, n, row_bytes, block_bytes, workers):
        """Consecutive blocks of at most ~block_bytes cover range(n) once, with
        no pool (``workers`` 0) as with one, whose threads switch as often as
        the interpreter allows."""
        rows = np.broadcast_to(np.empty((1, 1, 1), np.uint8), (n, 1, row_bytes))
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max(1, workers)) as pool, mock.patch.multiple(
                    ad, _BLOCK_BYTES=block_bytes, _pool=pool if workers else None,
                    _WORKERS=workers):
                ad._blocked(lambda s: calls.append(range(n)[s]), rows)
        finally:
            sys.setswitchinterval(interval)
        spans = sorted(calls, key=lambda r: r.start)
        assert [i for r in spans for i in r] == list(range(n))
        step = max(1, block_bytes // row_bytes if row_bytes else n)
        assert [len(r) for r in spans] == [min(step, n - i) for i in range(0, n, step)]
        if not workers:
            assert calls == spans       # this thread runs them in order


def _saves_table() -> dict[str, list[tuple[str, list[str] | None]]]:
    """The ``autodiff`` docstring's table: per primitive, each array it saves
    with the operands of which one must require a gradient (None: always)."""
    lines = ad.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.strip().startswith("====")]
    table = {}
    for line in lines[rules[1] + 1:rules[2]]:
        ops, saves = re.split(r"\s{2,}", line.strip())
        items = [] if saves == "nothing" else saves.split("; ")
        for op in ops.split(", "):
            table[op] = [(name, conds.split(" or ") if conds else None)
                         for name, _, conds in (item.partition(" if ") for item in items)]
    return table


# Each primitive: its operands' names (as the table calls them) and shapes, and
# a call on them.
_SAVE_CASES = {
    "add": ({"a": (3, 4), "b": (4,)}, ad.add),
    "sub": ({"a": (3, 4), "b": (4,)}, ad.sub),
    "mul": ({"a": (3, 4), "b": (4,)}, ad.mul),
    "div": ({"a": (3, 4), "b": (4,)}, ad.div),
    "neg": ({"a": (3, 4)}, ad.neg),
    "matmul": ({"a": (2, 3, 4), "b": (4, 5)}, ad.matmul),
    "linear": ({"x": (2, 3, 4), "w": (4, 5), "b": (5,)}, ad.linear),
    "attention": ({n: (2, 3, 4) for n in "qkv"}, ad.attention),
    "relu": ({"a": (3, 4)}, ad.relu),
    "sigmoid": ({"a": (3, 4)}, ad.sigmoid),
    "abs": ({"a": (3, 4)}, ad.absolute),
    "exp": ({"a": (3, 4)}, ad.exp),
    "log": ({"a": (3, 4)}, ad.log),
    "sum": ({"a": (3, 4)}, lambda a: ad.tsum(a, axis=0)),
    "mean": ({"a": (3, 4)}, lambda a: ad.tmean(a, axis=-1, keepdims=True)),
    "softmax": ({"a": (3, 4)}, ad.softmax),
    "log_softmax": ({"a": (3, 4)}, ad.log_softmax),
    "layer_norm": ({"x": (3, 4), "gamma": (4,), "beta": (4,)}, ad.layer_norm),
    "l2_normalize": ({"a": (3, 4)}, ad.l2_normalize),
    "reshape": ({"a": (3, 4)}, lambda a: ad.reshape(a, (4, 3))),
    "transpose": ({"a": (3, 4)}, lambda a: ad.transpose(a, (1, 0))),
    "getitem": ({"a": (3, 4)}, lambda a: a[np.array([2, 0, 2])]),
    "concat": ({"a": (2, 4), "b": (3, 4)}, lambda a, b: ad.concat([a, b])),
    "masked_fill": ({"a": (3, 4)}, lambda a: ad.masked_fill(a, np.eye(3, 4, dtype=bool), -1.0)),
    "resize_bilinear": ({"a": (2, 3, 4)}, lambda a: ad.resize_bilinear(a, 5, 6)),
}


class TestSavedArrays:
    """What a node keeps for its backward, and when it lets go."""

    def test_every_primitive_has_a_row_and_a_case(self):
        assert set(_saves_table()) == set(_SAVE_CASES) == set(ad.PRIMITIVES)

    @pytest.mark.parametrize("op", sorted(ad.PRIMITIVES))
    def test_a_node_keeps_what_the_table_says(self, op):
        """For each pattern of operands that require a gradient, the operand
        and output arrays that outlive the caller's handles are the table's.
        Backward then frees them, and a second backward is refused.  The
        collector is off: every array must go by reference count."""
        spec = _saves_table()[op]
        shapes, call = _SAVE_CASES[op]
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        gc.disable()
        try:
            for pattern in itertools.product([False, True], repeat=len(shapes)):
                needs = dict(zip(shapes, pattern))
                # An operand that requires a gradient is a node's output, whose
                # array no leaf holds; one that does not is a constant.
                operands = {
                    name: (ad.neg(Tensor(-rng.uniform(0.5, 1.5, s), requires_grad=True))
                           if needs[name] else ad.constant(rng.uniform(0.5, 1.5, s)))
                    for name, s in shapes.items()}
                out = call(*operands.values())
                refs = {name: weakref.ref(t.data) for name, t in operands.items()}
                refs["out"] = weakref.ref(out.data)
                root = out.sum()
                del operands, out
                kept = {name for name, ref in refs.items() if ref() is not None}
                want = {name for name, conds in spec
                        if any(pattern) and (conds is None or any(needs[c] for c in conds))}
                assert kept == want, f"{op} with {needs}"
                if not root.requires_grad:
                    continue
                ad.backward(root)
                assert all(ref() is None for ref in refs.values()), f"{op} with {needs}"
                with pytest.raises(ContractViolation, match="walked already"):
                    ad.backward(root)
        finally:
            gc.enable()

    def test_parents_are_nodes_and_leaves_that_require_a_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = ad.exp(x)
        root = (h * ad.constant(np.ones(3))).sum()
        (mul,) = root.parents
        assert mul.op == "mul" and mul.parents == (h.node,) and h.parents == (x,)

    def test_a_walked_graph_is_refused_below_its_root(self):
        """A new root over a node an earlier backward walked is refused
        rather than given gradients from dropped arrays."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = ad.exp(x)
        ad.backward(h.sum())
        with pytest.raises(ContractViolation, match="walked already"):
            ad.backward((h * 2.0).sum())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_reads_its_output(self, dtype):
        """``out > 0`` is ``a > 0`` at every kind of value, NaN and the zeros
        included, so the gradient keeps its bytes."""
        a = np.array([-np.inf, -1.5, -0.0, 0.0, np.nan, 1e-30, 2.0, np.inf], dtype=dtype)
        g = np.linspace(-2.0, 2.0, a.size).astype(dtype)
        x = Tensor(a.copy(), requires_grad=True)
        ad.backward((ad.relu(x) * ad.constant(g)).sum())
        want = g * (a > 0)
        assert x.grad.dtype == want.dtype and np.array_equal(x.grad, want)
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key", [np.s_[1:3, ::2], np.s_[np.array([0, 0, 2])],
                                     np.s_[np.array([1, 0]), np.array([2, 2])]],
                             ids=["slice", "rows", "points"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_getitem_gradient_without_its_source(self, dtype, key):
        """The zeros that a gather's gradient fills are made from the source's
        shape and dtype: the bytes of ``zeros_like`` of the source, also when
        the source is a transposed view."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
        view = ad.transpose(x, (1, 0))
        picked = view[key]
        g = rng.standard_normal(picked.shape).astype(dtype)
        want = np.zeros_like(view.data)
        np.add.at(want, key, g)
        (got,) = picked.node._bwd(g)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        ad.backward((picked * ad.constant(g)).sum())
        assert np.array_equal(x.grad, want.T)


# Each case: a primitive and its operands' shapes.
_DTYPE_CASES = {
    "add": ((2, 3), (2, 3)),
    "linear": ((2, 3), (3, 4), (4,)),
    "attention": ((2, 3, 4),) * 3,
    "layer_norm": ((2, 4), (4,), (4,)),
}


class TestOneDtypePerGraph:
    @pytest.mark.parametrize("op", sorted(_DTYPE_CASES))
    @pytest.mark.parametrize("dtype,other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_operands_of_two_dtypes_are_refused(self, op, dtype, other):
        """Each operand in turn has the other dtype: the node is refused,
        naming its op, whether or not it would be on the tape."""
        shapes = _DTYPE_CASES[op]
        for odd in range(len(shapes)):
            for grad in (False, True):
                args = [Tensor(np.ones(s, dtype=other if i == odd else dtype),
                               requires_grad=grad) for i, s in enumerate(shapes)]
                with pytest.raises(ContractViolation, match=f"^{op}: operands of dtypes"):
                    ad.PRIMITIVES[op](*args)


class TestNumericBehavior:
    def test_float32_stays_float32_through_ops_and_grads(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = ad.layer_norm(t * 2.0 + 1.0,
                            Tensor(np.ones(3, dtype=np.float32)),
                            Tensor(np.zeros(3, dtype=np.float32)))
        assert out.dtype == np.float32
        ad.backward(out.sum())
        assert t.grad.dtype == np.float32

    def test_python_scalars_do_not_upcast_float32(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t * 0.5 + 1.0 - 0.25).dtype == np.float32

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = ad.softmax(Tensor(rng.standard_normal((5, 7)) * 10), axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_handles_large_logits(self):
        s = ad.softmax(Tensor([[1000.0, 1000.0, -1000.0]]), axis=-1)
        assert np.all(np.isfinite(s.data))
        assert np.allclose(s.data, [[0.5, 0.5, 0.0]])

    def test_log_softmax_equals_log_of_softmax(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 6)))
        assert np.allclose(ad.log_softmax(x, axis=-1).data,
                           np.log(ad.softmax(x, axis=-1).data), atol=1e-12)

    def test_layer_norm_output_statistics(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 8)) * 5 + 2)
        out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(6)
        out = ad.l2_normalize(Tensor(rng.standard_normal((5, 9))), axis=-1)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)

    def test_l2_normalize_zero_vector_is_safe(self):
        out = ad.l2_normalize(Tensor(np.zeros((1, 4))), axis=-1)
        ad.backward(out.sum())  # must not divide by zero anywhere
        assert np.all(np.isfinite(out.data))

    def test_masked_fill_places_value_only_under_mask(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        mask = np.array([[True, False, False], [False, False, True]])
        out = ad.masked_fill(t, mask, -9.0)
        assert out.data[0, 0] == -9.0 and out.data[1, 2] == -9.0
        assert out.data[0, 1] == 1.0


class TestBilinearResize:
    def test_matches_reference_upsampling(self):
        rng = np.random.default_rng(8)
        img = rng.random((1, 5, 7))
        out = ad.resize_bilinear(Tensor(img), 15, 21)
        want = bilinear_loops(img[0], 15, 21)
        assert np.max(np.abs(out.data[0] - want)) < 1e-12

    def test_two_by_two_hand_case(self):
        # 2x2 -> 4x4, half-pixel sampling: corner output pixels coincide
        # with the corner inputs; interior pixels mix at 1/4-3/4 weights.
        img = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        out = ad.resize_bilinear(Tensor(img), 4, 4).data[0]
        assert out[0, 0] == 0.0 and out[3, 3] == 3.0
        assert np.isclose(out[0, 1], 0.25)
        assert np.isclose(out[1, 0], 0.5)
        assert np.isclose(out[1, 1], 0.75)

    def test_constant_image_stays_constant(self):
        out = ad.resize_bilinear(Tensor(np.full((2, 3, 3), 0.7)), 12, 12)
        assert np.allclose(out.data, 0.7, atol=1e-12)

    def test_mass_is_preserved_for_uniform_scale(self):
        # Integer upscale of a constant-per-cell image keeps per-cell means.
        img = np.zeros((1, 2, 2))
        img[0, 0, 0] = 1.0
        out = ad.resize_bilinear(Tensor(img), 8, 8).data[0]
        assert out[0, 0] == 1.0
        assert out[7, 7] == 0.0
