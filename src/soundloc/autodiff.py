"""Dense-tensor substrate with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float64 by default, float32 behind a config
switch).  An operation on tensors that require gradients records a
backward node, and the nodes form the graph that :func:`backward` walks.
A graph has one dtype: an operation whose operands' dtype differs from its
result's raises ``ContractViolation`` naming the operation, and a leaf's
gradient has the leaf's dtype.  Calling :func:`backward` on a scalar
result walks the recorded DAG once in reverse topological order
(deterministic tie-break by creation index, so runs are bit-reproducible)
and accumulates gradients additively across fan-out.  ``PRIMITIVES``
names every operation that can appear in a graph; the test suite checks
each one against central differences.

The graph is kept apart from the tensors, as autograd keeps it (Paszke et
al., "PyTorch", arXiv 1912.01703).  A ``Tensor`` holds its data and, if a
recorded operation made it, that operation's :class:`Node`.  A node holds
its operands' nodes (a leaf that requires a gradient stands for itself),
the layout of its output, and the arrays its backward reads (its *saved*
arrays), and nothing else: no operand ``Tensor``, and no cycle.  So an
output that neither the caller nor a saved list holds is freed by
reference count as soon as forward moves on.  ``backward`` drops each
node's saved arrays once that node's backward has run, and refuses to
walk a graph a second time.  A node's ``data`` is its output while
anything holds it, else an empty array of the output's dtype.

Backward does only the work whose result someone reads:

* what a primitive saves, and which operand gradients it computes, follow
  which operands require a gradient when the op is recorded (frozen
  weights and constant inputs cost nothing).  ``apply_freezing`` runs
  before any forward, so that is also what they require when backward
  runs;
* only leaves (tensors no operation produced) keep ``grad``; an interior
  node's gradient is released as soon as its own backward has run;
* a stored gradient may share memory with another tensor's gradient, so
  nothing may update ``grad`` in place (the optimizer does not).

What each primitive saves of its operands and its output; ``a if b`` is
operand ``a``'s array, kept when operand ``b`` requires a gradient.  The
tests check this table.

    ====================================  ==============================
    primitive                             saves
    ====================================  ==============================
    add, sub, neg, sum, mean              nothing
    reshape, transpose, getitem, concat   nothing
    masked_fill, resize_bilinear          nothing
    mul, matmul                           a if b; b if a
    div                                   b; a if b
    linear                                x if w; w if x
    attention                             q; k; v if q or k
    layer_norm                            x if x or gamma; gamma if x
    relu, sigmoid, exp                    out
    softmax, log_softmax, l2_normalize    out
    abs, log                              a
    ====================================  ==============================

Besides these, ``attention`` keeps each row's max and sum, ``layer_norm``
each row's mean and inverse deviation, ``l2_normalize`` each row's norm,
``masked_fill`` its mask, ``getitem`` its key and ``resize_bilinear`` its
interpolation weights.  ``relu`` reads its mask from its output: ``out >
0`` is ``a > 0``, NaN included.

The hot layers are fused primitives, one graph node each with a
hand-derived backward: ``linear(x, w, b)`` for ``x @ w + b`` and
``attention(q, k, v, causal)`` for softmax attention.  Each computes
bit for bit what its composition of primitives computes, so fusing
changes no checkpoint byte; the saving is in graph nodes and
temporaries.  ``attention`` scales, masks, shifts, exponentiates and
normalizes its scores in place in one buffer, dropped on return, and
keeps each row's max and sum, from which backward rebuilds the
probabilities block by block; ``layer_norm`` normalizes into its output
and keeps each row's mean and inverse deviation, from which backward
rebuilds the normalized rows.  Holding the scores key-major,
``(..., keys, queries)``, would make the row max ~3x faster (numpy
reduces a contiguous array's second-to-last axis faster than a short
last one), but it changes the summation order, and so the rounding, of
the softmax.

The fused primitives split the leading (pair) axis of a batched array into
~1 MiB blocks on any CPU count, so what a step holds does not depend on it; a
pool with a worker for each further CPU in the process's affinity takes some.
No byte changes: a block makes the calls the whole array would, as numpy runs
a batched matmul as one GEMM per item, reduces the last axis row by row and
applies elementwise ops element by element.  A 2-D array is one block:
OpenBLAS may round a GEMM differently when its row count changes.

On glibc, importing the module keeps freed memory in the process
(``FREED_MEMORY_KEPT``): the graph a training step drops is the next step's.

Design notes that matter for reproducibility:

* softmax and log-softmax subtract the row maximum before
  exponentiating, so saturated logits (+-1e3 and beyond) stay finite;
* bilinear resizing uses the half-pixel ("align corners false")
  convention: source coordinate of output index ``i`` is
  ``(i + 0.5) * n_in / n_out - 0.5`` with edge clamping, and both the
  forward pass and its adjoint are plain matrix products with fixed
  interpolation weights;
* L2 normalization divides by ``max(||x||, eps)``, which makes the
  output norm exactly 1 (up to rounding) whenever ``||x|| > eps``.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import threading
import weakref
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class ContractViolation(Exception):
    """An operation was invoked outside its documented contract."""


_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


class Tensor:
    """A dense n-dimensional array, and the node of the operation that made it.

    A leaf (a tensor no recorded operation made) that requires gradients
    gets ``grad`` (a numpy array of its shape) from :func:`backward`; it
    accumulates across calls until :meth:`zero_grad`.  Interior tensors do
    not keep theirs.  ``op`` and ``parents`` read the node; a leaf has
    neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def op(self) -> str | None:
        return None if self.node is None else self.node.op

    @property
    def parents(self) -> tuple:
        return () if self.node is None else self.node.parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" op={self.op}" if self.op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self.dtype))

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _layout(a: np.ndarray) -> tuple:
    """What ``np.empty_like(a)`` and :func:`_first_grad` read of ``a``."""
    flags = a.flags
    return a.shape, a.dtype, a.strides, flags.c_contiguous, flags.f_contiguous


def _empty(layout: tuple) -> np.ndarray:
    """``np.empty_like`` of an array of this layout: numpy keeps its order of strides."""
    shape, dtype, strides, c_contiguous, f_contiguous = layout
    if c_contiguous or f_contiguous:
        return np.empty(shape, dtype, order="C" if c_contiguous else "F")
    axes = sorted(range(len(shape)), key=lambda ax: -abs(strides[ax]))
    return np.empty([shape[ax] for ax in axes], dtype).transpose(np.argsort(axes))


class Node:
    """The backward of one recorded operation.

    ``_inputs`` lines up with the operation's operands: the operand's node,
    the operand itself if it is a leaf that requires a gradient, else None.
    ``_bwd`` maps the output's gradient to the operands' and holds the saved
    arrays; :func:`backward` drops it once it has run.
    """

    __slots__ = ("op", "_id", "_inputs", "_bwd", "_layout", "_out")

    def __init__(self, op: str, inputs: tuple, bwd: Callable, out: np.ndarray):
        self.op = op
        self._id = next(_ids)
        self._inputs = inputs
        self._bwd = bwd
        self._layout = _layout(out)
        self._out = weakref.ref(out)

    @property
    def parents(self) -> tuple:
        """The nodes and leaves that this node's gradient flows to."""
        return tuple(p for p in self._inputs if p is not None)

    @property
    def data(self) -> np.ndarray:
        """The output while anything holds it, else an empty array of its dtype."""
        out = self._out()
        return np.empty(0, self._layout[1]) if out is None else out


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def constant(x, dtype=None) -> Tensor:
    """A tensor that never requires gradients."""
    return Tensor(x, requires_grad=False, dtype=dtype)


def _make(data: np.ndarray, op: str, operands: Sequence[Tensor], bwd: Callable) -> Tensor:
    """``data`` as a tensor, with a node for ``bwd`` when recording and an
    operand requires a gradient."""
    if any(p.dtype != data.dtype for p in operands):
        raise ContractViolation(f"{op}: operands of dtypes {[str(p.dtype) for p in operands]}")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in operands):
        out.requires_grad = True
        out.node = Node(op, tuple(p.node if p.node is not None else p if p.requires_grad
                                  else None for p in operands), bwd, out.data)
    return out


# -- blocks of the leading axis --------------------------------------------

_BLOCK_BYTES = 1 << 20
_WORKERS = len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
               else range(os.cpu_count() or 1)) - 1


class _LazyPool:
    """A ``ThreadPoolExecutor`` made at the first ``submit``: importing
    ``concurrent.futures`` (and its ``logging``) costs ~10 ms that a process
    which never runs a split block need not pay."""
    executor = None
    _made = threading.Lock()

    def submit(self, fn):
        with self._made:
            if self.executor is None:
                from concurrent.futures import ThreadPoolExecutor
                self.executor = ThreadPoolExecutor(_WORKERS)
        return self.executor.submit(fn)


# A forked child, whose copy of the pool has no threads, runs its blocks itself.
_pool = _LazyPool() if _WORKERS else None
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _keep_freed_memory() -> bool:
    """Ask glibc to keep freed memory in the process; whether it agreed.

    A training step drops its graph (~180 MiB at B = 16) before the next one
    builds the same shapes.  A fixed 32 MiB mmap threshold (glibc's largest; a
    step's largest array is 16 MiB) puts them on the heap and a 1 GiB trim
    threshold keeps it there, so the next step does not fault them in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):     # not glibc
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    trim = mallopt(-1, 1 << 30)      # M_TRIM_THRESHOLD
    mmap = mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    return bool(trim and mmap)


FREED_MEMORY_KEPT = _keep_freed_memory()


def _blocked(fn: Callable[[slice], None], *arrays: np.ndarray) -> None:
    """Call ``fn(s)`` on consecutive ~1 MiB blocks of the leading axis of ``arrays``,
    sized by the largest, some on the pool's threads if any; a 2-D array is one."""
    a = max(arrays, key=lambda a: a.nbytes)
    step = max(1, _BLOCK_BYTES * len(a) // max(1, a.nbytes))
    blocks = [slice(i, i + step) for i in range(0, len(a), step)] if a.ndim > 2 else [slice(None)]
    # A free thread takes the next block; a list iterator hands each out once.
    todo = iter(blocks)
    futures = [_pool.submit(lambda: [fn(s) for s in todo]) for _ in range(_WORKERS)
               if _pool is not None and len(blocks) > 1]
    for s in todo:
        fn(s)
    for f in futures:
        f.result()


def block_threads() -> int:
    """Threads that run the fused primitives' blocks: this one and the pool's."""
    return 1 + (_WORKERS if _pool else 0)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise primitives --------------------------------------------------
#
# A backward closure captures arrays, shapes and flags, never an operand
# ``Tensor``: the arrays it captures are what its node saves.

def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _make(a.data + b.data, "add", (a, b),
                 lambda g: (_unbroadcast(g, sa) if ra else None,
                            _unbroadcast(g, sb) if rb else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _make(a.data - b.data, "sub", (a, b),
                 lambda g: (_unbroadcast(g, sa) if ra else None,
                            _unbroadcast(-g, sb) if rb else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    ka = a.data if b.requires_grad else None        # each gradient reads the other operand
    kb = b.data if a.requires_grad else None
    return _make(a.data * b.data, "mul", (a, b),
                 lambda g: (None if kb is None else _unbroadcast(g * kb, sa),
                            None if ka is None else _unbroadcast(g * ka, sb)))


def div(a: Tensor, b: Tensor) -> Tensor:
    sa, sb, ra = a.shape, b.shape, a.requires_grad
    ka, kb = (a.data if b.requires_grad else None), b.data

    def bwd(g):
        ga = _unbroadcast(g / kb, sa) if ra else None
        gb = None if ka is None else _unbroadcast(-g * ka / (kb * kb), sb)
        return (ga, gb)
    return _make(a.data / b.data, "div", (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    return _make(out, "relu", (a,), lambda g: (g * (out > 0),))


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign so exp never overflows.
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def absolute(a: Tensor) -> Tensor:
    x = a.data
    return _make(np.abs(x), "abs", (a,), lambda g: (g * np.sign(x),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _make(np.log(x), "log", (a,), lambda g: (g / x,))


# -- reductions --------------------------------------------------------------

def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """A reduction's gradient ``g`` copied back over the axes it took from ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape
    return _make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,),
                 lambda g: (_spread(g, shape, axis, keepdims),))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size // max(out.size, 1)      # entries averaged into each output
    return _make(out, "mean", (a,), lambda g: (_spread(g / n, shape, axis, keepdims),))


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ContractViolation(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractViolation(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    sa, sb = a.shape, b.shape
    ka = a.data if b.requires_grad else None
    kb = b.data if a.requires_grad else None

    def bwd(g):
        ga = None if kb is None else _unbroadcast(np.matmul(g, np.swapaxes(kb, -1, -2)), sa)
        gb = None if ka is None else _unbroadcast(np.matmul(np.swapaxes(ka, -1, -2), g), sb)
        return (ga, gb)
    return _make(np.matmul(a.data, b.data), "matmul", (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D ``w``, as one graph node, bit for bit."""
    if x.ndim < 2 or w.ndim != 2 or b.shape != (w.shape[1],) or x.shape[-1] != w.shape[0]:
        raise ContractViolation(
            f"linear: expected (..., n) @ (n, m) + (m,), got {x.shape}, {w.shape}, {b.shape}")
    xd, wd, bd = x.data, w.data, b.data
    out = np.empty(x.shape[:-1] + wd.shape[1:], dtype=xd.dtype)
    _blocked(lambda s: np.add(np.matmul(xd[s], wd, out=out[s]), bd, out=out[s]), xd, out)
    sx, sw, sb, rb, dtype = x.shape, w.shape, b.shape, b.requires_grad, xd.dtype
    kx = xd if w.requires_grad else None        # a frozen layer keeps no input
    kw = wd if x.requires_grad else None

    def bwd(g):
        gx = gw = None
        if kw is not None:
            gx = np.empty(sx, dtype=dtype)
            _blocked(lambda s: np.matmul(g[s], kw.T, out=gx[s]), g, gx)
        if kx is not None:
            gw = np.empty(sx[:-2] + sw, dtype=dtype)
            _blocked(lambda s: np.matmul(np.swapaxes(kx[s], -1, -2), g[s], out=gw[s]),
                     kx, g, gw)
            gw = _unbroadcast(gw, sw)
        gb = _unbroadcast(g, sb) if rb else None
        return (gx, gw, gb)
    return _make(out, "linear", (x, w, b), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(q kᵀ / sqrt(dh)) v over (..., t, dh) inputs, as one graph node.

    With ``causal`` each query sees only the keys at or before it.  The
    result and every gradient are bit for bit those of the composed layer
    (matmul, scale, masked_fill, softmax, matmul), but the scores are
    scaled, masked, max-shifted, exponentiated and normalized in place in
    one buffer, which is dropped on return.  Backward keeps only each row's
    max and sum, and rebuilds each block of probabilities from q and k with
    the forward's own ops, in the forward's order.  The output and the
    gradients are laid out in memory like ``q``, ``k`` and ``v``, so heads
    split off by a transpose are merged back without a copy.
    """
    if (q.ndim < 2 or k.shape != v.shape or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1] or (causal and q.shape[-2] != k.shape[-2])):
        raise ContractViolation(
            f"attention: incompatible q {q.shape}, k {k.shape}, v {v.shape}")
    qd, kd, vd = q.data, k.data, v.data
    scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    shape = q.shape[:-1] + k.shape[-2:-1]
    above = np.triu(np.ones(shape[-2:], dtype=bool), k=1) if causal else None
    p = np.empty(shape, dtype=qd.dtype)
    rowmax, rowsum = (np.empty(shape[:-1] + (1,), dtype=qd.dtype) for _ in range(2))
    out = np.empty_like(qd)

    def scores(s, into=None):
        ps = np.matmul(qd[s], np.swapaxes(kd[s], -1, -2), out=into)
        ps *= scale
        if causal:
            np.copyto(ps, -np.inf, where=above)
        return ps

    def fwd(s):
        ps = scores(s, p[s])
        ps -= np.fmax.reduce(ps, axis=-1, keepdims=True, out=rowmax[s])
        np.exp(ps, out=ps)
        ps /= np.add.reduce(ps, axis=-1, keepdims=True, out=rowsum[s])
        np.matmul(ps, vd[s], out=out[s])
    _blocked(fwd, p)
    # q and k rebuild the probabilities; v is read by the gradients of q and k.
    saved_v = vd if q.requires_grad or k.requires_grad else None
    layouts = [_layout(t.data) if t.requires_grad else None for t in (q, k, v)]

    def bwd(g):
        gq, gk, gv = (None if lay is None else _empty(lay) for lay in layouts)

        def back(s):
            ps = scores(s)              # the forward's probabilities, rebuilt bit for bit
            ps -= rowmax[s]
            np.exp(ps, out=ps)
            ps /= rowsum[s]
            if gv is not None:
                np.matmul(np.swapaxes(ps, -1, -2), g[s], out=gv[s])
            if gq is not None or gk is not None:
                ds = np.matmul(g[s], np.swapaxes(saved_v[s], -1, -2))   # dP, then dS in place
                ds -= (ds * ps).sum(axis=-1, keepdims=True)
                ds *= ps
                ds *= scale
                if gq is not None:
                    np.matmul(ds, kd[s], out=gq[s])
                if gk is not None:
                    np.matmul(np.swapaxes(qd[s], -1, -2), ds, out=np.swapaxes(gk[s], -1, -2))
        _blocked(back, np.broadcast_to(rowmax, shape))     # blocks sized as the scores
        return (gq, gk, gv)
    return _make(out, "attention", (q, k, v), bwd)


# -- normalizations ----------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)
    return _make(out, "softmax", (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)
    return _make(out, "log_softmax", (a,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis with population variance, then scale/shift."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ContractViolation(
            f"layer_norm: gamma/beta must have shape ({x.shape[-1]},), "
            f"got {gamma.shape} and {beta.shape}")
    xd, gd, bd = x.data, gamma.data, beta.data
    mean, inv = (np.empty(x.shape[:-1] + (1,), dtype=x.dtype) for _ in range(2))
    out = np.empty_like(xd)

    def fwd(s):
        mean[s] = xd[s].mean(axis=-1, keepdims=True)
        xs = np.subtract(xd[s], mean[s], out=out[s])
        inv[s] = 1.0 / np.sqrt((xs * xs).mean(axis=-1, keepdims=True) + eps)
        xs *= inv[s]
        np.add(np.multiply(xs, gd, out=out[s]), bd, out=out[s])
    _blocked(fwd, xd, out)
    # x rebuilds xhat for the gradients of x and gamma; gamma scales x's.
    kx = xd if x.requires_grad or gamma.requires_grad else None
    kg = gd if x.requires_grad else None
    sg, sb, rg, rb = gamma.shape, beta.shape, gamma.requires_grad, beta.requires_grad

    def bwd(g):
        dx = np.empty_like(g) if kg is not None else None
        gxhat = np.empty_like(g) if rg else None

        def back(s):
            xs = kx[s] - mean[s]            # the forward's xhat, rebuilt bit for bit
            xs *= inv[s]
            if gxhat is not None:
                np.multiply(g[s], xs, out=gxhat[s])
            if dx is not None:
                d = np.multiply(g[s], kg, out=dx[s])    # dxhat
                proj = d * xs
                proj_mean = proj.mean(axis=-1, keepdims=True)
                d -= d.mean(axis=-1, keepdims=True)
                d -= np.multiply(xs, proj_mean, out=proj)
                d *= inv[s]
        if kx is not None:
            _blocked(back, g)
        return (dx, None if gxhat is None else _unbroadcast(gxhat, sg),
                _unbroadcast(g, sb) if rb else None)
    return _make(out, "layer_norm", (x, gamma, beta), bwd)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    norm = np.sqrt((a.data ** 2).sum(axis=axis, keepdims=True))
    denom = np.maximum(norm, eps)
    out = a.data / denom

    def bwd(g):
        clamped = norm <= eps
        dx = (g - out * (g * out).sum(axis=axis, keepdims=True)) / denom
        if clamped.any():
            dx = np.where(clamped, g / eps, dx)
        return (dx,)
    return _make(out, "l2_normalize", (a,), bwd)


# -- shape manipulation ------------------------------------------------------

def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    sa = a.shape
    return _make(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(sa),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), "transpose", (a,),
                 lambda g: (g.transpose(inv),))


def getitem(a: Tensor, key) -> Tensor:
    layout = _layout(a.data)        # the zeros' shape, dtype and order: no source array

    def bwd(g):
        out = _empty(layout)
        out.fill(0)
        np.add.at(out, key, g)
        return (out,)
    return _make(a.data[key], "getitem", (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t for t in tensors]
    if not tensors:
        raise ContractViolation("concat: need at least one input")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))
    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 "concat", tensors, bwd)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)
    return _make(out, "masked_fill", (a,),
                 lambda g: (np.where(mask, 0.0, g),))


@lru_cache(maxsize=None)
def _bilinear_weights(n_out: int, n_in: int) -> np.ndarray:
    """Interpolation matrix W with out[i] = sum_p W[i, p] * in[p].

    Source coordinate of output index i is (i + 0.5) * n_in / n_out - 0.5;
    the two neighboring source samples are blended linearly, with indices
    clamped to the valid range at the borders.
    """
    w = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        lo = int(np.floor(src))
        t = src - lo
        w[i, min(max(lo, 0), n_in - 1)] += 1.0 - t
        w[i, min(max(lo + 1, 0), n_in - 1)] += t
    return w


def resize_bilinear(a: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinearly resample the trailing two axes to (out_h, out_w)."""
    if a.ndim < 2:
        raise ContractViolation(f"resize_bilinear: input must be >=2-D, got {a.shape}")
    h, w = a.shape[-2], a.shape[-1]
    wh = _bilinear_weights(out_h, h).astype(a.dtype)
    ww = _bilinear_weights(out_w, w).astype(a.dtype)
    out = np.matmul(np.matmul(wh, a.data), ww.T)

    def bwd(g):
        return (np.matmul(np.matmul(wh.T, g), ww),)
    return _make(out, "resize_bilinear", (a,), bwd)


# -- primitive registry ------------------------------------------------------

PRIMITIVES: dict[str, Callable] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "neg": neg,
    "matmul": matmul,
    "linear": linear,
    "attention": attention,
    "relu": relu,
    "sigmoid": sigmoid,
    "abs": absolute,
    "exp": exp,
    "log": log,
    "sum": tsum,
    "mean": tmean,
    "softmax": softmax,
    "log_softmax": log_softmax,
    "layer_norm": layer_norm,
    "l2_normalize": l2_normalize,
    "reshape": reshape,
    "transpose": transpose,
    "getitem": getitem,
    "concat": concat,
    "masked_fill": masked_fill,
    "resize_bilinear": resize_bilinear,
}


# -- backward pass -----------------------------------------------------------

def backward(root: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf that requires gradients.

    The root must be a scalar.  Visitation order is reverse topological,
    realized as decreasing creation index (parents are always created
    before children), so gradient accumulation order is deterministic.

    Gradients are computed only for operands that required them when their
    op was recorded.  After the call only leaves hold ``grad`` (added to
    what they held before); interior gradients live only while backward
    runs.  A leaf's ``grad`` may share memory with another leaf's, so
    replace it rather than update it in place.  Each node's saved arrays
    are dropped once its backward has run, so a graph is walked once: a
    second call that reaches a walked node raises ``ContractViolation``.
    """
    if root.size != 1:
        raise ContractViolation(f"backward: root must be scalar, got shape {root.shape}")
    if root.node is None:
        if root.requires_grad:
            _accumulate(root, np.ones_like(root.data))
        return

    nodes: dict[int, Node] = {}
    todo = [root.node]
    while todo:
        n = todo.pop()
        if n._id in nodes:
            continue
        if n._bwd is None:
            raise ContractViolation(f"backward: the graph through {n.op} was walked already")
        nodes[n._id] = n
        todo.extend(p for p in n._inputs if type(p) is Node and p._id not in nodes)

    grads = {root.node._id: np.ones_like(root.data)}
    for nid in sorted(nodes, reverse=True):
        n = nodes[nid]
        bwd, n._bwd = n._bwd, None          # the saved arrays go with it
        if nid not in grads:
            continue
        for p, gp in zip(n._inputs, bwd(grads.pop(nid))):
            if p is None or gp is None:
                continue
            if type(p) is Node:
                have = grads.get(p._id)
                grads[p._id] = _first_grad(p._layout, gp) if have is None else have + gp
            else:
                _accumulate(p, gp)


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    leaf.grad = _first_grad(_layout(leaf.data), g) if leaf.grad is None else leaf.grad + g


def _first_grad(layout: tuple, g: np.ndarray) -> np.ndarray:
    """``g`` as a first gradient, shaped and laid out like the array of ``layout``."""
    shape, dtype, strides, c_contiguous, _ = layout
    if g.shape == shape and g.dtype == dtype and (
            g.strides == strides or (g.flags.c_contiguous and c_contiguous)):
        return g
    out = _empty(layout)
    np.copyto(out, g)
    return out
