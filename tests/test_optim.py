"""Optimizer behavior: update math, decay ordering, and guard rails."""

import numpy as np
import pytest

from soundloc.autodiff import ContractViolation, Tensor
from soundloc.optim import Adam, OptimConfig


def _param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


def adam_reference(p0, grads, lr, wd, b1, b2, eps):
    """Step-by-step scalar replica of the documented update sequence."""
    p = float(p0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p -= lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


def test_matches_scalar_reference_with_decay():
    rng = np.random.default_rng(10)
    grads = rng.standard_normal(7)
    p = _param([0.8])
    opt = Adam({"p": p}, OptimConfig(lr=0.05, weight_decay=0.01))
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    want = adam_reference(0.8, grads, 0.05, 0.01, 0.9, 0.999, 1e-8)
    assert abs(p.data[0] - want) < 1e-15


def test_first_step_size_is_roughly_lr():
    """Bias correction makes the first update ~lr regardless of the
    gradient's magnitude."""
    for scale in (1e-4, 1.0, 1e4):
        p = _param([0.0])
        opt = Adam({"p": p}, OptimConfig(lr=0.01, weight_decay=0.0))
        p.grad = np.array([scale])
        opt.step()
        # update = lr * g / (|g| + eps); eps shaves ~1e-4 off at g = 1e-4
        assert np.isclose(p.data[0], -0.01, rtol=2e-4)


def test_zero_gradient_step_only_decays():
    p = _param([2.0])
    opt = Adam({"p": p}, OptimConfig(lr=0.1, weight_decay=0.5))
    p.grad = np.zeros(1)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-15)


def test_zero_gradient_no_decay_is_identity():
    p = _param([1.5, -2.5])
    opt = Adam({"p": p}, OptimConfig(lr=0.1, weight_decay=0.0))
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.5, -2.5])


def test_converges_on_quadratic():
    rng = np.random.default_rng(11)
    target = rng.standard_normal(6)
    p = _param(np.zeros(6))
    opt = Adam({"p": p}, OptimConfig(lr=0.1, weight_decay=0.0))
    for _ in range(500):
        p.grad = 2 * (p.data - target)
        opt.step()
    assert np.max(np.abs(p.data - target)) < 1e-4


def test_missing_gradient_raises():
    a, b = _param([1.0]), _param([2.0])
    opt = Adam({"a": a, "b": b}, OptimConfig(lr=0.1, weight_decay=0.0))
    a.grad = np.ones(1)
    with pytest.raises(ContractViolation, match="b"):
        opt.step()


def test_zero_grad_clears_all_params():
    a, b = _param([1.0]), _param([2.0])
    a.grad = np.ones(1)
    b.grad = np.ones(1)
    Adam({"a": a, "b": b}, OptimConfig()).zero_grad()
    assert a.grad is None and b.grad is None


def test_trajectory_is_deterministic():
    def run():
        p = _param([1.0, -1.0])
        opt = Adam({"p": p}, OptimConfig(lr=0.03, weight_decay=1e-4))
        rng = np.random.default_rng(12)
        for _ in range(50):
            p.grad = rng.standard_normal(2)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_per_parameter_state_is_independent():
    a, b = _param([1.0]), _param([1.0])
    opt = Adam({"a": a, "b": b}, OptimConfig(lr=0.1, weight_decay=0.0))
    a.grad = np.array([1.0])
    b.grad = np.array([-1.0])
    opt.step()
    # mirror-image gradients must give mirror-image updates
    assert a.data[0] == pytest.approx(2.0 - b.data[0], abs=1e-12)
