"""Tests for the contrastive and area objectives.

The 2x2 contrastive reference value was frozen from the loop-based oracle
in ``_oracles.infonce_loops`` (pure-Python math over floats); the tensor
implementation must match the oracle to 1e-12, and random tables are
cross-checked against the same oracle at several sizes.

Finite-difference checks on the L1 area term stay clear of its kinks:
entries within 10*h of a target are resampled first, since the loss is
not differentiable there.
"""

import math

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc.autodiff import ContractViolation, Tensor
from soundloc.losses import (
    LossWeights,
    area_regularization,
    infonce_symmetric,
    total_loss,
)

from _gradcheck import grad_check
from _oracles import area_reg_loops, fd_gradient, infonce_loops, rel_err

# Loop-oracle value for S = [[1.0, 0.2], [0.3, 0.8]] at tau = 1.
INFONCE_2X2 = 0.42146291237480704
S_2X2 = [[1.0, 0.2], [0.3, 0.8]]


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lambda1, w.lambda2) == (1.0, 1.0)
        assert w.lambda3 == 0.006
        assert w.temperature == 0.07
        assert (w.p_plus, w.p_minus) == (0.4, 0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(temperature=0.0),
        dict(temperature=-0.1),
        dict(lambda1=-1.0),
        dict(lambda3=-0.5),
        dict(p_minus=0.5, p_plus=0.4),
        dict(p_plus=1.5),
        dict(temperature=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            LossWeights(**kwargs)


class TestInfoNCE:
    def test_saturated_diagonal_vanishes(self):
        s = ad.constant(1e3 * np.eye(4))
        assert float(infonce_symmetric(s, 1.0).data) < 1e-6

    @pytest.mark.parametrize("b", [2, 4, 8, 16])
    def test_uniform_table_gives_log_batch(self, b):
        # Equal similarities mean the diagonal holds 1/B of each softmax.
        s = ad.constant(np.full((b, b), 0.37))
        loss = float(infonce_symmetric(s, 0.07).data)
        assert abs(loss - math.log(b)) < 1e-9

    def test_two_by_two_oracle(self):
        loss = float(infonce_symmetric(ad.constant(np.array(S_2X2)), 1.0).data)
        assert abs(loss - infonce_loops(S_2X2, 1.0)) < 1e-12
        assert abs(loss - INFONCE_2X2) < 1e-12

    @pytest.mark.parametrize("b", [1, 2, 3, 5, 8])
    def test_matches_loop_oracle(self, b):
        rng = np.random.default_rng(100 + b)
        s = rng.normal(size=(b, b))
        for tau in (1.0, 0.07):
            ours = float(infonce_symmetric(ad.constant(s), tau).data)
            assert abs(ours - infonce_loops(s.tolist(), tau)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        s = rng.normal(size=(5, 5))
        base = float(infonce_symmetric(ad.constant(s), 0.07).data)
        for c in (-3.0, 0.4, 17.5):
            shifted = float(infonce_symmetric(ad.constant(s + c), 0.07).data)
            assert abs(shifted - base) < 1e-9

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(6, 6))
        base = float(infonce_symmetric(ad.constant(s), 0.07).data)
        for seed in range(4):
            perm = np.random.default_rng(seed).permutation(6)
            permuted = s[np.ix_(perm, perm)]
            val = float(infonce_symmetric(ad.constant(permuted), 0.07).data)
            assert abs(val - base) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.normal(size=(4, 4))
            assert float(infonce_symmetric(ad.constant(s), 0.07).data) >= 0.0

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            infonce_symmetric(ad.constant(np.zeros((2, 3))), 1.0)
        with pytest.raises(ContractViolation):
            infonce_symmetric(ad.constant(np.zeros(4)), 1.0)
        with pytest.raises(ContractViolation):
            infonce_symmetric(ad.constant(np.zeros((2, 2))), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        s = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        loss = infonce_symmetric(s, 0.07)
        ad.backward(loss)

        def f(arr):
            return float(infonce_symmetric(ad.constant(arr), 0.07).data)

        fd = fd_gradient(f, s.data, h=1e-4)
        worst = max(rel_err(a, b) for a, b in
                    zip(s.grad.ravel(), np.asarray(fd).ravel()))
        assert worst < 1e-4


class TestAreaRegularization:
    def test_exact_targets_give_zero(self):
        m = np.full((4, 4), 0.1)
        np.fill_diagonal(m, 0.4)
        loss = area_regularization(ad.constant(m), 0.4, 0.1)
        assert float(loss.data) == 0.0

    def test_single_entry(self):
        loss = area_regularization(
            ad.constant(np.array([[0.6]])), 0.4, 0.0)
        assert abs(float(loss.data) - 0.2) < 1e-12

    def test_three_by_three_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.uniform(size=(3, 3))
            p_plus = float(rng.uniform(0.2, 0.8))
            p_minus = float(rng.uniform(0.0, p_plus))
            ours = float(area_regularization(
                ad.constant(m), p_plus, p_minus).data)
            assert ours == area_reg_loops(m.tolist(), p_plus, p_minus)

    def test_terms_are_summed_not_averaged(self):
        # Doubling B with the same per-entry error doubles... quadruples
        # the loss: B^2 entries each contribute |m - target| = 0.1.
        def uniform_err(b):
            m = np.full((b, b), 0.1)
            np.fill_diagonal(m, 0.5)
            return float(area_regularization(
                ad.constant(m), 0.4, 0.0).data)

        assert abs(uniform_err(2) - (2 * 0.1 + 2 * 0.1)) < 1e-12
        assert abs(uniform_err(4) - (4 * 0.1 + 12 * 0.1)) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolation):
            area_regularization(ad.constant(np.zeros((2, 3))), 0.4, 0.0)

    def test_subgradient_matches_finite_differences_off_kink(self):
        h = 1e-4
        rng = np.random.default_rng(12)
        m = rng.uniform(0.05, 0.95, size=(4, 4))
        # Push every entry at least 10*h away from both targets.
        for target in (0.4, 0.0):
            near = np.abs(m - target) < 10 * h
            m[near] = target + 20 * h
        stats = Tensor(m, requires_grad=True)
        loss = area_regularization(stats, 0.4, 0.0)
        ad.backward(loss)

        def f(arr):
            return float(area_regularization(
                ad.constant(arr), 0.4, 0.0).data)

        fd = fd_gradient(f, stats.data, h=h)
        worst = max(rel_err(a, b) for a, b in
                    zip(stats.grad.ravel(), np.asarray(fd).ravel()))
        assert worst < 1e-4


class TestTotalLoss:
    def _scalars(self, a, b, c):
        return (Tensor(np.asarray(a), requires_grad=True),
                Tensor(np.asarray(b), requires_grad=True),
                Tensor(np.asarray(c), requires_grad=True))

    def test_image_only(self):
        li, lf, lr = self._scalars(0.7, 0.3, 0.9)
        w = LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
        assert float(total_loss(li, lf, lr, w).data) == 0.7

    def test_all_zero_weights(self):
        li, lf, lr = self._scalars(0.7, 0.3, 0.9)
        w = LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0)
        assert float(total_loss(li, lf, lr, w).data) == 0.0

    def test_arithmetic_example(self):
        li, lf, lr = self._scalars(0.4, 0.6, 0.2)
        w = LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.5)
        assert abs(float(total_loss(li, lf, lr, w).data) - 1.1) < 1e-15

    def test_component_gradients_are_weights(self):
        li, lf, lr = self._scalars(0.4, 0.6, 0.2)
        w = LossWeights(lambda1=0.25, lambda2=1.5, lambda3=0.125)
        ad.backward(total_loss(li, lf, lr, w))
        assert float(li.grad) == 0.25
        assert float(lf.grad) == 1.5
        assert float(lr.grad) == 0.125


class TestEndToEndGradient:
    def test_pipeline_loss_passes_library_grad_check(self):
        """Contrastive + area over a tiny synthetic table, checked with the
        finite-difference harness in ``_gradcheck`` on the table entries.
        """
        rng = np.random.default_rng(13)
        s = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        m_raw = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def f(params):
            masks = ad.sigmoid(params["m"])   # keeps area term away from kinks
            l_c = infonce_symmetric(params["s"], 0.07)
            l_a = area_regularization(masks, 0.4, 0.0)
            return l_c + l_a * 0.01

        report = grad_check(f, {"s": s, "m": m_raw}, h=1e-4, tol=1e-4)
        assert report.ok, report.failures
