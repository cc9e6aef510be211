"""Adaptive-moment optimizer with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractViolation, Tensor


@dataclass
class OptimConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name, ok, rule in (("lr", self.lr > 0, "> 0"),
                               ("weight_decay", self.weight_decay >= 0, ">= 0"),
                               ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                               ("eps", self.eps > 0, "> 0")):
            if not ok:
                raise ContractViolation(f"{name} must be {rule}, got {getattr(self, name)}")


class Adam:
    """Bias-corrected Adam over a named parameter dict, with ``cfg``'s settings.

    Weight decay is decoupled and applied before the moment update:
    ``p <- p - lr * wd * p``, then the usual first/second moment step.
    With zero gradient and zero decay a step leaves parameters untouched.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        missing = [k for k, p in self.params.items() if p.grad is None]
        if missing:
            raise ContractViolation(f"adam_step: missing gradients for {missing}")
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if c.weight_decay:
                p.data -= (c.lr * c.weight_decay) * p.data
            self.m[k] = c.beta1 * self.m[k] + (1.0 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1.0 - c.beta2) * (g * g)
            mhat = self.m[k] / bc1
            vhat = self.v[k] / bc2
            p.data -= c.lr * mhat / (np.sqrt(vhat) + c.eps)
