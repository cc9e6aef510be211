"""Finite-difference gradient checking for the tensor engine.

Unlike ``_oracles``, this module drives the package: it evaluates a
function built from ``soundloc.autodiff`` primitives, runs its backward
pass and compares the resulting gradients against central differences.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from soundloc import autodiff as ad
from soundloc.autodiff import ContractViolation, Tensor


def apply_primitive(kind: str, inputs: Sequence[Tensor], **params) -> Tensor:
    """Call the primitive registered as ``kind`` in ``ad.PRIMITIVES``."""
    if kind not in ad.PRIMITIVES:
        raise ContractViolation(f"unknown primitive kind {kind!r}")
    if kind == "concat":
        return ad.PRIMITIVES[kind](inputs, **params)
    return ad.PRIMITIVES[kind](*inputs, **params)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass
class GradCheckReport:
    """Per-parameter worst mismatch between reverse-mode and central differences."""

    max_rel_error: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, int, float]] = field(default_factory=list)
    non_finite: list[tuple[str, int]] = field(default_factory=list)
    tol: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(f: Callable[..., Tensor], params: dict[str, Tensor],
               h: float = 1e-4, tol: float = 1e-4,
               coords: Callable[[str, Tensor], Iterable[int]] | None = None
               ) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f(params)`` to central differences.

    ``f`` must map the parameter dict to a scalar tensor.  Relative error
    is ``|a - b| / max(1, |a|, |b|)``; coordinates where a perturbed
    evaluation is non-finite are recorded and skipped rather than fatal.
    ``coords(name, tensor)`` picks the flat indices probed in each tensor
    (every index when ``coords`` is None).
    """
    for t in params.values():
        t.zero_grad()
    out = f(params)
    ad.backward(out)
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in params.items()}

    report = GradCheckReport(tol=tol)
    with ad.no_grad():
        for name, t in params.items():
            worst = 0.0
            flat = t.data.reshape(-1)
            gflat = analytic[name].reshape(-1)
            for i in (range(flat.size) if coords is None else coords(name, t)):
                orig = flat[i]
                flat[i] = orig + h
                fp = f(params).item()
                flat[i] = orig - h
                fm = f(params).item()
                flat[i] = orig
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    report.non_finite.append((name, i))
                    continue
                num = (fp - fm) / (2.0 * h)
                err = _rel_err(gflat[i], num)
                worst = max(worst, err)
                if err > tol:
                    report.failures.append((name, i, err))
            report.max_rel_error[name] = worst
    return report
