"""Training objectives: symmetric contrastive alignment and mask-area control.

Both terms take B x B tables indexed by (image i, audio j).  The
contrastive term treats a similarity table as a retrieval problem in both
directions (each row and each column should peak on the diagonal).  The
area term is an L1 pull of the pairs' mean mask values toward a positive
target on the diagonal and a negative target off it, which stops the
decoder from collapsing to all-on or all-off masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractViolation, Tensor


@dataclass
class LossWeights:
    """Term weights and targets for the combined objective.

    The area term sums over all B^2 pairs, so its weight must scale like
    1/B^2 to stay subdominant to the contrastive terms; at the default
    batch size of 16 anything near 0.5 drowns the contrastive signal and
    collapses every mask to empty.  The default 0.006 (~1.5 / 16^2) is
    the sweet spot found by sweeping: small enough that localization
    quality holds up, large enough that the off-diagonal pressure toward
    empty masks suppresses predictions under mismatched or silent audio,
    which is what makes confidence a usable detection score.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.006
    temperature: float = 0.07
    p_plus: float = 0.4
    p_minus: float = 0.0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ContractViolation(f"temperature must be > 0, got {self.temperature}")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ContractViolation("loss weights must be nonnegative")
        if not 0.0 <= self.p_minus <= self.p_plus <= 1.0:
            raise ContractViolation(
                f"need 0 <= p_minus <= p_plus <= 1, got {self.p_minus}, {self.p_plus}")


def infonce_symmetric(sims: Tensor, tau: float) -> Tensor:
    """Two-directional contrastive loss over a square similarity table.

    -(1/2B) * sum_i [log softmax over row i at i  +  log softmax over
    column i at i], with all logits divided by ``tau`` first.
    """
    if tau <= 0:
        raise ContractViolation(f"temperature must be > 0, got {tau}")
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ContractViolation(f"similarity table must be square, got {sims.shape}")
    b = sims.shape[0]
    logits = sims * (1.0 / tau)
    idx = np.arange(b)
    row_diag = ad.log_softmax(logits, axis=1)[idx, idx]
    col_diag = ad.log_softmax(logits, axis=0)[idx, idx]
    return -(row_diag.sum() + col_diag.sum()) * (1.0 / (2 * b))


def area_regularization(m: Tensor, p_plus: float, p_minus: float) -> Tensor:
    """Summed L1 distance of pair mask means to their targets.

    ``m[i, j]`` is the spatial mean of the image-level mask decoded for
    image i and audio j.  Diagonal entries (matched pairs) are pulled
    toward ``p_plus``, off-diagonal ones toward ``p_minus``; terms are
    summed, not averaged.
    Reduction happens row by row and then across row totals, so for small
    tables a double loop with per-row accumulators reproduces the value
    bit for bit (numpy switches to pairwise summation inside rows of
    eight or more).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"pair mask means must be square, got {m.shape}")
    b = m.shape[0]
    target = np.full((b, b), float(p_minus))
    np.fill_diagonal(target, float(p_plus))
    return ad.absolute(ad.constant(target, dtype=m.dtype) - m).sum(axis=1).sum()


def total_loss(l_img: Tensor, l_feat: Tensor, l_reg: Tensor, w: LossWeights) -> Tensor:
    """Weighted sum of the image-level, feature-level, and area terms."""
    return l_img * w.lambda1 + l_feat * w.lambda2 + l_reg * w.lambda3
