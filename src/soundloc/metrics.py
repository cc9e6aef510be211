"""Evaluation metrics for localization masks and matched-pair detection.

One fixed protocol scores every benchmark (``PROTOCOL``).  Box-style
metrics (ciou, auc, the detection trio) binarize predictions at half
their maximum against the box ground truth; region
metrics (miou, fscore) threshold at an absolute 0.5 against the exact
mask.  All counting is integer and every aggregate is a fixed sequence
of divisions and ordered sums, so results are reproducible bit-for-bit
and comparable against brute-force oracles with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import ContractViolation
from .synth import SceneFlags

CIOU_THRESHOLD = 0.5        # box IoU a sample needs to count as localized
ABS_THRESHOLD = 0.5         # pixel level behind miou/fscore
BETA2 = 0.3
N_AUC_THRESHOLDS = 20

# The protocol as every report's metadata records it.
PROTOCOL = {"ciou_threshold": CIOU_THRESHOLD, "binarize": "half_max",
            "abs_threshold": ABS_THRESHOLD, "beta2": BETA2, "confidence": "max"}


@dataclass
class EvalSample:
    pred_mask: np.ndarray                 # float in [0, 1]
    gt_mask: np.ndarray                   # binary
    flags: SceneFlags
    gt_box_mask: np.ndarray               # binary
    confidence: float = field(init=False)

    def __post_init__(self):
        self.pred_mask = np.asarray(self.pred_mask, dtype=np.float64)
        self.gt_mask = np.asarray(self.gt_mask).astype(bool)
        if self.pred_mask.shape != self.gt_mask.shape:
            raise ContractViolation(
                f"pred {self.pred_mask.shape} and gt {self.gt_mask.shape} differ")
        self.gt_box_mask = np.asarray(self.gt_box_mask).astype(bool)
        if self.gt_box_mask.shape != self.gt_mask.shape:
            raise ContractViolation("box gt shape differs from mask gt")
        self.confidence = float(self.pred_mask.max())


@dataclass
class MetricsReport:
    ciou: float
    auc: float
    miou: float
    fscore: float
    ap: Optional[float]
    max_f1: Optional[float]
    loc_acc: Optional[float]
    per_sample_iou: list[float]
    metadata: dict

    def as_dict(self) -> dict:
        return {"ciou": self.ciou, "auc": self.auc, "miou": self.miou,
                "fscore": self.fscore, "ap": self.ap, "max_f1": self.max_f1,
                "loc_acc": self.loc_acc}


def iou(pred_binary: np.ndarray, gt_binary: np.ndarray) -> float:
    """Intersection over union; 1 if both masks are empty, 0 if exactly one is."""
    pred_binary = np.asarray(pred_binary, dtype=bool)
    gt_binary = np.asarray(gt_binary, dtype=bool)
    if pred_binary.shape != gt_binary.shape:
        raise ContractViolation(
            f"iou: shapes differ, {pred_binary.shape} vs {gt_binary.shape}")
    union = int(np.count_nonzero(pred_binary | gt_binary))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(pred_binary & gt_binary)) / union


def binarize_half_max(pred: np.ndarray) -> np.ndarray:
    """Threshold at half the mask's own maximum; an all-zero mask stays empty."""
    peak = float(pred.max())
    if peak == 0.0:
        return np.zeros_like(pred, dtype=bool)
    return pred >= 0.5 * peak


def _box_ious(samples: list[EvalSample]) -> list[float]:
    return [iou(binarize_half_max(s.pred_mask), s.gt_box_mask) for s in samples]


def _success_rate(ious: list[float], threshold: float) -> float:
    return sum(1 for v in ious if v >= threshold) / len(ious)


def _require_samples(samples: list[EvalSample]) -> None:
    if not samples:
        raise ContractViolation("metric over an empty sample list")


def ciou(samples: list[EvalSample]) -> float:
    """Fraction of samples whose half-max-binarized IoU reaches 0.5."""
    _require_samples(samples)
    return _success_rate(_box_ious(samples), CIOU_THRESHOLD)


def miou_fscore(samples: list[EvalSample]) -> tuple[float, float]:
    """Mean per-sample IoU at the absolute threshold, plus the pooled F-score.

    Precision and recall come from pixel counts pooled across the whole
    sample list; F = (1 + b2) P R / (b2 P + R), and b2 < 1 weights
    precision above recall.
    """
    _require_samples(samples)
    iou_sum = 0.0
    tp = fp = fn = 0
    for s in samples:
        pred = s.pred_mask >= ABS_THRESHOLD
        iou_sum += iou(pred, s.gt_mask)
        hit = int(np.count_nonzero(pred & s.gt_mask))
        tp += hit
        fp += int(np.count_nonzero(pred)) - hit
        fn += int(np.count_nonzero(s.gt_mask)) - hit
    miou = iou_sum / len(samples)
    if tp == 0:
        return miou, 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    fscore = (1 + BETA2) * precision * recall / (BETA2 * precision + recall)
    return miou, fscore


def _ranked(samples: list[EvalSample]) -> list[EvalSample]:
    """Samples by descending confidence, ties in list order (stable sort)."""
    return sorted(samples, key=lambda s: -s.confidence)


def average_precision(samples: list[EvalSample]) -> Optional[float]:
    """Area under the precision-recall curve, precision right-monotonized."""
    _require_samples(samples)
    labels = [s.flags.positive for s in _ranked(samples)]
    n_pos = sum(labels)
    if n_pos == 0:
        return None
    precisions = []
    tp = 0
    for k, is_pos in enumerate(labels, start=1):
        tp += is_pos
        precisions.append(tp / k)
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    total = 0.0
    for k, is_pos in enumerate(labels):
        if is_pos:
            total += precisions[k] / n_pos
    return total


def max_f1(samples: list[EvalSample]) -> Optional[float]:
    """Best detection F1 over all 'predict positive if confidence >= t' rules.

    Thresholds are the distinct confidence values, so tied scores are
    always classified together (a real threshold cannot split them).
    """
    _require_samples(samples)
    n_pos = sum(1 for s in samples if s.flags.positive)
    if n_pos == 0:
        return None
    ranked = _ranked(samples)
    best = 0.0
    tp = fp = 0
    for k, s in enumerate(ranked):
        tp += s.flags.positive
        fp += not s.flags.positive
        # Score a threshold only once its whole group of tied confidences is in.
        if k + 1 == len(ranked) or ranked[k + 1].confidence != s.confidence:
            best = max(best, 2 * tp / (2 * tp + fp + (n_pos - tp)))
    return best


def compute_report(samples: list[EvalSample]) -> MetricsReport:
    """All metrics over one benchmark's samples, plus the protocol metadata.

    ciou, auc, loc_acc (ciou over the positives) and ``per_sample_iou``
    read the one list of half-max box IoUs.  With no positive sample the
    detection trio is undefined and reported as ``None``, not 0.
    """
    _require_samples(samples)
    ious = _box_ious(samples)
    auc = 0.0
    for i in range(1, N_AUC_THRESHOLDS + 1):
        auc += _success_rate(ious, i / N_AUC_THRESHOLDS)
    miou, fscore = miou_fscore(samples)
    positive_ious = [v for v, s in zip(ious, samples) if s.flags.positive]
    ap = mf1 = loc = None
    if positive_ious:
        ap, mf1 = average_precision(samples), max_f1(samples)
        loc = _success_rate(positive_ious, CIOU_THRESHOLD)
    return MetricsReport(
        ciou=_success_rate(ious, CIOU_THRESHOLD), auc=auc / N_AUC_THRESHOLDS,
        miou=miou, fscore=fscore, ap=ap, max_f1=mf1, loc_acc=loc,
        per_sample_iou=ious, metadata=dict(PROTOCOL))
