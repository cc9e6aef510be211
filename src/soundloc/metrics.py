"""Evaluation metrics for localization masks and matched-pair detection.

Two ground-truth conventions coexist: box-style metrics (ciou, auc, the
detection family) binarize predictions at half their maximum and compare
against a box ground truth when one is provided; region metrics (miou,
fscore) use an absolute threshold against the exact mask.  All counting
is integer and every aggregate is produced by a fixed sequence of
divisions and ordered sums, so results are reproducible bit-for-bit and
comparable against brute-force oracles with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import ContractViolation
from .synth import SceneFlags

N_AUC_THRESHOLDS = 20


@dataclass
class MetricProtocol:
    """The protocol details the tables never state; all overridable."""
    ciou_threshold: float = 0.5
    binarize: str = "half_max"       # rule behind ciou/auc/detection
    abs_threshold: float = 0.5       # rule behind miou/fscore
    beta2: float = 0.3
    confidence: str = "max"

    def as_dict(self) -> dict:
        return {"ciou_threshold": self.ciou_threshold, "binarize": self.binarize,
                "abs_threshold": self.abs_threshold, "beta2": self.beta2,
                "confidence": self.confidence}


@dataclass
class EvalSample:
    pred_mask: np.ndarray                 # float in [0, 1]
    gt_mask: np.ndarray                   # binary
    flags: SceneFlags
    gt_box_mask: np.ndarray | None = None
    confidence: float = field(init=False)

    def __post_init__(self):
        self.pred_mask = np.asarray(self.pred_mask, dtype=np.float64)
        self.gt_mask = np.asarray(self.gt_mask).astype(bool)
        if self.pred_mask.shape != self.gt_mask.shape:
            raise ContractViolation(
                f"pred {self.pred_mask.shape} and gt {self.gt_mask.shape} differ")
        if self.gt_box_mask is not None:
            self.gt_box_mask = np.asarray(self.gt_box_mask).astype(bool)
            if self.gt_box_mask.shape != self.gt_mask.shape:
                raise ContractViolation("box gt shape differs from mask gt")
        self.confidence = float(self.pred_mask.max())

    @property
    def box_gt(self) -> np.ndarray:
        return self.gt_box_mask if self.gt_box_mask is not None else self.gt_mask


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
    pred_binary = np.asarray(pred_binary).astype(bool)
    gt_binary = np.asarray(gt_binary).astype(bool)
    if pred_binary.shape != gt_binary.shape:
        raise ContractViolation(
            f"iou: shapes differ, {pred_binary.shape} vs {gt_binary.shape}")
    union = int(np.logical_or(pred_binary, gt_binary).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(pred_binary, gt_binary).sum()) / union


def binarize_half_max(pred: np.ndarray) -> np.ndarray:
    """Threshold at half the mask's own maximum; an all-zero mask stays empty."""
    peak = float(pred.max())
    if peak == 0.0:
        return np.zeros_like(pred, dtype=bool)
    return pred >= 0.5 * peak


def _box_ious(samples: list[EvalSample]) -> list[float]:
    return [iou(binarize_half_max(s.pred_mask), s.box_gt) for s in samples]


def _require_samples(samples: list[EvalSample]) -> None:
    if not samples:
        raise ContractViolation("metric over an empty sample list")


def ciou(samples: list[EvalSample], proto: MetricProtocol | None = None) -> float:
    """Fraction of samples whose half-max-binarized IoU clears the threshold."""
    proto = proto or MetricProtocol()
    _require_samples(samples)
    hits = sum(1 for v in _box_ious(samples) if v >= proto.ciou_threshold)
    return hits / len(samples)


def auc(samples: list[EvalSample]) -> float:
    """Mean success rate over the IoU threshold grid 0.05, 0.10, ..., 1.00."""
    _require_samples(samples)
    ious = _box_ious(samples)
    n = len(samples)
    total = 0.0
    for i in range(1, N_AUC_THRESHOLDS + 1):
        t = i / N_AUC_THRESHOLDS
        total += sum(1 for v in ious if v >= t) / n
    return total / N_AUC_THRESHOLDS


def miou_fscore(samples: list[EvalSample],
                proto: MetricProtocol | None = None) -> tuple[float, float]:
    """Mean per-sample IoU at an absolute threshold, plus the pooled F-score.

    Precision and recall come from pixel counts pooled across the whole
    sample list; F = (1 + b2) P R / (b2 P + R) with b2 favoring recall.
    """
    proto = proto or MetricProtocol()
    _require_samples(samples)
    iou_sum = 0.0
    tp = fp = fn = 0
    for s in samples:
        pred = s.pred_mask >= proto.abs_threshold
        iou_sum += iou(pred, s.gt_mask)
        tp += int(np.logical_and(pred, s.gt_mask).sum())
        fp += int(np.logical_and(pred, ~s.gt_mask).sum())
        fn += int(np.logical_and(~pred, s.gt_mask).sum())
    miou = iou_sum / len(samples)
    if tp == 0:
        return miou, 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    fscore = (1 + proto.beta2) * precision * recall / (proto.beta2 * precision + recall)
    return miou, fscore


def _ranked_labels(samples: list[EvalSample]) -> list[bool]:
    """Positive/negative labels sorted by descending confidence, ties stable."""
    order = sorted(range(len(samples)), key=lambda i: -samples[i].confidence)
    return [samples[i].flags.positive for i in order]


def average_precision(samples: list[EvalSample]) -> Optional[float]:
    """Area under the precision-recall curve, precision right-monotonized."""
    _require_samples(samples)
    labels = _ranked_labels(samples)
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
    ranked = sorted(samples, key=lambda s: -s.confidence)
    best = 0.0
    tp = fp = 0
    for k, s in enumerate(ranked):
        tp += s.flags.positive
        fp += not s.flags.positive
        # Score a threshold only once its whole group of tied confidences is in.
        if k + 1 == len(ranked) or ranked[k + 1].confidence != s.confidence:
            best = max(best, 2 * tp / (2 * tp + fp + (n_pos - tp)))
    return best


def detection_metrics(samples: list[EvalSample],
                      proto: MetricProtocol | None = None
                      ) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """(ap, max_f1, loc_acc); loc_acc is ciou over the positive subset.

    With no positive samples all three are undefined and reported as
    ``None`` rather than 0.
    """
    proto = proto or MetricProtocol()
    _require_samples(samples)
    positives = [s for s in samples if s.flags.positive]
    if not positives:
        return None, None, None
    return average_precision(samples), max_f1(samples), ciou(positives, proto)


def compute_report(samples: list[EvalSample],
                   proto: MetricProtocol | None = None) -> MetricsReport:
    """All metrics over one benchmark's samples, plus protocol metadata."""
    proto = proto or MetricProtocol()
    _require_samples(samples)
    miou, fscore = miou_fscore(samples, proto)
    ap, mf1, loc = detection_metrics(samples, proto)
    return MetricsReport(
        ciou=ciou(samples, proto), auc=auc(samples), miou=miou, fscore=fscore,
        ap=ap, max_f1=mf1, loc_acc=loc,
        per_sample_iou=_box_ious(samples),
        metadata=proto.as_dict())
