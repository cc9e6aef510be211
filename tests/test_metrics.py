"""Tests for the evaluation metrics against loop-based oracles.

The oracle sweep generates deliberately nasty cases: all-zero
predictions, empty ground truths, missing box annotations, batches with
no positive samples, and tied confidence scores.  Equality with the
oracles is exact (``==``) in 64-bit, which both routes support because
they perform their reductions in the same documented order.

Order-invariance is asserted for batches with distinct confidences;
ranking metrics cannot be order-invariant at exact score ties (a stable
sort preserves whatever order the tie arrived in).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soundloc.metrics import (
    EvalSample,
    average_precision,
    binarize_half_max,
    ciou,
    compute_report,
    iou,
    max_f1,
    miou_fscore,
)
from soundloc.autodiff import ContractViolation
from soundloc.synth import SceneFlags

from _oracles import (
    _box_iou_of,
    ap_loops,
    auc_loops,
    ciou_loops,
    fscore_loops,
    half_max_binarize_loops,
    iou_loops,
    loc_acc_loops,
    max_f1_loops,
    miou_loops,
)

POS = SceneFlags(matched=True, visible=True, audible=True)
NEG_SILENT = SceneFlags(matched=False, visible=True, audible=False)
NEG_MIS = SceneFlags(matched=False, visible=False, audible=True)


def _sample(pred, gt, flags=POS, box=None):
    return EvalSample(pred_mask=np.asarray(pred, dtype=np.float64),
                      gt_mask=np.asarray(gt), flags=flags, gt_box_mask=box)


def _detection_of(samples):
    """The report's (ap, max_f1, loc_acc) trio."""
    rep = compute_report(samples)
    return rep.ap, rep.max_f1, rep.loc_acc


class TestIoU:
    def test_identical_nonempty(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1:3, 1:3] = True
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert iou(a, b) == 0.0

    def test_both_empty_is_one(self):
        z = np.zeros((4, 4), dtype=bool)
        assert iou(z, z) == 1.0

    def test_one_empty_is_zero(self):
        a = np.zeros((4, 4), dtype=bool)
        b = a.copy()
        b[2, 2] = True
        assert iou(a, b) == 0.0
        assert iou(b, a) == 0.0

    def test_matches_pixel_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.random((8, 8)) > 0.5
            b = rng.random((8, 8)) > 0.5
            assert iou(a, b) == iou_loops(a.tolist(), b.tolist())

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            iou(np.zeros((4, 4), dtype=bool), np.zeros((4, 5), dtype=bool))


class TestBinarize:
    def test_half_max_rule(self):
        pred = np.array([[0.8, 0.41], [0.39, 0.0]])
        out = binarize_half_max(pred)
        assert out.tolist() == [[True, True], [False, False]]

    def test_zero_mask_stays_empty(self):
        assert not binarize_half_max(np.zeros((3, 3))).any()

    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0, 3.7])
    def test_scaling_invariance(self, k):
        pred = np.random.default_rng(1).uniform(size=(8, 8))
        assert np.array_equal(binarize_half_max(pred), binarize_half_max(k * pred))

    def test_matches_loops(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = rng.uniform(size=(8, 8))
            assert binarize_half_max(pred).tolist() == half_max_binarize_loops(pred)


class TestCiou:
    def test_perfect_predictions(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:6, 2:6] = True
        samples = [_sample(gt.astype(float), gt) for _ in range(3)]
        assert ciou(samples) == 1.0

    def test_disjoint_predictions(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[:2, :2] = True
        pred = np.zeros((8, 8))
        pred[6:, 6:] = 1.0
        assert ciou([_sample(pred, gt) for _ in range(3)]) == 0.0

    def test_half_passing_mix(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[0:4, :] = True                    # 32 pixels
        hit = gt.astype(float)               # IoU 1.0
        near = np.zeros((8, 8))
        near[1:5, :] = 1.0                   # IoU 24/40 = 0.6 >= 0.5
        far = np.zeros((8, 8))
        far[5:, :] = 1.0                     # IoU 0
        thin = np.zeros((8, 8))
        thin[0, 0] = 1.0                     # IoU 1/32 < 0.5
        samples = [_sample(p, gt) for p in (hit, near, far, thin)]
        assert ciou(samples) == 0.5

    def test_prefers_box_ground_truth(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[3, 3] = True
        box = np.zeros((8, 8), dtype=bool)
        box[2:5, 2:5] = True
        pred = box.astype(float)             # matches the box, not the mask
        assert ciou([_sample(pred, gt, box=box)]) == 1.0
        assert ciou([_sample(pred, gt)]) < 1.0

    def test_threshold_boundary(self):
        # A box IoU of exactly 0.5 counts; 16/33, just below it, does not.
        gt = np.zeros((8, 8), dtype=bool)
        gt[0:4, :] = True                    # 32 pixels
        half = np.zeros((8, 8))
        half[0:2, :] = 1.0                   # IoU 16/32
        below = half.copy()
        below[7, 7] = 1.0                    # IoU 16/33
        assert iou(binarize_half_max(half), gt) == 0.5
        assert iou(binarize_half_max(below), gt) == 16 / 33
        assert ciou([_sample(half, gt)]) == 1.0
        assert ciou([_sample(below, gt)]) == 0.0
        rep = compute_report([_sample(half, gt), _sample(below, gt)])
        assert (rep.ciou, rep.loc_acc) == (0.5, 0.5)

    def test_empty_list_rejected(self):
        with pytest.raises(ContractViolation):
            ciou([])

    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    def test_rescaled_predictions_identical(self, k):
        rng = np.random.default_rng(3)
        gt = rng.random((8, 8)) > 0.6
        pred = rng.uniform(size=(8, 8))
        a = [_sample(pred, gt)]
        b = [_sample(k * pred, gt)]
        assert ciou(a) == ciou(b)
        assert compute_report(a).auc == compute_report(b).auc


class TestAuc:
    def test_extremes(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:6, 2:6] = True
        assert compute_report([_sample(gt.astype(float), gt)]).auc == 1.0
        pred = np.zeros((8, 8))
        pred[0, 0] = 1.0
        empty_gt = np.zeros((8, 8), dtype=bool)
        empty_gt[7, 7] = True
        assert compute_report([_sample(pred, empty_gt)]).auc == 0.0

    def test_single_sample_iou_052(self):
        # IoU = 13/25 = 0.52 clears thresholds 0.05..0.50: 10 of 20.
        gt = np.zeros((8, 8), dtype=bool)
        gt.flat[:19] = True
        pred = np.zeros((8, 8))
        pred.flat[6:25] = 1.0                # 19 pixels, 13 shared
        s = _sample(pred, gt)
        assert iou(binarize_half_max(s.pred_mask), s.gt_mask) == 13 / 25
        assert compute_report([s]).auc == 0.5


class TestMiouFscore:
    def test_perfect(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[1:5, 1:5] = True
        m, f = miou_fscore([_sample(gt.astype(float), gt)])
        assert (m, f) == (1.0, 1.0)

    def test_empty_predictions(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[1:5, 1:5] = True
        m, f = miou_fscore([_sample(np.zeros((8, 8)), gt)])
        assert (m, f) == (0.0, 0.0)

    def test_precision_half_recall_one(self):
        # tp=4, fp=4, fn=0: P=0.5, R=1 -> F = 1.3*0.5/(0.3*0.5+1.0).
        gt = np.zeros((4, 4), dtype=bool)
        gt[0, :] = True
        pred = np.zeros((4, 4))
        pred[0:2, :] = 1.0
        _, f = miou_fscore([_sample(pred, gt)])
        expected = 1.3 * 0.5 * 1.0 / (0.3 * 0.5 + 1.0)
        assert abs(f - expected) < 1e-12
        assert round(f, 4) == 0.5652

    def test_absolute_threshold_not_half_max(self):
        # Peak 0.4: half-max binarization would keep pixels, the absolute
        # 0.5 rule keeps none.
        gt = np.zeros((4, 4), dtype=bool)
        gt[0, 0] = True
        pred = np.full((4, 4), 0.4)
        m, f = miou_fscore([_sample(pred, gt)])
        assert (m, f) == (0.0, 0.0)


class TestDetection:
    def _mixed(self, n_pos, n_neg, conf_pos, conf_neg):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:6, 2:6] = True
        out = []
        for c in conf_pos[:n_pos]:
            out.append(_sample(c * gt.astype(float), gt, flags=POS))
        for c in conf_neg[:n_neg]:
            pred = np.zeros((8, 8))
            pred[0, 0] = c
            out.append(_sample(pred, np.zeros((8, 8), dtype=bool),
                               flags=NEG_SILENT))
        return out

    def test_perfect_separation(self):
        samples = self._mixed(3, 3, [1.0, 0.9, 0.8], [0.3, 0.2, 0.1])
        ap, mf1, loc = _detection_of(samples)
        assert ap == 1.0
        assert mf1 == 1.0
        assert loc == 1.0

    def test_random_scores_ap_near_prevalence(self):
        rng = np.random.default_rng(4)
        gt = np.zeros((2, 2), dtype=bool)
        gt[0, 0] = True
        samples = []
        for i in range(1000):
            conf = rng.uniform(0.01, 1.0)
            pred = np.full((2, 2), conf)
            flags = POS if i % 2 == 0 else NEG_MIS
            samples.append(_sample(pred, gt, flags=flags))
        ap = average_precision(samples)
        assert abs(ap - 0.5) < 0.05

    def test_loc_acc_is_positive_subset_ciou(self):
        samples = self._mixed(4, 2, [1.0, 0.9, 0.8, 0.7], [0.6, 0.5])
        _, _, loc = _detection_of(samples)
        positives = [s for s in samples if s.flags.positive]
        assert loc == ciou(positives)

    def test_no_positives_gives_sentinels(self):
        samples = self._mixed(0, 3, [], [0.5, 0.4, 0.3])
        assert _detection_of(samples) == (None, None, None)
        assert average_precision(samples) is None
        assert max_f1(samples) is None

    def test_tied_confidences_match_oracle(self):
        gt = np.zeros((4, 4), dtype=bool)
        gt[1:3, 1:3] = True
        samples = []
        for i, (conf, flags) in enumerate([(0.9, POS), (0.9, NEG_MIS),
                                           (0.9, POS), (0.5, NEG_SILENT),
                                           (0.5, POS), (0.2, NEG_MIS)]):
            samples.append(_sample(conf * gt.astype(float), gt, flags=flags))
        assert average_precision(samples) == ap_loops(samples)
        assert max_f1(samples) == max_f1_loops(samples)


def _random_case(rng):
    """One adversarial batch: zero masks, empty gts, ties, missing boxes."""
    n = int(rng.integers(2, 10))
    samples = []
    for _ in range(n):
        style = rng.integers(0, 4)
        if style == 0:
            pred = np.zeros((8, 8))
        elif style == 1:
            pred = (rng.random((8, 8)) > 0.5).astype(np.float64)
        else:
            pred = rng.uniform(size=(8, 8))
        if style == 3:
            pred[pred > 0.9] = 0.9            # manufacture confidence ties
        gt = rng.random((8, 8)) > float(rng.uniform(0.3, 0.9))
        box = None
        if rng.random() < 0.4:
            box = np.zeros((8, 8), dtype=bool)
            r0, c0 = rng.integers(0, 5, size=2)
            box[r0:r0 + 4, c0:c0 + 4] = True
        flag = [POS, NEG_SILENT, NEG_MIS][int(rng.integers(0, 3))]
        samples.append(_sample(pred, gt, flags=flag, box=box))
    return samples


class TestOracleEquivalence:
    def test_two_hundred_random_cases_exact(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(200):
            samples = _random_case(rng)
            report = compute_report(samples)
            assert report.ciou == ciou_loops(samples)
            assert report.auc == auc_loops(samples)
            assert report.miou == miou_loops(samples)
            assert report.fscore == fscore_loops(samples)
            assert report.ap == ap_loops(samples)
            assert report.max_f1 == max_f1_loops(samples)
            assert report.loc_acc == loc_acc_loops(samples)
        assert time.perf_counter() - start < 30.0

    def test_order_invariance_with_distinct_confidences(self):
        rng = np.random.default_rng(5)
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:6, 1:7] = True
        samples = []
        for i in range(12):
            pred = rng.uniform(0, 0.5, size=(8, 8))
            pred[4, 4] = 0.5 + i * 0.03       # unique maxima
            flags = POS if i % 3 else NEG_MIS
            samples.append(_sample(pred, gt, flags=flags))
        base = compute_report(samples)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(samples))
            rep = compute_report([samples[i] for i in perm])
            assert rep.ciou == base.ciou
            assert rep.auc == base.auc
            assert abs(rep.miou - base.miou) < 1e-12
            assert rep.fscore == base.fscore
            assert rep.ap == base.ap
            assert rep.max_f1 == base.max_f1
            assert rep.loc_acc == base.loc_acc

    def test_report_metadata_records_protocol(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[0, 0] = True
        samples = [_sample(gt.astype(float), gt)]
        rep = compute_report(samples)
        expected = {"ciou_threshold": 0.5, "binarize": "half_max",
                    "abs_threshold": 0.5, "beta2": 0.3, "confidence": "max"}
        assert rep.metadata == expected
        assert list(rep.metadata) == list(expected)   # report files keep key order
        assert len(rep.per_sample_iou) == 1
        rep.metadata["beta2"] = 1.0                   # each report owns its dict
        assert compute_report(samples).metadata == expected


@st.composite
def _sample_lists(draw):
    """Sample lists with all-zero masks, ties, empty truths, missing boxes
    and, when ``positives`` is drawn false, no positive sample at all."""
    side = draw(st.integers(1, 6))
    positives = draw(st.booleans())
    levels = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    samples = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            pred = np.zeros((side, side))
        else:
            pred = draw(arrays(np.float64, (side, side), elements=levels))
        gt = draw(arrays(np.bool_, (side, side)))
        box = draw(st.none() | arrays(np.bool_, (side, side)))
        flags = draw(st.sampled_from([POS, NEG_SILENT, NEG_MIS] if positives
                                     else [NEG_SILENT, NEG_MIS]))
        samples.append(_sample(pred, gt, flags=flags, box=box))
    return samples


class TestReportMatchesOracles:
    @settings(max_examples=200, deadline=None)
    @given(samples=_sample_lists())
    def test_fields_equal_oracle_loops(self, samples):
        rep = compute_report(samples)
        assert rep.ciou == ciou_loops(samples)
        assert rep.auc == auc_loops(samples)
        assert rep.miou == miou_loops(samples)
        assert rep.fscore == fscore_loops(samples)
        assert rep.ap == ap_loops(samples)
        assert rep.max_f1 == max_f1_loops(samples)
        assert rep.loc_acc == loc_acc_loops(samples)
        assert rep.per_sample_iou == [_box_iou_of(s) for s in samples]
        # The functions callers use on their own read the same numbers.
        assert ciou(samples) == rep.ciou
        assert miou_fscore(samples) == (rep.miou, rep.fscore)
        assert (average_precision(samples), max_f1(samples)) == (rep.ap, rep.max_f1)
        if not any(s.flags.positive for s in samples):
            assert (rep.ap, rep.max_f1, rep.loc_acc) == (None, None, None)
