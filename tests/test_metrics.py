import numpy as np
import pytest

from multivqc.errors import DataError
from multivqc.metrics import (
    ConfusionCounts,
    Metrics,
    compute_metrics,
    confusion,
    evaluate,
)


class TestConfusion:
    def test_mixed_example(self):
        counts = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.total == 4

    def test_all_correct_has_no_errors(self):
        counts = confusion([1, 0, 1], [1, 0, 1])
        assert counts.fp == 0 and counts.fn == 0
        assert counts.tp == 2 and counts.tn == 1

    def test_positive_class_zero_swaps_counts(self):
        preds = [1, 1, 0, 0, 1]
        labels = [1, 0, 0, 1, 1]
        as_one = confusion(preds, labels, positive_class=1)
        as_zero = confusion(preds, labels, positive_class=0)
        assert (as_zero.tp, as_zero.tn) == (as_one.tn, as_one.tp)
        assert (as_zero.fp, as_zero.fn) == (as_one.fn, as_one.fp)

    def test_counts_partition_total(self):
        rng = np.random.default_rng(70)
        preds = rng.integers(0, 2, 50)
        labels = rng.integers(0, 2, 50)
        counts = confusion(preds, labels)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 50

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion([], [])


class TestComputeMetrics:
    def test_low_precision_high_recall_combination(self):
        # P = 0.33, R = 0.84 combine to F1 = 2PR/(P+R) ~ 0.474.
        counts = ConfusionCounts(tp=33, fp=67, fn=int(33 / 0.84) - 33 + 1, tn=0)
        precision = 33 / 100
        recall = 33 / (33 + counts.fn)
        metrics = compute_metrics(counts)
        assert metrics.precision == pytest.approx(precision, abs=1e-12)
        assert metrics.recall == pytest.approx(recall, abs=1e-12)
        expected_f1 = 2 * precision * recall / (precision + recall)
        assert metrics.f1 == pytest.approx(expected_f1, abs=1e-12)

    def test_harmonic_mean_of_skewed_pair(self):
        p, r = 0.33, 0.84
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.474, abs=5e-4)

    def test_zero_over_zero_returns_zero_with_flag(self):
        metrics = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=5, tn=3))
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0

    def test_no_predictions_no_positives_all_zero(self):
        metrics = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=4))
        assert metrics.f1 == 0.0

    def test_equal_precision_recall_equals_f1(self):
        counts = ConfusionCounts(tp=6, fp=2, fn=2, tn=5)
        metrics = compute_metrics(counts)
        assert metrics.precision == metrics.recall == pytest.approx(0.75)
        assert metrics.f1 == pytest.approx(0.75, abs=1e-12)

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            tp = int(rng.integers(0, 20))
            fp = int(rng.integers(0, 20))
            fn = int(rng.integers(0, 20))
            counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=0)
            m = compute_metrics(counts)
            assert 0.0 <= m.f1 <= 1.0
            if m.precision + m.recall > 0:
                identity = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(m.f1 - identity) < 1e-12
            assert m.f1 <= max(m.precision, m.recall) + 1e-12
            assert m.f1 <= min(2 * min(m.precision, m.recall), 1.0) + 1e-12

    def test_f1_monotone_in_tp(self):
        previous = -1.0
        for tp in range(0, 15):
            m = compute_metrics(ConfusionCounts(tp=tp, fp=4, fn=6, tn=0))
            assert m.f1 >= previous
            previous = m.f1


class TestEvaluate:
    def test_matches_manual_pipeline(self):
        preds = np.array([1, 0, 1, 1, 0])
        labels = np.array([1, 0, 0, 1, 1])
        metrics = evaluate(preds, labels)
        manual = compute_metrics(confusion(preds, labels))
        assert metrics == manual

    def test_permutation_invariance(self):
        rng = np.random.default_rng(72)
        preds = rng.integers(0, 2, 30)
        labels = rng.integers(0, 2, 30)
        perm = rng.permutation(30)
        assert evaluate(preds, labels) == evaluate(preds[perm], labels[perm])

    def test_perfect_predictions(self):
        labels = np.array([0, 1, 1, 0])
        metrics = evaluate(labels, labels)
        assert metrics.precision == metrics.recall == metrics.f1 == 1.0
