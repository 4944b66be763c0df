import numpy as np
import pytest

from abusenet.metrics import UndefinedMetricError, confusion_matrix, prf1, roc_auc, roc_auc_binary


def auc_pair_oracle(scores, labels):
    # O(n^2) pair counting with ties worth 1/2
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc_binary([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pair_oracle_exactly(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(4, 40))
            # coarse grid of scores forces plenty of ties
            scores = rng.integers(0, 6, size=n) / 5.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(roc_auc_binary(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12

    def test_eight_sample_case(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=8)
        labels = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        assert abs(roc_auc_binary(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12

    def test_matches_tie_block_loop_bitwise(self):
        # reference: mid-ranks from a sequential walk over the tie blocks
        def loop_auc(scores, labels):
            order = np.argsort(scores, kind="mergesort")
            ranked = scores[order]
            ranks = np.empty(scores.size)
            i = 0
            while i < scores.size:
                j = i
                while j + 1 < scores.size and ranked[j + 1] == ranked[i]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            n_pos = int((labels == 1).sum())
            n_neg = labels.size - n_pos
            return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

        rng = np.random.default_rng(23)
        for trial in range(200):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, int(rng.integers(1, 12)), size=n) / 7.0
            if trial % 5 == 0:
                scores[rng.integers(0, n, size=2)] = [np.inf, -np.inf]
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            assert roc_auc_binary(scores, labels) == loop_auc(scores, labels)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_auc_binary([0.2, np.nan, 0.7], [0, 1, 1])
        with pytest.raises(ValueError, match="NaN"):
            roc_auc(np.array([[0.5, 0.5], [np.nan, np.nan], [0.1, 0.9]]), [0, 1, 1])

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc_binary([0.1, 0.2], [1, 1])

    def test_macro_one_vs_rest(self):
        scores = np.array([
            [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.2, 0.6],
            [0.5, 0.3, 0.2],
            [0.1, 0.6, 0.3],
            [0.3, 0.1, 0.6],
        ])
        labels = np.array([0, 1, 2, 0, 1, 2])
        expected = np.mean([
            auc_pair_oracle(scores[:, k], (labels == k).astype(int)) for k in range(3)
        ])
        assert abs(roc_auc(scores, labels) - expected) < 1e-12


class TestPrf1:
    def test_perfect_predictions(self):
        out = prf1([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert out["precision"] == out["recall"] == out["f1"] == out["accuracy"] == 1.0

    def test_hand_computed_confusion(self):
        # confusion [[2,1],[0,3]]: two class-0 right, one class-0 called 1, all class-1 right
        labels = np.array([0, 0, 0, 1, 1, 1])
        preds = np.array([0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(confusion_matrix(preds, labels, 2), [[2, 1], [0, 3]])
        out = prf1(preds, labels, 2)
        # class 0: P=2/2, R=2/3, F1=0.8 ; class 1: P=3/4, R=1, F1=6/7 ; supports 3,3
        assert abs(out["precision"] - (1.0 * 3 + 0.75 * 3) / 6) < 1e-12
        assert abs(out["recall"] - (2 / 3 * 3 + 1.0 * 3) / 6) < 1e-12
        assert abs(out["f1"] - (0.8 * 3 + 6 / 7 * 3) / 6) < 1e-12
        assert abs(out["accuracy"] - 5 / 6) < 1e-12

    def test_weighted_recall_equals_accuracy_identically(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
            out = prf1(preds, labels, c)
            assert out["recall"] == out["accuracy"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prf1([], [], 2)
