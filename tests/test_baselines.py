"""Mock-prediction baselines and their accuracy guarantees."""

import numpy as np
import pytest

from trendlag.baselines import (
    accuracy,
    bestof_accuracy,
    class_baseline,
    randomized_baseline,
)


class TestAccuracy:
    def test_counting(self):
        assert accuracy([1, 1, 0], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_perfect_and_disjoint(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        pred = rng.integers(0, 2, 50)
        truth = rng.integers(0, 2, 50)
        perm = rng.permutation(50)
        assert accuracy(pred, truth) == accuracy(pred[perm], truth[perm])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            accuracy([1, 0], [1])


class TestRandomizedBaseline:
    def test_constant_predictions_unchanged(self):
        pred, truth = np.array([0, 0, 0, 0]), np.array([0, 1, 0, 1])
        shuffled = randomized_baseline(pred, seed=5)
        np.testing.assert_array_equal(shuffled, pred)
        assert accuracy(shuffled, truth) == accuracy(pred, truth)

    def test_single_prediction_identity(self):
        np.testing.assert_array_equal(randomized_baseline(np.array([1]), seed=1), [1])

    def test_multiset_preserved(self):
        rng = np.random.default_rng(32)
        pred = rng.integers(0, 2, 200)
        shuffled = randomized_baseline(pred, seed=7)
        assert shuffled.sum() == pred.sum()

    def test_expected_accuracy_matches_mixture_formula(self):
        # E[acc] = p*q + (1-p)(1-q) with p = up-share of predictions,
        # q = up-share of the truth; checked by Monte Carlo over shuffles
        rng = np.random.default_rng(33)
        pred = (rng.random(300) < 0.7).astype(int)
        truth = (rng.random(300) < 0.4).astype(int)
        p, q = pred.mean(), truth.mean()
        expected = p * q + (1 - p) * (1 - q)
        draws = [accuracy(randomized_baseline(pred, seed=s), truth) for s in range(10_000)]
        assert np.mean(draws) == pytest.approx(expected, abs=0.01)

    def test_deterministic_under_seed(self):
        pred = np.arange(10) % 2
        np.testing.assert_array_equal(
            randomized_baseline(pred, seed=11), randomized_baseline(pred, seed=11)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            randomized_baseline(np.array([], dtype=int), seed=1)


class TestClassBaseline:
    def test_down_accuracy_counts_matches(self):
        truth = np.array([0, 0, 1])
        constant = class_baseline(truth, 1)
        assert accuracy(constant, truth) == pytest.approx(2 / 3)
        np.testing.assert_array_equal(constant, [0, 0, 0])

    def test_complementarity(self):
        rng = np.random.default_rng(34)
        truth = rng.integers(0, 2, 77)
        acc1 = accuracy(class_baseline(truth, 1), truth)
        acc2 = accuracy(class_baseline(truth, 2), truth)
        assert acc1 + acc2 == pytest.approx(1.0)

    def test_crisis_like_split(self):
        # 55.95% down-changes: always-up scores 0.4405, always-down 0.5595
        truth = np.array([0] * 5595 + [1] * 4405)
        assert accuracy(class_baseline(truth, 2), truth) == pytest.approx(0.4405)
        assert accuracy(class_baseline(truth, 1), truth) == pytest.approx(0.5595)

    def test_invalid_class_index(self):
        with pytest.raises(ValueError, match="1 or 2"):
            class_baseline(np.array([0, 1]), 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            class_baseline(np.array([], dtype=int), 1)


class TestBestOf:
    def test_takes_the_maximum(self):
        truth = np.array([0, 1, 0, 1, 0, 0, 1, 0, 1, 0] * 10)
        rand = np.array([1, 0] * 50)
        c1 = class_baseline(truth, 1)
        c2 = class_baseline(truth, 2)
        best = bestof_accuracy(truth, rand, c1, c2)
        assert best == max(accuracy(rand, truth), accuracy(c1, truth), accuracy(c2, truth))

    def test_always_at_least_half(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            truth = rng.integers(0, 2, int(rng.integers(1, 60)))
            pred = rng.integers(0, 2, truth.size)
            rand = randomized_baseline(pred, seed=int(rng.integers(1e6)))
            best = bestof_accuracy(truth, rand, class_baseline(truth, 1), class_baseline(truth, 2))
            assert best >= 0.5

    def test_length_mismatch_rejected(self):
        truth = np.array([0, 1, 0])
        with pytest.raises(ValueError, match="length"):
            bestof_accuracy(
                truth, np.array([0, 1]), class_baseline(truth, 1), class_baseline(truth, 2)
            )
