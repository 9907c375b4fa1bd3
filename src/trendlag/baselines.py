"""Mock-prediction baselines on integer label arrays (``features.DOWN``/``UP``).

The model's per-stock predictions have to clear four bars: its own
predictions in shuffled order (tests whether only the label distribution
was learned), the always-down and always-up constant predictors (tests
majority-class learning), and the per-stock maximum of the three, which is
at least 50% by construction since the constant predictors complement each
other.  ``SERIES`` names the model's accuracy, then these four, in report order.
"""

from __future__ import annotations

import numpy as np

from .features import DOWN, UP

SERIES = ("model", "randomized", "class1", "class2", "bestof")


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of predicted labels matching the true ones."""
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and true label sequences differ in length")
    if predicted.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float(np.mean(predicted == truth))


def randomized_baseline(predicted: np.ndarray, seed: int) -> np.ndarray:
    """The predicted labels in uniformly shuffled order.

    The multiset of labels is preserved exactly; only their alignment with
    the truth is destroyed.
    """
    predicted = np.asarray(predicted)
    if predicted.size == 0:
        raise ValueError("cannot shuffle an empty prediction set")
    return predicted[np.random.default_rng(seed).permutation(predicted.size)]


def class_baseline(truth: np.ndarray, class_index: int) -> np.ndarray:
    """Constant predictor: class 1 = always down-change, class 2 = always up."""
    truth = np.asarray(truth)
    if truth.size == 0:
        raise ValueError("cannot build a class baseline on empty labels")
    if class_index not in (1, 2):
        raise ValueError(f"class_index must be 1 or 2, got {class_index}")
    return np.full(truth.shape, (DOWN, UP)[class_index - 1], dtype=np.int64)


def bestof_accuracy(
    truth: np.ndarray, randomized: np.ndarray, class1: np.ndarray, class2: np.ndarray
) -> float:
    """Per-stock best-of baseline: max accuracy of the three mock predictors.

    Guaranteed >= 0.5 because the two constant predictors have
    complementary accuracies.
    """
    return max(accuracy(p, truth) for p in (randomized, class1, class2))
