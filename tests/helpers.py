"""Builders and reference implementations that only the tests need."""
import numpy as np

from treextract import Dataset, DecisionTree
from treextract.core import leaf_row
from treextract.extract import SplitCandidate, gini_term


def dataset(features, labels=None, m=None) -> Dataset:
    """Dataset with columns x0..x{d-1}; a 1-d features array is one column,
    and m defaults to the largest label + 1 (0 without labels)."""
    X = np.asarray(features, dtype=np.float64)
    X = X.reshape(X.shape[0], -1)
    if labels is not None and m is None:
        m = int(np.max(labels)) + 1
    return Dataset(X, labels, tuple(f"x{i}" for i in range(X.shape[1])), int(m or 0))


def leaf_tree(label: int, d: int, m: int) -> DecisionTree:
    """Single-leaf tree predicting a constant label."""
    return DecisionTree.from_rows([leaf_row(label, np.eye(m)[label])], d, m)


def reference_best_split(X, y, m, mass, min_gain=0.0):
    """Per-dimension scan: a stable sort and a one-hot cumsum per column.

    Field-for-field reference for best_split_from_samples, which scores all
    dimensions in one pass.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    if n < 2:
        return None
    total = np.bincount(y, minlength=m).astype(np.float64)
    h_parent = gini_term(total / n, mass)
    best = None  # (gain, dim, threshold, pos, order)
    for dim in range(X.shape[1]):
        order = np.argsort(X[:, dim], kind="stable")
        sv = X[order, dim]
        positions = np.flatnonzero(sv[:-1] < sv[1:])
        if positions.size == 0:
            continue
        thresholds = 0.5 * (sv[positions] + sv[positions + 1])
        onehot = np.zeros((n, m))
        onehot[np.arange(n), y[order]] = 1.0
        lc = np.cumsum(onehot, axis=0)[positions]
        rc = total[None, :] - lc
        nl = (positions + 1).astype(np.float64)
        nr = n - nl
        h_left = (1.0 - np.sum((lc / nl[:, None]) ** 2, axis=1)) * (mass * nl / n)
        h_right = (1.0 - np.sum((rc / nr[:, None]) ** 2, axis=1)) * (mass * nr / n)
        gains = np.maximum(h_parent - h_left - h_right, 0.0)
        j = int(np.argmax(gains))
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), dim, float(thresholds[j]), int(positions[j]), order)
    if best is None or best[0] <= min_gain:
        return None
    gain, dim, threshold, pos, order = best
    left, right = y[order[: pos + 1]], y[order[pos + 1:]]
    lcount, rcount = np.bincount(left, minlength=m), np.bincount(right, minlength=m)
    return SplitCandidate(dim, threshold, gain, int(np.argmax(lcount)),
                          int(np.argmax(rcount)), lcount / left.size,
                          rcount / right.size)


def split_fields(cand):
    """Bitwise-comparable fields of a SplitCandidate."""
    if cand is None:
        return None
    return (cand.dim, repr(cand.threshold), repr(cand.gain), cand.left_label,
            cand.right_label, cand.left_hist.tobytes(), cand.right_hist.tobytes())
