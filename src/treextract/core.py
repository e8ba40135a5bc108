"""Shared data model: datasets, axis-aligned boxes, and decision trees.

All types here are immutable after construction and safe to share across
threads for read-only use. Feature arrays are marked non-writeable.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError


def is_count(value, low: int = 1) -> bool:
    """Every count setting's rule: an integer >= low, Python's or numpy's, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and bool(value >= low)


def _check_seed(seed) -> None:
    """Every seed setting's rule: an integer >= 0, as numpy's generators take it."""
    if not is_count(seed, 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def class_labels(values, m: int) -> Optional[np.ndarray]:
    """Every class label's rule: values as int64 labels, or None unless each is in range(m)."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN or inf fails the check below
        y = raw.astype(np.int64)
    return None if np.any((y != raw) | (y < 0) | (y >= m)) else y


# X as float64 (n, d) points; any other shape is an InputError.
def _points(X, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise InputError(f"expected points of dimension {d}, got shape {X.shape}")
    return X


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional integer class labels.

    features has shape (n, d); labels, when present, has shape (n,) with
    values in {0, ..., m-1}. Column names default to x0..x{d-1}.
    """

    features: np.ndarray
    labels: Optional[np.ndarray]
    column_names: tuple[str, ...]
    m: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise InputError(f"features must be a (n>=1, d>=1) matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise InputError("features contain NaN or Inf")
        object.__setattr__(self, "features", _frozen_array(X))
        if self.labels is not None:
            y = class_labels(self.labels, self.m) if is_count(self.m) else None
            if np.shape(self.labels) != (X.shape[0],):
                raise InputError(f"labels shape {np.shape(self.labels)} does not match n={X.shape[0]}")
            if y is None:
                raise InputError(f"labels must lie in [0, {self.m})")
            object.__setattr__(self, "labels", _frozen_array(y, np.int64))
        if len(self.column_names) != X.shape[1]:
            raise InputError("column_names length does not match d")
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class BoxConstraint:
    """Per-dimension interval (lower_i, upper_i], the region a conjunction
    of axis-aligned threshold tests selects.

    lower entries may be -inf and upper entries +inf. The box is satisfiable
    iff lower_i < upper_i for every i; a degenerate interval (t, t] is empty.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(self.lower)
        hi = _frozen_array(self.upper)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("lower and upper must be 1-d arrays of equal length")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        above, below = np.flatnonzero(lo != -np.inf), np.flatnonzero(hi != np.inf)
        object.__setattr__(self, "_bounded", (above, lo[above, None], below, hi[below, None]))

    @classmethod
    def unbounded(cls, d: int) -> "BoxConstraint":
        return cls(np.full(d, -np.inf), np.full(d, np.inf))

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def is_satisfiable(self) -> bool:
        return bool(np.all(self.lower < self.upper))

    def contains_batch(self, X) -> np.ndarray:
        """np.all((X > lower) & (X <= upper), axis=1) for (n, d) points X."""
        # A reduction over a short row axis costs more than the comparisons,
        # so only the bounds other than a -inf lower or +inf upper one are
        # compared, on the columns of X, and reduced across the bounds. That
        # needs X free of NaN and -inf, which fail those skipped bounds.
        X = _points(X, self.d)
        if X.size == 0 or not X.min() > -np.inf:
            return np.all((X > self.lower) & (X <= self.upper), axis=1)
        above, lo, below, hi = self._bounded
        inside = np.logical_and.reduce(X.T[above] > lo, axis=0)
        inside &= np.logical_and.reduce(X.T[below] <= hi, axis=0)
        return inside

    def intersect(self, other: "BoxConstraint") -> Optional["BoxConstraint"]:
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        if np.any(lo >= hi):
            return None
        return BoxConstraint(lo, hi)

    def split(self, dim: int, threshold: float) -> tuple:
        """(left, right): the parts of the box with x_dim <= threshold and
        x_dim > threshold. A part whose interval along dim is empty is None;
        a threshold outside the interval leaves the other part unchanged.
        Raises InputError for a dim outside [0, d) or a NaN threshold.
        """
        if not 0 <= dim < self.d or np.isnan(threshold):
            raise InputError(f"cannot split d={self.d} box at dim {dim}, threshold {threshold}")
        upper, lower = self.upper.copy(), self.lower.copy()
        upper[dim] = min(upper[dim], threshold)
        lower[dim] = max(lower[dim], threshold)
        return (BoxConstraint(self.lower, upper) if self.lower[dim] < upper[dim] else None,
                BoxConstraint(lower, self.upper) if lower[dim] < self.upper[dim] else None)


def leaf_row(label: int, histogram, mass: float = 1.0, cached_gain: float = 0.0) -> tuple:
    """One leaf's entries, in DecisionTree field order."""
    return -1, 0.0, -1, -1, label, histogram, mass, cached_gain


def split_row(dim: int, threshold: float, left: int, right: int, m: int) -> tuple:
    """One internal node's entries, in DecisionTree field order: x goes left
    when x_dim <= threshold, and the leaf statistics are 0."""
    return dim, threshold, left, right, 0, np.zeros(m), 0.0, 0.0


_NODE_DTYPES = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                "right": np.int64, "label": np.int64, "histogram": np.float64,
                "mass": np.float64, "cached_gain": np.float64}


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Binary tree of axis-aligned splits as parallel node arrays.

    Node 0 is the root and every child id exceeds its parent's. An internal
    node i routes x to left[i] when x[feature[i]] <= threshold[i], else to
    right[i]; at a leaf, feature, left and right are -1 and threshold is 0.
    label, histogram (n, m), mass and cached_gain are the leaves' label,
    estimated class probabilities, probability of being reached and last
    best-split gain (its frontier priority); they are 0 at internal nodes.
    budget, when set, records the blackbox evaluations spent on the tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    histogram: np.ndarray
    mass: np.ndarray
    cached_gain: np.ndarray
    d: int
    m: int
    budget: Optional[int] = None

    def __post_init__(self):
        if class_labels(self.label, self.m) is None:  # before the cast below would truncate 0.7
            raise InputError(f"leaf label out of range for m={self.m}")
        for name, dtype in _NODE_DTYPES.items():
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        self.validate()
        object.__setattr__(self, "_table", _routing_table((self,)))

    @classmethod
    def from_rows(cls, rows, d: int, m: int, budget: Optional[int] = None) -> "DecisionTree":
        """Tree from one leaf_row or split_row per node, in id order."""
        return cls(*(list(col) for col in zip(*rows)), d, m, budget)

    @property
    def size(self) -> int:
        return self.feature.shape[0]

    def validate(self) -> None:
        n, leaf = self.size, self.feature < 0
        if {getattr(self, k).shape for k in _NODE_DTYPES if k != "histogram"} != {(n,)} \
                or n < 1 or self.histogram.shape != (n, self.m):
            raise InputError("node arrays must share one length n >= 1, histogram (n, m)")
        if np.any((self.feature < -1) | (self.feature >= self.d)):
            raise InputError("split dim out of range")
        splits = np.flatnonzero(~leaf)
        kids = np.concatenate([self.left[splits], self.right[splits]])
        if not np.array_equal(np.sort(kids), np.arange(1, n)):
            raise InputError("tree has a shared or unreachable node")
        if np.any(kids <= np.tile(splits, 2)):
            raise InputError("child ids must exceed their parent's")
        if np.any(self.left[leaf] != -1) or np.any(self.right[leaf] != -1) \
                or np.any(self.threshold[leaf]) or np.any(self.label[~leaf]) \
                or np.any(self.histogram[~leaf]) or np.any(self.mass[~leaf]) \
                or np.any(self.cached_gain[~leaf]):
            raise InputError("leaves need left/right -1 and threshold 0; "
                             "internal nodes need zero leaf statistics")
        live = self.histogram[leaf & (self.mass > 0)]
        if np.any(np.abs(live.sum(axis=1) - 1.0) > 1e-9):
            raise InputError("class histogram must sum to 1 when mass > 0")
        if np.any(self.cached_gain < 0):
            raise InputError("cached_gain must be nonnegative")
        self._path_bounds()  # raises when a root-leaf path is unsatisfiable

    def predict_batch(self, X) -> np.ndarray:
        """Vectorized prediction for an (n, d) matrix of finite points."""
        return self.label[self.apply(X)]

    def apply(self, X) -> np.ndarray:
        """Id of the leaf each row of an (n, d) matrix of finite points reaches."""
        return _route(self._table, X, self.d)[0]

    def _path_bounds(self):
        """(n, d) lower and upper bounds of every node's path box."""
        lower = np.full((self.size, self.d), -np.inf)
        upper = np.full((self.size, self.d), np.inf)
        for i in np.flatnonzero(self.feature >= 0).tolist():  # parents before children
            f, t, left, right = self.feature[i], self.threshold[i], self.left[i], self.right[i]
            if not lower[i, f] < t < upper[i, f]:
                raise InputError(f"path through node {i} is unsatisfiable")
            lower[left] = lower[right] = lower[i]
            upper[left] = upper[right] = upper[i]
            upper[left, f] = lower[right, f] = t
        return lower, upper


def _routing_table(trees) -> tuple:
    """One routing arena for trees stacked end to end, node ids shifted by
    each tree's offset.

    Returns the stacked feature and threshold columns, the child table, the
    largest depth and each tree's root id. The child table holds [left,
    right] of node i at 2i and 2i + 1, and a leaf's two entries point back
    at the leaf, so a row that reaches a leaf stays there.
    """
    roots = np.cumsum([0] + [t.size for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    ids = np.arange(feature.shape[0])
    splits = np.flatnonzero(feature >= 0)
    children = np.repeat(ids, 2)
    for side, col in ((0, "left"), (1, "right")):
        stacked = np.concatenate([getattr(t, col) + r for t, r in zip(trees, roots)])
        children[2 * splits + side] = stacked[splits]
    parent = ids.copy()
    parent[children[2 * splits]] = parent[children[2 * splits + 1]] = splits
    depth, up = 0, ids
    while np.any(parent[up] != up):
        depth, up = depth + 1, parent[up]
    return feature, np.concatenate([t.threshold for t in trees]), children, depth, roots


def _route(table, X, d: int) -> np.ndarray:
    """(trees, n) stacked leaf ids the rows of an (n, d) matrix of finite
    points reach from every root of a routing table: depth level-synchronous
    steps, each to child 2 * node + (x > t)."""
    X = _points(X, d)
    if not np.all(np.isfinite(X)):
        raise InputError("points contain NaN or Inf")
    feature, threshold, children, depth, roots = table
    flat = np.ascontiguousarray(X).ravel()
    base = np.arange(X.shape[0]) * X.shape[1]
    node = np.repeat(roots[:, None], X.shape[0], axis=1)
    # At a leaf, feature -1 reads the element before the row (the last one,
    # for row 0); both outcomes of the comparison lead back to the leaf.
    for _ in range(depth):
        node = children.take(2 * node + (flat.take(base + feature.take(node))
                                         > threshold.take(node)))
    return node
