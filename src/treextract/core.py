"""Shared data model: datasets, axis-aligned constraints, and decision trees.

All types here are immutable after construction and safe to share across
threads for read-only use. Feature arrays are marked non-writeable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import InputError

LE = "le"  # x_dim <= threshold
GT = "gt"  # x_dim >  threshold


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
        X = X.copy()
        X.setflags(write=False)
        object.__setattr__(self, "features", X)
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=np.int64)
            if y.shape != (X.shape[0],):
                raise InputError(f"labels shape {y.shape} does not match n={X.shape[0]}")
            if self.m < 1 or y.min() < 0 or y.max() >= self.m:
                raise InputError(f"labels must lie in [0, {self.m})")
            y = y.copy()
            y.setflags(write=False)
            object.__setattr__(self, "labels", y)
        if len(self.column_names) != X.shape[1]:
            raise InputError("column_names length does not match d")
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @classmethod
    def from_arrays(cls, features, labels=None, column_names=None, m=None) -> "Dataset":
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if column_names is None:
            column_names = tuple(f"x{i}" for i in range(X.shape[1]))
        if labels is not None and m is None:
            m = int(np.max(labels)) + 1
        return cls(X, labels if labels is None else np.asarray(labels), tuple(column_names), int(m or 0))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class AxisConstraint:
    """Single-feature threshold predicate: x_dim <= t (LE) or x_dim > t (GT)."""

    dim: int
    threshold: float
    sense: str = LE

    def __post_init__(self):
        if self.sense not in (LE, GT):
            raise InputError(f"sense must be '{LE}' or '{GT}', got {self.sense!r}")
        if self.dim < 0:
            raise InputError("dim must be nonnegative")
        if not np.isfinite(self.threshold):
            raise InputError("threshold must be finite")
        object.__setattr__(self, "threshold", float(self.threshold))

    def negated(self) -> "AxisConstraint":
        return AxisConstraint(self.dim, self.threshold, GT if self.sense == LE else LE)


@dataclass(frozen=True)
class BoxConstraint:
    """Per-dimension interval (lower_i, upper_i], the canonical form of a
    conjunction of axis-aligned constraints.

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

    @classmethod
    def unbounded(cls, d: int) -> "BoxConstraint":
        return cls(np.full(d, -np.inf), np.full(d, np.inf))

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def is_satisfiable(self) -> bool:
        return bool(np.all(self.lower < self.upper))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all((x > self.lower) & (x <= self.upper)))

    def contains_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.all((X > self.lower) & (X <= self.upper), axis=1)

    def intersect(self, other: "BoxConstraint") -> Optional["BoxConstraint"]:
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        if np.any(lo >= hi):
            return None
        return BoxConstraint(lo, hi)


def conjoin(box: BoxConstraint, c: AxisConstraint) -> Optional[BoxConstraint]:
    """Conjoin one axis-aligned constraint onto a box.

    LE tightens the upper bound, GT tightens the lower bound; redundant
    constraints leave the box unchanged. Returns None when the resulting
    interval along c.dim is empty (lower >= upper).
    """
    if c.dim >= box.d:
        raise InputError(f"constraint dim {c.dim} out of range for d={box.d}")
    lo = box.lower.copy()
    hi = box.upper.copy()
    if c.sense == LE:
        hi[c.dim] = min(hi[c.dim], c.threshold)
    else:
        lo[c.dim] = max(lo[c.dim], c.threshold)
    if lo[c.dim] >= hi[c.dim]:
        return None
    return BoxConstraint(lo, hi)


@dataclass(frozen=True)
class Internal:
    """Internal tree node: the constraint holds on the left child."""

    constraint: AxisConstraint
    left: int
    right: int

    def __post_init__(self):
        if self.constraint.sense != LE:
            raise InputError("internal node constraints must have sense LE")


@dataclass(frozen=True)
class Leaf:
    """Leaf node with its label and cached estimation statistics.

    class_histogram holds the estimated conditional class probabilities at
    the leaf, mass the estimated probability of reaching it, and cached_gain
    the leaf's last estimated best-split gain (its frontier priority).
    """

    label: int
    class_histogram: np.ndarray
    mass: float = 1.0
    cached_gain: float = 0.0

    def __post_init__(self):
        hist = _frozen_array(self.class_histogram)
        if self.mass > 0 and abs(float(hist.sum()) - 1.0) > 1e-9:
            raise InputError("class_histogram must sum to 1 when mass > 0")
        if self.cached_gain < 0:
            raise InputError("cached_gain must be nonnegative")
        object.__setattr__(self, "class_histogram", hist)
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "cached_gain", float(self.cached_gain))


TreeNode = Union[Internal, Leaf]


@dataclass(frozen=True)
class DecisionTree:
    """Binary tree of axis-aligned splits stored in an arena.

    nodes[root] is the root; every Internal node routes x left when
    x_dim <= threshold. budget, when set, records the total number of
    blackbox evaluations spent building the tree.
    """

    nodes: tuple[TreeNode, ...]
    root: int
    d: int
    m: int
    budget: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        self.validate()

    @property
    def size(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        seen = set()
        stack = [self.root]
        while stack:
            idx = stack.pop()
            if idx in seen:
                raise InputError("tree contains a cycle or shared node")
            if not (0 <= idx < len(self.nodes)):
                raise InputError(f"node id {idx} out of range")
            seen.add(idx)
            node = self.nodes[idx]
            if isinstance(node, Internal):
                if node.constraint.dim >= self.d:
                    raise InputError("split dim out of range")
                stack.extend((node.left, node.right))
            else:
                if not (0 <= node.label < self.m):
                    raise InputError(f"leaf label {node.label} out of range for m={self.m}")
        if len(seen) != len(self.nodes):
            raise InputError("tree has unreachable nodes")
        self.path_boxes()  # raises when a root-leaf path is unsatisfiable

    def predict(self, x) -> int:
        return tree_predict(self, x)

    def predict_batch(self, X) -> np.ndarray:
        """Vectorized prediction for an (n, d) matrix of points."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise InputError(f"expected points of dimension {self.d}, got shape {X.shape}")
        out = np.empty(X.shape[0], dtype=np.int64)
        # Route index sets down the tree instead of walking point by point.
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            idx, rows = stack.pop()
            if rows.size == 0:
                continue
            node = self.nodes[idx]
            if isinstance(node, Leaf):
                out[rows] = node.label
            else:
                mask = X[rows, node.constraint.dim] <= node.constraint.threshold
                stack.append((node.left, rows[mask]))
                stack.append((node.right, rows[~mask]))
        return out

    def leaf_ids(self) -> list[int]:
        return [i for i in self._reachable_ids() if isinstance(self.nodes[i], Leaf)]

    def _reachable_ids(self) -> Iterator[int]:
        stack = [self.root]
        while stack:
            idx = stack.pop()
            yield idx
            node = self.nodes[idx]
            if isinstance(node, Internal):
                stack.extend((node.right, node.left))

    def path_boxes(self) -> dict[int, BoxConstraint]:
        """Box constraint accumulated along the root path, for every node."""
        boxes = {self.root: BoxConstraint.unbounded(self.d)}
        stack = [self.root]
        while stack:
            idx = stack.pop()
            node = self.nodes[idx]
            if isinstance(node, Internal):
                box = boxes[idx]
                left = conjoin(box, node.constraint)
                right = conjoin(box, node.constraint.negated())
                if left is None or right is None:
                    raise InputError(f"path through node {idx} is unsatisfiable")
                boxes[node.left] = left
                boxes[node.right] = right
                stack.extend((node.left, node.right))
        return boxes


def leaf_tree(label: int, d: int, m: int, histogram=None, mass: float = 1.0,
              cached_gain: float = 0.0, budget: Optional[int] = None) -> DecisionTree:
    """Single-leaf tree predicting a constant label."""
    if histogram is None:
        histogram = np.zeros(m)
        histogram[label] = 1.0
    leaf = Leaf(label, histogram, mass=mass, cached_gain=cached_gain)
    return DecisionTree((leaf,), 0, d, m, budget=budget)


def tree_predict(tree: DecisionTree, x) -> int:
    """Route a single point to its leaf and return the leaf label."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.d,):
        raise InputError(f"expected a point of dimension {tree.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("point contains NaN or Inf")
    idx = tree.root
    node = tree.nodes[idx]
    while isinstance(node, Internal):
        idx = node.left if x[node.constraint.dim] <= node.constraint.threshold else node.right
        node = tree.nodes[idx]
    return node.label
