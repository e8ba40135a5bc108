"""Greedy decision-tree extraction with active conditional sampling.

Each frontier leaf is scored by its best estimated split gain on a fresh
sample set drawn from the input model conditioned on the leaf's path box;
the highest-priority leaf is expanded using a second, independent sample
set so the committed split parameters stay unbiased.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (LE, AxisConstraint, BoxConstraint, DecisionTree, Internal,
                   Leaf, conjoin)
from .errors import BlackboxError, ConfigError, EmptyRegionError, SamplerError
from .gmm import ConditionalMixture, GaussianMixture, condition, sample_conditional

DEFAULT_PRUNE_ALPHAS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)


@dataclass(frozen=True)
class ExtractionConfig:
    """Settings for extract_tree.

    max_nodes counts internal plus leaf nodes (odd for a binary tree);
    samples_per_node is the per-node draw used for both the priority
    estimate and the committed split.
    """

    max_nodes: int
    samples_per_node: int
    min_gain: float = 0.0
    seed: int = 0
    prune: bool = False
    prune_alphas: Sequence[float] = DEFAULT_PRUNE_ALPHAS

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_nodes % 2 == 0:
            raise ConfigError("max_nodes must be a positive odd node total")
        if self.samples_per_node < 2:
            raise ConfigError("samples_per_node must be >= 2")
        if self.min_gain < 0:
            raise ConfigError("min_gain must be >= 0")


@dataclass(frozen=True)
class SplitCandidate:
    dim: int
    threshold: float
    gain: float
    left_label: int
    right_label: int
    left_hist: np.ndarray
    right_hist: np.ndarray
    left_count: int
    right_count: int


def gini_term(hist, mass: float) -> float:
    """Weighted Gini impurity (1 - sum hist^2) * mass of one region."""
    hist = np.asarray(hist, dtype=np.float64)
    return float((1.0 - float(np.dot(hist, hist))) * mass)


def estimate_split(points, labels, m: int, mass: float, dim: int, threshold: float) -> float:
    """Empirical gain of splitting the region's sample set at (dim, threshold).

    Child masses are mass * (fraction of samples on the side); an empty side
    yields gain 0 by construction.
    """
    X = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    if n == 0:
        return 0.0
    left = X[:, dim] <= threshold
    nl = int(left.sum())
    nr = n - nl
    parent = np.bincount(y, minlength=m) / n
    h_parent = gini_term(parent, mass)
    if nl == 0 or nr == 0:
        return 0.0
    lh = np.bincount(y[left], minlength=m) / nl
    rh = np.bincount(y[~left], minlength=m) / nr
    gain = h_parent - gini_term(lh, mass * (nl / n)) - gini_term(rh, mass * (nr / n))
    return max(float(gain), 0.0)


def best_split_from_samples(X, y, m: int, mass: float,
                            min_gain: float = 0.0) -> Optional[SplitCandidate]:
    """Exhaustive empirical gain maximization over a labeled sample set.

    Every dimension is scored in one pass over a (d, n - 1) gain matrix: one
    sort per row, then left class counts as running sums along the sorted
    labels. A cut at column p sends nl = p + 1 samples left of the threshold
    midway between the p-th and (p+1)-th sorted values; only gaps between
    distinct values qualify, so both sides are nonempty and the counts do not
    depend on how tied rows are ordered. Ties are broken toward the lowest
    dimension index, then the smallest threshold. Returns None when the best
    gain does not exceed min_gain.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    if n < 2 or X.shape[1] == 0:
        return None
    total = np.bincount(y, minlength=m).astype(np.float64)
    h_parent = gini_term(total / n, mass)

    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1)
    sv = np.take_along_axis(Xt, order, axis=1)
    cand = sv[:, :-1] < sv[:, 1:]

    head = order[:, :-1]
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    # Left class counts; int32 holds them, as n < 2**31 for any X that fits
    # in memory. The last class is what the others leave of nl.
    lcs = [np.cumsum((y == k)[head], axis=1, dtype=np.int32) for k in range(m - 1)]
    lcs.append(np.arange(1, n, dtype=np.int32) - sum(lcs) if lcs else nl)
    sq_left = np.zeros(head.shape)
    sq_right = np.zeros(head.shape)
    t = np.empty(head.shape)
    for k, lc in enumerate(lcs):  # classes in order, as a per-row sum adds them
        sq_left += np.square(np.divide(lc, nl, out=t), out=t)
        sq_right += np.square(np.divide(total[k] - lc, nr, out=t), out=t)
    gains = h_parent - (1.0 - sq_left) * (mass * nl / n)
    gains -= (1.0 - sq_right) * (mass * nr / n)
    np.maximum(gains, 0.0, out=gains)
    gains[~cand] = -np.inf

    dim = int(np.argmax(gains.max(axis=1)))  # first max: lowest dimension
    pos = int(np.argmax(gains[dim]))         # then the smallest threshold
    gain = float(gains[dim, pos])
    if gain <= min_gain:
        return None
    threshold = float(0.5 * (sv[dim, pos] + sv[dim, pos + 1]))
    left_rows = order[dim, : pos + 1]
    right_rows = order[dim, pos + 1:]
    lh = np.bincount(y[left_rows], minlength=m) / left_rows.size
    rh = np.bincount(y[right_rows], minlength=m) / right_rows.size
    return SplitCandidate(dim, threshold, gain,
                          int(np.argmax(np.bincount(y[left_rows], minlength=m))),
                          int(np.argmax(np.bincount(y[right_rows], minlength=m))),
                          lh, rh, left_rows.size, right_rows.size)


def _label_points(f, X, context: str) -> np.ndarray:
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    try:
        y = np.asarray(f.predict(X), dtype=np.int64)
    except Exception as e:  # noqa: BLE001 - context is the point here
        raise BlackboxError(f"blackbox evaluation failed at {context}") from e
    if y.shape != (X.shape[0],):
        raise BlackboxError(f"blackbox returned shape {y.shape} at {context}")
    return y


def best_split(gmm: GaussianMixture, box: BoxConstraint, f, n: int,
               rng: np.random.Generator, cfg: ExtractionConfig) -> Optional[SplitCandidate]:
    """Draw n labeled points from the model conditioned on box and return the
    gain-maximizing split, or None when the region is empty or gain-free."""
    try:
        cm = condition(gmm, box)
    except EmptyRegionError:
        return None
    X = sample_conditional(cm, rng, n)
    y = _label_points(f, X, "best_split")
    return best_split_from_samples(X, y, f.m, cm.Z, cfg.min_gain)


def _majority(y: np.ndarray, m: int):
    counts = np.bincount(y, minlength=m).astype(np.float64)
    if counts.sum() == 0:
        return 0, np.full(m, 1.0 / m)
    return int(np.argmax(counts)), counts / counts.sum()


def grow_best_first(root_leaf: Leaf, region, score, commit, max_nodes: int,
                    min_gain: float = 0.0) -> tuple[list, list]:
    """Best-first frontier loop shared by every greedy tree builder.

    score(i, region) -> (gain, split) rates leaf i over its region; a leaf
    whose split is not None and whose gain exceeds min_gain joins a heap
    ordered by gain, ties in push order. While two more nodes fit in
    max_nodes, the top leaf is popped and commit(i, region, split) returns
    None, which keeps it a leaf with cached_gain 0, or
    (constraint, ((left_leaf, left_region), (right_leaf, right_region))),
    which makes it an Internal over the two new leaves; each child whose
    region is not None is scored in turn. Returns the node arena and each
    node's scored gain (0 for nodes never scored).
    """
    nodes: list = [root_leaf]
    gains: list = [0.0]
    heap: list = []
    order = itertools.count()

    def push(i, region):
        gain, split = score(i, region)
        gains[i] = gain
        nodes[i] = replace(nodes[i], cached_gain=max(gain, 0.0))
        if split is not None and gain > min_gain:
            heapq.heappush(heap, (-gain, next(order), i, region, split))

    push(0, region)
    while heap and len(nodes) + 2 <= max_nodes:
        _, _, i, region, split = heapq.heappop(heap)
        grown = commit(i, region, split)
        if grown is None:
            nodes[i] = replace(nodes[i], cached_gain=0.0)
            continue
        constraint, children = grown
        ids = []
        for leaf, child_region in children:
            ids.append(len(nodes))
            nodes.append(leaf)
            gains.append(0.0)
            if child_region is not None:
                push(ids[-1], child_region)
        nodes[i] = Internal(constraint, *ids)
    return nodes, gains


def grow_tree(gmm: GaussianMixture, f, cfg: ExtractionConfig,
              rng: np.random.Generator,
              draw: Callable[[ConditionalMixture, int, np.random.Generator], np.ndarray],
              ) -> DecisionTree:
    """The active extractor and the rejection-sampling baseline on the
    shared frontier loop; draw supplies each node's sample set.

    A region is a leaf's path box with the model conditioned on it. Each
    leaf is scored on one sample set and its split committed from a second,
    independent one.
    """
    d, m = f.d, f.m
    budget = 0

    def draw_labeled(cm, context):
        nonlocal budget
        X = draw(cm, cfg.samples_per_node, rng)
        if X.shape[0] and not cm.box.contains_batch(X).all():
            raise SamplerError(f"sample escaped its node box ({context})")
        y = _label_points(f, X, context)
        budget += X.shape[0]
        return X, y

    def scan(cm, context):
        return best_split_from_samples(*draw_labeled(cm, context), m, cm.Z, cfg.min_gain)

    def score(i, region):
        cand = scan(region[1], f"priority estimate at node {i}")
        return (0.0 if cand is None else cand.gain), cand

    def commit(i, region, _):
        box, cm = region
        cand = scan(cm, f"commit at node {i}")
        if cand is None:
            return None
        constraint = AxisConstraint(cand.dim, cand.threshold, LE)
        children = []
        for c, label, hist in ((constraint, cand.left_label, cand.left_hist),
                               (constraint.negated(), cand.right_label, cand.right_hist)):
            # Conjoin onto the path box: cm.box is clipped to the model's domain.
            child_box = conjoin(box, c)
            try:
                child_cm = None if child_box is None else condition(gmm, child_box)
            except EmptyRegionError:
                child_cm = None
            if child_cm is None:
                # Zero-mass region: permanent leaf with the parent-side label.
                children.append((Leaf(label, hist, mass=0.0), None))
            else:
                children.append((Leaf(label, hist, mass=child_cm.Z), (child_box, child_cm)))
        return constraint, children

    root_box = BoxConstraint.unbounded(d)
    root_cm = condition(gmm, root_box)
    root_label, root_hist = _majority(draw_labeled(root_cm, "root")[1], m)
    nodes, _ = grow_best_first(Leaf(root_label, root_hist, mass=root_cm.Z),
                               (root_box, root_cm), score, commit,
                               cfg.max_nodes, cfg.min_gain)
    return DecisionTree(tuple(nodes), 0, d, m, budget=budget)


def extract_tree(gmm: GaussianMixture, f, cfg: ExtractionConfig,
                 rng: Optional[np.random.Generator] = None) -> DecisionTree:
    """Extract a decision tree approximating blackbox f under input model gmm.

    Every node's splits and labels are estimated from fresh i.i.d. samples of
    the conditional input distribution at that node, so deep nodes receive
    the same sample budget as the root. Deterministic given cfg.seed (or the
    supplied rng). The total number of blackbox evaluations is recorded on
    the returned tree's budget field.
    """
    if gmm.d != f.d:
        raise ConfigError(f"model dimension {gmm.d} does not match blackbox d={f.d}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    def draw(cm, n, r):
        return np.atleast_2d(sample_conditional(cm, r, n))

    tree = grow_tree(gmm, f, cfg, rng, draw)
    if cfg.prune:
        tree = prune(tree, gmm, f, cfg.samples_per_node, cfg.prune_alphas, rng)
    return tree


def _route_counts(tree: DecisionTree, X, y, m: int):
    """Per-node class counts of the labeled points reaching each node."""
    counts = {i: np.zeros(m) for i in range(len(tree.nodes))}
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        idx, rows = stack.pop()
        if rows.size:
            counts[idx] += np.bincount(y[rows], minlength=m)
        node = tree.nodes[idx]
        if isinstance(node, Internal):
            mask = X[rows, node.constraint.dim] <= node.constraint.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
    return counts


def _collapse_info(tree: DecisionTree, counts):
    """For every node: validation error if collapsed, subtree leaf error,
    number of descendant leaves, and the collapse label/histogram."""
    info = {}

    def visit(idx):
        node = tree.nodes[idx]
        c = counts[idx]
        n_here = c.sum()
        if isinstance(node, Leaf):
            err = n_here - c[node.label]
            info[idx] = dict(sub_err=err, n_leaves=1, mass=node.mass,
                             hist=node.class_histogram * max(node.mass, 1e-300))
            return
        visit(node.left)
        visit(node.right)
        li, ri = info[node.left], info[node.right]
        info[idx] = dict(sub_err=li["sub_err"] + ri["sub_err"],
                         n_leaves=li["n_leaves"] + ri["n_leaves"],
                         mass=li["mass"] + ri["mass"],
                         hist=li["hist"] + ri["hist"])

    visit(tree.root)
    for idx, entry in info.items():
        c = counts[idx]
        if c.sum() > 0:
            label = int(np.argmax(c))
        else:
            label = int(np.argmax(entry["hist"]))
        entry["collapse_label"] = label
        entry["collapse_err"] = c.sum() - c[label]
        total = entry["hist"].sum()
        entry["collapse_hist"] = entry["hist"] / total if total > 0 else \
            np.full(len(c), 1.0 / len(c))
    return info


def _pruned_at_alpha(tree: DecisionTree, counts, n_val: int, alpha: float) -> DecisionTree:
    """Weakest-link pruning: repeatedly collapse the internal node whose
    per-leaf error increase rate is strictly below alpha."""
    collapsed: set = set()
    info = _collapse_info(tree, counts)

    def effective(idx):
        """Current subtree error/leaves treating collapsed nodes as leaves."""
        node = tree.nodes[idx]
        if isinstance(node, Leaf):
            return info[idx]["sub_err"], 1
        if idx in collapsed:
            return info[idx]["collapse_err"], 1
        le, ln = effective(node.left)
        re_, rn = effective(node.right)
        return le + re_, ln + rn

    while True:
        best = None
        stack = [tree.root]
        while stack:
            idx = stack.pop()
            node = tree.nodes[idx]
            if isinstance(node, Leaf) or idx in collapsed:
                continue
            sub_err, n_leaves = effective(idx)
            # Collapsing trades (size shrink of 2*(n_leaves-1) nodes) against
            # the validation error increase; scale per node of size removed.
            g = (info[idx]["collapse_err"] - sub_err) / max(n_val, 1) \
                / (2.0 * (n_leaves - 1))
            if best is None or g < best[0] or (g == best[0] and idx < best[1]):
                best = (g, idx)
            stack.extend((node.left, node.right))
        if best is None or not (best[0] < alpha):
            break
        collapsed.add(best[1])

    # Rebuild the arena without the collapsed subtrees.
    new_nodes: list = []

    def rebuild(idx):
        node = tree.nodes[idx]
        my_id = len(new_nodes)
        if isinstance(node, Leaf):
            new_nodes.append(node)
            return my_id
        if idx in collapsed:
            entry = info[idx]
            new_nodes.append(Leaf(entry["collapse_label"], entry["collapse_hist"],
                                  mass=entry["mass"], cached_gain=0.0))
            return my_id
        new_nodes.append(None)
        left = rebuild(node.left)
        right = rebuild(node.right)
        new_nodes[my_id] = Internal(node.constraint, left, right)
        return my_id

    rebuild(tree.root)
    return DecisionTree(tuple(new_nodes), 0, tree.d, tree.m, budget=tree.budget)


def prune(tree: DecisionTree, gmm: GaussianMixture, f, n_val: int,
          alphas: Sequence[float] = DEFAULT_PRUNE_ALPHAS,
          rng: Optional[np.random.Generator] = None) -> DecisionTree:
    """Cost-complexity pruning against fresh validation samples.

    One fresh labeled sample set drives the weakest-link collapse sequence
    (error + alpha * size) and a second one selects the alpha whose pruned
    tree has the highest fidelity; ties prefer the smaller tree.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cm = condition(gmm, BoxConstraint.unbounded(tree.d))
    X_prune = np.atleast_2d(sample_conditional(cm, rng, n_val))
    y_prune = _label_points(f, X_prune, "prune")
    X_sel = np.atleast_2d(sample_conditional(cm, rng, n_val))
    y_sel = _label_points(f, X_sel, "prune selection")
    counts = _route_counts(tree, X_prune, y_prune, tree.m)

    best = None
    for alpha in alphas:
        candidate = _pruned_at_alpha(tree, counts, n_val, float(alpha))
        fid = float(np.mean(candidate.predict_batch(X_sel) == y_sel))
        key = (-fid, candidate.size)
        if best is None or key < best[0]:
            best = (key, candidate)
    return best[1]
