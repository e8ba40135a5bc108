"""Budget-matched comparison extractors.

cart_extract grows a greedy Gini tree on a fixed relabeled training set.
born_again_extract runs the same greedy loop as the active extractor but
obtains per-node samples by rejection: draws from the unconditional input
model are kept only when they satisfy the node's path box, so deep nodes
starve once the region gets thin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LE, AxisConstraint, Dataset, DecisionTree, Leaf
from .errors import ConfigError, InputError
from .extract import (ExtractionConfig, _label_points, best_split_from_samples,
                      grow_best_first, grow_tree)
from .gmm import GaussianMixture, sample


@dataclass(frozen=True)
class BaselineConfig:
    """Settings for born_again_extract.

    samples_per_node is the per-node raw-draw quota and total_sample_budget
    the raw draws shared by all nodes.
    """

    max_nodes: int
    samples_per_node: int
    total_sample_budget: int
    min_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_nodes % 2 == 0:
            raise ConfigError("max_nodes must be a positive odd node total")
        if self.samples_per_node < 2:
            raise ConfigError("born_again requires samples_per_node >= 2")
        if self.total_sample_budget < 1:
            raise ConfigError("born_again requires a positive total_sample_budget")


def cart_extract(train: Dataset, f, max_nodes: int, min_gain: float = 0.0) -> DecisionTree:
    """Greedy Gini tree on the fixed training set relabeled by the blackbox.

    A region is the set of training rows reaching a leaf, scored by its best
    empirical weighted gain; the frontier loop commits that same candidate.
    Expansion stops at max_nodes or when no leaf has gain above min_gain.
    Budget equals one blackbox labeling pass.
    """
    if max_nodes < 1 or max_nodes % 2 == 0:
        raise ConfigError("max_nodes must be a positive odd node total")
    X = train.features
    if X.shape[1] != f.d:
        raise InputError("training data dimension does not match the blackbox")
    y = _label_points(f, X, "cart relabeling")
    n, m = X.shape[0], f.m

    def score(i, rows):
        cand = best_split_from_samples(X[rows], y[rows], m, rows.size / n, min_gain)
        return (0.0 if cand is None else cand.gain), cand

    def commit(i, rows, cand):
        mask = X[rows, cand.dim] <= cand.threshold
        left, right = rows[mask], rows[~mask]
        return AxisConstraint(cand.dim, cand.threshold, LE), (
            (Leaf(cand.left_label, cand.left_hist, mass=left.size / n), left),
            (Leaf(cand.right_label, cand.right_hist, mass=right.size / n), right))

    counts = np.bincount(y, minlength=m).astype(np.float64)
    root = Leaf(int(np.argmax(counts)), counts / counts.sum(), mass=1.0)
    nodes, _ = grow_best_first(root, np.arange(n), score, commit, max_nodes, min_gain)
    return DecisionTree(tuple(nodes), 0, f.d, m, budget=n)


def born_again_extract(gmm: GaussianMixture, f, cfg: BaselineConfig) -> DecisionTree:
    """Greedy extraction with rejection-sampled node data.

    Identical frontier loop to the active extractor, but each node's sample
    set is drawn from the unconditional mixture and filtered by the node's
    box, so a node of mass Z accepts roughly Z of its draws. The shared
    budget counts raw draws (the active extractor labels every draw, so its
    recorded budget equals its draw count); once it is spent, remaining
    frontier leaves get no data and finalize as leaves. Only accepted points
    are ever labeled, so blackbox calls never exceed the budget.
    """
    rng = np.random.default_rng(cfg.seed)
    remaining = [int(cfg.total_sample_budget)]

    def draw(cm, n_requested, r):
        # Fair share per node set: the same number of raw draws the active
        # extractor would label there, bounded by the leftover budget.
        # Points outside the node's box are discarded unlabeled, so deep
        # nodes keep only about a Z fraction.
        allowance = min(n_requested, remaining[0])
        if allowance <= 0:
            return np.empty((0, gmm.d))
        X = np.atleast_2d(sample(gmm, r, allowance))
        remaining[0] -= allowance
        return X[cm.box.contains_batch(X)]

    inner = ExtractionConfig(max_nodes=cfg.max_nodes,
                             samples_per_node=cfg.samples_per_node,
                             min_gain=cfg.min_gain, seed=cfg.seed)
    return grow_tree(gmm, f, inner, rng, draw)
