"""Budget-matched comparison extractors.

cart_extract grows a greedy Gini tree on a fixed relabeled training set.
born_again_extract runs the same greedy loop as the active extractor but
obtains per-node samples by rejection: draws from the unconditional input
model are kept only when they satisfy the node's path box, so deep nodes
starve once the region gets thin.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (LE, AxisConstraint, Dataset, DecisionTree, Internal, Leaf)
from .errors import ConfigError, InputError
from .extract import ExtractionConfig, best_split_from_samples, grow_tree, _label_points
from .gmm import GaussianMixture, sample


@dataclass(frozen=True)
class BaselineConfig:
    kind: str  # "cart" or "born_again"
    max_nodes: int
    samples_per_node: int = 0           # born-again per-node accepted-point quota
    total_sample_budget: Optional[int] = None  # shared raw-draw budget
    min_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cart", "born_again"):
            raise ConfigError(f"unknown baseline kind {self.kind!r}")
        if self.max_nodes < 1 or self.max_nodes % 2 == 0:
            raise ConfigError("max_nodes must be a positive odd node total")
        if self.kind == "born_again":
            if self.samples_per_node < 2:
                raise ConfigError("born_again requires samples_per_node >= 2")
            if self.total_sample_budget is None or self.total_sample_budget < 1:
                raise ConfigError("born_again requires a positive total_sample_budget")


def cart_extract(train: Dataset, f, max_nodes: int, min_gain: float = 0.0) -> DecisionTree:
    """Greedy Gini tree on the fixed training set relabeled by the blackbox.

    Node priority is the best empirical weighted gain over the points that
    reach the node; expansion stops at max_nodes or when no leaf has gain
    above min_gain. Budget equals one blackbox labeling pass.
    """
    if max_nodes < 1 or max_nodes % 2 == 0:
        raise ConfigError("max_nodes must be a positive odd node total")
    X = train.features
    if X.shape[1] != f.d:
        raise InputError("training data dimension does not match the blackbox")
    y = _label_points(f, X, "cart relabeling")
    n, m = X.shape[0], f.m

    counts = np.bincount(y, minlength=m).astype(np.float64)
    nodes: list = [Leaf(int(np.argmax(counts)), counts / counts.sum(),
                        mass=1.0, cached_gain=0.0)]
    heap: list = []
    push_order = 0

    def enqueue(leaf_id, rows):
        nonlocal push_order
        cand = best_split_from_samples(X[rows], y[rows], m, rows.size / n, min_gain)
        gain = cand.gain if cand is not None else 0.0
        nodes[leaf_id] = Leaf(nodes[leaf_id].label, nodes[leaf_id].class_histogram,
                              mass=nodes[leaf_id].mass, cached_gain=gain)
        if cand is not None and gain > min_gain:
            heapq.heappush(heap, (-gain, push_order, leaf_id, rows, cand))
            push_order += 1

    enqueue(0, np.arange(n))
    size = 1
    while heap and size + 2 <= max_nodes:
        _, _, leaf_id, rows, cand = heapq.heappop(heap)
        dim = cand.dim
        mask = X[rows, dim] <= cand.threshold
        for side_rows, label, hist in ((rows[mask], cand.left_label, cand.left_hist),
                                       (rows[~mask], cand.right_label, cand.right_hist)):
            child_id = len(nodes)
            nodes.append(Leaf(label, hist, mass=side_rows.size / n, cached_gain=0.0))
            enqueue(child_id, side_rows)
        nodes[leaf_id] = Internal(AxisConstraint(dim, cand.threshold, LE),
                                  len(nodes) - 2, len(nodes) - 1)
        size += 2
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
    if cfg.kind != "born_again":
        raise ConfigError("born_again_extract requires kind='born_again'")
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
