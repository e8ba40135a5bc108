"""Budget-matched comparison extractors.

cart_extract grows a greedy Gini tree on a fixed relabeled training set.
born_again_extract runs the same greedy loop as the active extractor but
obtains per-node samples by rejection: draws from the unconditional input
model are kept only when they satisfy the node's path box, so deep nodes
starve once the region gets thin.
"""

import numpy as np

from .core import Dataset, DecisionTree
from .errors import ConfigError, InputError
from .extract import (ExtractionConfig, _check_max_nodes, _label_points, _majority,
                      best_split_from_samples, grow_best_first, grow_tree)
from .gmm import GaussianMixture, sample


def cart_extract(train: Dataset, f, max_nodes: int) -> DecisionTree:
    """Greedy Gini tree on the fixed training set relabeled by the blackbox.

    A region is the set of training rows reaching a leaf, scored by its best
    empirical weighted gain; the frontier loop commits that same candidate.
    Expansion stops at max_nodes or when no leaf has a positive gain.
    Budget equals one blackbox labeling pass.
    """
    _check_max_nodes(max_nodes)
    X = train.features
    if X.shape[1] != f.d:
        raise InputError("training data dimension does not match the blackbox")
    y = _label_points(f, X, "cart relabeling")
    n, m = X.shape[0], f.m

    def score(nodes):
        cands = [best_split_from_samples(X[rows], y[rows], m, rows.size / n) for _, rows in nodes]
        return [((0.0 if cand is None else cand.gain), cand) for cand in cands]

    def commit(i, rows, cand):
        mask = X[rows, cand.dim] <= cand.threshold
        left, right = rows[mask], rows[~mask]
        return (cand.dim, cand.threshold), (
            ((cand.left_label, cand.left_hist, left.size / n), left),
            ((cand.right_label, cand.right_hist, right.size / n), right))

    nodes, _ = grow_best_first((*_majority(y, m), 1.0), np.arange(n), score, commit, max_nodes)
    return DecisionTree.from_rows(nodes, f.d, m, budget=n)


def born_again_extract(gmm: GaussianMixture, f, cfg: ExtractionConfig) -> DecisionTree:
    """Greedy extraction with rejection-sampled node data.

    Identical frontier loop to the active extractor, but each node's sample
    set is drawn from the unconditional mixture and filtered by the node's
    box, so a node of mass Z accepts roughly Z of its draws. The shared
    budget, cfg.total_sample_budget, counts every raw draw, the root's
    included, which the active extractor labels in full. Once it is spent,
    remaining frontier leaves get no data and finalize as leaves. Only
    accepted points are labeled, so blackbox calls never exceed the budget,
    and cfg.prune, which labels more, is refused.
    """
    if cfg.total_sample_budget is None or cfg.prune:
        raise ConfigError("born_again requires a total_sample_budget and no prune")
    rng = np.random.default_rng(cfg.seed)
    remaining = [int(cfg.total_sample_budget)]

    def draw(cm, n_requested, r):
        # Fair share per node set: the same number of raw draws the active
        # extractor would label there, bounded by the leftover budget.
        # Points outside the node's box are discarded unlabeled, so deep
        # nodes keep only about a Z fraction.
        allowance = min(n_requested, remaining[0])  # 0 draws nothing and reads no numbers
        X = sample(gmm, r, allowance)
        remaining[0] -= allowance
        return X[cm.box.contains_batch(X)]

    return grow_tree(gmm, f, cfg, rng, draw)
