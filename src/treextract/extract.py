"""Greedy decision-tree extraction with active conditional sampling.

Each frontier leaf is scored by its best estimated split gain on a fresh
sample set drawn from the input model conditioned on the leaf's path box;
the highest-priority leaf is expanded using a second, independent sample
set so the committed split parameters stay unbiased.
"""

import ctypes
import heapq
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DecisionTree, _check_seed, class_labels, is_count, leaf_row, split_row
from .errors import BlackboxError, ConfigError, EmptyRegionError, InputError, SamplerError
from .gmm import ConditionalMixture, GaussianMixture, condition, sample_conditional

DEFAULT_PRUNE_ALPHAS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)

# Cells (points x d) from which a scored left child is labelled and scanned
# on a second thread while the calling thread does its right sibling: numpy
# releases the GIL in both, and on smaller samples the hand-off cost more
# than it saved (a threshold of 2^14 took exact-convergence's 2 x 10^4-cell
# samples onto two threads and made its op_ms.p50 4.8 % slower).
PARALLEL_CELLS = 1 << 15
# CPUs this process may run on, read at import. On one CPU the two threads
# only take turns, which made rf-distill's trees 2.5 % slower.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

if sys.platform.startswith("linux"):
    # glibc moves its heap-trim and mmap thresholds up to the largest block
    # freed so far, so whether the split scan's (d, n) temporaries were
    # reused or returned to the system and page-faulted in again on every
    # node (a quarter of extract_tree's time) hung on what the process had
    # freed before. Pinned, blocks under 4 MiB come from the heap and are
    # reused; larger ones are mapped afresh, which keeps them from
    # fragmenting the heap (32 MiB cost cart-pole 3.5 MB of peak RSS).
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def _check_max_nodes(max_nodes: int) -> None:
    """Every tree builder's node-total rule: a binary tree's is odd and >= 1."""
    if not is_count(max_nodes) or max_nodes % 2 == 0:
        raise ConfigError("max_nodes must be a positive odd node total")


def _check_dims(gmm: GaussianMixture, f) -> None:
    """Every model-driven builder's rule: the blackbox's d and m are counts; d is the model's."""
    if not (is_count(f.d) and is_count(f.m)):
        raise ConfigError(f"blackbox d and m must be integers >= 1, got d={f.d!r}, m={f.m!r}")
    if gmm.d != f.d:
        raise ConfigError(f"model dimension {gmm.d} does not match blackbox d={f.d}")


@dataclass(frozen=True)
class ExtractionConfig:
    """Settings for extract_tree and born_again_extract.

    max_nodes counts internal plus leaf nodes (odd for a binary tree);
    samples_per_node is the per-node draw used for both the priority
    estimate and the committed split. total_sample_budget, the raw draws
    shared by all nodes, is required by born_again_extract and refused by
    extract_tree.
    """

    max_nodes: int
    samples_per_node: int
    min_gain: float = 0.0
    seed: int = 0
    prune: bool = False
    total_sample_budget: Optional[int] = None

    def __post_init__(self):
        _check_max_nodes(self.max_nodes)
        if not is_count(self.samples_per_node, 2):
            raise ConfigError("samples_per_node must be >= 2 and an integer")
        if not self.min_gain >= 0:
            raise ConfigError("min_gain must be >= 0")
        budget = self.total_sample_budget
        if budget is not None and not is_count(budget):
            raise ConfigError(f"total_sample_budget must be >= 1 and an integer, got {budget!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SplitCandidate:
    dim: int
    threshold: float
    gain: float
    left_label: int
    right_label: int
    left_hist: np.ndarray
    right_hist: np.ndarray


def estimate_split(points, labels, m: int, mass: float, dim: int, threshold: float) -> float:
    """Empirical gain of splitting the region's sample set at (dim, threshold).

    Child masses are mass * (fraction of samples on the side); the gain is
    best_split_from_samples' count form, bit for bit, and 0 for an empty side.
    """
    X = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels)
    left = X[:, dim] <= threshold
    n, nl = y.shape[0], int(left.sum())
    if nl == 0 or nl == n:  # also when there are no samples
        return 0.0
    D = np.bincount(y[left], minlength=m) * float(n) - np.bincount(y, minlength=m) * float(nl)
    return float(D @ D / (nl * (n - nl)) * mass / n ** 2)


def best_split_from_samples(X, y, m: int, mass, min_gain: float = 0.0):
    """Exhaustive empirical gain maximization over a labeled sample set.

    Each gap between distinct sorted values of a dimension is a cut; with
    left class counts lc_k (running sums of the sorted labels) and class
    totals t_k, its weighted Gini gain is mass * sum_k D_k^2 / (n^2 nl nr),
    D_k = lc_k n - t_k nl. Both sums are exact in float64 for n < 16,384
    (|D_k| <= nl nr), so equal gains compare equal, going to the lowest
    dimension, then the smallest threshold, and a cut keeping the class
    proportions scores 0. Returns None unless the best gain exceeds
    min_gain; a label outside [0, m) is an InputError.
    """
    y = np.asarray(y)
    n = y.shape[0]
    try:  # bincount refuses a negative label, and one >= m lengthens its counts
        totals = np.bincount(y, minlength=m).reshape(m)
    except ValueError:
        raise InputError(f"split labels must be integers in [0, {m})") from None
    if n < 2 or np.shape(X)[1] == 0:
        return None
    Xt = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    sv, lab = np.sort(Xt, axis=1), y.astype(np.min_scalar_type(m))[Xt.argsort(axis=1)]
    nl = np.arange(1.0, n)
    for k in range(max(m - 1, 1)):  # m = 1 has D_0 = 0
        lc = (lab[:, :-1] == k).cumsum(axis=1, dtype=np.int32)  # n < 2**31 fits any X
        dk = lc * float(n)  # D_k at each gap, in place in one float64 buffer
        dk -= totals[k] * nl
        if k:
            dsum += dk
            ss += np.square(dk, out=dk)
        else:  # the last class's D_k is minus the others' sum: 2 D_0^2 for m = 2
            dsum, ss = (dk, np.square(dk)) if m > 2 else (None, np.square(dk, out=dk))
    ss += ss if dsum is None else np.square(dsum, out=dsum)
    ss[~(sv[:, :-1] < sv[:, 1:])] = -np.inf  # a tied gap is no cut
    ratio = np.divide(ss, nl * (n - nl), out=ss)  # sum_k D_k^2 / (nl nr)
    d, p = divmod(int(ratio.argmax()), n - 1)  # the first max is the tie rule
    gain = ratio[d, p] * mass / n ** 2  # a NaN gain (mass 0) is no cut
    if not gain > min_gain:
        return None
    lc = np.bincount(lab[d, :p + 1], minlength=m)  # the cut is after sorted row p
    lh, rh = lc / (p + 1), (totals - lc) / (n - p - 1)
    return SplitCandidate(d, float(0.5 * (sv[d, p] + sv[d, p + 1])), float(gain),
                          int(lh.argmax()), int(rh.argmax()), lh, rh)


def _label_points(f, X, context: str) -> np.ndarray:
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    try:
        y = class_labels(raw := np.asarray(f.predict(X)), f.m)
    except Exception as e:  # noqa: BLE001 - context is the point here
        raise BlackboxError(f"blackbox evaluation failed at {context}") from e
    if raw.shape != (X.shape[0],):
        raise BlackboxError(f"blackbox returned shape {raw.shape} at {context}")
    if y is None:
        raise BlackboxError(f"blackbox returned a non-integral label or a label outside "
                            f"[0, {f.m}) at {context}")
    return y


def _majority(y: np.ndarray, m: int):
    counts = np.bincount(y, minlength=m).astype(np.float64)  # every caller's y is nonempty
    return int(np.argmax(counts)), counts / counts.sum()


def grow_best_first(root: tuple, region, score, commit, max_nodes: int,
                    min_gain: float = 0.0) -> tuple[list, list]:
    """Best-first frontier loop shared by every greedy tree builder.

    A leaf is given as its (label, histogram, mass). A step adds the root
    alone or a commit's two children; if two more nodes fit in max_nodes after
    them, score([(id, region), ...]) rates its leaves that have a region, in id
    order, as a list of (gain, split). A leaf whose split is not None and whose
    gain exceeds min_gain joins a heap ordered by gain, ties by node id. While
    two more nodes fit, the top leaf is popped and commit(i, region, split)
    returns None, which keeps it a leaf with cached_gain 0, or ((dim,
    threshold), ((left_leaf, left_region), (right_leaf, right_region))), which
    splits it at x_dim <= threshold into the two new leaves. Returns the rows
    for DecisionTree.from_rows and each node's scored gain (0 if never scored).
    """
    rows: list = []
    gains: list = []
    heap: list = []  # ties pop in push order, which is node id order

    def add(leaves):  # a step's new leaves, in id order
        ids = range(len(rows), len(rows) + len(leaves))
        nodes = [(i, r) for i, (_, r) in zip(ids, leaves) if r is not None]
        room = ids.stop + 2 <= max_nodes  # another commit fits after them
        rated = dict(zip([i for i, _ in nodes], score(nodes))) if nodes and room else {}
        for i, (leaf, r) in zip(ids, leaves):
            gain, split = rated.get(i, (0.0, None))
            rows.append(leaf_row(*leaf, max(gain, 0.0)))
            gains.append(gain)
            if split is not None and gain > min_gain:
                heapq.heappush(heap, (-gain, i, r, split))
        return ids

    add([(root, region)])
    while heap and len(rows) + 2 <= max_nodes:
        _, i, region, split = heapq.heappop(heap)
        grown = commit(i, region, split)
        if grown is None:
            rows[i] = rows[i][:-1] + (0.0,)  # stays a leaf, with cached_gain 0
        else:
            (dim, threshold), children = grown
            rows[i] = split_row(dim, threshold, *add(children), len(root[1]))
    return rows, gains


def grow_tree(gmm: GaussianMixture, f, cfg: ExtractionConfig,
              rng: np.random.Generator,
              draw: Callable[[ConditionalMixture, int, np.random.Generator], np.ndarray],
              ) -> DecisionTree:
    """The active extractor and the rejection-sampling baseline on the
    shared frontier loop; draw supplies each node's sample set.

    A region is the model conditioned on a leaf's path box. The root, alone
    on the frontier, takes its label and split from one sample set; each
    other leaf that a later commit could still split is scored on one and
    split on a second, independent one. A model of another dimension than
    the blackbox's is refused before the first draw.
    """
    _check_dims(gmm, f)
    d, m = f.d, f.m
    budget = 0

    def sample(cm, context):  # scan's arguments: the region, its sample set, the context
        nonlocal budget
        X = draw(cm, cfg.samples_per_node, rng)
        if X.shape[0] and not cm.box.contains_batch(X).all():
            raise SamplerError(f"sample escaped its node box ({context})")
        budget += X.shape[0]
        return cm, X, context

    def scan(cm, X, context):
        y = _label_points(f, X, context)
        return best_split_from_samples(X, y, m, cm.Z, cfg.min_gain), y

    def score(nodes):
        if nodes[0][0] == 0:  # the root, scanned before the loop
            cands = [first]
        else:  # a step's draws all run on this thread, in node order
            jobs = [sample(cm, f"priority estimate at node {i}") for i, cm in nodes]
            two = pool is not None and len(jobs) == 2 and jobs[0][1].size >= PARALLEL_CELLS
            left = pool.submit(scan, *jobs[0]) if two else None
            try:
                cands = [scan(*job)[0] for job in jobs[two:]]
            finally:  # the left child's error, if any, is raised first
                left = left.result()[0] if two else None
            cands = [left] * two + cands
        return [((0.0 if cand is None else cand.gain), cand) for cand in cands]

    def commit(i, cm, split):
        cand = split if i == 0 else scan(*sample(cm, f"commit at node {i}"))[0]
        if cand is None:
            return None
        kids = []
        for box in cm.box.split(cand.dim, cand.threshold):
            try:
                kids.append(None if box is None else condition(gmm, box))
            except EmptyRegionError:
                kids.append(None)
        # A zero-mass child is a permanent leaf with the parent-side label.
        return (cand.dim, cand.threshold), [
            ((label, hist, 0.0 if r is None else r.Z), r) for r, label, hist in
            zip(kids, (cand.left_label, cand.right_label), (cand.left_hist, cand.right_hist))]

    root = gmm.unconditional
    first, y = scan(*sample(root, "root"))
    two_threads = CPUS > 1 and y.size * d >= PARALLEL_CELLS  # no node sample is larger
    with ThreadPoolExecutor(1) if two_threads else nullcontext() as pool:
        rows, _ = grow_best_first((*_majority(y, m), root.Z), root, score, commit,
                                  cfg.max_nodes, cfg.min_gain)
    return DecisionTree.from_rows(rows, d, m, budget)


def extract_tree(gmm: GaussianMixture, f, cfg: ExtractionConfig) -> DecisionTree:
    """Extract a decision tree approximating blackbox f under input model gmm.

    Every node's splits and labels are estimated from fresh i.i.d. samples of
    the conditional input distribution at that node, so deep nodes receive
    the same sample budget as the root. Deterministic given cfg.seed. The
    tree's budget field records its blackbox evaluations: samples_per_node
    for the root, for each later commit and for each leaf scored, which is
    every leaf with mass but the root and the children of a commit that
    fills max_nodes; cfg.prune adds its two validation sets.
    A raw-draw budget in cfg is refused, as nothing here would spend it.
    """
    if cfg.total_sample_budget is not None:
        raise ConfigError("extract_tree takes no total_sample_budget (born-again's)")
    rng = np.random.default_rng(cfg.seed)
    tree = grow_tree(gmm, f, cfg, rng, lambda cm, n, r: sample_conditional(cm, r, n))
    if cfg.prune:
        tree = prune(tree, gmm, f, cfg.samples_per_node, rng)
    return tree


def prune(tree: DecisionTree, gmm: GaussianMixture, f, n_val: int, rng: np.random.Generator,
          alphas: Sequence[float] = DEFAULT_PRUNE_ALPHAS) -> DecisionTree:
    """Cost-complexity pruning against fresh validation samples.

    One fresh labeled sample set prices each alpha's tree (error + alpha *
    size) in one pass over the internal nodes, children before parents: a
    node collapses when its validation error increase per node removed,
    measured on the subtree already pruned beneath it, is below alpha
    (Breiman et al. 1984, ch. 10). The same pass scores the tree on a second
    set from the class counts at its leaves; the highest fidelity wins, then
    the smaller tree, then the earlier alpha, and only the winner is built.
    Its recorded budget grows by the 2 * n_val points labelled here.
    """
    if not is_count(n_val) or len(alphas) == 0:
        raise ConfigError("prune needs n_val >= 1 and at least one alpha")
    n, m, left, right, nodes = tree.size, tree.m, tree.left, tree.right, np.arange(tree.size)
    splits = np.flatnonzero(tree.feature >= 0)[::-1]  # children before parents
    # Class counts of the pruning and selection points reaching each node
    # (whole numbers, so exact), masses and mass-weighted histograms, summed
    # up from the leaves.
    counts, sel = np.zeros((2, n, m))
    for c, context in ((counts, "prune"), (sel, "prune selection")):
        X = sample_conditional(gmm.unconditional, rng, n_val)
        np.add.at(c, (tree.apply(X), _label_points(f, X, context)), 1.0)
    mass = tree.mass.copy()
    hist = tree.histogram * np.maximum(tree.mass, 1e-300)[:, None]
    for i in splits:
        for a in (counts, sel, mass, hist):
            a[i] = a[left[i]] + a[right[i]]
    reached = counts.sum(axis=1)
    label = np.where(reached > 0, np.argmax(counts, axis=1), np.argmax(hist, axis=1))
    # Per node: validation error, leaf count and selection points labelled
    # correctly, as a leaf of the input tree and as a collapsed subtree.
    kept = np.stack([reached - counts[nodes, tree.label], np.ones(n), sel[nodes, tree.label]])
    cut = np.stack([reached - counts[nodes, label], np.ones(n), sel[nodes, label]])

    def rebuild(i, collapsed, rows):  # the pruned subtree at node i, in preorder
        my_id = len(rows)
        if tree.feature[i] < 0:
            rows.append(leaf_row(tree.label[i], tree.histogram[i], tree.mass[i],
                                 tree.cached_gain[i]))
        elif collapsed[i]:
            total = hist[i].sum()
            rows.append(leaf_row(label[i], hist[i] / total if total > 0 else
                                 np.full(m, 1.0 / m), mass[i]))
        else:
            rows.append(None)
            kids = rebuild(left[i], collapsed, rows), rebuild(right[i], collapsed, rows)
            rows[my_id] = split_row(tree.feature[i], tree.threshold[i], *kids, m)
        return my_id

    budget = None if tree.budget is None else tree.budget + 2 * n_val

    def priced(alpha):  # alpha's tree as (fidelity and size key, collapsed nodes)
        err, leaves, hit = sub = kept.copy()  # each subtree as pruned so far
        collapsed = np.zeros(n, dtype=bool)
        for i in splits:
            sub[:, i] = sub[:, left[i]] + sub[:, right[i]]
            # The error increase per node of the 2 * (leaves - 1) removed, a
            # ratio of whole numbers rounded once, so equal rates compare equal.
            if (cut[0, i] - err[i]) / (2.0 * n_val * (leaves[i] - 1)) < alpha:
                collapsed[i], sub[:, i] = True, cut[:, i]
        return (-hit[0], leaves[0]), collapsed  # fidelity is hit / n_val, size 2 * leaves - 1

    rows: list = []  # min keeps the first of equal keys: the earlier alpha
    rebuild(0, min(map(priced, alphas), key=lambda priced_tree: priced_tree[0])[1], rows)
    return DecisionTree.from_rows(rows, tree.d, m, budget)
