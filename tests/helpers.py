"""Builders and reference implementations that only the tests need."""
import heapq
import itertools
import math
import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, ndtri, ndtri_exp

from treextract import (BoxBlackbox, BoxConstraint, Dataset, DecisionTree, GaussianMixture,
                        TabularPolicy, sample)
from treextract.blackbox import (STATE_RANGES, VI_MAX_SWEEPS, VI_TOL, greedy_actions,
                                 step_batch)
from treextract.core import leaf_row, split_row
from treextract.extract import DEFAULT_PRUNE_ALPHAS, SplitCandidate, _label_points
from treextract.gmm import (EM_LOGLIK_TOL, EM_MAX_ITERS, TAIL_CUTOFF, _categorical,
                            sample_conditional)


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


def random_tree(rng: np.random.Generator, d: int, m: int, n_internal: int) -> DecisionTree:
    """Random proper binary tree with n_internal splits: each splits a random
    leaf along a random dimension strictly inside the leaf's interval (cut
    to [-6, 6]), its children take the next two ids, and every leaf gets a
    random label."""
    rows, boxes, leaves = [None], [BoxConstraint.unbounded(d)], [0]
    for _ in range(n_internal):
        i = leaves.pop(int(rng.integers(len(leaves))))
        dim = int(rng.integers(d))
        lo, hi = max(boxes[i].lower[dim], -6.0), min(boxes[i].upper[dim], 6.0)
        t = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        rows[i] = split_row(dim, t, len(rows), len(rows) + 1, m)
        leaves += [len(rows), len(rows) + 1]
        boxes += boxes[i].split(dim, t)
        rows += [None, None]
    for i in leaves:
        label = int(rng.integers(m))
        rows[i] = leaf_row(label, np.eye(m)[label])
    return DecisionTree.from_rows(rows, d, m)


def random_mixture(rng: np.random.Generator, d: int, k: int) -> GaussianMixture:
    """k-component mixture over R^d with means in [-2.5, 2.5] and sds in [0.2, 1.5]."""
    return GaussianMixture(rng.dirichlet(np.ones(k)), rng.uniform(-2.5, 2.5, (k, d)),
                           rng.uniform(0.2, 1.5, (k, d)))


def reference_agreement(tree_a: DecisionTree, tree_b: DecisionTree, gmm: GaussianMixture,
                        n: int, rng: np.random.Generator) -> int:
    """How many of n mixture draws the two trees give the same label.

    Monte Carlo reference for evaluate.agreement, which sums the masses of
    the leaf-box intersections instead of sampling and routing points.
    """
    X = sample(gmm, rng, n)
    return int(np.count_nonzero(tree_a.predict_batch(X) == tree_b.predict_batch(X)))


def predict_one(tree: DecisionTree, x) -> int:
    """Label of one point: the one-row case of predict_batch."""
    return int(tree.predict_batch(np.asarray(x, dtype=np.float64)[None])[0])


def reference_best_split(X, y, m, mass, min_gain=0.0):
    """Per-dimension scan: a stable sort and a one-hot cumsum per column.

    Field-for-field reference for best_split_from_samples, which scores all
    dimensions in one pass. Each cut is ranked by sum_k D_k^2 / (nl nr), with
    D_k = lc_k n - t_k nl over all m classes, and its gain is that ratio at
    the node's best cut times mass / n^2.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    if n < 2:
        return None
    total = np.bincount(y, minlength=m).astype(np.float64)
    best = None  # (ratio, dim, threshold, pos, order)
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
        nl = (positions + 1).astype(np.float64)
        D = lc * n - total[None, :] * nl[:, None]
        ratios = np.sum(D * D, axis=1) / (nl * (n - nl))
        j = int(np.argmax(ratios))
        if best is None or ratios[j] > best[0]:
            best = (float(ratios[j]), dim, float(thresholds[j]), int(positions[j]), order)
    if best is None or not best[0] * mass / n ** 2 > min_gain:
        return None
    ratio, dim, threshold, pos, order = best
    left, right = y[order[: pos + 1]], y[order[pos + 1:]]
    lcount, rcount = np.bincount(left, minlength=m), np.bincount(right, minlength=m)
    return SplitCandidate(dim, threshold, ratio * mass / n ** 2, int(np.argmax(lcount)),
                          int(np.argmax(rcount)), lcount / left.size,
                          rcount / right.size)


def fraction_best_split(X, y, m, mass):
    """Exact oracle for best_split_from_samples: (gain, dim, threshold) of
    the best cut, or None when no cut has a positive gain.

    Every cut between distinct values is scored by the weighted Gini gain
    mass * (G(all) - nl/n G(left) - nr/n G(right)) in Fractions, and only a
    strictly larger gain displaces the best so far, so equal gains go to the
    lowest dimension, then the smallest threshold.
    """
    X, y, n = np.asarray(X, dtype=np.float64), [int(v) for v in y], len(y)

    def weighted_gini(labels):  # len(labels)/n * G(labels)
        k = len(labels)
        return Fraction(k, n) * (1 - sum(Fraction(labels.count(c), k) ** 2 for c in range(m)))

    best = None
    for dim in range(X.shape[1]):
        values = np.unique(X[:, dim])
        for lo, hi in zip(values[:-1], values[1:]):
            left = [c for x, c in zip(X[:, dim], y) if x <= lo]
            right = [c for x, c in zip(X[:, dim], y) if x > lo]
            gain = Fraction(mass) * (weighted_gini(y) - weighted_gini(left)
                                     - weighted_gini(right))
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, dim, float(0.5 * (lo + hi)))
    return best


def split_fields(cand):
    """Bitwise-comparable fields of a SplitCandidate."""
    if cand is None:
        return None
    return (cand.dim, repr(cand.threshold), repr(cand.gain), cand.left_label,
            cand.right_label, cand.left_hist.tobytes(), cand.right_hist.tobytes())


def reference_grow_best_first(root, region, score, commit, max_nodes, min_gain=0.0):
    """The best-first frontier loop that scores every leaf with a region,
    including the children of the commit that fills max_nodes, which no
    commit can follow. Same arguments and returns as grow_best_first, and
    the same score calls: one per step that makes a leaf with a region."""
    rows, gains, heap, order = [], [], [], itertools.count()

    def add(leaves):
        ids = range(len(rows), len(rows) + len(leaves))
        nodes = [(i, r) for i, (_, r) in zip(ids, leaves) if r is not None]
        rated = dict(zip([i for i, _ in nodes], score(nodes) if nodes else []))
        for i, (leaf, region) in zip(ids, leaves):
            gain, split = rated.get(i, (0.0, None))
            rows.append(leaf_row(*leaf, max(gain, 0.0)))
            gains.append(gain)
            if split is not None and gain > min_gain:
                heapq.heappush(heap, (-gain, next(order), i, region, split))
        return ids

    add([(root, region)])
    while heap and len(rows) + 2 <= max_nodes:
        _, _, i, region, split = heapq.heappop(heap)
        grown = commit(i, region, split)
        if grown is None:
            rows[i] = rows[i][:-1] + (0.0,)
        else:
            (dim, threshold), children = grown
            rows[i] = split_row(dim, threshold, *add(children), len(root[1]))
    return rows, gains


def _reference_weakest_links(tree: DecisionTree, counts, on_path, n_val: int):
    """Weakest-link pruning: collapse, one at a time, the internal node whose
    per-leaf error increase rate is lowest, until none is left.

    counts holds the class counts of the validation points reaching each
    node, on_path[j, i] whether node i is on node j's root path. Returns the
    nodes and rates in collapse order and each node's label, class
    histogram and mass as a leaf. The subtree sums are reverse sweeps over
    the node ids, as every child id exceeds its parent's.
    """
    n = tree.size
    splits = np.flatnonzero(tree.feature >= 0)
    reached = counts.sum(axis=1)
    leaf_err = reached - counts[np.arange(n), tree.label]
    mass = tree.mass.copy()
    hist = tree.histogram * np.maximum(tree.mass, 1e-300)[:, None]
    for i in splits[::-1]:
        mass[i] = mass[tree.left[i]] + mass[tree.right[i]]
        hist[i] = hist[tree.left[i]] + hist[tree.right[i]]
    label = np.where(reached > 0, np.argmax(counts, axis=1), np.argmax(hist, axis=1))
    collapse_err = reached - counts[np.arange(n), label]

    collapsed = np.zeros(n, dtype=bool)
    nodes, rates = [], []
    while True:
        # Error and leaf count of each subtree, treating collapsed nodes as leaves.
        err = np.where(collapsed, collapse_err, leaf_err)
        leaves = np.ones(n)
        for i in splits[::-1]:
            if not collapsed[i]:
                err[i] = err[tree.left[i]] + err[tree.right[i]]
                leaves[i] = leaves[tree.left[i]] + leaves[tree.right[i]]
        live = splits[~(on_path[splits] & collapsed).any(axis=1)]
        if live.size == 0:
            return nodes, rates, label, hist, mass
        # Collapsing trades (size shrink of 2*(leaves-1) nodes) against the
        # validation error increase; scale per node of size removed.
        g = (collapse_err[live] - err[live]) / (2.0 * n_val * (leaves[live] - 1))
        nodes.append(live[np.argmin(g)])  # ties go to the lowest id
        rates.append(g.min())
        collapsed[nodes[-1]] = True


def reference_prune(tree: DecisionTree, gmm: GaussianMixture, f, n_val: int,
                    rng: np.random.Generator,
                    alphas: Sequence[float] = DEFAULT_PRUNE_ALPHAS) -> DecisionTree:
    """Cost-complexity pruning against fresh validation samples.

    Reference for extract.prune, which prices each alpha in one bottom-up
    pass instead of building the collapse sequence and path matrix.

    One fresh labeled sample set drives the weakest-link collapse sequence
    (error + alpha * size); alpha's tree collapses its nodes up to the first
    rate not below alpha. A second one selects the alpha whose tree has the
    highest fidelity; ties prefer the smaller tree, then the earlier alpha.
    A recorded budget grows by the 2 * n_val points labelled here.
    """
    cm = gmm.unconditional
    X_prune = sample_conditional(cm, rng, n_val)
    y_prune = _label_points(f, X_prune, "prune")
    X_sel = sample_conditional(cm, rng, n_val)
    y_sel = _label_points(f, X_sel, "prune selection")
    n = tree.size
    on_path = np.eye(n, dtype=bool)
    for i in np.flatnonzero(tree.feature >= 0):  # parents before children
        on_path[[tree.left[i], tree.right[i]]] |= on_path[i]
    # Class counts of the points reaching each node (whole numbers, so exact).
    counts = on_path[tree.apply(X_prune)].T @ np.eye(tree.m)[y_prune]
    nodes, rates, label, hist, mass = _reference_weakest_links(tree, counts, on_path, n_val)
    leaf_sel = tree.apply(X_sel)
    best = None
    for alpha in alphas:
        # The nodes before the first rate not below alpha (all when none is).
        collapsed = np.isin(np.arange(n), nodes[:np.argmax(np.append(rates, np.inf) >= alpha)])
        cut = on_path & collapsed  # a point stops at its topmost (lowest-id) collapsed node
        stop_label = np.where(cut.any(axis=1), label[np.argmax(cut, axis=1)], tree.label)
        key = (-float(np.mean(stop_label[leaf_sel] == y_sel)),
               n - np.count_nonzero(cut.sum(axis=1) > collapsed))  # fidelity, size
        if best is None or key < best[0]:
            best = (key, collapsed)
    collapsed = best[1]

    rows: list = []  # the selected tree, rebuilt in preorder

    def rebuild(i):
        my_id = len(rows)
        if tree.feature[i] < 0:
            rows.append(leaf_row(tree.label[i], tree.histogram[i], tree.mass[i],
                                 tree.cached_gain[i]))
        elif collapsed[i]:
            total = hist[i].sum()
            rows.append(leaf_row(label[i], hist[i] / total if total > 0 else
                                 np.full(tree.m, 1.0 / tree.m), mass[i]))
        else:
            rows.append(None)
            left, right = rebuild(tree.left[i]), rebuild(tree.right[i])
            rows[my_id] = split_row(tree.feature[i], tree.threshold[i], left, right, tree.m)
        return my_id

    rebuild(0)
    budget = None if tree.budget is None else tree.budget + 2 * n_val
    return DecisionTree.from_rows(rows, tree.d, tree.m, budget)


def two_box_benchmark():
    """Two positive regions over a 2-component mixture whose exact greedy
    tree is a full 7-node tree (three clean splits, pure leaves)."""
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.2]],
                          stddevs=[[1.0, 0.9], [0.9, 1.0]])
    boxes = (BoxConstraint([-np.inf, -np.inf], [-0.6, 0.4]),
             BoxConstraint([0.9, -np.inf], [np.inf, np.inf]))
    return gmm, BoxBlackbox(boxes, (1, 1), d=2, m=2)


def reference_inverse_cdf(a, b, u):
    """Per-point inverse-CDF draws on (a, b]: mirrored when a >= 0, in log
    space where the mirrored interval lies below -TAIL_CUTOFF."""
    flip = a >= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    clo = ndtr(lo)
    z = ndtri(clo + u * (ndtr(hi) - clo))
    if hi.min() <= -TAIL_CUTOFF:
        tail = hi <= -TAIL_CUTOFF
        z, log_lo, log_hi = np.asarray(z), log_ndtr(lo[tail]), log_ndtr(hi[tail])
        with np.errstate(divide="ignore"):
            log_mass = log_hi + np.log(-np.expm1(log_lo - log_hi))
            z[tail] = ndtri_exp(np.logaddexp(log_lo, np.log(np.asarray(u)[tail]) + log_mass))
    return np.where(flip, -z, z)


def reference_sample_conditional(cm, rng, size):
    """Dimension-by-dimension conditional sampler: a component per point from
    one uniform each, then per dimension standard_normal(n) if the box leaves
    it unbounded, else random(n) through reference_inverse_cdf with any
    non-finite draw redrawn before the next dimension.

    Draw-for-draw reference for gmm.sample_conditional, which builds the
    inverse-CDF values once per component and dimension.
    """
    n = int(size)
    gmm = cm.base
    u = rng.random(n)
    edges = np.cumsum(cm.tilde_phi)
    edges[-1] = 1.0
    comps = np.searchsorted(edges, u, side="right")
    X = np.empty((n, gmm.d))
    for i in range(gmm.d):
        lo, hi = cm.box.lower[i], cm.box.upper[i]
        mu = gmm.means[comps, i]
        sd = gmm.stddevs[comps, i]
        if lo == -np.inf and hi == np.inf:
            X[:, i] = mu + sd * rng.standard_normal(n)
            continue
        a = cm.alpha[comps, i]
        b = cm.beta[comps, i]
        z = reference_inverse_cdf(a, b, rng.random(n))
        bad = np.flatnonzero(~np.isfinite(z))
        while bad.size:
            z[bad] = reference_inverse_cdf(a[bad], b[bad], rng.random(bad.size))
            bad = bad[~np.isfinite(z[bad])]
        x = mu + sd * z
        np.clip(x, np.nextafter(lo, np.inf), hi, out=x)
        X[:, i] = x
    return X


def reference_truncated_normal(mu, sigma, lo, hi, rng):
    """Scalar draw on (lo, hi] through reference_inverse_cdf, redrawn while
    not finite and clamped into the half-open interval."""
    if lo == -np.inf and hi == np.inf:
        return float(mu + sigma * rng.standard_normal())
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    z = float(reference_inverse_cdf(a, b, rng.random()))
    while not np.isfinite(z):
        z = float(reference_inverse_cdf(a, b, rng.random()))
    return float(np.clip(mu + sigma * z, np.nextafter(lo, np.inf), hi))


def reference_learn_policy(cfg):
    """Value iteration that gathers every sampled transition on every sweep:
    q is the mean over a pair's samples of reward + discount * V[next], the
    terminal next state being an extra value slot that stays 0.

    Sweep-for-sweep reference for blackbox.learn_policy, which reduces the
    samples to counts per distinct (cell, action, next cell) first. Returns
    the policy, the final (n_cells, 2) Q-values and the per-sweep residuals.
    """
    d = len(cfg.grid_sizes)
    rng = np.random.default_rng(cfg.seed)
    grids = [np.linspace(lo, hi, size + 1)
             for (lo, hi), size in zip(STATE_RANGES, cfg.grid_sizes)]
    edges = tuple(grid[1:-1] for grid in grids)
    n_cells = int(np.prod(cfg.grid_sizes))
    ns = cfg.n_transition_samples
    multi = np.array(np.unravel_index(np.arange(n_cells), cfg.grid_sizes)).T
    lo_mat = np.stack([grids[i][multi[:, i]] for i in range(d)], axis=1)
    hi_mat = np.stack([grids[i][multi[:, i] + 1] for i in range(d)], axis=1)
    states = lo_mat[:, None, :] + rng.random((n_cells, ns, d)) * (hi_mat - lo_mat)[:, None, :]
    states = np.repeat(states[:, None, :, :], 2, axis=1)  # (n_cells, 2, ns, d)
    actions = np.broadcast_to(np.array([0, 1])[None, :, None], (n_cells, 2, ns))
    nxt, terminal = step_batch(states.reshape(-1, d).T, actions.reshape(-1))
    stub = TabularPolicy(edges, np.zeros(n_cells, dtype=np.int64), tuple(cfg.grid_sizes))
    gather = np.where(terminal, n_cells, stub.cell_index(nxt.T)).reshape(n_cells, 2, ns)
    rewards = (~terminal).astype(np.float64).reshape(n_cells, 2, ns)
    values, residuals = np.zeros(n_cells + 1), []
    for _ in range(VI_MAX_SWEEPS):
        q = np.mean(rewards + cfg.discount * values[gather], axis=2)
        new_values = q.max(axis=1)
        residuals.append(float(np.max(np.abs(new_values - values[:n_cells]))))
        values = np.concatenate([new_values, [0.0]])
        if residuals[-1] < VI_TOL:
            break
    q = np.mean(rewards + cfg.discount * values[gather], axis=2)
    greedy = greedy_actions(q, cfg.discount)  # the production tie rule
    return TabularPolicy(edges, greedy, tuple(cfg.grid_sizes)), q, residuals


def _reference_em_run(X, Z, k, floor, rng, log_scale):
    """One EM restart on its own: k-means++ seeds in raw coordinates X, a
    hard assignment to them, then EM on the standardized Z until an
    iteration gains at most EM_LOGLIK_TOL (relative) or EM_MAX_ITERS."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
            continue
        centers[j] = X[_categorical(rng, d2 / total, 1)[0]]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    assign = np.argmin(((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
    resp = (np.arange(k)[:, None] == assign) + 1e-6
    resp /= resp.sum(axis=0)
    Z2 = Z * Z
    loglik, history = -np.inf, []
    for _ in range(EM_MAX_ITERS):
        nk = np.maximum(resp.sum(axis=1), 1e-10)
        w = nk / n
        mu = (resp @ Z) / nk[:, None]
        sd = np.sqrt(np.maximum((resp @ Z2) / nk[:, None] - mu * mu, floor))
        prec = 1.0 / (sd * sd)
        mu_prec = mu * prec
        quad = prec @ Z2.T - 2.0 * (mu_prec @ Z.T) + np.sum(mu * mu_prec, axis=1)[:, None]
        with np.errstate(divide="ignore"):
            logp = -0.5 * quad + (np.log(w) - np.sum(np.log(sd), axis=1)
                                  - 0.5 * Z.shape[1] * math.log(2 * math.pi))[:, None]
        norm = logsumexp(logp, axis=0)
        new_loglik = float(norm.sum())
        resp = np.exp(logp - norm)
        history.append(new_loglik - log_scale)
        if new_loglik - loglik <= EM_LOGLIK_TOL * (1.0 + abs(new_loglik)):
            break
        loglik = new_loglik
    return new_loglik, w, mu, sd, history


def reference_fit_em(X, k, cfg):
    """fit_em with its restarts run one at a time, each to its own stop.

    Byte-for-byte reference for gmm.fit_em, which runs them in lockstep.
    Returns the fitted mixture, the winner's history and each restart's
    (standardized final log-likelihood, iteration count, standardized means).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    loc, spread = X.mean(axis=0), np.ptp(X, axis=0)
    scale = np.where(spread > 0, X.std(axis=0), 1.0)
    Z = (X - loc) / scale
    floor = 1e-6 * np.maximum(spread, 1e-3) ** 2 / scale ** 2
    log_scale = n * float(np.log(scale).sum())
    runs = [_reference_em_run(X, Z, k, floor, np.random.default_rng([cfg.seed, r]), log_scale)
            for r in range(cfg.n_init)]
    _, w, mu, sd, hist = max(runs, key=lambda run: run[0])  # the first of equals
    keep = w >= 1e-8
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} degenerate mixture component(s)")
        w, mu, sd = w[keep], mu[keep], sd[keep]
    w = w / w.sum()
    return (GaussianMixture(w, loc + scale * mu, scale * sd), hist,
            [(run[0], len(run[4]), run[2]) for run in runs])


class ZeroUniforms:
    """A numpy Generator stand-in whose uniforms below `below` come out as an
    exact 0.0, the end of [0, 1) where an infinite bound makes the inverse
    CDF non-finite. Counts the uniforms it hands out."""

    def __init__(self, seed, below):
        self._gen = np.random.default_rng(seed)
        self.bit_generator = self._gen.bit_generator
        self.below, self.uniforms = below, 0

    def random(self, size=None):
        u = self._gen.random(size)
        self.uniforms += np.size(u)
        return np.where(u < self.below, 0.0, u)

    def standard_normal(self, *args, **kwargs):
        return self._gen.standard_normal(*args, **kwargs)
