import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treextract import (BoxConstraint, ConfigError, ExtractionConfig,
                        FunctionBlackbox, GaussianMixture, Internal, Leaf,
                        SamplerError, best_split, best_split_from_samples,
                        estimate_split, extract_tree, gini_term, prune,
                        sample_conditional)
from treextract import baselines, blackbox
from treextract.baselines import cart_extract
from treextract.blackbox import (RandomForestConfig, make_imbalanced_classification,
                                 train_random_forest)
from treextract.extract import SplitCandidate, grow_tree
from treextract.evaluate import exact_greedy_oracle, two_box_benchmark


def brute_force_gain(X, y, m, mass, dim, threshold):
    """Independent Gini computation over explicit partitions, loop-coded."""
    n = len(y)
    left = [i for i in range(n) if X[i][dim] <= threshold]
    right = [i for i in range(n) if X[i][dim] > threshold]

    def impurity(rows):
        if not rows:
            return 0.0
        total = 0.0
        for c in range(m):
            p = sum(1 for i in rows if y[i] == c) / len(rows)
            total += p * p
        return 1.0 - total

    h_parent = impurity(range(n)) * mass
    h_left = impurity(left) * (mass * len(left) / n)
    h_right = impurity(right) * (mass * len(right) / n)
    if not left or not right:
        return 0.0
    return h_parent - h_left - h_right


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
                          rcount / right.size, left.size, right.size)


def _fields(cand):
    """Bitwise-comparable fields of a SplitCandidate."""
    if cand is None:
        return None
    return (cand.dim, repr(cand.threshold), repr(cand.gain), cand.left_label,
            cand.right_label, cand.left_hist.tobytes(), cand.right_hist.tobytes(),
            cand.left_count, cand.right_count)


@st.composite
def scan_cases(draw):
    """A labeled sample set with ties, constant columns and large offsets,
    plus the scan settings."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 8))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        X = np.round(X, decimals)
    n_const = draw(st.integers(0, d))
    X[:, rng.permutation(d)[:n_const]] = draw(st.sampled_from([0.0, 3.25]))
    X += draw(st.sampled_from([0.0, 1e6]))
    if draw(st.booleans()):
        y = rng.integers(m, size=n)
    else:  # informative labels with noise
        y = np.where(X[:, 0] > np.median(X[:, 0]), m - 1, 0)
        noisy = rng.random(n) < 0.2
        y[noisy] = rng.integers(m, size=int(noisy.sum()))
    mass = draw(st.floats(1e-3, 1.0))
    min_gain = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.02]))
    return X, y, m, mass, min_gain


class TestGiniTerm:
    def test_pure_node_zero(self):
        assert gini_term([1.0, 0.0], 0.7) == 0.0

    def test_balanced_binary(self):
        assert gini_term([0.5, 0.5], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_weighted_formula(self):
        assert gini_term([0.3, 0.7], 0.4) == pytest.approx(0.168, abs=1e-15)


class TestEstimateSplit:
    def test_constant_labels_zero_gain(self, rng):
        X = rng.normal(size=(50, 3))
        y = np.ones(50, dtype=int)
        for dim in range(3):
            assert estimate_split(X, y, 2, 0.8, dim, 0.0) == 0.0

    def test_perfect_split_removes_full_impurity(self, rng):
        x = np.concatenate([rng.uniform(-2, -0.1, 50), rng.uniform(0.1, 2, 50)])
        X = x.reshape(-1, 1)
        y = (x <= 0).astype(int)
        assert estimate_split(X, y, 2, 1.0, 0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(2, 4))
            X = rng.normal(size=(n, 2))
            y = rng.integers(m, size=n)
            mass = float(rng.uniform(0.1, 1.0))
            dim = int(rng.integers(2))
            t = float(rng.normal())
            ours = estimate_split(X, y, m, mass, dim, t)
            ref = brute_force_gain(X, y, m, mass, dim, t)
            assert abs(ours - ref) <= 1e-12

    def test_empty_sample_set(self):
        assert estimate_split(np.empty((0, 2)), np.empty(0, int), 2, 1.0, 0, 0.0) == 0.0


class TestBestSplitFromSamples:
    def test_scan_gain_matches_estimate_at_chosen_point(self, rng):
        for _ in range(30):
            X = rng.normal(size=(80, 3))
            y = rng.integers(3, size=80)
            cand = best_split_from_samples(X, y, 3, 0.6)
            if cand is None:
                continue
            ref = estimate_split(X, y, 3, 0.6, cand.dim, cand.threshold)
            assert cand.gain == pytest.approx(ref, abs=1e-12)

    def test_tie_breaks_to_lowest_dim(self):
        # Identical columns: identical gains on both dims.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        cand = best_split_from_samples(X, y, 2, 1.0)
        assert cand.dim == 0 and cand.threshold == pytest.approx(1.5)


class TestVectorisedScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_matches_per_dimension_reference_bitwise(self, case):
        assert _fields(best_split_from_samples(*case)) == _fields(reference_best_split(*case))

    @settings(max_examples=150, deadline=None)
    @given(scan_cases(), st.integers(0, 2 ** 32 - 1))
    def test_row_permutation_invariant(self, case, perm_seed):
        X, y = case[0], case[1]
        perm = np.random.default_rng(perm_seed).permutation(y.shape[0])
        a = best_split_from_samples(*case)
        b = best_split_from_samples(X[perm], y[perm], *case[2:])
        assert _fields(a) == _fields(b)

    @staticmethod
    def _root_scan(module, build):
        """Run build with module's scan recorded; return the root candidate."""
        calls = []
        scan = module.best_split_from_samples

        def record(*args, **kwargs):
            calls.append(scan(*args, **kwargs))
            return calls[-1]

        module.best_split_from_samples = record
        try:
            out = build()
        finally:
            module.best_split_from_samples = scan
        return out, calls[0]

    def test_pinned_root_splits(self):
        # Values recorded with the per-dimension scan (reference_best_split).
        data = make_imbalanced_classification(400, d=12, seed=7)
        forest, cand = self._root_scan(blackbox, lambda: train_random_forest(
            data, RandomForestConfig(n_trees=3, max_depth=6, balance=True, seed=11)))
        root = forest.trees[0].nodes[forest.trees[0].root]
        assert (root.constraint.dim, repr(root.constraint.threshold), repr(cand.gain)) == \
            (1, "1.5883509611877726", "0.049141618814098155")
        tree, cand = self._root_scan(baselines, lambda: cart_extract(data, forest, 15))
        root = tree.nodes[tree.root]
        assert (root.constraint.dim, repr(root.constraint.threshold), repr(cand.gain)) == \
            (5, "1.5035765814029205", "0.0398821419798573")


class TestBestSplit:
    def test_constant_blackbox_returns_none(self, gmm_2d, rng):
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), 2, 2)
        cfg = ExtractionConfig(3, 100, seed=0)
        assert best_split(gmm_2d, BoxConstraint.unbounded(2), f, 100, rng, cfg) is None

    def test_1d_threshold_found_near_zero(self, rng):
        gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 1, 2)
        cfg = ExtractionConfig(3, 10 ** 4, seed=0)
        cand = best_split(gmm, BoxConstraint.unbounded(1), f, 10 ** 4, rng, cfg)
        assert abs(cand.threshold) <= 0.05
        assert cand.left_label == 1 and cand.right_label == 0

    def test_informative_dim_dominates(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0.2).astype(int), 2, 2)
        cfg = ExtractionConfig(3, 1000, seed=0)
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cand = best_split(gmm_2d, BoxConstraint.unbounded(2), f, 1000, rng, cfg)
            wins += cand.dim == 0
        assert wins >= 19


class TestExtractTree:
    def test_constant_blackbox_single_leaf(self, gmm_2d):
        f = FunctionBlackbox(lambda X: np.full(len(X), 1, dtype=int), 2, 3)
        tree = extract_tree(gmm_2d, f, ExtractionConfig(15, 50, seed=0))
        assert tree.size == 1
        assert tree.nodes[tree.root].label == 1

    def test_budget_recorded_and_bounded(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        n = 200
        tree = extract_tree(gmm_2d, f, ExtractionConfig(7, n, seed=0))
        expansions = sum(isinstance(nd, Internal) for nd in tree.nodes)
        estimations = sum(isinstance(nd, Leaf) for nd in tree.nodes) + expansions
        assert tree.budget <= 2 * n * (expansions + estimations)
        # Root labeling + one priority estimate per created leaf + one commit
        # per expansion, n points each.
        assert tree.budget == n * (1 + (1 + 2 * expansions) + expansions)

    def test_deterministic_given_seed(self, gmm_2d):
        f = FunctionBlackbox(lambda X: ((X[:, 0] <= 0) & (X[:, 1] > -0.5)).astype(int), 2, 2)
        cfg = ExtractionConfig(11, 150, seed=123)
        t1 = extract_tree(gmm_2d, f, cfg)
        t2 = extract_tree(gmm_2d, f, cfg)
        assert _trees_equal(t1, t2)

    def test_sample_outside_node_box_raises(self, gmm_2d):
        # The in-box check must hold as a raised error, also under python -O.
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)

        def draw(cm, n, rng):
            X = sample_conditional(cm, rng, n)
            if np.isfinite(cm.box.upper[0]):
                X[:, 0] = cm.box.upper[0] + 1.0
            return X

        with pytest.raises(SamplerError, match="escaped its node box"):
            grow_tree(gmm_2d, f, ExtractionConfig(3, 100, seed=0),
                      np.random.default_rng(0), draw)

    def test_odd_max_nodes_enforced(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(4, 100)

    def test_min_samples_enforced(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(3, 1)

    def test_structure_matches_oracle_on_two_box(self):
        gmm, bb = two_box_benchmark()
        oracle = exact_greedy_oracle(gmm, bb, 7).tree
        matches = 0
        for seed in range(20):
            tree = extract_tree(gmm, bb, ExtractionConfig(7, 10 ** 4, seed=seed))
            matches += _same_structure(oracle, tree, tol=0.15)
        assert matches >= 18

    def test_node_boxes_satisfiable(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (np.abs(X[:, 0]) <= 1).astype(int), 2, 2)
        tree = extract_tree(gmm_2d, f, ExtractionConfig(15, 300, seed=4))
        assert all(b.is_satisfiable() for b in tree.path_boxes().values())

    def test_prune_via_config_flag(self):
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        full = extract_tree(gmm, f, ExtractionConfig(7, 500, seed=0))
        pruned = extract_tree(gmm, f, ExtractionConfig(7, 500, seed=0, prune=True))
        assert pruned.size <= full.size
        preds = pruned.predict_batch(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert preds[0] == 1 and preds[1] == 0

    def test_gain_estimates_consistent_across_sample_sizes(self):
        """At the oracle-optimal split, estimates concentrate on the exact
        gain at every sample size, within four empirical standard errors."""
        from treextract import condition, estimate_split, sample_conditional
        from treextract.evaluate import exact_greedy_oracle, three_box_benchmark
        gmm, bb = three_box_benchmark()
        oracle = exact_greedy_oracle(gmm, bb, 3)
        root = oracle.tree.nodes[oracle.tree.root]
        g_exact = oracle.gains[0]
        cm = condition(gmm, BoxConstraint.unbounded(2))
        for n in (100, 1000, 10000):
            vals = []
            for seed in range(60):
                r = np.random.default_rng([n, seed])
                X = sample_conditional(cm, r, n)
                vals.append(estimate_split(X, bb.predict(X), 2, 1.0,
                                           root.constraint.dim,
                                           root.constraint.threshold))
            vals = np.array(vals)
            se = vals.std(ddof=1)
            within = np.mean(np.abs(vals - g_exact) <= 4 * se)
            assert within >= 0.95, f"n={n}: only {within:.0%} within 4 SE"

    def test_median_fidelity_monotone_in_size(self):
        from treextract import sample
        from treextract.evaluate import fidelity, three_box_benchmark
        gmm, bb = three_box_benchmark()
        test_points = sample(gmm, np.random.default_rng(999), 3000)
        medians = []
        for size in (3, 7, 11):
            f1s = [fidelity(extract_tree(gmm, bb, ExtractionConfig(size, 400, seed=s)),
                            bb, test_points).accuracy for s in range(7)]
            medians.append(np.median(f1s))
        assert medians[0] <= medians[1] <= medians[2]


def _trees_equal(a, b):
    if a.size != b.size:
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if type(na) is not type(nb):
            return False
        if isinstance(na, Internal):
            if na.constraint != nb.constraint or na.left != nb.left or na.right != nb.right:
                return False
        else:
            if na.label != nb.label or not np.array_equal(na.class_histogram, nb.class_histogram):
                return False
    return True


def _same_structure(a, b, tol):
    if a.size != b.size:
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if type(na) is not type(nb):
            return False
        if isinstance(na, Internal):
            if na.constraint.dim != nb.constraint.dim:
                return False
            if abs(na.constraint.threshold - nb.constraint.threshold) > tol:
                return False
        elif na.label != nb.label:
            return False
    return True


class TestPrune:
    def _tree_and_model(self):
        """A hand-built tree whose left subtree splits needlessly: both of
        its leaves carry the same label, so collapsing loses nothing."""
        from treextract.core import LE, AxisConstraint, DecisionTree

        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        nodes = (
            Internal(AxisConstraint(0, 0.0, LE), 1, 2),
            Internal(AxisConstraint(1, 0.5, LE), 3, 4),   # redundant split
            Leaf(0, [1.0, 0.0], mass=0.5),
            Leaf(1, [0.0, 1.0], mass=0.35),
            Leaf(1, [0.0, 1.0], mass=0.15),
        )
        tree = DecisionTree(nodes, 0, 2, 2)
        return gmm, f, tree

    def test_alpha_zero_keeps_tree(self):
        gmm, f, tree = self._tree_and_model()
        out = prune(tree, gmm, f, 500, alphas=[0.0], rng=np.random.default_rng(1))
        assert out.size == tree.size

    def test_alpha_infinite_collapses_to_root(self):
        gmm, f, tree = self._tree_and_model()
        out = prune(tree, gmm, f, 500, alphas=[np.inf], rng=np.random.default_rng(1))
        assert out.size == 1

    def test_pure_subtree_collapsed_at_positive_alpha(self):
        gmm, f, tree = self._tree_and_model()
        out = prune(tree, gmm, f, 2000, alphas=[1e-9], rng=np.random.default_rng(1))
        assert out.size == 3
        preds = out.predict_batch(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert preds[0] == 1 and preds[1] == 0

    def test_selection_prefers_fidelity(self):
        gmm, f, tree = self._tree_and_model()
        out = prune(tree, gmm, f, 2000, alphas=[1e-9, np.inf],
                    rng=np.random.default_rng(2))
        assert out.size == 3
