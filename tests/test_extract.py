import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treextract import (BlackboxError, BoxBlackbox, BoxConstraint, ConfigError, Dataset,
                        EmptyRegionError, ExtractionConfig, FunctionBlackbox, GaussianMixture,
                        InputError, SamplerError, TabularPolicy,
                        best_split_from_samples, born_again_extract, estimate_split,
                        extract_tree, prune, sample, sample_conditional)
from treextract import baselines, blackbox, extract
from treextract.baselines import cart_extract
from treextract.blackbox import (RandomForestConfig, make_imbalanced_classification,
                                 train_random_forest)
from treextract.extract import DEFAULT_PRUNE_ALPHAS, grow_best_first, grow_tree
from treextract.evaluate import exact_greedy_oracle, fidelity, three_box_benchmark
from treextract.io import blackbox_from_doc, blackbox_to_doc, tree_from_doc, tree_to_doc

from helpers import (dataset, fraction_best_split, leaf_tree, random_mixture,
                     reference_best_split, reference_prune, split_fields as _fields,
                     two_box_benchmark)


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


@st.composite
def scan_cases(draw):
    """A labeled sample set with ties, constant columns and large offsets,
    plus the scan settings. A negative min_gain admits every cut."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
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
    min_gain = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.02, -1.0]))
    return X, y, m, mass, min_gain


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

    def test_one_class_with_negative_min_gain(self):
        # The last class's running counts are what the others leave; with no
        # other class they must still be indexed per dimension.
        X, y = np.arange(10.0).reshape(5, 2), np.zeros(5, int)
        want = (0, "1.0", "0.0", 0, 0, np.ones(1).tobytes(), np.ones(1).tobytes())
        assert _fields(reference_best_split(X, y, 1, 1.0, -1.0)) == want
        assert _fields(best_split_from_samples(X, y, 1, 1.0, -1.0)) == want
        assert [_fields(c) for c in batch_scan(X, y, 1, 1.0, -1.0, np.zeros(5, int))] == [want]

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("batched", [False, True], ids=["one-node", "batched"])
    def test_label_outside_range_refused(self, bad, batched):
        """A label outside [0, m) would land in another class's or node's
        counts, or break the single-node call with a numpy error."""
        rng = np.random.default_rng(0)
        X = np.round(rng.normal(size=(40, 2)), 1)
        y = (X[:, 0] > 0).astype(int)
        y[5] = bad
        with pytest.raises(InputError, match=r"labels must be integers in \[0, 2\)"):
            if batched:
                batch_scan(X, y, 2, 1.0, 0.0, np.repeat([0, 1], 20))
            else:
                best_split_from_samples(X, y, 2, 1.0)


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
        """Run build with module's scan recorded; return the root candidate:
        the first call's, or the first segment's when that call scores a
        ragged batch (the forest's first batch starts with tree 0's root)."""
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
        return out, calls[0][0] if isinstance(calls[0], list) else calls[0]

    def test_pinned_root_splits(self):
        # Values recorded with the per-dimension scan (reference_best_split).
        data = make_imbalanced_classification(400, d=12, seed=7)
        forest, cand = self._root_scan(blackbox, lambda: train_random_forest(
            data, RandomForestConfig(n_trees=3, max_depth=6, balance=True, seed=11)))
        first = forest.trees[0]
        assert (first.feature[0], repr(float(first.threshold[0])), repr(cand.gain)) == \
            (1, "1.5883509611877726", "0.04914161881409819")
        tree, cand = self._root_scan(baselines, lambda: cart_extract(data, forest, 15))
        assert (tree.feature[0], repr(float(tree.threshold[0])), repr(cand.gain)) == \
            (5, "1.5035765814029205", "0.039882141979857524")


@st.composite
def tied_columns(draw):
    """4-29 points of 2-3 classes whose columns tie cut for cut: copies of
    one coarse column x, mirrored ones (-x) and fresh ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(4, 29)), draw(st.integers(2, 3))
    x = np.round(rng.normal(size=n) * 2, draw(st.sampled_from([0, 1, 3])))
    kinds = draw(st.lists(st.sampled_from(["x", "-x", "fresh"]), min_size=1, max_size=4))
    X = np.column_stack([x if k == "x" else -x if k == "-x" else
                         np.round(rng.normal(size=n), 1) for k in kinds])
    return X, rng.integers(m, size=n), m, draw(st.floats(1e-3, 1.0))


class TestExactScores:
    """Counts give each cut its gain up to rounding alone, so the scan finds
    the exact best cut, equal gains follow the tie rule, and a cut that
    leaves the class proportions as they were is no split."""

    @settings(max_examples=300, deadline=None)
    @given(tied_columns())
    def test_matches_fraction_oracle(self, case):
        cand, want = best_split_from_samples(*case), fraction_best_split(*case)
        if want is None:
            assert cand is None
        else:
            assert (cand.dim, cand.threshold) == want[1:]
            assert cand.gain == pytest.approx(float(want[0]), rel=1e-15, abs=0)
            assert estimate_split(*case, cand.dim, cand.threshold) == cand.gain

    def test_mirrored_column_ties_to_dim_0(self):
        x, y = np.arange(7.0), np.array([0, 1, 1, 0, 0, 1, 0])
        for X in (np.column_stack([-x, x]), np.column_stack([x, -x])):
            assert best_split_from_samples(X, y, 2, 1.0).dim == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_top_of_exact_range(self, m):
        """At n = 16,383, the largest n whose sums are exact, the single-node
        scan, a one-node batch and the reference agree bit for bit, and the
        mirrored pair's exactly equal best cuts go to the lower dimension."""
        rng, n = np.random.default_rng(7), 2 ** 14 - 1
        x = np.round(rng.normal(size=n), 2)
        y = np.digitize(x + 0.5 * rng.normal(size=n), [0.0, 0.8][:m - 1])
        X = np.column_stack([np.round(rng.normal(size=n), 1), -x, x])
        want = _fields(reference_best_split(X, y, m, 0.5))
        assert _fields(best_split_from_samples(X, y, m, 0.5)) == want
        assert [_fields(c) for c in batch_scan(X, y, m, 0.5, 0.0, np.zeros(n, int))] == [want]
        swapped = best_split_from_samples(X[:, [0, 2, 1]], y, m, 0.5)
        assert want[0] == swapped.dim == 1 and repr(swapped.gain) == want[2]


@st.composite
def ragged_batches(draw):
    """Nodes of 1-40 rows (size 2 among them) stacked in a shuffled row
    order, drawn from one table with ties, constant columns and repeated
    columns; node 0's rows are all one point. A negative min_gain admits
    every cut, so only the node masks hold back a node without one."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([1, 2, 2, 3, 7, 40]), min_size=1, max_size=8))
    n = sum(sizes)
    X = np.round(rng.normal(size=(n, d)) * 2, draw(st.sampled_from([0, 1, 4])))
    X[:, rng.integers(d, size=draw(st.integers(0, d)))] = X[:, [0]]
    X[:, rng.integers(d, size=draw(st.integers(0, 1)))] = -1.5
    y = rng.integers(m, size=n)
    if draw(st.booleans()):  # labels that the first column separates
        y = (X[:, 0] > 0).astype(int) * (m - 1)
    seg = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    X[seg == 0] = X[np.argmax(seg == 0)]  # a node whose rows offer no cut
    mass = draw(st.floats(1e-3, 1.0))
    return X, y, m, mass, seg, draw(st.sampled_from([0.0, 0.0, 1e-3, -1.0]))


def batch_scan(X, y, m, mass, min_gain, seg):
    """The scan of a ragged batch, with X coded as the forest codes it."""
    values, codes = np.unique(X, return_inverse=True)
    return best_split_from_samples(codes.reshape(X.shape), y, m, mass, min_gain,
                                   segments=seg, values=values)


class TestRaggedBatch:
    @settings(max_examples=300, deadline=None)
    @given(ragged_batches())
    def test_matches_per_node_calls_bitwise(self, case):
        X, y, m, mass, seg, min_gain = case
        S = seg.max() + 1
        want = [_fields(best_split_from_samples(X[seg == s], y[seg == s], m, mass, min_gain))
                for s in range(S)]
        assert want == [_fields(reference_best_split(X[seg == s], y[seg == s], m, mass,
                                                     min_gain)) for s in range(S)]
        assert [_fields(c) for c in batch_scan(X, y, m, mass, min_gain, seg)] == want

    def test_one_segment_matches_single_node(self, rng):
        X, y = np.round(rng.normal(size=(60, 4)), 1), rng.integers(3, size=60)
        single = _fields(best_split_from_samples(X, y, 3, 0.4))
        (batched,) = batch_scan(X, y, 3, 0.4, 0.0, np.zeros(60, int))
        assert _fields(batched) == single

    def test_empty_and_single_row_nodes_get_none(self, rng):
        X, y = rng.normal(size=(9, 2)), np.array([0, 1] * 4 + [1])
        seg = np.array([0, 0, 0, 0, 2, 2, 2, 2, 3])  # node 1 has no rows
        cands = batch_scan(X, y, 2, 1.0, 0.0, seg)
        assert len(cands) == 4 and cands[1] is None and cands[3] is None
        assert _fields(cands[2]) == _fields(best_split_from_samples(X[4:8], y[4:8], 2, 1.0))
        assert batch_scan(X[:0], y[:0], 2, 1.0, 0.0, seg[:0]) == []


class TestBestSplit:
    """Best split of n labeled draws from the unconditional model."""

    def test_constant_blackbox_returns_none(self, gmm_2d, rng):
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), 2, 2)
        X = sample(gmm_2d, rng, 100)
        assert best_split_from_samples(X, f.predict(X), 2, 1.0) is None

    def test_1d_threshold_found_near_zero(self, rng):
        gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 1, 2)
        X = sample(gmm, rng, 10 ** 4)
        cand = best_split_from_samples(X, f.predict(X), 2, 1.0)
        assert abs(cand.threshold) <= 0.05
        assert cand.left_label == 1 and cand.right_label == 0

    def test_informative_dim_dominates(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0.2).astype(int), 2, 2)
        wins = 0
        for seed in range(20):
            X = sample(gmm_2d, np.random.default_rng(seed), 1000)
            wins += best_split_from_samples(X, f.predict(X), 2, 1.0).dim == 0
        assert wins >= 19


class TestExtractTree:
    def test_constant_blackbox_single_leaf(self, gmm_2d):
        f = FunctionBlackbox(lambda X: np.full(len(X), 1, dtype=int), 2, 3)
        tree = extract_tree(gmm_2d, f, ExtractionConfig(15, 50, seed=0))
        assert tree.size == 1
        assert tree.label[0] == 1

    def test_budget_recorded_and_bounded(self, gmm_2d, monkeypatch):
        """Whatever shape grows: n points for the root's one sample, and n
        for each score and each commit of a leaf other than the root."""
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        n, calls = 200, []

        def recording(root, region, score, commit, max_nodes, min_gain=0.0):
            return grow_best_first(root, region,
                                   lambda nodes: calls.extend(i for i, _ in nodes) or score(nodes),
                                   lambda i, r, s: calls.append(i) or commit(i, r, s),
                                   max_nodes, min_gain)

        monkeypatch.setattr(extract, "grow_best_first", recording)
        for seed in range(6):
            calls.clear()
            tree = extract_tree(gmm_2d, f, ExtractionConfig(7, n, seed=seed))
            # Each of the at most 2E leaves below the root is scored and
            # committed at most once.
            assert tree.budget <= n * (1 + 4 * int(np.sum(tree.feature >= 0)))
            assert tree.budget == n * (1 + sum(i > 0 for i in calls))

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

        # At 5 nodes the root's children are scored, so a bounded box is drawn.
        with pytest.raises(SamplerError, match="escaped its node box"):
            grow_tree(gmm_2d, f, ExtractionConfig(5, 100, seed=0),
                      np.random.default_rng(0), draw)

    def test_zero_mass_child_is_an_unscored_leaf(self, gmm_2d, monkeypatch):
        # A child whose conditioning finds no mass keeps the label and class
        # histogram of its side of the parent's split, with mass 0, and draws
        # no sample: the 3-node tree costs one node sample less. At 5 nodes
        # the root's children would be scored; min_gain keeps them leaves.
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0.3).astype(int), 2, 2)
        cfg = ExtractionConfig(5, 200, seed=5, min_gain=0.1)
        full = extract_tree(gmm_2d, f, cfg)
        condition = extract.condition

        def right_side_empty(gmm, box):
            if np.isfinite(box.lower).any():
                raise EmptyRegionError("no mass")
            return condition(gmm, box)

        monkeypatch.setattr(extract, "condition", right_side_empty)
        tree = extract_tree(gmm_2d, f, cfg)
        assert tree.size == 3 and tree.feature[0] == full.feature[0]
        assert tree.threshold[0] == full.threshold[0] and tree.right[0] == 2
        assert tree.feature[2] < 0 and tree.mass[2] == 0.0 and tree.cached_gain[2] == 0.0
        assert tree.label[2] == full.label[2]
        assert np.array_equal(tree.histogram[2], full.histogram[2])
        assert tree.mass[1] == full.mass[1] > 0
        assert tree.budget == full.budget - cfg.samples_per_node

    @pytest.mark.parametrize("build", [
        lambda k: ExtractionConfig(k, 100),
        lambda k: cart_extract(dataset(np.zeros((10, 2))), BoxBlackbox([], [], d=2, m=2), k),
        lambda k: exact_greedy_oracle(GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]),
                                      BoxBlackbox([], [], d=2, m=2), k),
    ], ids=["config", "cart", "oracle"])
    @pytest.mark.parametrize("k", [0, 4, 7.0, 3.5, True])
    def test_node_total_rule(self, build, k):
        with pytest.raises(ConfigError, match="^max_nodes must be a positive odd node total$"):
            build(k)

    @pytest.mark.parametrize("kwargs", [
        dict(samples_per_node=100.5), dict(samples_per_node=True),
        dict(samples_per_node=100, total_sample_budget=650.5),
        dict(samples_per_node=100, total_sample_budget=True),
    ], ids=["samples-float", "samples-bool", "budget-float", "budget-bool"])
    def test_sizes_must_be_integers(self, kwargs):
        name = "total_sample_budget" if "total_sample_budget" in kwargs else "samples_per_node"
        with pytest.raises(ConfigError, match=f"^{name} must be >= .* and an integer"):
            ExtractionConfig(7, **kwargs)

    def test_numpy_integer_sizes_accepted(self, gmm_2d):
        cfg = ExtractionConfig(np.int64(3), np.int32(50), total_sample_budget=np.int64(500))
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        assert born_again_extract(gmm_2d, f, cfg).size == 3

    def test_min_samples_enforced(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(3, 1)

    def test_nan_min_gain_rejected(self):
        with pytest.raises(ConfigError, match="min_gain"):
            ExtractionConfig(3, 100, min_gain=float("nan"))

    def test_raw_draw_budget_rejected(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        with pytest.raises(ConfigError, match="total_sample_budget"):
            extract_tree(gmm_2d, f, ExtractionConfig(3, 100, total_sample_budget=1000))

    @pytest.mark.parametrize("extractor,budget", [(extract_tree, None),
                                                  (born_again_extract, 1000)],
                             ids=["ours", "born_again"])
    def test_dimension_mismatch_rejected_before_any_call(self, extractor, budget):
        calls = []

        class Probe:
            d, m = 2, 2

            def predict(self, X):
                calls.append(len(X))
                return np.zeros(len(X), dtype=int)

        gmm = GaussianMixture([1.0], [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
        cfg = ExtractionConfig(3, 100, total_sample_budget=budget)
        with pytest.raises(ConfigError, match="model dimension 3 does not match blackbox d=2"):
            extractor(gmm, Probe(), cfg)
        assert calls == []

    @pytest.mark.parametrize("extractor,budget", [(extract_tree, None),
                                                  (born_again_extract, 1000)],
                             ids=["ours", "born_again"])
    @pytest.mark.parametrize("d, m", [(2, 2.5), (2.0, 2), (2, True), (2, 0)])
    def test_blackbox_sizes_must_be_counts(self, extractor, budget, d, m):
        """Refused before any draw, not as a TypeError deep in the scan."""
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), d, m)
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        cfg = ExtractionConfig(3, 100, total_sample_budget=budget)
        with pytest.raises(ConfigError, match="blackbox d and m must be integers >= 1"):
            extractor(gmm, f, cfg)

    def test_oracle_dimension_mismatch_rejected(self):
        """The exact oracle applies the extractors' dimension rule instead of
        failing on a numpy broadcast deep in its box masses."""
        gmm = GaussianMixture([1.0], [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
        _, bb = three_box_benchmark()
        with pytest.raises(ConfigError, match="model dimension 3 does not match blackbox d=2"):
            exact_greedy_oracle(gmm, bb, 7)

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
        lower, upper = tree._path_bounds()
        assert np.all(lower < upper)

    def test_prune_via_config_flag(self):
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        full = extract_tree(gmm, f, ExtractionConfig(7, 500, seed=0))
        pruned = extract_tree(gmm, f, ExtractionConfig(7, 500, seed=0, prune=True))
        assert pruned.size <= full.size
        preds = pruned.predict_batch(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert preds[0] == 1 and preds[1] == 0

    def test_prune_records_its_validation_labels(self):
        gmm, bb = three_box_benchmark()
        f, seen = _counting(bb)
        tree = extract_tree(gmm, f, ExtractionConfig(7, 200, seed=4, prune=True))
        unpruned = extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4))
        assert tree.budget == sum(seen) == unpruned.budget + 2 * 200

    def test_gain_estimates_consistent_across_sample_sizes(self):
        """At the oracle-optimal split, estimates concentrate on the exact
        gain at every sample size, within four empirical standard errors."""
        from treextract import condition, estimate_split, sample_conditional
        from treextract.evaluate import exact_greedy_oracle, three_box_benchmark
        gmm, bb = three_box_benchmark()
        oracle = exact_greedy_oracle(gmm, bb, 3)
        g_exact = oracle.gains[0]
        cm = condition(gmm, BoxConstraint.unbounded(2))
        for n in (100, 1000, 10000):
            vals = []
            for seed in range(60):
                r = np.random.default_rng([n, seed])
                X = sample_conditional(cm, r, n)
                vals.append(estimate_split(X, bb.predict(X), 2, 1.0,
                                           oracle.tree.feature[0],
                                           oracle.tree.threshold[0]))
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


@st.composite
def node_and_raw_budgets(draw):
    """samples_per_node, and a born-again raw-draw budget of 1 to 3 times it."""
    n = draw(st.integers(10, 200))
    return n, draw(st.integers(1, 3 * n))


class TestBudgetCountsBlackboxPoints:
    @settings(max_examples=60, deadline=None)
    @given(builder=st.sampled_from(["ours", "pruned", "born_again"]),
           problem=st.sampled_from([two_box_benchmark, three_box_benchmark]),
           size=st.integers(0, 3).map(lambda k: 2 * k + 1), budgets=node_and_raw_budgets(),
           min_gain=st.sampled_from([0.0, 0.05, 0.2]), seed=st.integers(0, 2 ** 16))
    def test_budget_equals_points_labelled(self, builder, problem, size, budgets, min_gain,
                                           seed):
        (n, raw), (gmm, bb) = budgets, problem()
        f, seen = _counting(bb)
        if builder == "born_again":
            tree = born_again_extract(gmm, f, ExtractionConfig(
                size, n, min_gain, seed, total_sample_budget=raw))
            assert tree.budget <= raw
        else:
            tree = extract_tree(gmm, f, ExtractionConfig(size, n, min_gain, seed,
                                                         prune=builder == "pruned"))
        assert tree.budget == sum(seen)

    def test_born_again_root_leaf_labels_only_what_is_left(self):
        """A min_gain of 0.5, beyond any two-class gain, ends the root a
        leaf. Its one sample is the first draw from the raw-draw budget, so
        it labels n points, or the whole budget when that is smaller."""
        gmm, bb = three_box_benchmark()
        for seed, raw in itertools.product((0, 34), (60, 200)):
            f, seen = _counting(bb)
            tree = born_again_extract(gmm, f, ExtractionConfig(
                3, 100, min_gain=0.5, seed=seed, total_sample_budget=raw))
            assert tree.size == 1 and tree.cached_gain[0] == 0.0
            assert seen == [min(100, raw)] and tree.budget == min(100, raw)

    def test_born_again_root_leaf_takes_its_commit_labels(self):
        """The same root leaf takes its label and histogram from its one
        sample, the first and only batch labelled."""
        gmm, bb = three_box_benchmark()
        labels = []
        f = FunctionBlackbox(lambda X: labels.append(bb.predict(X)) or labels[-1], bb.d, bb.m)
        tree = born_again_extract(gmm, f, ExtractionConfig(
            3, 100, min_gain=0.5, seed=34, total_sample_budget=200))
        first = np.bincount(labels[0], minlength=2) / len(labels[0])
        assert [len(y) for y in labels] == [100] and tree.budget == 100
        assert 0 < first[0] < 1  # both classes, so the histogram says which won
        assert tree.label[0] == first.argmax() and np.array_equal(tree.histogram[0], first)

    @settings(max_examples=40, deadline=None)
    @given(problem=st.sampled_from([two_box_benchmark, three_box_benchmark]),
           size=st.integers(0, 7).map(lambda k: 2 * k + 1), budgets=node_and_raw_budgets(),
           min_gain=st.sampled_from([0.0, 0.05, 0.2]), seed=st.integers(0, 2 ** 16))
    def test_born_again_raw_draws_stay_within_budget(self, problem, size, budgets, min_gain,
                                                     seed):
        """Every raw draw, the root's first, comes out of total_sample_budget."""
        (n, raw), (gmm, bb) = budgets, problem()
        drawn = []

        def counted(draw):
            def wrapped(*args):
                X = draw(*args)
                drawn.append(X.shape[0])
                return X
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "sample", counted(sample))
            mp.setattr(extract, "sample_conditional", counted(sample_conditional))
            tree = born_again_extract(gmm, bb, ExtractionConfig(
                size, n, min_gain, seed, total_sample_budget=raw))
        assert drawn[0] == min(n, raw) and sum(drawn) <= raw
        assert tree.budget <= sum(drawn)


class TestRootGoesStraightToItsCommit:
    """Alone on the frontier, the root ranks against nothing, so its one
    sample gives both its label and the split it commits."""

    @pytest.mark.parametrize("builder", ["ours", "born_again"])
    @settings(max_examples=30, deadline=None)
    @given(problem=st.sampled_from([two_box_benchmark, three_box_benchmark]),
           size=st.integers(0, 3).map(lambda k: 2 * k + 1), budgets=node_and_raw_budgets(),
           min_gain=st.sampled_from([0.0, 0.05, 0.2]), seed=st.integers(0, 2 ** 16))
    def test_first_labelled_batch_is_the_root_commit_sample(self, builder, problem, size,
                                                             budgets, min_gain, seed):
        (n, raw), (gmm, bb) = budgets, problem()
        batches = []
        f = FunctionBlackbox(lambda X: batches.append((X.copy(), bb.predict(X))) or
                             batches[-1][1], bb.d, bb.m)
        rng = np.random.default_rng(seed)
        if builder == "ours":
            tree = extract_tree(gmm, f, ExtractionConfig(size, n, min_gain, seed))
            root_sample = sample_conditional(gmm.unconditional, rng, n)
        else:
            tree = born_again_extract(gmm, f, ExtractionConfig(
                size, n, min_gain, seed, total_sample_budget=raw))
            root_sample = sample(gmm, rng, min(n, raw))
        X, y = batches[0]
        assert np.array_equal(X, root_sample)
        cand = best_split_from_samples(X, y, bb.m, gmm.unconditional.Z, min_gain)
        if size == 1 or cand is None:
            hist = np.bincount(y, minlength=bb.m) / len(y)
            assert tree.feature[0] < 0 and np.array_equal(tree.histogram[0], hist)
            assert tree.label[0] == hist.argmax()
        else:
            assert (tree.feature[0], tree.threshold[0]) == (cand.dim, cand.threshold)


def _counting(f):
    """f wrapped to record the size of each batch it labels."""
    seen = []

    def predict(X):
        seen.append(len(X))
        return f.predict(X)
    return FunctionBlackbox(predict, f.d, f.m), seen


def _trees_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("feature", "threshold", "left", "right", "label", "histogram"))


def _same_structure(a, b, tol):
    if a.size != b.size:
        return False
    split = a.feature >= 0
    return bool(np.array_equal(a.feature, b.feature)
                and np.all(np.abs(a.threshold - b.threshold)[split] <= tol)
                and np.array_equal(a.label[~split], b.label[~split]))


class TestPrune:
    def _tree_and_model(self):
        """A hand-built tree whose left subtree splits needlessly: both of
        its leaves carry the same label, so collapsing loses nothing."""
        from treextract.core import DecisionTree, leaf_row, split_row

        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        rows = (
            split_row(0, 0.0, 1, 2, m=2),
            split_row(1, 0.5, 3, 4, m=2),   # redundant split
            leaf_row(0, [1.0, 0.0], mass=0.5),
            leaf_row(1, [0.0, 1.0], mass=0.35),
            leaf_row(1, [0.0, 1.0], mass=0.15),
        )
        tree = DecisionTree.from_rows(rows, d=2, m=2)
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

    def test_equal_rates_collapse_together(self, monkeypatch):
        """Two nodes whose collapse rates are both 1/78 at n_val = 39: node 1
        (2 leaves, 1 more error) and node 4 (4 leaves, 3 more errors). Taken
        as 1/39/2 and 3/39/6, the rates came out one ulp apart, and at the
        alpha one ulp above 1/78 node 1 collapsed while node 4 stayed split."""
        from treextract.core import DecisionTree, leaf_row, split_row

        # Routed by x0; the blackbox's label is x1. Nodes 6 and 8 do not
        # collapse (rates 3/156 and 2/78), and neither does the root.
        rows = (split_row(0, 0.0, 1, 4, m=2),
                split_row(0, -1.0, 2, 3, m=2), leaf_row(0, [1.0, 0.0]), leaf_row(1, [0.0, 1.0]),
                split_row(0, 1.0, 5, 6, m=2), leaf_row(1, [0.0, 1.0]),
                split_row(0, 2.0, 7, 8, m=2), leaf_row(0, [1.0, 0.0]),
                split_row(0, 3.0, 9, 10, m=2), leaf_row(0, [1.0, 0.0]), leaf_row(1, [0.0, 1.0]))
        tree = DecisionTree.from_rows(rows, d=2, m=2)
        # (x0, label, points) per leaf: nodes 2, 3, 5, 7, 9 and 10.
        cells = [(-2.0, 0, 20), (-0.5, 1, 1), (0.5, 1, 10), (1.5, 0, 1), (2.5, 0, 2), (3.5, 1, 5)]
        X = np.array([[x0, y] for x0, y, k in cells for _ in range(k)])
        assert len(X) == 39
        monkeypatch.setattr(extract, "sample_conditional", lambda cm, rng, n: X.copy())
        f = FunctionBlackbox(lambda Q: Q[:, 1].astype(np.int64), 2, 2)
        gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        out = prune(tree, gmm, f, 39, np.random.default_rng(0),
                    alphas=[np.nextafter(1 / 78, 1.0)])
        assert out.size == 3 and list(out.label) == [0, 0, 1]

    def test_builds_only_the_chosen_tree(self, monkeypatch):
        """Each alpha is scored from the class counts at the input tree's
        nodes, so one prune call constructs one DecisionTree, the one it
        returns, however many alphas it tries."""
        gmm, bb = three_box_benchmark()
        tree = extract_tree(gmm, bb, ExtractionConfig(15, 200, seed=3))
        built = []

        class Counted(extract.DecisionTree):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(extract, "DecisionTree", Counted)
        out = prune(tree, gmm, bb, 300, np.random.default_rng(0))
        assert len(DEFAULT_PRUNE_ALPHAS) == 8
        assert len(built) == 1 and built[0] is out

    @pytest.mark.parametrize("n_val, alphas", [(500, ()), (0, [0.0]), (-5, [0.0]),
                                               (True, [0.0]), (2.5, [0.0])],
                             ids=["no-alphas", "n_val-0", "n_val-negative", "n_val-bool",
                                  "n_val-float"])
    def test_bad_arguments_rejected_before_drawing(self, n_val, alphas):
        gmm, f, tree = self._tree_and_model()
        f, seen = _counting(f)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="n_val >= 1 and at least one alpha"):
            prune(tree, gmm, f, n_val, rng, alphas)
        assert rng.bit_generator.state == state and seen == []


def _noisy_blackbox(d, m, noise, salt):
    """Bands of x.sum() labelled cyclically in [0, m), with a share `noise`
    of points relabelled by a hash of their coordinates, so that the labels
    are a fixed function of x however often it is evaluated."""
    def fn(X):
        base = np.floor(1.3 * X.sum(axis=1)).astype(np.int64) % m
        h = (np.floor(np.abs(X) * 1e5).astype(np.int64).sum(axis=1) * 2654435761 + salt) % 1000
        return np.where(h < 1000 * noise, (base + 1 + h % max(m - 1, 1)) % m, base)
    return FunctionBlackbox(fn, d, m)


@st.composite
def prune_problems(draw):
    """A model and blackbox: two-box, three-box, or a label-noise multi-class
    FunctionBlackbox over a random mixture (d 1-3, m 2-3)."""
    kind = draw(st.sampled_from(["two_box", "three_box", "noisy"]))
    if kind != "noisy":
        return (two_box_benchmark if kind == "two_box" else three_box_benchmark)()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    return (random_mixture(rng, d, draw(st.integers(1, 3))),
            _noisy_blackbox(d, m, draw(st.floats(0.0, 0.4)), draw(st.integers(0, 999))))


class TestPruneMatchesReference:
    """prune prices each alpha in one bottom-up pass; its tree must be the one
    the weakest-link collapse sequence gives (tests/helpers.py::reference_prune),
    down to the bytes of the tree document."""

    @settings(max_examples=120, deadline=None)
    @given(problem=prune_problems(), size=st.integers(0, 15).map(lambda k: 2 * k + 1),
           samples=st.integers(10, 200), n_val=st.integers(1, 500),
           alphas=st.sampled_from([(0.0,), (np.inf,), DEFAULT_PRUNE_ALPHAS,
                                   tuple(np.geomspace(1e-5, 1.0, 41))]),
           seed=st.integers(0, 2 ** 16))
    def test_same_tree_document(self, problem, size, samples, n_val, alphas, seed):
        gmm, f = problem
        tree = extract_tree(gmm, f, ExtractionConfig(size, samples, seed=seed))
        docs = [json.dumps(tree_to_doc(run(tree, gmm, f, n_val, np.random.default_rng(seed),
                                           alphas)))
                for run in (prune, reference_prune)]
        assert docs[0] == docs[1]


class TestLabelRange:
    """A blackbox label that is not an integer in [0, m) is a BlackboxError
    that names where it was seen, not a numpy error from the class counts
    built on it or a silent truncation."""

    @pytest.mark.parametrize("relabel", [
        lambda y: 2 * y, lambda y: -y, lambda y: y + 0.2, lambda y: 0.7 * y,
        lambda y: np.where(y == 1, np.nan, 0.0),
    ], ids=["2", "-1", "+0.2", "0.7", "nan"])
    @pytest.mark.parametrize("run, context", [
        (lambda gmm, f, X: extract_tree(gmm, f, ExtractionConfig(3, 100)), "root"),
        (lambda gmm, f, X: cart_extract(dataset(X), f, 3), "cart relabeling"),
        (lambda gmm, f, X: fidelity(leaf_tree(0, 2, 2), f, X), "fidelity"),
    ], ids=["extract_tree", "cart_extract", "fidelity"])
    def test_rejected_with_context(self, relabel, run, context):
        gmm, bb = three_box_benchmark()
        f = FunctionBlackbox(lambda X: relabel(bb.predict(X)), 2, 2)
        # Neither the labelling nor FunctionBlackbox truncates 0.7 to 0, and a
        # NaN is refused without a cast warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlackboxError, match=rf"label outside \[0, 2\) at {context}"):
                run(gmm, f, sample(gmm, np.random.default_rng(0), 100))

    @pytest.mark.parametrize("relabel", [
        lambda y: y == 1, lambda y: y.astype(np.int32), lambda y: y.astype(np.float64),
    ], ids=["bool", "int32", "float"])
    @pytest.mark.parametrize("run", [
        lambda gmm, f, X: tree_to_doc(extract_tree(gmm, f, ExtractionConfig(3, 100))),
        lambda gmm, f, X: tree_to_doc(cart_extract(dataset(X), f, 3)),
        lambda gmm, f, X: fidelity(leaf_tree(0, 2, 2), f, X).confusion.tolist(),
    ], ids=["extract_tree", "cart_extract", "fidelity"])
    def test_integral_outputs_accepted(self, relabel, run):
        """Bool, other integer and integral float labels give the int64 labels' results."""
        gmm, bb = three_box_benchmark()
        X = sample(gmm, np.random.default_rng(0), 100)
        f = FunctionBlackbox(lambda X: relabel(bb.predict(X)), 2, 2)
        assert run(gmm, f, X) == run(gmm, bb, X)

    @pytest.mark.parametrize("build, value, message", [
        (lambda v: Dataset(np.zeros((2, 1)), [1, v], ("x0",), 2), 0.7, r"must lie in \[0, 2\)"),
        (lambda v: Dataset(np.zeros((2, 1)), [1, v], ("x0",), 2), np.nan, r"must lie in \[0, 2\)"),
        (lambda v: Dataset(np.zeros((2, 1)), [0, 0], ("x0",), v), True, r"must lie in \[0, True\)"),
        (lambda v: Dataset(np.zeros((2, 1)), [0, 2], ("x0",), v), 2.5, r"must lie in \[0, 2.5\)"),
        (lambda v: BoxBlackbox([BoxConstraint([0.0], [1.0])], [v], 1, 2), 0.7, "labels out of range"),
        (lambda v: BoxBlackbox([BoxConstraint([0.0], [1.0])], [v], 1, 2), np.nan, "labels out of range"),
        (lambda v: BoxBlackbox([], [], 1, 2, default_label=v), 0.7, "labels out of range"),
        (lambda v: blackbox_from_doc(_policy_doc(v)), 0.7, r"one action in \[0, 2\)"),
        (lambda v: blackbox_from_doc(_policy_doc(v)), np.nan, r"one action in \[0, 2\)"),
        (lambda v: blackbox_from_doc(_box_doc(v)), 0.7, "labels out of range"),
        (lambda v: blackbox_from_doc(_box_doc(v)), np.nan, "labels out of range"),
        (lambda v: tree_from_doc(_leaf_doc(v)), 0.7, "leaf label out of range for m=2"),
        (lambda v: tree_from_doc(_leaf_doc(v)), np.nan, "leaf label out of range for m=2"),
    ], ids=["dataset-0.7", "dataset-nan", "dataset-m-bool", "dataset-m-float", "box-0.7",
            "box-nan", "box-default-0.7", "policy-doc-0.7", "policy-doc-nan", "box-doc-0.7",
            "box-doc-nan", "tree-doc-0.7", "tree-doc-nan"])
    def test_entry_points_refuse(self, build, value, message):
        """Labels given by a caller or read from a document, and a dataset's
        label count, follow the blackbox labels' rule: refused with the site's
        own InputError, never truncated and never with a cast warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=message):
                build(value)


def _policy_doc(action):
    doc = blackbox_to_doc(TabularPolicy((np.array([0.0]),) * 4, np.zeros(16, np.int64), (2,) * 4))
    doc["actions"][5] = action
    return doc


def _box_doc(label):
    return {**blackbox_to_doc(BoxBlackbox([BoxConstraint([0.0], [1.0])], [1], 1, 2)),
            "labels": [label]}


def _leaf_doc(label):
    doc = tree_to_doc(leaf_tree(0, 2, 2))
    doc["nodes"][0]["label"] = label
    return doc
