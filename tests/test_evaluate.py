import numpy as np
import pytest

from treextract import (BoxBlackbox, BoxConstraint, ExtractionConfig,
                        FunctionBlackbox, GaussianMixture, InputError,
                        agreement, exact_greedy_oracle, extract_tree, fidelity,
                        leaf_tree, sample)
from treextract.evaluate import (ExperimentResult, FidelityTask, ResultRow,
                                 TaskInstance, _class_masses, _exact_gain,
                                 _impurity_term, run_fidelity_curve,
                                 three_box_benchmark, two_box_benchmark)
from treextract.gmm import box_mass


class TestFidelity:
    def test_memoized_tree_perfect(self, rng):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0.3).astype(int), 1, 2)
        nodes_gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
        tree = extract_tree(nodes_gmm, f, ExtractionConfig(3, 5000, seed=0))
        X = rng.uniform(-3, 3, size=(500, 1))
        X = X[np.abs(X[:, 0] - 0.3) > 0.01]  # stay clear of threshold noise
        rep = fidelity(tree, f, X)
        assert rep.accuracy == 1.0 and rep.f1 == 1.0

    def test_constant_tree_closed_form(self, rng):
        f_labels = np.zeros(100, dtype=int)
        f_labels[:30] = 1
        X = rng.normal(size=(100, 2))
        f = FunctionBlackbox(lambda Q: f_labels[:len(Q)], 2, 2)
        tree = leaf_tree(0, d=2, m=2)
        rep = fidelity(tree, f, X)
        assert rep.accuracy == pytest.approx(0.7)
        assert rep.f1 == 0.0

    def test_matches_hand_confusion(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        ref = np.array([0, 1] * 10)
        f = FunctionBlackbox(lambda Q: ref[Q[:, 0].astype(int)], 1, 2)
        tree = leaf_tree(1, d=1, m=2)  # predicts 1 everywhere
        rep = fidelity(tree, f, X)
        # blackbox 0 -> predicted 1: 10 false positives; blackbox 1 -> 10 TP
        assert rep.confusion[0, 1] == 10 and rep.confusion[1, 1] == 10
        assert rep.accuracy == 0.5
        assert rep.f1 == pytest.approx(2 * 10 / (2 * 10 + 10 + 0))

    def test_empty_test_set_rejected(self):
        tree = leaf_tree(0, d=1, m=2)
        f = FunctionBlackbox(lambda X: np.zeros(len(X), int), 1, 2)
        with pytest.raises(InputError):
            fidelity(tree, f, np.empty((0, 1)))

    @pytest.mark.parametrize("positive_class", [-1, 2])
    def test_binary_positive_class_outside_0_1_rejected(self, positive_class):
        tree = leaf_tree(0, d=1, m=2)
        f = FunctionBlackbox(lambda X: np.zeros(len(X), int), 1, 2)
        with pytest.raises(InputError, match="positive_class"):
            fidelity(tree, f, np.zeros((3, 1)), positive_class=positive_class)
        assert fidelity(tree, f, np.zeros((3, 1)), positive_class=0).f1 == 1.0


class TestAgreement:
    def test_identical_trees(self, gmm_2d):
        tree = leaf_tree(1, d=2, m=2)
        res = agreement(tree, tree, gmm_2d, n=1000)
        assert res.rate == 1.0

    def test_complement_trees(self, gmm_2d):
        a = leaf_tree(0, d=2, m=2)
        b = leaf_tree(1, d=2, m=2)
        assert agreement(a, b, gmm_2d, n=1000).rate == 0.0

    def test_se_scale(self, gmm_2d):
        gmm, bb = three_box_benchmark()
        t1 = extract_tree(gmm, bb, ExtractionConfig(7, 500, seed=0))
        t2 = extract_tree(gmm, bb, ExtractionConfig(7, 500, seed=1))
        res = agreement(t1, t2, gmm, n=10 ** 4)
        assert 0 < res.se < 0.01


class TestExactOracle:
    def test_1d_threshold_function(self):
        gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
        bb = BoxBlackbox([BoxConstraint([-np.inf], [0.0])], [1], d=1, m=2)
        res = exact_greedy_oracle(gmm, bb, 3)
        tree = res.tree
        assert tree.feature[0] == 0
        assert abs(tree.threshold[0]) <= 1e-6
        assert res.gains[0] == pytest.approx(0.5, abs=1e-9)
        assert {tree.label[tree.left[0]], tree.label[tree.right[0]]} == {0, 1}

    def test_constant_function_single_leaf(self, gmm_2d):
        bb = BoxBlackbox([], [], d=2, m=2, default_label=1)
        res = exact_greedy_oracle(gmm_2d, bb, 7)
        assert res.tree.size == 1 and res.tree.label[0] == 1

    def test_class_masses_sum_to_region_mass(self, rng):
        gmm, bb = three_box_benchmark()
        for _ in range(20):
            lo = rng.uniform(-3, 0, size=2)
            hi = lo + rng.uniform(0.5, 4, size=2)
            box = BoxConstraint(lo, hi)
            p, z = _class_masses(gmm, bb, box)
            assert abs(p.sum() - z) <= 1e-10
            assert abs(z - box_mass(gmm, box)) <= 1e-12

    def test_gains_match_monte_carlo_at_100_random_points(self):
        gmm, bb = three_box_benchmark()
        rng = np.random.default_rng(0)
        X = sample(gmm, rng, 10 ** 6)
        y = bb.predict(X)
        from treextract import estimate_split
        for _ in range(100):
            dim = int(rng.integers(2))
            t = float(rng.uniform(-2.5, 2.5))
            exact = _exact_gain_at(gmm, bb, dim, t)
            est = estimate_split(X, y, 2, 1.0, dim, t)
            # The plug-in gain estimator has bounded influence, so its SE at
            # n draws is below 1/sqrt(n); allow four of those.
            assert abs(exact - est) <= 4e-3

    def test_batched_gain_matches_per_threshold_calls(self):
        gmm, bb = three_box_benchmark()
        box = BoxConstraint([-2.0, -np.inf], [1.5, 2.2])
        p, z = _class_masses(gmm, bb, box)
        parent_h = _impurity_term(p, z)
        # Includes box edges, blackbox edges and thresholds outside the box,
        # where one child is empty.
        ts = np.concatenate([np.linspace(-3.0, 3.0, 33), [-2.0, 1.5, -0.8, 0.6, 2.8]])
        for dim in (0, 1):
            batched = _exact_gain(gmm, bb, box, parent_h, dim, ts)
            assert batched.shape == ts.shape
            single = np.array([_exact_gain(gmm, bb, box, parent_h, dim, float(t))
                               for t in ts])
            looped = np.array([_looped_gain(gmm, bb, box, dim, float(t)) for t in ts])
            np.testing.assert_allclose(batched, single, rtol=0, atol=1e-15)
            np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bench, expected", [
        (two_box_benchmark,
         [(0, 0.9, 1, 2), (0, -0.6, 3, 4), 1, (1, 0.4, 5, 6), 0, 1, 0],
         ),
        (three_box_benchmark,
         [(0, -0.8, 1, 2), (1, 1.2, 3, 4), (0, 0.6, 5, 6), 1, 0, 0, 1],
         ),
    ])
    def test_oracle_tree_pinned(self, bench, expected):
        """The 7-node exact greedy trees: split dims, thresholds and labels."""
        gmm, bb = bench()
        tree = exact_greedy_oracle(gmm, bb, 7).tree
        assert tree.size == len(expected)
        for i, want in enumerate(expected):
            if isinstance(want, tuple):
                assert (tree.feature[i], tree.threshold[i], tree.left[i], tree.right[i]) == want
            else:
                assert tree.feature[i] == -1 and tree.label[i] == want
        total = tree.mass[tree.feature < 0].sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_even_k_rejected(self, gmm_2d):
        bb = BoxBlackbox([], [], d=2, m=2)
        with pytest.raises(InputError):
            exact_greedy_oracle(gmm_2d, bb, 4)


def _looped_gain(gmm, bb, box, dim, t):
    """Reference gain, one box_mass call per region and blackbox box."""
    def impurity(region):
        if region is None:
            return 0.0
        z = box_mass(gmm, region)
        p = np.zeros(bb.m)
        for b, label in zip(bb.boxes, bb.labels):
            p[label] += box_mass(gmm, region.intersect(b))
        p[bb.default_label] += max(z - p.sum(), 0.0)
        return z - np.dot(p, p) / z if z > 0 else 0.0

    left, right = box.split(dim, t)
    return impurity(box) - impurity(left) - impurity(right)


def _exact_gain_at(gmm, bb, dim, t):
    from treextract.evaluate import _class_masses, _exact_gain, _impurity_term
    box = BoxConstraint.unbounded(2)
    p, z = _class_masses(gmm, bb, box)
    return _exact_gain(gmm, bb, box, _impurity_term(p, z), dim, t)


class TestExperimentResult:
    def test_csv_round_trip(self):
        res = ExperimentResult()
        res.append(ResultRow("ours", 7, 0, 0.91, 0.87, 4600, 12.5))
        res.append(ResultRow("cart", 7, 0, 0.88, None, 100, 3.0))
        text = res.to_csv_text()
        back = ExperimentResult.from_csv_text(text)
        assert back.rows == res.rows
        assert text.splitlines()[0] == "algorithm,size,seed,fidelity_acc,fidelity_f1,budget,wall_ms"

    def test_median(self):
        res = ExperimentResult()
        for seed, f1 in enumerate([0.5, 0.9, 0.7]):
            res.append(ResultRow("ours", 3, seed, 0.8, f1, 10, 1.0))
        assert res.median("ours", 3) == 0.7

    def test_missing_rows_rejected(self):
        with pytest.raises(InputError):
            ExperimentResult().median("ours", 3)


class TestRunFidelityCurve:
    def test_single_cell_single_row(self):
        gmm, bb = three_box_benchmark()

        def instance(seed):
            rng = np.random.default_rng(seed)
            return TaskInstance(bb, gmm, None, sample(gmm, rng, 200))

        task = FidelityTask("toy", 200, instance)
        res = run_fidelity_curve(task, [3], ["ours"], n_seeds=1)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.algorithm == "ours" and row.size == 3 and row.seed == 0
        assert 0 <= row.fidelity_acc <= 1

    def test_budget_matching_between_algorithms(self):
        gmm, bb = three_box_benchmark()

        def instance(seed):
            rng = np.random.default_rng(seed)
            from treextract import Dataset
            X = sample(gmm, rng, 100)
            return TaskInstance(bb, gmm, Dataset.from_arrays(X, bb.predict(X)),
                                sample(gmm, rng, 200))

        task = FidelityTask("toy", 100, instance)
        res = run_fidelity_curve(task, [7], ["ours", "born_again"], n_seeds=2)
        for seed in (0, 1):
            ours = [r for r in res.rows if r.algorithm == "ours" and r.seed == seed][0]
            born = [r for r in res.rows if r.algorithm == "born_again" and r.seed == seed][0]
            assert born.budget <= ours.budget

    def test_unknown_algorithm_rejected(self):
        task = FidelityTask("toy", 10, lambda seed: None)
        with pytest.raises(InputError):
            run_fidelity_curve(task, [3], ["magic"], n_seeds=1)

    def test_failed_seed_leaves_missing_rows_and_continues(self):
        gmm, bb = three_box_benchmark()

        def instance(seed):
            if seed == 0:
                raise RuntimeError("simulated data failure")
            rng = np.random.default_rng(seed)
            return TaskInstance(bb, gmm, None, sample(gmm, rng, 100))

        task = FidelityTask("toy", 100, instance)
        with pytest.warns(UserWarning, match="task instance failed"):
            res = run_fidelity_curve(task, [3], ["ours"], n_seeds=2)
        assert [r.seed for r in res.rows] == [1]
        assert res.failures == ["task instance failed at seed=0: simulated data failure"]

    def test_failed_extraction_recorded_with_dependent_skip(self):
        gmm, bb = three_box_benchmark()

        def broken(X):
            raise RuntimeError("simulated blackbox failure")

        def instance(seed):
            rng = np.random.default_rng(seed)
            f = FunctionBlackbox(broken, bb.d, bb.m)
            return TaskInstance(f, gmm, None, sample(gmm, rng, 100))

        # Ours fails, so the budget-matched baseline has nothing to match.
        task = FidelityTask("toy", 100, instance)
        with pytest.warns(UserWarning):
            res = run_fidelity_curve(task, [3], ["ours", "born_again"], n_seeds=1)
        assert res.rows == []
        assert [m.split(" ")[0] for m in res.failures] == ["ours", "born_again"]
