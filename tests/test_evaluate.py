import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from treextract import (BoxBlackbox, BoxConstraint, ConfigError, ExtractionConfig,
                        FunctionBlackbox, GaussianMixture, InputError,
                        agreement, exact_greedy_oracle, extract_tree, fidelity,
                        sample)
from treextract.evaluate import (ExperimentResult, FidelityTask, ResultRow,
                                 TaskInstance, _best_exact_split, _class_masses,
                                 _exact_gain, _impurity_term, run_fidelity_curve,
                                 three_box_benchmark)
from treextract.gmm import box_mass

from helpers import (dataset, leaf_tree, random_mixture, random_tree, reference_agreement,
                     two_box_benchmark)


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

    def test_column_shaped_blackbox_output_rejected(self):
        """A (n, 1) label column used to broadcast in the confusion count:
        100 points gave accuracy 48.0 over 10,000 counts."""
        from treextract import BlackboxError
        tree = leaf_tree(0, d=1, m=2)
        f = FunctionBlackbox(lambda X: (X[:, :1] > 0).astype(int), 1, 2)
        X = np.linspace(-1.0, 1.0, 100)[:, None]
        with pytest.raises(BlackboxError, match=r"shape \(100, 1\)"):
            fidelity(tree, f, X)

    @pytest.mark.parametrize("positive_class", [-1, 2, True])
    def test_binary_positive_class_outside_0_1_rejected(self, positive_class):
        tree = leaf_tree(0, d=1, m=2)
        f = FunctionBlackbox(lambda X: np.zeros(len(X), int), 1, 2)
        with pytest.raises(InputError, match="positive_class"):
            fidelity(tree, f, np.zeros((3, 1)), positive_class=positive_class)
        assert fidelity(tree, f, np.zeros((3, 1)), positive_class=0).f1 == 1.0

    @pytest.mark.parametrize("d, m", [(1, 3), (2, 2)])
    def test_tree_blackbox_size_mismatch_rejected(self, d, m):
        """A 2-class tree against a 3-class blackbox that returns label 2
        used to fail reshaping the confusion counts; a tree of the wrong
        width is refused too, before any label is asked for."""
        calls = []
        f = FunctionBlackbox(lambda X: calls.append(X) or np.full(len(X), m - 1), d, m)
        with pytest.raises(InputError, match=rf"tree \(d=1, m=2\) and blackbox \(d={d}, m={m}\)"):
            fidelity(leaf_tree(0, d=1, m=2), f, np.zeros((2, 1)))
        assert not calls


    @pytest.mark.parametrize("shape", [(5, 1), (5, 3)], ids=["narrower", "wider"])
    def test_points_of_another_width_rejected(self, shape):
        """They used to reach the blackbox, whose refusal was reported as a
        BlackboxError (exit 2 from the command line)."""
        calls = []
        f = FunctionBlackbox(lambda X: calls.append(X) or np.zeros(len(X), int), 2, 2)
        with pytest.raises(InputError, match=r"expected points of dimension 2"):
            fidelity(leaf_tree(0, d=2, m=2), f, np.zeros(shape))
        assert not calls


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_exact_matches_monte_carlo_reference(self, d, k, m, seed):
        """The agreeing count of 2e4 draws routed through both trees lies
        inside the two-sided 5-sigma band of Binomial(2e4, exact): 5 SE in
        the bulk, and exact binomial tails where the count is near 0 or n."""
        rng = np.random.default_rng(seed)
        gmm = random_mixture(rng, d, k)
        a, b = (random_tree(rng, d, m, int(rng.integers(0, 8))) for _ in range(2))
        exact = agreement(a, b, gmm).exact
        n = 2 * 10 ** 4
        count = reference_agreement(a, b, gmm, n, rng)
        five_sigma = scipy.stats.norm.sf(5.0)  # one tail of a 5 SE band
        assert scipy.stats.binom.cdf(count, n, exact) > five_sigma
        assert scipy.stats.binom.sf(count - 1, n, exact) > five_sigma

    @pytest.mark.parametrize("seed", range(4))
    def test_self_agreement_is_one(self, seed):
        """The leaf boxes of a tree partition R^d."""
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        tree = random_tree(rng, d, 3, 12)
        gmm = random_mixture(rng, d, 3)
        assert agreement(tree, tree, gmm).exact == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_exact_is_symmetric(self):
        rng = np.random.default_rng(3)
        gmm = random_mixture(rng, 2, 3)
        for _ in range(10):
            a, b = random_tree(rng, 2, 2, 6), random_tree(rng, 2, 2, 9)
            assert agreement(a, b, gmm).exact == agreement(b, a, gmm).exact

    def test_rate_is_a_binomial_draw_at_exact(self):
        gmm, bb = three_box_benchmark()
        a = extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=0))
        b = exact_greedy_oracle(gmm, bb, 7).tree
        n = 12_345
        res = agreement(a, b, gmm, n, np.random.default_rng(5))
        assert 0.9 < res.exact < 1.0
        assert res.rate == np.random.default_rng(5).binomial(n, res.exact) / n
        assert res.se == math.sqrt(res.rate * (1 - res.rate) / n) and res.n == n

    @pytest.mark.parametrize("d_a, d_b, gmm_d", [(2, 2, 1), (2, 2, 3), (2, 3, 2)])
    def test_dimension_mismatch_rejected(self, d_a, d_b, gmm_d):
        rng = np.random.default_rng(0)
        a, b = random_tree(rng, d_a, 2, 3), random_tree(rng, d_b, 2, 3)
        with pytest.raises(InputError, match="mixture dimension"):
            agreement(a, b, random_mixture(rng, gmm_d, 2))

    def test_criterion_5_call_form(self):
        """Positional n and rng, and .rate/.se, as the convergence criterion
        and the benchmark call it."""
        gmm, bb = three_box_benchmark()
        oracle = exact_greedy_oracle(gmm, bb, 7).tree
        tree = extract_tree(gmm, bb, ExtractionConfig(7, 1000, seed=0))
        res = agreement(tree, oracle, gmm, 10 ** 5, np.random.default_rng(10_000))
        assert 0.95 < res.rate <= 1.0 and 0 < res.se < 1e-3


def reference_golden_max(fn, a, b, tol=1e-8):
    """Golden-section maximization of fn over [a, b], one bracket at a time."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    t = 0.5 * (a + b)
    return t, fn(t)


def reference_best_exact_split(gmm, bb, box, parent_h, coarse=33):
    """The oracle's split search with each piece's coarse grid scanned and
    its bracket refined by its own calls, dimension by dimension."""
    from treextract.evaluate import _search_interval
    best = None  # (gain, dim, threshold)
    for dim in range(bb.d):
        lo, hi = _search_interval(gmm, box, dim)
        edges = set()
        for b in bb.boxes:
            for v in (b.lower[dim], b.upper[dim]):
                if np.isfinite(v) and lo < v < hi:
                    edges.add(float(v))
        breaks = [lo] + sorted(edges) + [hi]
        fn = lambda t: _gain(gmm, bb, box, parent_h, dim, t)  # noqa: E731
        dim_best = None
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a <= 0:
                continue
            grid = np.linspace(a, b, coarse)
            vals = _exact_gain(gmm, bb, box, parent_h, dim, grid)
            j = int(np.argmax(vals))
            t, g = reference_golden_max(fn, float(grid[max(j - 1, 0)]),
                                        float(grid[min(j + 1, coarse - 1)]))
            if vals[j] > g:
                t, g = float(grid[j]), float(vals[j])
            if dim_best is None or g > dim_best[0] or (g == dim_best[0] and t < dim_best[1]):
                dim_best = (g, t)
        if dim_best is not None and (best is None or dim_best[0] > best[0]):
            best = (dim_best[0], dim, dim_best[1])
    return best


@st.composite
def oracle_cases(draw):
    """A 1-3 component 2-d mixture, one of the two benchmark blackboxes,
    and a node box whose sides are finite or not."""
    k = draw(st.integers(1, 3))
    coord = st.floats(-2.5, 2.5)
    means = draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=k, max_size=k))
    sds = draw(st.lists(st.lists(st.floats(0.2, 1.5), min_size=2, max_size=2),
                        min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    gmm = GaussianMixture(np.array(weights) / sum(weights), means, sds)
    bb = draw(st.sampled_from([three_box_benchmark, two_box_benchmark]))()[1]
    lower, upper = [], []
    for _ in range(2):
        a, b = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
        lower.append(draw(st.sampled_from([a, -np.inf])))
        upper.append(draw(st.sampled_from([b, np.inf])))
    return gmm, bb, BoxConstraint(lower, upper)


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

    def test_non_box_blackbox_rejected(self, gmm_2d):
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), 2, 2)
        with pytest.raises(InputError, match="the exact oracle requires a box-piecewise blackbox"):
            exact_greedy_oracle(gmm_2d, f, 3)

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
            p, z = _box_masses(gmm, bb, box)
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
        parent_h = _parent_h(gmm, bb, box)
        # Includes box edges, blackbox edges and thresholds outside the box,
        # where one child is empty.
        ts = np.concatenate([np.linspace(-3.0, 3.0, 33), [-2.0, 1.5, -0.8, 0.6, 2.8]])
        for dim in (0, 1):
            batched = _exact_gain(gmm, bb, box, parent_h, dim, ts)
            assert batched.shape == ts.shape
            single = np.array([_gain(gmm, bb, box, parent_h, dim, float(t))
                               for t in ts])
            looped = np.array([_looped_gain(gmm, bb, box, dim, float(t)) for t in ts])
            np.testing.assert_allclose(batched, single, rtol=0, atol=1e-15)
            np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-15)

    def test_batched_gain_over_mixed_dims_matches_single_calls(self):
        """One batch may mix dimensions; each gain keeps the bits of its own
        single-threshold call, which lockstep refinement relies on."""
        gmm, bb = three_box_benchmark()
        box = BoxConstraint([-2.0, -np.inf], [1.5, 2.2])
        parent_h = _parent_h(gmm, bb, box)
        ts = np.concatenate([np.linspace(-3.0, 3.0, 33), [-2.0, 1.5, -0.8, 0.6, 2.8]])
        dims = np.random.default_rng(3).integers(0, 2, size=ts.shape)
        batched = _exact_gain(gmm, bb, box, parent_h, dims, ts)
        single = np.array([_gain(gmm, bb, box, parent_h, int(d), float(t))
                           for d, t in zip(dims, ts)])
        looped = np.array([_looped_gain(gmm, bb, box, int(d), float(t))
                           for d, t in zip(dims, ts)])
        assert batched.tobytes() == single.tobytes()
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(oracle_cases())
    def test_lockstep_split_matches_bracket_at_a_time_reference(self, case):
        gmm, bb, box = case
        parent_h = _parent_h(gmm, bb, box)
        got = _best_exact_split(gmm, bb, box, parent_h)
        want = reference_best_exact_split(gmm, bb, box, parent_h)
        bits = lambda r: None if r is None else (r[0].hex(), r[1], r[2].hex())  # noqa: E731
        assert bits(got) == bits(want)

    @settings(max_examples=30, deadline=None)
    @given(oracle_cases(), st.integers(1, 7).map(lambda k: 2 * k + 1))
    def test_every_oracle_leaf_has_mass(self, case, size):
        """A committed gain above GAIN_FLOOR is at most twice the smaller
        child's mass, so no split the oracle commits leaves a leaf empty."""
        gmm, bb, _ = case
        tree = exact_greedy_oracle(gmm, bb, size).tree
        leaves = tree.feature < 0
        assert np.all(tree.mass[leaves] > 0)
        assert tree.mass[leaves].sum() == pytest.approx(1.0, abs=1e-9)

    def test_three_box_oracle_call_count(self, monkeypatch):
        """Refinement makes one batched call per golden-section step for all
        brackets of a node: 207 log_box_masses calls for this tree, against
        2,414 when each bracket was refined on its own and every leaf scored."""
        import treextract.evaluate as evaluate_mod
        calls = []
        real = evaluate_mod.log_box_masses
        monkeypatch.setattr(evaluate_mod, "log_box_masses",
                            lambda *a: calls.append(1) or real(*a))
        exact_greedy_oracle(*three_box_benchmark(), 7)
        assert len(calls) <= 300

    def test_oracle_returns_far_from_the_origin(self, monkeypatch):
        """From |x| = 2^26 on the float spacing exceeds GOLDEN_TOL, and a
        bracket refined to that absolute width never closed. With the width
        floored at 4 ulps of a bracket's ends, the 3-node tree of the shifted
        benchmark takes about as many gain calls as at the origin (about 40)."""
        import treextract.evaluate as evaluate_mod
        calls = []
        real = evaluate_mod._exact_gain

        def counted(*args):
            calls.append(1)
            if len(calls) > 200:
                raise AssertionError("golden-section refinement did not close its brackets")
            return real(*args)

        monkeypatch.setattr(evaluate_mod, "_exact_gain", counted)
        gmm, bb = three_box_benchmark()
        shift = 1e8
        far_gmm = GaussianMixture(gmm.weights, gmm.means + shift, gmm.stddevs)
        far_bb = BoxBlackbox(tuple(BoxConstraint(b.lower + shift, b.upper + shift)
                                   for b in bb.boxes), bb.labels, d=2, m=2)
        tree = exact_greedy_oracle(far_gmm, far_bb, 3).tree
        assert tree.size == 3 and tree.feature[0] == 0
        assert abs(tree.threshold[0] - (shift - 0.8)) <= 4 * np.spacing(shift)

    def test_gain_batches_are_bounded_on_a_wide_oracle(self, monkeypatch):
        """A d = 6 node with 8 blackbox boxes and 4 components scans about
        3,000 thresholds. Every log_box_masses call still holds at most
        GAIN_BATCH_CELLS box x component x dimension cells, and the split
        keeps the bits it has when all thresholds go in one batch."""
        import treextract.evaluate as evaluate_mod
        rng = np.random.default_rng(5)
        d, k = 6, 4
        gmm = GaussianMixture(np.full(k, 1.0 / k), rng.normal(size=(k, d)),
                              rng.uniform(0.5, 1.5, size=(k, d)))
        boxes = []
        for i in range(8):  # disjoint slabs along x0
            lo = np.concatenate([[-2.4 + 0.6 * i], rng.uniform(-2.0, 0.5, d - 1)])
            hi = lo + np.concatenate([[0.5], rng.uniform(0.5, 2.0, d - 1)])
            boxes.append(BoxConstraint(lo, hi))
        bb = BoxBlackbox(tuple(boxes), (1, 2) * 4, d=d, m=3)
        box = BoxConstraint.unbounded(d)
        parent_h = _parent_h(gmm, bb, box)
        rows = []
        real = evaluate_mod.log_box_masses
        monkeypatch.setattr(evaluate_mod, "log_box_masses",
                            lambda g, lo, hi: rows.append(lo.shape[0]) or real(g, lo, hi))
        cap = evaluate_mod.GAIN_BATCH_CELLS
        got = _best_exact_split(gmm, bb, box, parent_h)
        assert max(rows) * k * d <= cap < 10 * max(rows) * k * d
        monkeypatch.setattr(evaluate_mod, "GAIN_BATCH_CELLS", 1 << 40)
        rows.clear()
        want = _best_exact_split(gmm, bb, box, parent_h)
        assert max(rows) * k * d > 10 * cap
        bits = lambda r: (r[0].hex(), r[1], r[2].hex())  # noqa: E731
        assert bits(got) == bits(want)

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


def _box_masses(gmm, bb, box):
    """_class_masses of one box: its (m,) class masses and its mass."""
    p, z = _class_masses(gmm, bb, box.lower[None], box.upper[None])
    return p[0], float(z[0])


def _parent_h(gmm, bb, box):
    """The impurity term of one box, through the batch kernels."""
    p, z = _class_masses(gmm, bb, box.lower[None], box.upper[None])
    return float(_impurity_term(p, z)[0])


def _gain(gmm, bb, box, parent_h, dim, t):
    """_exact_gain at one threshold, as a batch of one."""
    return float(_exact_gain(gmm, bb, box, parent_h, dim, np.array([t]))[0])


def _exact_gain_at(gmm, bb, dim, t):
    box = BoxConstraint.unbounded(2)
    return _gain(gmm, bb, box, _parent_h(gmm, bb, box), dim, t)


class TestExperimentResult:
    def test_csv_round_trip(self):
        res = ExperimentResult()
        res.rows.append(ResultRow("ours", 7, 0, 0.91, 0.87, 4600, 12.5))
        res.rows.append(ResultRow("cart", 7, 0, 0.88, None, 100, 3.0))
        assert res.to_csv_text().splitlines() == [
            "algorithm,size,seed,fidelity_acc,fidelity_f1,budget,wall_ms",
            "ours,7,0,0.91,0.87,4600,12.5",  # floats as repr, which reads back exactly
            "cart,7,0,0.88,,100,3.0"]

    def test_median(self):
        res = ExperimentResult()
        for seed, f1 in enumerate([0.5, 0.9, 0.7]):
            res.rows.append(ResultRow("ours", 3, seed, 0.8, f1, 10, 1.0))
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
            X = sample(gmm, rng, 100)
            return TaskInstance(bb, gmm, dataset(X, bb.predict(X)),
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

    @pytest.mark.parametrize("samples, sizes, algorithms", [
        (10, (4,), ("cart",)), (10, (3, 0), ("ours",)), (1, (3,), ("born_again",)),
        (0, (3,), ("ours", "cart"))],
        ids=["cart-even-size", "ours-size-0", "born-again-1-sample", "ours-0-samples"])
    def test_bad_grid_rejected_before_any_instance(self, samples, sizes, algorithms):
        """A size that is no odd node total, or a node sample count below 2
        when ours or born-again runs, used to fail only once an instance
        (a policy, or a forest plus EM) was built, and with cart alone only
        after every seed's."""
        task = FidelityTask("toy", samples, lambda seed: pytest.fail("built an instance"))
        with pytest.raises(ConfigError):
            run_fidelity_curve(task, sizes, algorithms, n_seeds=2)

    @pytest.mark.parametrize("n_seeds", [0, -1, True, 2.5])
    def test_no_seeds_rejected_before_any_instance(self, n_seeds):
        """No seeds used to give an empty result, which the CLI wrote as an
        empty CSV before failing on its missing rows."""
        task = FidelityTask("toy", 10, lambda seed: pytest.fail("built an instance"))
        with pytest.raises(ConfigError, match="n_seeds"):
            run_fidelity_curve(task, [3], ["ours"], n_seeds=n_seeds)

    @pytest.mark.parametrize("base_seed", [-1, 1.5, "a"])
    def test_bad_base_seed_rejected_before_any_instance(self, base_seed):
        """A negative base seed used to raise numpy's ValueError once the
        first instance was built."""
        task = FidelityTask("toy", 10, lambda seed: pytest.fail("built an instance"))
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            run_fidelity_curve(task, [3], ["ours"], n_seeds=1, base_seed=base_seed)

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
