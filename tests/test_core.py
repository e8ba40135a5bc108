import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treextract import BoxConstraint, Dataset, DecisionTree, InputError
from treextract.core import class_labels, is_count, leaf_row, split_row

from helpers import dataset, leaf_tree, predict_one


def box(d=2):
    return BoxConstraint.unbounded(d)


def contains(b, x) -> bool:
    """Membership of one point: the one-row case of contains_batch."""
    return bool(b.contains_batch(np.reshape(x, (1, -1)))[0])


class TestSplit:
    def test_left_part_sets_upper(self):
        left, right = box().split(0, 5.0)
        assert left.upper[0] == 5.0 and np.isinf(left.lower[0])
        assert right.lower[0] == 5.0 and np.isinf(right.upper[0])

    def test_redundant_bound_dropped(self):
        tight = box().split(0, 3.0)[0]
        out, empty = tight.split(0, 5.0)
        assert np.array_equal(out.upper, tight.upper)
        assert np.array_equal(out.lower, tight.lower)
        assert empty is None

    def test_empty_interval_unsatisfiable(self):
        high = box().split(0, 2.0)[1]
        assert high.split(0, 2.0)[0] is None

    def test_right_part_tightens_lower(self):
        out = box().split(1, -1.0)[1]
        assert out.lower[1] == -1.0

    def test_dim_out_of_range(self):
        for dim in (2, -1):
            with pytest.raises(InputError):
                box(2).split(dim, 0.0)

    @pytest.mark.parametrize("lower, upper", [([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])],
                             ids=["lengths", "2-d"])
    def test_bound_shapes_checked(self, lower, upper):
        with pytest.raises(InputError, match="lower and upper must be 1-d arrays of equal length"):
            BoxConstraint(lower, upper)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InputError):
            box(2).split(0, np.nan)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.floats(-10, 10, allow_nan=False),
                              st.sampled_from([0, 1])),
                    min_size=0, max_size=8),
           st.randoms(use_true_random=False))
    def test_order_insensitive_and_idempotent(self, specs, pyrandom):
        """Folding (dim, threshold, side) tests onto a box, side 0 keeping
        x_dim <= threshold and side 1 x_dim > threshold."""

        def fold(tests):
            b = box(3)
            for dim, t, side in tests:
                if b is None:
                    return None
                b = b.split(dim, t)[side]
            return b

        a = fold(specs)
        shuffled = specs[:]
        pyrandom.shuffle(shuffled)
        b = fold(shuffled)
        if a is None or b is None:
            # Unsatisfiability may surface at different points, but the
            # final verdict must agree.
            assert (a is None) == (b is None)
            return
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
        again = fold(specs + specs)
        assert np.array_equal(a.lower, again.lower) and np.array_equal(a.upper, again.upper)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.none(), st.floats(-5, 5)),
                              st.one_of(st.none(), st.floats(0.01, 5))),
                    min_size=3, max_size=3),
           st.integers(0, 2), st.floats(0.01, 0.99))
    def test_parts_match_the_path_boxes_of_a_tree(self, bounds, dim, frac):
        """A tree whose path reaches a random box and then splits it once
        at (dim, t) has the two parts of box.split(dim, t) as the path
        boxes of that split's children."""
        d, m = 3, 1
        lower = np.array([-np.inf if lo is None else lo for lo, _ in bounds])
        upper = np.array([np.inf if w is None else (0.0 if lo is None else lo) + w
                          for lo, w in bounds])
        region = BoxConstraint(lower, upper)
        lo, hi = max(lower[dim], -6.0), min(upper[dim], 6.0)
        t = lo + frac * (hi - lo)
        # A chain of splits at the finite bounds; node c continues the path.
        rows, c = {0: None}, 0
        tests = [(k, lower[k], 1) for k in range(d) if np.isfinite(lower[k])]
        tests += [(k, upper[k], 0) for k in range(d) if np.isfinite(upper[k])]
        for k, v, side in tests + [(dim, t, None)]:
            kids = (len(rows), len(rows) + 1)
            rows[c] = split_row(k, v, *kids, m)
            for kid in kids:
                rows[kid] = leaf_row(0, np.ones(m))
            c = c if side is None else kids[side]
        tree = DecisionTree.from_rows([rows[i] for i in range(len(rows))], d, m)
        lower, upper = tree._path_bounds()
        for part, kid in zip(region.split(dim, t), (tree.left[c], tree.right[c])):
            assert np.array_equal(part.lower, lower[kid])
            assert np.array_equal(part.upper, upper[kid])


def array_tree(feature, threshold, left, right, label, d, m, **stats):
    """DecisionTree from its routing arrays: leaves get a one-hot histogram
    and mass 1 unless given, internal nodes zero statistics."""
    leaf = np.asarray(feature) < 0
    if "histogram" not in stats:
        stats["histogram"] = np.eye(m)[label] * leaf[:, None]
    stats.setdefault("mass", leaf * 1.0)
    stats.setdefault("cached_gain", np.zeros(leaf.size))
    return DecisionTree(feature, threshold, left, right, label, d=d, m=m, **stats)


def depth2_tree():
    # x0 <= 0 ? (x1 <= 1 ? 0 : 1) : 2
    return array_tree(feature=[0, 1, -1, -1, -1], threshold=[0.0, 1.0, 0.0, 0.0, 0.0],
                      left=[1, 3, -1, -1, -1], right=[2, 4, -1, -1, -1],
                      label=[0, 0, 2, 0, 1], d=2, m=3)


def walk(tree, x):
    """Reference routing: follow one point from the root, node by node."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


class TestTreePredict:
    def test_single_leaf(self):
        tree = leaf_tree(1, d=3, m=2)
        assert predict_one(tree, [5.0, -2.0, 0.0]) == 1

    def test_left_branch_on_satisfied_constraint(self):
        tree = array_tree([0, -1, -1], [0.0, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                          [0, 0, 1], d=1, m=2)
        assert predict_one(tree, [-1.0]) == 0
        assert predict_one(tree, [0.0]) == 0  # boundary goes left
        assert predict_one(tree, [0.5]) == 1

    def test_grid_matches_path_box_membership(self):
        """Exhaustive check against direct box-membership evaluation."""
        tree = depth2_tree()
        boxes = [BoxConstraint(lo, hi) for lo, hi in zip(*tree._path_bounds())]
        leaf_ids = np.flatnonzero(tree.feature < 0)
        grid = np.linspace(-3, 3, 10)
        for x0 in grid:
            for x1 in grid:
                x = np.array([x0, x1])
                hits = [i for i in leaf_ids if contains(boxes[i], x)]
                assert len(hits) == 1, "exactly one root-leaf path accepts x"
                assert predict_one(tree, x) == tree.label[hits[0]]

    def test_predict_batch_matches_pointwise(self, rng):
        tree = depth2_tree()
        X = rng.normal(size=(300, 2)) * 2
        batch = tree.predict_batch(X)
        assert all(batch[i] == tree.label[walk(tree, X[i])] for i in range(len(X)))
        assert all(batch[i] == predict_one(tree, X[i]) for i in range(len(X)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            predict_one(depth2_tree(), [1.0])
        with pytest.raises(InputError):
            depth2_tree().predict_batch(np.zeros((4, 3)))

    def test_nonfinite_point(self):
        with pytest.raises(InputError):
            predict_one(depth2_tree(), [np.nan, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_batch_rejects_nonfinite(self, bad):
        # A NaN once compared false against every threshold and was routed
        # right, so predict_batch returned a label where predict raised.
        X = np.array([[0.5, 0.0], [bad, 0.0]])
        with pytest.raises(InputError):
            depth2_tree().predict_batch(X)


@st.composite
def random_trees(draw, d=3, m=3, max_internal=7):
    """Grow a random proper binary tree whose path boxes stay satisfiable:
    every threshold lands strictly inside its node's interval, and each new
    pair of children gets the next two ids."""
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    open_slots = {0: BoxConstraint.unbounded(d)}
    n_internal = draw(st.integers(0, max_internal))
    for _ in range(n_internal):
        keys = sorted(open_slots)
        slot = keys[draw(st.integers(0, len(keys) - 1))]
        box = open_slots.pop(slot)
        dim = draw(st.integers(0, d - 1))
        lo = max(box.lower[dim], -6.0)
        hi = min(box.upper[dim], 6.0)
        frac = draw(st.floats(0.05, 0.95))
        t = lo + frac * (hi - lo)
        ids = (len(feature), len(feature) + 1)
        feature[slot], threshold[slot], (left[slot], right[slot]) = dim, t, ids
        for col, v in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            col.extend([v, v])
        open_slots[ids[0]], open_slots[ids[1]] = box.split(dim, t)
    label = [0] * len(feature)
    for slot in open_slots:
        label[slot] = draw(st.integers(0, m - 1))
    return array_tree(feature, threshold, left, right, label, d, m)


class TestTreePathProperty:
    @settings(max_examples=60, deadline=None)
    @given(random_trees(), st.lists(st.floats(-6, 6, allow_nan=False),
                                    min_size=3, max_size=3))
    def test_exactly_one_path_accepts_and_label_matches(self, tree, point):
        x = np.array(point)
        boxes = [BoxConstraint(lo, hi) for lo, hi in zip(*tree._path_bounds())]
        hits = [i for i in np.flatnonzero(tree.feature < 0) if contains(boxes[i], x)]
        assert len(hits) == 1
        assert tree.apply(x[None])[0] == walk(tree, x) == hits[0]
        assert predict_one(tree, x) == tree.label[hits[0]]


class TestTreeValidation:
    def test_unreachable_node_rejected(self):
        with pytest.raises(InputError, match="unreachable"):
            array_tree([-1, -1], [0.0, 0.0], [-1, -1], [-1, -1], [0, 0], d=1, m=1)

    def test_shared_node_rejected(self):
        with pytest.raises(InputError, match="shared"):
            array_tree([0, -1, -1], [0.0] * 3, [1, -1, -1], [1, -1, -1], [0] * 3, d=1, m=1)

    def test_child_id_below_parent_rejected(self):
        # 0 -> (2, 3) is fine, but node 2 -> (4, 1) points back to a lower id.
        with pytest.raises(InputError, match="exceed"):
            array_tree([0, -1, 0, -1, -1], [0.0, 0.0, 1.0, 0.0, 0.0], [2, -1, 4, -1, -1],
                       [3, -1, 1, -1, -1], [0] * 5, d=1, m=1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            array_tree([-1], [0.0], [-1], [-1], [3], d=2, m=2,
                       histogram=[[1.0, 0.0]])

    def test_histogram_must_normalize(self):
        with pytest.raises(InputError):
            array_tree([-1], [0.0], [-1], [-1], [0], d=1, m=2,
                       histogram=[[0.5, 0.2]], mass=[0.5])

    def test_leaf_columns_must_be_canonical(self):
        with pytest.raises(InputError):  # a leaf with a child id
            array_tree([-1], [0.0], [0], [-1], [0], d=1, m=1)
        with pytest.raises(InputError):  # an internal node with a leaf mass
            array_tree([0, -1, -1], [0.0] * 3, [1, -1, -1], [2, -1, -1], [0] * 3,
                       d=1, m=1, mass=[1.0, 1.0, 1.0])

    def test_unsatisfiable_path_rejected(self):
        # x0 <= 1 and then x0 > 1 on the left branch: the (1, 1] interval
        # is empty, so the tree is malformed.
        with pytest.raises(InputError, match="unsatisfiable"):
            array_tree([0, 0, -1, -1, -1], [1.0, 1.0, 0.0, 0.0, 0.0],
                       [1, 3, -1, -1, -1], [2, 4, -1, -1, -1], [0] * 5, d=1, m=1)

    def test_array_lengths_must_agree(self):
        with pytest.raises(InputError, match="node arrays must share one length"):
            array_tree([-1], [0.0], [-1], [-1], [0, 0], d=1, m=1, histogram=[[1.0]])

    def test_split_dim_must_be_below_d(self):
        with pytest.raises(InputError, match="split dim out of range"):
            array_tree([1, -1, -1], [0.0] * 3, [1, -1, -1], [2, -1, -1], [0] * 3, d=1, m=1)

    def test_negative_cached_gain_rejected(self):
        with pytest.raises(InputError, match="cached_gain must be nonnegative"):
            array_tree([-1], [0.0], [-1], [-1], [0], d=1, m=1, cached_gain=[-0.1])

    def test_arrays_are_read_only(self):
        tree = depth2_tree()
        assert not tree.threshold.flags.writeable and not tree.histogram.flags.writeable


class TestInputRules:
    @pytest.mark.parametrize("value, low, ok", [
        (3, 1, True), (np.int64(3), 1, True), (np.int32(0), 0, True), (np.uint8(2), 2, True),
        (0, 1, False), (-1, 0, False), (True, 0, False), (np.bool_(True), 0, False),
        (3.0, 1, False), (2.5, 1, False), (np.float64(3), 1, False), ("3", 1, False),
        (None, 1, False),
    ], ids=["int", "int64", "int32-at-low", "uint8-at-low", "below-low", "negative", "bool",
            "numpy-bool", "integral-float", "float", "float64", "str", "none"])
    def test_is_count(self, value, low, ok):
        assert is_count(value, low) is ok

    @pytest.mark.parametrize("values, want", [
        ([0, 1, 1], [0, 1, 1]), (np.array([True, False]), [1, 0]),
        (np.array([2, 0], np.uint8), [2, 0]), ([1.0, 2.0], [1, 2]), ((), []),
        ([0, 0.7], None), ([np.nan], None), ([np.inf], None), ([-1], None), ([3], None),
        ([1e30], None),
    ], ids=["ints", "bools", "uint8", "integral-floats", "empty", "0.7", "nan", "inf", "-1", "m",
            "huge"])
    def test_class_labels(self, values, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = class_labels(values, 3)
        if want is None:
            assert y is None
        else:
            assert y.dtype == np.int64 and y.tolist() == want


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            Dataset(np.array([[1.0], [np.nan]]), None, ("a",), 0)

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            Dataset(np.ones((2, 1)), np.array([0, 5]), ("a",), 2)

    @pytest.mark.parametrize("features, labels, names, message", [
        (np.ones(3), None, ("a",), r"features must be a \(n>=1, d>=1\) matrix, got shape \(3,\)"),
        (np.ones((2, 1)), np.array([0, 1, 0]), ("a",), r"labels shape \(3,\) does not match n=2"),
        (np.ones((2, 2)), None, ("a",), "column_names length does not match d"),
    ], ids=["features", "labels", "column-names"])
    def test_shapes_checked(self, features, labels, names, message):
        with pytest.raises(InputError, match=message):
            Dataset(features, labels, names, 2)

    def test_from_arrays_defaults(self):
        ds = dataset(np.ones((3, 2)), np.array([0, 1, 1]))
        assert ds.m == 2 and ds.column_names == ("x0", "x1")
        assert not ds.features.flags.writeable


def reference_contains_batch(box, X):
    """Membership as one elementwise formula over every column."""
    X = np.asarray(X, dtype=np.float64)
    return np.all((X > box.lower) & (X <= box.upper), axis=1)


_EDGE_VALUES = [np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 0.5, 1.0]


@st.composite
def boxes_and_points(draw):
    """A box of 1-20 dims whose bounds are mostly infinite or on a few
    shared values, now and then NaN or infinite on the wrong side, and up to
    12 points mixing NaN, +-inf, values on the bounds and ordinary values."""
    d = draw(st.integers(1, 20))
    odd = [np.nan, np.inf, -np.inf]
    lower = draw(st.lists(st.sampled_from([-np.inf] * 8 + [-1.0, 0.0, 0.5] + odd),
                          min_size=d, max_size=d))
    upper = draw(st.lists(st.sampled_from([np.inf] * 8 + [1.0, 0.5, 0.0] + odd),
                          min_size=d, max_size=d))
    n = draw(st.integers(0, 12))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-2, 2))
    X = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    return BoxConstraint(lower, upper), np.array(X, dtype=np.float64).reshape(n, d)


class TestMembership:
    @settings(max_examples=300, deadline=None)
    @given(boxes_and_points())
    def test_matches_elementwise_formula(self, case):
        b, X = case
        got, want = b.contains_batch(X), reference_contains_batch(b, X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert [contains(b, x) for x in X] == want.tolist()

    def test_bounds_nan_and_infinities(self):
        b = BoxConstraint([0.0, -np.inf], [1.0, np.inf])
        X = [[0.0, 0.0], [1.0, 0.0], [0.5, np.inf], [0.5, -np.inf], [0.5, np.nan],
             [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0]]
        assert b.contains_batch(X).tolist() == [False, True, True, False, False,
                                                False, False, False]

    @pytest.mark.parametrize("lower, upper, inside", [
        ([-np.inf], [np.inf], [False, False, True, True]),
        ([-np.inf], [1.0], [False, False, True, False]),
        ([-1.0], [np.inf], [False, False, True, True]),
        ([-1.0], [1.0], [False, False, True, False]),
    ])
    def test_boxes_infinite_on_either_side(self, lower, upper, inside):
        X = [[np.nan], [-np.inf], [0.0], [np.inf]]
        b = BoxConstraint(lower, upper)
        assert b.contains_batch(X).tolist() == inside
        assert [contains(b, x) for x in X] == inside

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan, -np.inf], [1.0, np.inf]), ([-np.inf, -np.inf], [1.0, np.nan]),
        ([np.inf, -np.inf], [np.inf, np.inf]), ([-np.inf, -np.inf], [-np.inf, np.inf]),
    ])
    def test_nan_or_wrong_side_infinite_bound_holds_nothing(self, lower, upper):
        X = [[0.0, 0.0], [0.5, np.inf], [-5.0, 3.0]]
        assert not BoxConstraint(lower, upper).contains_batch(X).any()

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2,), (1, 2, 2)])
    def test_points_of_another_width_refused(self, shape):
        """An (n, 1) matrix used to broadcast against a d = 2 box."""
        with pytest.raises(InputError, match="expected points of dimension 2"):
            BoxConstraint([0.0, 0.0], [1.0, 1.0]).contains_batch(np.zeros(shape))

    def test_no_points(self):
        out = BoxConstraint([0.0, 0.0], [1.0, 1.0]).contains_batch(np.empty((0, 2)))
        assert out.shape == (0,) and out.dtype == bool

    def test_contains_is_one_row_of_contains_batch(self):
        b = BoxConstraint([0.0, -1.0], [1.0, 1.0])
        assert contains(b, [0.5, 1.0]) and not contains(b, [0.0, 0.0])
        assert contains(BoxConstraint([0.0], [1.0]), 0.5)
