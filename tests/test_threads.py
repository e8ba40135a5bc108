"""A commit's two scored children, labelled and scanned on two threads.

extract.grow_tree takes that path for node samples of at least
extract.PARALLEL_CELLS cells when the process may run on more than one CPU;
these tests force it on small inputs by setting the constant to 0 and
extract.CPUS to 2, and compare against the one-thread path (a constant no
sample reaches). CI also runs this file in a process with one usable CPU.
"""
import sys
import threading

import numpy as np
import pytest

from treextract import (BlackboxError, EMConfig, ExtractionConfig, FunctionBlackbox,
                        RandomForestConfig, SamplerError, born_again_extract, collect_states,
                        extract_tree, fit_em, make_imbalanced_classification,
                        sample_conditional, train_random_forest)
from treextract import extract
from treextract import io as tio
from treextract.evaluate import three_box_benchmark

ONE_THREAD = 1 << 62  # no node sample has this many cells


class CountingPool(extract.ThreadPoolExecutor):
    """The executor grow_tree uses, counting the pools made and the sibling
    jobs handed to them."""

    made = jobs = 0

    def __init__(self, *args, **kwargs):
        CountingPool.made += 1
        super().__init__(*args, **kwargs)

    def submit(self, *args, **kwargs):
        CountingPool.jobs += 1
        return super().submit(*args, **kwargs)


def _forest():
    data = make_imbalanced_classification(300, d=20, seed=5)
    forest = train_random_forest(data, RandomForestConfig(n_trees=5, max_depth=5,
                                                          balance=True, seed=5))
    return fit_em(data.features, 3, EMConfig(seed=5, n_init=1)), forest


def _build(problem, builder, size, n, seed):
    gmm, f = problem
    ours = extract_tree(gmm, f, ExtractionConfig(size, n, seed=seed))
    if builder == "ours":
        return ours
    if builder == "pruned":
        return extract_tree(gmm, f, ExtractionConfig(size, n, seed=seed, prune=True))
    return born_again_extract(gmm, f, ExtractionConfig(size, n, seed=seed,
                                                       total_sample_budget=ours.budget))


def _both_paths(monkeypatch, build):
    """build() with one thread, then with every sibling pair on two, and the
    number of sibling jobs the second run handed to the pool."""
    monkeypatch.setattr(extract, "CPUS", 2)
    monkeypatch.setattr(extract, "PARALLEL_CELLS", ONE_THREAD)
    one = build()
    monkeypatch.setattr(extract, "PARALLEL_CELLS", 0)
    monkeypatch.setattr(extract, "ThreadPoolExecutor", CountingPool)
    CountingPool.jobs = 0
    return one, build(), CountingPool.jobs


class TestSameTrees:
    @pytest.mark.parametrize("builder", ["ours", "pruned", "born_again"])
    @pytest.mark.parametrize("problem, size, n, seed", [
        (three_box_benchmark, 7, 200, 4), (three_box_benchmark, 15, 100, 11),
        (_forest, 11, 300, 5)],
        ids=["three-box-7", "three-box-15", "forest-11"])
    def test_documents_and_budgets_equal(self, monkeypatch, builder, problem, size, n, seed):
        args = problem(), builder, size, n, seed
        one, two, jobs = _both_paths(monkeypatch, lambda: _build(*args))
        assert tio.tree_to_doc(two) == tio.tree_to_doc(one)
        assert two.budget == one.budget
        assert jobs > 0

    @pytest.mark.parametrize("builder", ["ours", "pruned", "born_again"])
    def test_cartpole_documents_equal(self, monkeypatch, cartpole, builder):
        states, = collect_states(cartpole, 100, [5])
        problem = fit_em(states.features, 2, EMConfig(seed=5, n_init=1)), cartpole
        one, two, jobs = _both_paths(monkeypatch, lambda: _build(problem, builder, 15, 200, 5))
        assert tio.tree_to_doc(two) == tio.tree_to_doc(one) and jobs > 0

    def test_same_trees_with_a_short_switch_interval(self, monkeypatch):
        """The two threads share no state a race could spoil, even when the
        interpreter hands over between them every microsecond."""
        problem = _forest()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            one, two, jobs = _both_paths(monkeypatch, lambda: _build(problem, "pruned", 15, 300, 8))
        finally:
            sys.setswitchinterval(interval)
        assert tio.tree_to_doc(two) == tio.tree_to_doc(one) and jobs > 0

    def test_generator_left_in_the_same_state(self, monkeypatch):
        """prune draws from the generator grow_tree leaves behind."""
        gmm, bb = three_box_benchmark()
        cfg = ExtractionConfig(15, 100, seed=3)

        def grow():
            rng = np.random.default_rng(3)
            tree = extract.grow_tree(gmm, bb, cfg, rng,
                                     lambda cm, n, r: sample_conditional(cm, r, n))
            return tio.tree_to_doc(tree), rng.bit_generator.state

        one, two, jobs = _both_paths(monkeypatch, grow)
        assert two == one and jobs > 0

    @pytest.mark.parametrize("cpus, cells", [(2, None), (1, 0)],
                             ids=["small-samples", "one-cpu"])
    def test_no_pool(self, monkeypatch, cpus, cells):
        """Samples below the default threshold (200 points x 2 dims), or one
        usable CPU, make no pool."""
        monkeypatch.setattr(extract, "CPUS", cpus)
        if cells is not None:
            monkeypatch.setattr(extract, "PARALLEL_CELLS", cells)
        monkeypatch.setattr(extract, "ThreadPoolExecutor", CountingPool)
        CountingPool.made = CountingPool.jobs = 0
        gmm, bb = three_box_benchmark()
        extract_tree(gmm, bb, ExtractionConfig(15, 200, seed=4))
        assert CountingPool.made == CountingPool.jobs == 0


def _failing(fails):
    """The three-box blackbox, raising on a batch for which fails(X) holds."""
    _, bb = three_box_benchmark()

    def fn(X):
        if fails(X):
            raise RuntimeError("blackbox down")
        return bb.predict(X)

    return FunctionBlackbox(fn, 2, 2)


def _root_split():
    gmm, bb = three_box_benchmark()
    tree = extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4))
    return int(tree.feature[0]), float(tree.threshold[0])


@pytest.mark.parametrize("cells", [0, ONE_THREAD], ids=["two-threads", "one-thread"])
class TestErrors:
    def _extract(self, monkeypatch, cells, f):
        monkeypatch.setattr(extract, "CPUS", 2)
        monkeypatch.setattr(extract, "PARALLEL_CELLS", cells)
        gmm, _ = three_box_benchmark()
        before = threading.active_count()
        try:
            return extract_tree(gmm, f, ExtractionConfig(7, 200, seed=4))
        finally:
            assert threading.active_count() == before

    def test_both_root_children_failing_names_the_left(self, monkeypatch, cells):
        calls = []  # the root's batch is labelled alone, before either child's
        f = _failing(lambda X: calls.append(len(X)) or len(calls) > 1)
        with pytest.raises(BlackboxError, match=r"at priority estimate at node 1$"):
            self._extract(monkeypatch, cells, f)

    def test_right_root_child_failing_names_it(self, monkeypatch, cells):
        dim, t = _root_split()
        f = _failing(lambda X: bool(np.all(X[:, dim] > t)))
        with pytest.raises(BlackboxError, match=r"at priority estimate at node 2$"):
            self._extract(monkeypatch, cells, f)

    def test_right_childs_escaped_sample_comes_before_left_labels(self, monkeypatch, cells):
        """A step's samples are all drawn before any is labelled, so the right
        root child's escaped sample is named though the left child's labels
        would fail."""
        dim, t = _root_split()
        f = _failing(lambda X: bool(np.all(X[:, dim] <= t)))

        def escaping(cm, rng, n):
            X = sample_conditional(cm, rng, n)
            if cm.box.lower[dim] == t:  # the right child's box, (t, hi], leaves out t
                X[:, dim] = t
            return X

        monkeypatch.setattr(extract, "sample_conditional", escaping)
        with pytest.raises(SamplerError, match=r"\(priority estimate at node 2\)$"):
            self._extract(monkeypatch, cells, f)

    def test_threads_joined_after_a_tree(self, monkeypatch, cells):
        tree = self._extract(monkeypatch, cells, _failing(lambda X: False))
        assert tree.size == 7
