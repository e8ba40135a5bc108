"""The shared best-first frontier loop and the trees its four builders grow."""
import json
from pathlib import Path

import numpy as np
import pytest

from treextract import (AxisConstraint, BaselineConfig, Dataset, ExtractionConfig,
                        Internal, Leaf, born_again_extract, cart_extract,
                        extract_tree, sample)
from treextract import io as tio
from treextract.evaluate import (exact_greedy_oracle, three_box_benchmark,
                                 two_box_benchmark)
from treextract.extract import grow_best_first

# tree_to_doc documents of fixed-seed 7-node trees on three_box_benchmark and
# the oracle's gains, recorded before the builders shared one frontier loop.
PINNED = json.loads(Path(__file__).with_name("pinned_trees.json").read_text())


def _leaf(label=0):
    hist = np.zeros(2)
    hist[label] = 1.0
    return Leaf(label, hist)


def _split(i, depth, split=None):
    """A commit that splits leaf i into two children one level deeper."""
    return AxisConstraint(0, float(i)), ((_leaf(0), depth + 1), (_leaf(1), depth + 1))


class TestGrowBestFirst:
    def test_equal_gains_pop_in_push_order(self):
        committed = []

        def commit(i, depth, split):
            committed.append(i)
            return _split(i, depth)

        nodes, _ = grow_best_first(_leaf(), 0, lambda i, depth: (1.0, "s"), commit, 11)
        assert committed == [0, 1, 2, 3, 4]
        assert len(nodes) == 11

    def test_higher_gain_pops_first(self):
        committed = []

        def commit(i, depth, split):
            committed.append(i)
            return _split(i, depth)

        # Deeper leaves outscore shallower ones; right children (even ids)
        # outscore their left siblings.
        score = lambda i, depth: (1 + depth + (i > 0 and i % 2 == 0), "s")  # noqa: E731
        grow_best_first(_leaf(), 0, score, commit, 9)
        assert committed == [0, 2, 4, 6]

    def test_rejected_commit_keeps_leaf_with_zero_gain(self):
        nodes, gains = grow_best_first(_leaf(1), 0, lambda i, r: (0.5, "s"),
                                       lambda i, r, s: None, 15)
        assert len(nodes) == 1 and isinstance(nodes[0], Leaf)
        assert nodes[0].label == 1 and nodes[0].cached_gain == 0.0
        assert gains == [0.5]

    def test_none_region_is_never_scored(self):
        scored = []

        def score(i, region):
            scored.append(i)
            return 1.0, "s"

        def commit(i, region, split):
            return AxisConstraint(0, float(i)), ((_leaf(0), region), (_leaf(1), None))

        nodes, gains = grow_best_first(_leaf(), "box", score, commit, 9)
        assert scored == [0, 1, 3, 5, 7]
        assert len(nodes) == 9
        assert [gains[i] for i in (2, 4, 6, 8)] == [0.0] * 4
        assert all(nodes[i].cached_gain == 0.0 for i in (2, 4, 6, 8))

    @pytest.mark.parametrize("max_nodes", [1, 2, 3, 4, 7, 8])
    def test_never_exceeds_max_nodes(self, max_nodes):
        nodes, gains = grow_best_first(_leaf(), 0, lambda i, depth: (1.0, "s"),
                                       _split, max_nodes)
        assert len(nodes) == len(gains) == max_nodes - (max_nodes % 2 == 0)
        assert sum(isinstance(nd, Internal) for nd in nodes) == len(nodes) // 2

    def test_gain_at_min_gain_is_not_expanded(self):
        nodes, gains = grow_best_first(_leaf(), 0, lambda i, depth: (0.25, "s"),
                                       _split, 7, min_gain=0.25)
        assert len(nodes) == 1 and gains == [0.25]
        assert nodes[0].cached_gain == 0.25

    @pytest.mark.parametrize("problem", [two_box_benchmark, three_box_benchmark])
    def test_oracle_gains_one_entry_per_node(self, problem):
        gmm, bb = problem()
        for k in (1, 3, 7, 11):
            oracle = exact_greedy_oracle(gmm, bb, k)
            assert sorted(oracle.gains) == list(range(oracle.tree.size))


def _pinned_builds():
    gmm, bb = three_box_benchmark()
    ours = extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4))
    train = Dataset.from_arrays(sample(gmm, np.random.default_rng(4), 300))
    return {
        "ours": lambda: ours,
        "pruned": lambda: extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4,
                                                                 prune=True)),
        "born_again": lambda: born_again_extract(gmm, bb, BaselineConfig(
            7, samples_per_node=200, total_sample_budget=ours.budget, seed=4)),
        "cart": lambda: cart_extract(train, bb, 7),
    }


class TestPinnedTrees:
    @pytest.mark.parametrize("name", ["ours", "pruned", "born_again", "cart"])
    def test_tree_document(self, name):
        tree = _pinned_builds()[name]()
        assert tio.tree_to_doc(tree) == PINNED["docs"][name]

    def test_oracle_document_and_gains(self):
        oracle = exact_greedy_oracle(*three_box_benchmark(), 7)
        assert tio.tree_to_doc(oracle.tree) == PINNED["docs"]["oracle"]
        assert {str(i): g for i, g in oracle.gains.items()} == PINNED["oracle_gains"]
