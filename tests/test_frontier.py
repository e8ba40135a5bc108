"""The shared best-first frontier loop and the trees its four builders grow."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treextract import baselines, evaluate, extract
from treextract import (EMConfig, ExtractionConfig, RandomForestConfig,
                        born_again_extract, cart_extract, collect_states,
                        extract_tree, fit_em, make_imbalanced_classification,
                        sample, train_random_forest)
from treextract import io as tio
from treextract.evaluate import (cartpole_task, exact_greedy_oracle, synthetic_rf_task,
                                 three_box_benchmark)
from treextract.extract import grow_best_first

from helpers import dataset, reference_grow_best_first, two_box_benchmark

# tree_to_doc documents of fixed-seed 7-node trees on three_box_benchmark and
# the oracle's gains, recorded before the builders shared one frontier loop;
# sha256 digests of fixed-seed synthetic-RF, cart-pole and forest documents,
# recorded before trees were stored as parallel arrays and again when EM
# moved to standardized coordinates (every tree kept its structure). All tree
# documents were re-recorded when the final commit's two children stopped
# being scored: ours, CART and the oracle changed only in budget and those
# leaves' cached_gain; pruned and born-again trees follow the shifted draws.
# Trees re-recorded, in budget only, when the root's own sample came to be
# labelled only for a root that ends a leaf: ours and born-again budgets fall
# by samples_per_node (their roots split), and pruned ones rise by it, as
# pruning now records its two validation sets as well. Re-recorded, in budget
# only, when the root went straight to its commit with its priority sample
# drawn but not labelled: every pinned tree's root splits (a pruned one's
# before pruning), so each ours and pruned budget falls by samples_per_node
# (ours 1,600 -> 1,400, pruned 2,000 -> 1,800; rf and cart-pole likewise),
# and each born-again tree, matched to the lower ours budget, draws and
# splits as before and labels samples_per_node fewer (929 -> 729).
# Re-recorded when the root came to take its label and split from one
# sample, the first drawn, with no draws kept only for the generator stream:
# every ours, pruned and born-again tree follows the shifted draws, with ours
# and pruned budgets unchanged and born-again's root sample now inside its
# raw-draw budget (three_box 729 -> 677 labelled).
# Re-recorded, in cached_gain only, when the split scan came to score cuts
# from exact integer class counts: every scan of every pinned build commits
# the parent's split, and the gains move by at most 165 ulps toward the
# exact value (ours, pruned, CART, rf_ours, rf_born_again, rf_cart,
# cartpole_ours, cartpole_born_again); born-again, rf_pruned, the forest and
# the oracle keep their documents.
PINNED = json.loads(Path(__file__).with_name("pinned_trees.json").read_text())
COLUMNS = ("feature", "threshold", "left", "right", "label", "histogram", "mass",
           "cached_gain")


def _leaf(label=0):
    hist = np.zeros(2)
    hist[label] = 1.0
    return label, hist, 1.0


def _grow(*args, **kwargs):
    """grow_best_first's rows as DecisionTree columns, with the gains."""
    rows, gains = grow_best_first(*args, **kwargs)
    return dict(zip(COLUMNS, map(np.array, zip(*rows)))), gains


def _scores(gain):
    """A score that rates every leaf of a step at gain."""
    return lambda nodes: [(gain, "s")] * len(nodes)


def _split(i, depth, split=None):
    """A commit that splits leaf i into two children one level deeper."""
    return (0, float(i)), ((_leaf(0), depth + 1), (_leaf(1), depth + 1))


class TestGrowBestFirst:
    def test_equal_gains_pop_in_push_order(self):
        committed = []

        def commit(i, depth, split):
            committed.append(i)
            return _split(i, depth)

        cols, _ = _grow(_leaf(), 0, _scores(1.0), commit, 11)
        assert committed == [0, 1, 2, 3, 4]
        assert len(cols["feature"]) == 11
        # Node 0 splits into 1 and 2, node 1 into 3 and 4, and so on.
        assert list(cols["left"][:5]) == [1, 3, 5, 7, 9]

    def test_each_step_scored_in_one_call(self):
        calls = []

        def score(nodes):
            calls.append([i for i, _ in nodes])
            return [(1.0, "s")] * len(nodes)

        _grow(_leaf(), 0, score, _split, 7)
        # The root, then each commit's two children while another commit fits.
        assert calls == [[0], [1, 2], [3, 4]]

    def test_higher_gain_pops_first(self):
        committed = []

        def commit(i, depth, split):
            committed.append(i)
            return _split(i, depth)

        # Deeper leaves outscore shallower ones; right children (even ids)
        # outscore their left siblings.
        grow_best_first(_leaf(), 0, lambda nodes: [(1 + depth + (i > 0 and i % 2 == 0), "s")
                                                   for i, depth in nodes], commit, 9)
        assert committed == [0, 2, 4, 6]

    def test_rejected_commit_keeps_leaf_with_zero_gain(self):
        cols, gains = _grow(_leaf(1), 0, _scores(0.5), lambda i, r, s: None, 15)
        assert list(cols["feature"]) == [-1]
        assert cols["label"][0] == 1 and cols["cached_gain"][0] == 0.0
        assert gains == [0.5]

    def test_none_region_is_never_scored(self):
        scored = []

        def score(nodes):
            scored.append([i for i, _ in nodes])
            return [(1.0, "s")] * len(nodes)

        def commit(i, region, split):
            return (0, float(i)), ((_leaf(0), region), (_leaf(1), None))

        cols, gains = _grow(_leaf(), "box", score, commit, 9)
        # 2, 4, 6 and 8 have no region; 7 is the last commit's child: never scored.
        assert scored == [[0], [1], [3], [5]]
        assert len(cols["feature"]) == 9
        assert [gains[i] for i in (2, 4, 6, 8)] == [0.0] * 4
        assert all(cols["cached_gain"][[2, 4, 6, 8]] == 0.0)

    @pytest.mark.parametrize("max_nodes", [1, 2, 3, 4, 7, 8])
    def test_never_exceeds_max_nodes(self, max_nodes):
        cols, gains = _grow(_leaf(), 0, _scores(1.0), _split, max_nodes)
        size = len(cols["feature"])
        assert size == len(gains) == max_nodes - (max_nodes % 2 == 0)
        assert np.sum(cols["feature"] >= 0) == size // 2

    def test_gain_at_min_gain_is_not_expanded(self):
        cols, gains = _grow(_leaf(), 0, _scores(0.25), _split, 7, min_gain=0.25)
        assert len(cols["feature"]) == 1 and gains == [0.25]
        assert cols["cached_gain"][0] == 0.25

    @pytest.mark.parametrize("problem", [two_box_benchmark, three_box_benchmark])
    def test_oracle_gains_one_entry_per_node(self, problem):
        gmm, bb = problem()
        for k in (1, 3, 7, 11):
            oracle = exact_greedy_oracle(gmm, bb, k)
            assert sorted(oracle.gains) == list(range(oracle.tree.size))


def _build_recording(loop, builder, problem, size, n, seed):
    """One builder's tree on a benchmark, grown by loop in place of
    grow_best_first, the ids of the leaves its score calls rated, and its
    score and commit calls in order, as ("score", ids) and ("commit", has)
    with has None if the commit kept its leaf, else whether each new child
    has a region."""
    gmm, bb = problem()
    scored, calls = [], []

    def recording(root, region, score, commit, max_nodes, min_gain=0.0):
        def rated(nodes):
            scored.extend(i for i, _ in nodes)
            calls.append(("score", [i for i, _ in nodes]))
            return score(nodes)

        def committed(i, r, split):
            grown = commit(i, r, split)
            calls.append(("commit", grown and [c is not None for _, c in grown[1]]))
            return grown
        return loop(root, region, rated, committed, max_nodes, min_gain)

    with pytest.MonkeyPatch.context() as mp:
        for module in (extract, baselines, evaluate):
            mp.setattr(module, "grow_best_first", recording)
        if builder == "ours":
            tree = extract_tree(gmm, bb, ExtractionConfig(size, n, seed=seed))
        elif builder == "cart":
            tree = cart_extract(dataset(sample(gmm, np.random.default_rng(seed), n)), bb, size)
        else:
            tree = exact_greedy_oracle(gmm, bb, size).tree
    return tree, scored, calls


def _score_calls_per_step(calls):
    """Per step of the loop (the root, then each commit that splits), the
    ids it made that have a region and the id lists of the score calls
    before the next step; the k-th split makes nodes 2k + 1 and 2k + 2."""
    steps, splits = [([0], [])], 0  # every builder's root has a region
    for kind, value in calls:
        if kind == "score":
            steps[-1][1].append(value)
        elif value is not None:
            steps.append(([2 * splits + 1 + k for k in (0, 1) if value[k]], []))
            splits += 1
    return steps


class TestUnscoredFinalLeaves:
    @settings(max_examples=40, deadline=None)
    @given(builder=st.sampled_from(["ours", "cart", "oracle"]),
           problem=st.sampled_from([two_box_benchmark, three_box_benchmark]),
           size=st.integers(0, 7).map(lambda k: 2 * k + 1), n=st.integers(20, 500),
           seed=st.integers(0, 2 ** 16))
    def test_same_tree_as_the_loop_that_scores_every_leaf(self, builder, problem, size, n,
                                                           seed):
        ref, ref_scored, _ = _build_recording(reference_grow_best_first, builder, problem,
                                              size, n, seed)
        tree, scored, calls = _build_recording(grow_best_first, builder, problem, size, n,
                                               seed)
        # Each score call rates exactly one step's new ids that have a region,
        # never an empty list, and each step is rated at most once.
        for made, rated in _score_calls_per_step(calls):
            assert rated in ([], [made]) and [] not in rated, calls
        for col in COLUMNS[:-1]:
            assert np.array_equal(getattr(tree, col), getattr(ref, col)), col
        # The reference scores every leaf with a region. Leaf i's step (the
        # root alone, or i and its sibling) ends at id i + i % 2, and another
        # commit fits after it while i + i % 2 + 3 <= size.
        assert scored == [i for i in ref_scored if i + i % 2 + 3 <= size]
        unscored = sorted(set(ref_scored) - set(scored))
        changed = np.flatnonzero(tree.cached_gain != ref.cached_gain)
        assert set(changed) <= set(unscored) and not tree.cached_gain[unscored].any()
        # Ours labels its root's one sample whether or not the root is
        # scored, so leaving the root unscored (size 1) spares no point.
        spared = n * len(set(unscored) - {0}) if builder == "ours" else 0
        assert tree.budget == (None if ref.budget is None else ref.budget - spared)


def _pinned_builds():
    gmm, bb = three_box_benchmark()
    ours = extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4))
    train = dataset(sample(gmm, np.random.default_rng(4), 300))
    return {
        "ours": lambda: ours,
        "pruned": lambda: extract_tree(gmm, bb, ExtractionConfig(7, 200, seed=4,
                                                                 prune=True)),
        "born_again": lambda: born_again_extract(gmm, bb, ExtractionConfig(
            7, 200, seed=4, total_sample_budget=ours.budget)),
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


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _instance_digest(task, seeds) -> str:
    """sha256 over the training set, test points and input model of a task's
    instances."""
    h = hashlib.sha256()
    for seed in seeds:
        inst = task.instance(seed)
        for a in (inst.train.features, inst.train.labels, inst.test_points,
                  inst.gmm.means, inst.gmm.weights, inst.gmm.stddevs):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _em_digest(X, k, cfg) -> str:
    """sha256 over a fit's means, weights and stddevs and its history_out."""
    hist: list = []
    gmm = fit_em(X, k, cfg, history_out=hist)
    h = hashlib.sha256()
    for a in (gmm.means, gmm.weights, gmm.stddevs, np.array(hist)):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_pinned_digests(cartpole):
    """Byte-identical documents on a small synthetic-RF instance (d=50): the
    forest itself and the four builders' trees; the default cart-pole
    policy, a 15-node extraction from it and its budget-matched born-again
    tree; the cart-pole task's instances at seeds 0 and 1; and a four-restart
    K=8 fit on the synthetic-RF task's seed-0 training rows."""
    data = make_imbalanced_classification(300, d=50, seed=5)
    forest = train_random_forest(data, RandomForestConfig(n_trees=5, max_depth=5,
                                                          balance=True, seed=5))
    gmm = fit_em(data.features, 3, EMConfig(seed=5, n_init=1))
    ours = extract_tree(gmm, forest, ExtractionConfig(7, 300, seed=5))
    policy = cartpole
    states, = collect_states(policy, 100, [5])
    cp_gmm = fit_em(states.features, 2, EMConfig(seed=5, n_init=1))
    trees = {
        "rf_ours": ours,
        "rf_pruned": extract_tree(gmm, forest, ExtractionConfig(7, 300, seed=5,
                                                                prune=True)),
        "rf_born_again": born_again_extract(gmm, forest, ExtractionConfig(
            7, 300, seed=5, total_sample_budget=ours.budget)),
        "rf_cart": cart_extract(data, forest, 7),
        "cartpole_ours": extract_tree(cp_gmm, policy, ExtractionConfig(15, 200, seed=5)),
    }
    trees["cartpole_born_again"] = born_again_extract(cp_gmm, policy, ExtractionConfig(
        15, 200, seed=5, total_sample_budget=trees["cartpole_ours"].budget))
    got = {name: _digest(tio.tree_to_doc(t)) for name, t in trees.items()}
    got["rf_forest"] = _digest(tio.blackbox_to_doc(forest))
    got["cartpole_policy"] = _digest(tio.blackbox_to_doc(policy))
    got["cartpole_instance"] = _instance_digest(cartpole_task(), (0, 1))
    got["rf_em_restarts"] = _em_digest(synthetic_rf_task().instance(0).train.features, 8,
                                       EMConfig(seed=0, n_init=4))
    assert got == PINNED["digests"]
