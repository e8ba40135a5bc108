import numpy as np
import pytest

from treextract import (BoxConstraint, ConfigError, ExtractionConfig,
                        FunctionBlackbox, InputError, born_again_extract,
                        cart_extract, condition, extract_tree, sample)
from treextract.evaluate import three_box_benchmark

from helpers import dataset


def threshold_blackbox(t=0.0):
    return FunctionBlackbox(lambda X: (X[:, 0] <= t).astype(int), 1, 2)


class TestCartExtract:
    def test_constant_labels_single_leaf(self, rng):
        ds = dataset(rng.normal(size=(50, 2)))
        f = FunctionBlackbox(lambda X: np.ones(len(X), dtype=int), 2, 2)
        tree = cart_extract(ds, f, 15)
        assert tree.size == 1 and tree.label[0] == 1

    def test_split_lands_in_data_gap(self, rng):
        x = np.sort(rng.normal(size=1000))
        ds = dataset(x.reshape(-1, 1))
        f = threshold_blackbox(0.0)
        tree = cart_extract(ds, f, 3)
        below = x[x <= 0.0].max()
        above = x[x > 0.0].min()
        assert below < tree.threshold[0] <= above

    def test_budget_is_one_labeling_pass(self, rng):
        ds = dataset(rng.normal(size=(77, 2)))
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        assert cart_extract(ds, f, 7).budget == 77

    def test_training_dimension_must_match_blackbox(self, rng):
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), 3, 2)
        with pytest.raises(InputError, match="training data dimension does not match"):
            cart_extract(dataset(rng.normal(size=(10, 2))), f, 3)

    def test_root_split_agrees_with_extractor_in_data_limit(self):
        """CART on abundant root samples finds the same first split."""
        gmm, bb = three_box_benchmark()
        X = sample(gmm, np.random.default_rng(0), 10 ** 5)
        ds = dataset(X)
        cart_tree = cart_extract(ds, bb, 3)
        ours = extract_tree(gmm, bb, ExtractionConfig(3, 10 ** 4, seed=1))
        assert cart_tree.feature[0] == ours.feature[0]
        assert abs(cart_tree.threshold[0] - ours.threshold[0]) < 0.1


class TestBornAgain:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(3, samples_per_node=100, total_sample_budget=0)
        with pytest.raises(ConfigError):
            ExtractionConfig(3, samples_per_node=1, total_sample_budget=100)
        with pytest.raises(ConfigError):
            ExtractionConfig(4, samples_per_node=100, total_sample_budget=100)

    @pytest.mark.parametrize("cfg", [ExtractionConfig(3, 100),
                                     ExtractionConfig(3, 100, prune=True,
                                                      total_sample_budget=1000)],
                             ids=["no-budget", "prune"])
    def test_needs_a_budget_and_no_prune(self, gmm_2d, cfg):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        with pytest.raises(ConfigError, match="total_sample_budget and no prune"):
            born_again_extract(gmm_2d, f, cfg)

    def test_root_step_identical_to_extractor(self):
        gmm, bb = three_box_benchmark()
        seed = 7
        ours = extract_tree(gmm, bb, ExtractionConfig(15, 200, seed=seed))
        ba = born_again_extract(gmm, bb, ExtractionConfig(
            15, 200, seed=seed, total_sample_budget=10 ** 6))
        assert ours.feature[0] == ba.feature[0] and ours.threshold[0] == ba.threshold[0]

    def test_acceptance_rate_estimates_region_mass(self, gmm_2d):
        box = BoxConstraint([0.3, -0.2], [1.4, 1.1])
        cm = condition(gmm_2d, box)
        rng = np.random.default_rng(0)
        n = 20000
        X = sample(gmm_2d, rng, n)
        rate = box.contains_batch(X).mean()
        se = np.sqrt(cm.Z * (1 - cm.Z) / n)
        assert abs(rate - cm.Z) <= 3 * se

    def test_budget_parity(self):
        gmm, bb = three_box_benchmark()
        ours = extract_tree(gmm, bb, ExtractionConfig(15, 200, seed=3))
        ba = born_again_extract(gmm, bb, ExtractionConfig(
            15, 200, seed=3, total_sample_budget=ours.budget))
        assert ba.budget <= ours.budget

    def test_starvation_shrinks_node_sample_sets(self, cartpole):
        """Accepted node sample sets shrink as extraction digs deeper."""
        from treextract import EMConfig, collect_states, fit_em

        policy = cartpole
        train, = collect_states(policy, 100, [21])
        gmm = fit_em(train.features, 5, EMConfig(seed=0))
        ours = extract_tree(gmm, policy, ExtractionConfig(15, 200, seed=2))

        batch_sizes = []

        class Probe:
            d, m = policy.d, policy.m

            def predict(self, X):
                batch_sizes.append(len(X))
                return policy.predict(X)

        born_again_extract(gmm, Probe(), ExtractionConfig(
            15, 200, seed=2, total_sample_budget=ours.budget))
        # The root set is full; node sets labeled later (deeper frontier
        # work) accept at most as much on average and taper off as the
        # shared draw budget runs out.
        assert batch_sizes[0] == 200
        half = len(batch_sizes) // 2
        assert np.mean(batch_sizes[half:]) <= np.mean(batch_sizes[:half])
        assert min(batch_sizes) < 200

    def test_zero_budget_yields_root_leaf(self, gmm_2d):
        f = FunctionBlackbox(lambda X: (X[:, 0] <= 0).astype(int), 2, 2)
        ba = born_again_extract(gmm_2d, f, ExtractionConfig(
            15, 100, seed=0, total_sample_budget=1))
        assert ba.size == 1
