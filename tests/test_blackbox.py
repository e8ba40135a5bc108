import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treextract import (ConfigError, DecisionTree, InputError, PolicyConfig,
                        RandomForest, RandomForestConfig, TabularPolicy,
                        collect_states, learn_policy, make_imbalanced_classification,
                        mean_rollout_reward, train_random_forest)
from treextract import blackbox
from treextract.blackbox import (POSITIVE_RATE, SPLIT_BATCH_CELLS, THETA_LIMIT, X_LIMIT,
                                 balance_rows, step_batch)
from treextract.core import leaf_row, split_row
from treextract.io import blackbox_to_doc

from helpers import dataset, predict_one, reference_best_split, reference_learn_policy


def cartpole_step(state, action: int):
    """One Euler step of one state: the one-column case of step_batch."""
    nxt, term = step_batch(np.asarray(state, dtype=np.float64)[:, None], np.array([action]))
    return nxt[:, 0], bool(term[0])


def _grow_reference_node(X, y, rows, m, depth, cfg, rng, nodes):
    """Recursive Gini tree on the given rows; feature subset per split,
    scored by the per-dimension reference scan."""
    counts = np.bincount(y[rows], minlength=m).astype(np.float64)
    node_id = len(nodes)
    nodes.append(leaf_row(int(np.argmax(counts)), counts / counts.sum()))
    if depth >= cfg.max_depth or rows.size < 2 or counts.max() == counts.sum():
        return node_id
    dims = np.sort(rng.choice(X.shape[1], size=math.isqrt(X.shape[1]), replace=False))
    cand = reference_best_split(X[np.ix_(rows, dims)], y[rows], m, 1.0)
    if cand is None:
        return node_id
    dim = int(dims[cand.dim])
    mask = X[rows, dim] <= cand.threshold
    left = _grow_reference_node(X, y, rows[mask], m, depth + 1, cfg, rng, nodes)
    right = _grow_reference_node(X, y, rows[~mask], m, depth + 1, cfg, rng, nodes)
    nodes[node_id] = split_row(dim, cand.threshold, left, right, m)
    return node_id


def reference_train_random_forest(data, cfg):
    """Tree-at-a-time reference for train_random_forest: each tree grows
    depth first, one split scan per node."""
    X, y, m = data.features, data.labels, data.m
    if cfg.balance:
        X, y = balance_rows(X, y, m)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, t])
        rows = rng.integers(X.shape[0], size=X.shape[0])
        nodes: list = []
        _grow_reference_node(X, y, rows, m, 0, cfg, rng, nodes)
        trees.append(DecisionTree.from_rows(nodes, X.shape[1], m))
    return RandomForest(tuple(trees), X.shape[1], m)


def _forest_bytes(forest) -> str:
    return json.dumps(blackbox_to_doc(forest), sort_keys=True)


@st.composite
def forest_cases(draw):
    """Small labeled tables with duplicated rows, tied and repeated columns,
    constant columns and, now and then, a single class; plus forest settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d, m = draw(st.integers(2, 40)), draw(st.integers(1, 10)), draw(st.sampled_from([2, 3]))
    X = np.round(rng.normal(size=(n, d)), draw(st.sampled_from([0, 1, 3])))
    X[:, rng.integers(d, size=draw(st.integers(0, d)))] = X[:, [0]]  # repeated columns
    X[:, rng.integers(d, size=draw(st.integers(0, 2)))] = 0.5  # constant columns
    X[rng.integers(n, size=n // 3)] = X[0]  # duplicated rows
    if draw(st.booleans()):
        y = rng.integers(m, size=n)
    else:  # labels that the first column separates
        y = (X[:, 0] > np.median(X[:, 0])).astype(int) * (m - 1)
    if draw(st.integers(0, 9)) == 0:
        y = np.full(n, draw(st.integers(0, m - 1)))
    cfg = RandomForestConfig(n_trees=draw(st.sampled_from([1, 2, 25])),
                             max_depth=draw(st.sampled_from([0, 1, 2, 8])),
                             balance=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    return dataset(X, y, m), cfg


def _train_quietly(train, data, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-class data warns
        return train(data, cfg)


def reference_rollout(policy, rng):
    """One episode stepped one state at a time through predict and
    cartpole_step; returns the visited states (start included, terminal not),
    whose count is the episode's reward."""
    state = rng.uniform(-0.05, 0.05, size=4)
    visited = []
    for _ in range(blackbox.EPISODE_CAP):  # read per call, so a patched cap applies
        visited.append(state.copy())
        state, terminal = cartpole_step(state, int(policy.predict(state[None, :])[0]))
        if terminal:
            break
    return visited


def reference_mean_reward(policy, n_episodes, seed):
    """Episode-at-a-time reference for mean_rollout_reward."""
    rng = np.random.default_rng(seed)
    return float(np.mean([len(reference_rollout(policy, rng))
                          for _ in range(n_episodes)]))


def reference_collect_states(policy, n_points, seed):
    """Episode-at-a-time reference for collect_states: episodes until the pool
    holds 5x the points (at least 3 episodes), then a uniform subsample."""
    rng = np.random.default_rng(seed)
    pool, episodes = [], 0
    while len(pool) < max(5 * n_points, 1) or episodes < 3:
        pool.extend(reference_rollout(policy, rng))
        episodes += 1
    pool = np.asarray(pool)
    X = pool[rng.choice(pool.shape[0], size=n_points, replace=False)]
    return X, policy.predict(X)


class TestRandomForest:
    def _blobs(self, rng, n=300):
        X = np.concatenate([rng.normal(-2, 0.5, size=(n // 2, 2)),
                            rng.normal(2, 0.5, size=(n // 2, 2))])
        y = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        return dataset(X, y)

    def test_stump_forest_is_constant_majority(self, rng):
        ds = dataset(rng.normal(size=(50, 2)), np.array([0] * 30 + [1] * 20))
        forest = train_random_forest(ds, RandomForestConfig(n_trees=1, max_depth=0))
        preds = forest.predict(rng.normal(size=(100, 2)))
        assert np.all(preds == 0)

    def test_separable_blobs_high_accuracy(self, rng):
        ds = self._blobs(rng)
        forest = train_random_forest(ds, RandomForestConfig(seed=1))
        acc = np.mean(forest.predict(ds.features) == ds.labels)
        assert acc >= 0.99

    def test_balance_duplicates_to_parity(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 90 + [1] * 10)
        Xb, yb = balance_rows(X, y, 2)
        counts = np.bincount(yb)
        assert counts[0] == counts[1] == 90

    def test_balanced_training_sees_both_classes(self, rng):
        X = rng.normal(size=(200, 3))
        y = np.array([0] * 180 + [1] * 20)
        ds = dataset(X, y)
        forest = train_random_forest(ds, RandomForestConfig(n_trees=10, balance=True, seed=0))
        # Average bootstrap composition after balancing is ~50/50; check the
        # forest actually predicts the minority class somewhere.
        preds = forest.predict(X)
        assert (preds == 1).sum() > 0

    def test_majority_vote_matches_bruteforce(self, rng):
        ds = self._blobs(rng, 120)
        forest = train_random_forest(ds, RandomForestConfig(n_trees=7, seed=3))
        X = rng.normal(size=(40, 2)) * 2
        votes = np.zeros((40, 2), int)
        for tree in forest.trees:
            for i in range(40):
                votes[i, predict_one(tree, X[i])] += 1
        expected = np.argmax(votes, axis=1)  # argmax ties to lower index
        assert np.array_equal(forest.predict(X), expected)

    def test_nonfinite_or_misshaped_points_rejected(self, rng):
        ds = self._blobs(rng, 60)
        forest = train_random_forest(ds, RandomForestConfig(n_trees=3, seed=0))
        for X in ([[0.0, np.nan]], [[np.inf, 0.0]], np.zeros((2, 3))):
            with pytest.raises(InputError):
                forest.predict(X)

    def test_purity_repeated_evaluations(self, rng):
        ds = self._blobs(rng, 100)
        forest = train_random_forest(ds, RandomForestConfig(seed=5))
        X = rng.normal(size=(10 ** 4, 2))
        a = forest.predict(X)
        assert np.array_equal(forest.predict(X), a)

    def test_single_class_warns(self, rng):
        ds = dataset(rng.normal(size=(30, 2)), np.zeros(30, int), m=2)
        with pytest.warns(UserWarning):
            forest = train_random_forest(ds, RandomForestConfig(n_trees=3))
        assert np.all(forest.predict(rng.normal(size=(20, 2))) == 0)

    def test_deterministic(self, rng):
        ds = self._blobs(rng)
        a = train_random_forest(ds, RandomForestConfig(seed=11))
        b = train_random_forest(ds, RandomForestConfig(seed=11))
        X = rng.normal(size=(50, 2))
        assert np.array_equal(a.predict(X), b.predict(X))

    @pytest.mark.parametrize("kwargs", [{"n_trees": 0}, {"n_trees": -3}, {"max_depth": -1},
                                        {"n_trees": True}, {"n_trees": 2.5},
                                        {"max_depth": True}, {"max_depth": 1.5}])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RandomForestConfig(**kwargs)

    def test_unlabelled_training_data_rejected(self, rng):
        with pytest.raises(InputError, match="training data must be labeled"):
            train_random_forest(dataset(rng.normal(size=(20, 2))))


class TestDocumentSizes:
    """A forest or policy whose stated sizes contradict its contents is
    rejected at construction instead of mis-routing points."""

    def _tree(self, d, m):
        rows = (split_row(d - 1, 0.0, 1, 2, m), leaf_row(0, np.eye(m)[0]), leaf_row(1, np.eye(m)[1]))
        return DecisionTree.from_rows(rows, d, m)

    @pytest.mark.parametrize("d,m", [(4, 2), (2, 3)], ids=["d", "m"])
    def test_forest_tree_sizes_must_match(self, d, m):
        with pytest.raises(InputError, match="every tree of a forest"):
            RandomForest((self._tree(2, 2), self._tree(d, m)), 2, 2)

    @pytest.mark.parametrize("edges,grid,actions", [
        ([[0.0]] * 3, (2, 2, 2, 2), 16),
        ([[0.0]] * 4, (3, 3, 3, 3), 81),
        ([[0.0]] * 4, (2, 2, 2, 2), 15),
        ([[0.0]] * 4, (2.0, 2, 2, 2), 16),
        ([[]] + [[0.0]] * 3, (True, 2, 2, 2), 8),
    ], ids=["edge-count", "edges-per-dim", "action-count", "grid-float", "grid-bool"])
    def test_policy_grid_must_match_edges_and_actions(self, edges, grid, actions):
        with pytest.raises(InputError):
            TabularPolicy(tuple(np.array(e) for e in edges), np.zeros(actions, np.int64), grid)

    @pytest.mark.parametrize("action", [-1, 2, 0.5, np.nan])
    def test_policy_actions_must_be_classes(self, action):
        actions = np.zeros(16)
        actions[5] = action
        with pytest.raises(InputError, match="one action in"):
            TabularPolicy((np.array([0.0]),) * 4, actions, (2, 2, 2, 2))


class TestLockstepForest:
    @settings(max_examples=120, deadline=None)
    @given(forest_cases())
    def test_matches_tree_at_a_time_reference(self, case):
        data, cfg = case
        got = _train_quietly(train_random_forest, data, cfg)
        want = _train_quietly(reference_train_random_forest, data, cfg)
        assert _forest_bytes(got) == _forest_bytes(want)

    def test_batches_stay_under_the_cell_cap(self, monkeypatch):
        # The synthetic-RF training split: 25 balanced roots of 1,236 rows
        # and 7 features each fill a step about 6.5 times over.
        data = make_imbalanced_classification(1000, seed=1000)
        rows = np.random.default_rng([17, 0]).permutation(1000)[:700]
        data = dataset(data.features[rows], data.labels[rows], 2)
        cfg = RandomForestConfig(balance=True, seed=0)
        cells, scan = [], blackbox.best_split_from_samples

        def record(X, *args, **kwargs):
            cells.append(np.size(X))
            return scan(X, *args, **kwargs)

        monkeypatch.setattr(blackbox, "best_split_from_samples", record)
        forest = train_random_forest(data, cfg)
        internal = sum(int(np.sum(t.feature >= 0)) for t in forest.trees)
        assert max(cells) <= SPLIT_BATCH_CELLS
        assert len(cells) <= 100 < internal
        monkeypatch.setattr(blackbox, "best_split_from_samples", scan)
        assert _forest_bytes(forest) == _forest_bytes(
            reference_train_random_forest(data, cfg))


class TestCartPoleDynamics:
    def test_left_force_tips_pole_right(self):
        nxt, _ = cartpole_step(np.zeros(4), 0)
        assert nxt[3] > 0  # pole tips opposite to cart acceleration

    def test_mirror_symmetry(self, rng):
        for _ in range(50):
            s = rng.uniform(-1, 1, size=4) * np.array([2.0, 2.0, 0.15, 2.0])
            a = int(rng.integers(2))
            n1, _ = cartpole_step(s, a)
            n2, _ = cartpole_step(-s, 1 - a)
            assert np.abs(n1 + n2).max() <= 1e-12

    def test_step_deterministic(self):
        s = np.array([0.1, -0.2, 0.05, 0.3])
        a1, _ = cartpole_step(s, 1)
        a2, _ = cartpole_step(s, 1)
        assert np.array_equal(a1, a2)

    def test_terminal_detection(self):
        _, term = cartpole_step(np.array([2.39, 5.0, 0.0, 0.0]), 1)
        assert term

    def test_block_step_matches_one_state_steps(self, rng):
        """A (4, n) block steps column by column as its states one at a
        time, and actions may come as a list."""
        S = rng.uniform(-1, 1, size=(4, 64)) * np.array([[2.0], [2.0], [0.15], [2.0]])
        actions = rng.integers(2, size=64).tolist()
        nxt, term = step_batch(S, actions)
        for i, a in enumerate(actions):
            one, t = cartpole_step(S[:, i], a)
            assert nxt[:, i].tobytes() == one.tobytes() and term[i] == t


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"grid_sizes": (7, 7, 7)}, {"grid_sizes": (7, 7, 7, 7, 7)},
        {"grid_sizes": (7, 7, 7, 0)}, {"n_transition_samples": 0},
        {"discount": 1.0}, {"discount": -0.01},
        {"grid_sizes": (7, 7, 7, True)}, {"grid_sizes": (7, 7, 7, 2.5)},
        {"n_transition_samples": True}, {"n_transition_samples": 2.5}])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PolicyConfig(**kwargs)

    def test_vi_residuals_monotone_after_first_sweep(self):
        residuals = []
        learn_policy(PolicyConfig(grid_sizes=(5, 5, 5, 5), n_transition_samples=5),
                     residuals_out=residuals)
        tail = residuals[1:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    @settings(max_examples=40, deadline=None)
    @given(grid=st.tuples(*[st.integers(2, 4)] * 4), samples=st.integers(1, 6),
           discount=st.floats(0.5, 0.99), seed=st.integers(0, 2 ** 32 - 1))
    def test_count_sweeps_match_per_sample_reference(self, grid, samples, discount, seed):
        """Value iteration on transition counts takes the per-sample sweep's
        steps: as many sweeps, residuals within 1e-9, and the same action
        wherever the reference's Q-values differ by more than 1e-9."""
        cfg = PolicyConfig(grid_sizes=grid, n_transition_samples=samples, discount=discount,
                           seed=seed)
        residuals = []
        policy = learn_policy(cfg, residuals_out=residuals)
        ref, q, ref_residuals = reference_learn_policy(cfg)
        assert len(residuals) == len(ref_residuals)
        np.testing.assert_allclose(residuals, ref_residuals, rtol=0, atol=1e-9)
        clear = np.abs(q[:, 0] - q[:, 1]) > 1e-9
        assert np.array_equal(policy.actions[clear], ref.actions[clear])

    def test_ties_go_left_in_both_sweeps(self):
        """Saturated cells, whose Q-values agree only up to rounding, take
        action 0 whatever the summation order: at grid 5^4 with 5 samples,
        exact float comparisons split 4 cells between the two sweeps."""
        cfg = PolicyConfig(grid_sizes=(5, 5, 5, 5), n_transition_samples=5)
        ref, _, _ = reference_learn_policy(cfg)
        assert np.array_equal(learn_policy(cfg).actions, ref.actions)

    @settings(max_examples=30, deadline=None)
    @given(grid=st.tuples(*[st.integers(2, 4)] * 4), samples=st.integers(1, 6),
           discount=st.floats(0.5, 0.99), seed=st.integers(0, 2 ** 32 - 1))
    def test_slab_size_changes_nothing(self, grid, samples, discount, seed):
        """One cell per slab, slabs that do not divide the cell count and
        the whole table in one slab give the same actions and residuals."""
        cfg = PolicyConfig(grid_sizes=grid, n_transition_samples=samples, discount=discount,
                           seed=seed)
        n_cells = math.prod(grid)
        step = next(k for k in range(2, n_cells) if n_cells % k)  # cells per slab
        results = []
        for slab in (1, 2 * samples * step + samples, 2 * samples * n_cells):
            residuals = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blackbox, "POLICY_SLAB_TRANSITIONS", slab)
                results.append((learn_policy(cfg, residuals_out=residuals),
                                residuals))
        for policy, residuals in results[1:]:
            assert np.array_equal(policy.actions, results[0][0].actions)
            assert np.array_equal(residuals, results[0][1])

    @pytest.mark.parametrize("grid, bound_mib", [((7, 7, 7, 7), 4), ((10, 10, 10, 10), 12)],
                             ids=["7^4", "10^4"])
    def test_traced_peak_memory_bounded(self, grid, bound_mib):
        """Slabs of cells bound the simulation's temporaries: simulated in one
        batch, the table traced an 18.1 MiB peak at 7^4 and 75.4 MiB at 10^4."""
        tracemalloc.start()
        try:
            learn_policy(PolicyConfig(grid_sizes=grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    def test_unconverged_value_iteration_warns(self):
        cfg = PolicyConfig(grid_sizes=(3, 3, 3, 3), n_transition_samples=2, discount=0.999)
        residuals = []
        with pytest.warns(UserWarning, match=r"stopped after 5000 sweeps at residual 0\.00\d+"):
            learn_policy(cfg, residuals_out=residuals)
        assert len(residuals) == blackbox.VI_MAX_SWEEPS and residuals[-1] > blackbox.VI_TOL

    def test_default_policy_converges_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            learn_policy()

    def test_reward_near_cap(self, cartpole):
        assert mean_rollout_reward(cartpole, 100, seed=0) >= 195

    def test_transition_sample_stability(self, cartpole):
        base = mean_rollout_reward(cartpole, 50, seed=1)
        doubled = learn_policy(PolicyConfig(n_transition_samples=60))
        other = mean_rollout_reward(doubled, 50, seed=1)
        assert abs(base - other) < 5

    def test_policy_symmetry_violation_documented(self, cartpole):
        """The dynamics are mirror-symmetric but the learned table is not."""
        policy = cartpole
        rng = np.random.default_rng(3)
        S = rng.uniform(-1, 1, size=(2000, 4)) * np.array([2.0, 2.0, 0.15, 2.0])
        a = policy.predict(S)
        a_mirror = policy.predict(-S)
        violation = np.mean(a != 1 - a_mirror)
        assert violation > 0


class TestCollectStates:
    def test_shapes_and_labels(self, cartpole):
        policy = cartpole
        ds = collect_states(policy, 100, [5])[0]
        assert ds.features.shape == (100, 4) and ds.m == 2
        assert np.array_equal(ds.labels, policy.predict(ds.features))

    def test_states_nonterminal(self, cartpole):
        ds = collect_states(cartpole, 150, [6])[0]
        assert np.all(np.abs(ds.features[:, 0]) <= X_LIMIT)
        assert np.all(np.abs(ds.features[:, 2]) <= THETA_LIMIT)

    def test_deterministic(self, cartpole):
        a = collect_states(cartpole, 50, [9])[0]
        b = collect_states(cartpole, 50, [9])[0]
        assert np.array_equal(a.features, b.features)


def _action_table(policy, kind, seed):
    if kind == "learned":
        return policy
    actions = (np.zeros_like(policy.actions) if kind == "left" else
               np.random.default_rng(seed).integers(2, size=policy.actions.size))
    return TabularPolicy(policy.edges, actions, policy.grid_sizes)


class TestLockstepRollouts:
    # An all-left table ends every episode after about 9 steps, so collecting
    # needs several rounds; a cap of 1 or 7 does the same for any table. Pools
    # of different seeds end their rounds at different times, so later
    # rounds step only some of them.
    @settings(max_examples=80, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
           n_points=st.integers(0, 250), table=st.sampled_from(["learned", "left", "random"]),
           table_seed=st.integers(0, 2 ** 16), cap=st.sampled_from([1, 7, 200]),
           n_episodes=st.integers(1, 8))
    def test_matches_episode_at_a_time_reference(self, cartpole, seeds, n_points, table,
                                                 table_seed, cap, n_episodes):
        policy = _action_table(cartpole, table, table_seed)
        # Patched per example: a function-scoped monkeypatch would outlive it.
        with mock.patch.object(blackbox, "EPISODE_CAP", cap):
            if n_points == 0:  # a Dataset has at least one row
                with pytest.raises(InputError):
                    collect_states(policy, n_points, seeds)
            else:
                rngs = [np.random.default_rng(seed) for seed in seeds]
                pools = collect_states(policy, n_points, rngs)
                assert len(pools) == len(seeds)
                for seed, rng, ds in zip(seeds, rngs, pools):
                    ref_rng = np.random.default_rng(seed)
                    X, y = reference_collect_states(policy, n_points, ref_rng)
                    assert ds.features.tobytes() == X.tobytes()
                    assert ds.labels.tobytes() == y.tobytes()
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (mean_rollout_reward(policy, n_episodes, seed=seeds[0])
                    == reference_mean_reward(policy, n_episodes, seeds[0]))

    def test_collect_states_matches_reference_on_task_seeds(self, cartpole):
        seeds = ((7919 + 0) * 2 + 1, (104729 + 3) * 2)
        for seed, ds in zip(seeds, collect_states(cartpole, 100, seeds)):
            X, _ = reference_collect_states(cartpole, 100, seed)
            assert ds.features.tobytes() == X.tobytes()

    def test_pools_share_each_round(self, cartpole, monkeypatch):
        """One rollout batch per round steps the episodes of every pool
        still short of states; finished pools drop out of later rounds."""
        policy = cartpole
        left = _action_table(policy, "left", 0)  # about 9 steps per episode
        calls = []
        rollouts = blackbox._rollouts
        monkeypatch.setattr(blackbox, "_rollouts",
                            lambda p, starts: calls.append(len(starts)) or rollouts(p, starts))
        collect_states(policy, 100, [1, 2, 3])
        assert calls == [9]  # three learned episodes per pool fill its 500 states
        calls.clear()
        # 30 states each: pools 8 and 11 fill them in three episodes, 0 and 1
        # need a fourth.
        collect_states(left, 6, [8, 0, 11, 1])
        assert calls == [12, 2]
        assert collect_states(left, 6, []) == []

    @pytest.mark.parametrize("n_points", [0, -1, True, 2.5])
    def test_no_points_rejected_before_any_episode(self, cartpole, monkeypatch, n_points):
        import treextract.blackbox as blackbox_mod
        monkeypatch.setattr(blackbox_mod, "_rollouts", lambda *a: pytest.fail("rolled out"))
        with pytest.raises(InputError, match="n_points must be >= 1"):
            collect_states(cartpole, n_points, [0])

    @pytest.mark.parametrize("n_episodes", [0, -1, True, 2.5])
    def test_no_episodes_rejected(self, cartpole, n_episodes):
        with pytest.raises(InputError, match="n_episodes must be >= 1"):
            mean_rollout_reward(cartpole, n_episodes)


@st.composite
def edges_and_points(draw):
    """Sorted edges for two dimensions (the learned grid's or random ones,
    repeats allowed) and points whose coordinates lie on an edge, one ulp to
    either side of one, at +-inf, at NaN or anywhere."""
    grid = st.just(list(np.linspace(-2.4, 2.4, 8)[1:-1]))
    edges = [np.array(sorted(draw(grid | st.lists(st.floats(-3.0, 3.0), max_size=6))))
             for _ in range(2)]

    def coord(e):
        near = [v for x in e for v in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf))]
        return st.sampled_from(near + [np.inf, -np.inf, np.nan]) | st.floats(-4.0, 4.0)

    rows = draw(st.lists(st.tuples(coord(edges[0]), coord(edges[1])), min_size=1, max_size=6))
    return edges, np.array(rows)


class TestCellIndex:
    @settings(max_examples=150, deadline=None)
    @given(edges_and_points())
    def test_matches_digitize(self, case):
        (e0, e1), X = case
        policy = TabularPolicy((e0, e1), np.zeros((e0.size + 1) * (e1.size + 1), np.int64),
                               (e0.size + 1, e1.size + 1), d=2)
        expected = np.digitize(X[:, 0], e0) * (e1.size + 1) + np.digitize(X[:, 1], e1)
        assert np.array_equal(policy.cell_index(X), expected)

    @pytest.mark.parametrize("width", [3, 6])
    def test_points_of_another_width_refused(self, cartpole, width):
        """Six columns used to be read as the first four; three raised an IndexError."""
        with pytest.raises(InputError, match="expected points of dimension 4"):
            cartpole.predict(np.zeros((5, width)))

    def test_unsorted_edges_rejected(self):
        for edges in ([0.5, -0.5], [0.0, np.nan]):
            with pytest.raises(InputError):
                TabularPolicy((np.array(edges),), np.zeros(3, np.int64), (3,), d=1)


class TestSyntheticData:
    def test_positive_rate_near_target(self):
        ds = make_imbalanced_classification(20000, 20, seed=0)
        assert POSITIVE_RATE == 0.118
        assert abs(ds.labels.mean() - 0.118) < 0.01

    def test_shapes(self):
        ds = make_imbalanced_classification(100, 50, seed=1)
        assert ds.features.shape == (100, 50) and ds.m == 2

    def test_too_few_dims_rejected(self):
        # Three blobs of two dims each need d >= 6; d = 4 used to raise IndexError.
        with pytest.raises(InputError, match="need d >= 6"):
            make_imbalanced_classification(100, 4, seed=0)
        assert make_imbalanced_classification(100, 6, seed=0).d == 6


class TestBoxBlackbox:
    def test_overlapping_boxes_rejected(self):
        from treextract import BoxBlackbox, BoxConstraint, InputError
        a = BoxConstraint([0.0, 0.0], [2.0, 2.0])
        b = BoxConstraint([1.0, 1.0], [3.0, 3.0])
        with pytest.raises(InputError):
            BoxBlackbox([a, b], [1, 1], d=2, m=2)

    @pytest.mark.parametrize("boxes, labels, message", [
        ([([0.0, 0.0], [1.0, 1.0])], [1, 0], "boxes and labels must have equal length"),
        ([([0.0], [1.0])], [1], "box dimension mismatch"),
        ([([0.0, 0.0], [1.0, 1.0])], [2], "labels out of range"),
    ], ids=["counts", "box-d", "label"])
    def test_bad_boxes_or_labels_rejected(self, boxes, labels, message):
        from treextract import BoxBlackbox, BoxConstraint
        with pytest.raises(InputError, match=message):
            BoxBlackbox([BoxConstraint(lo, hi) for lo, hi in boxes], labels, d=2, m=2)

    @pytest.mark.parametrize("d, m", [(2, 2.5), (2.0, 2), (2, True), (0, 2), (2, 0)])
    def test_sizes_must_be_counts(self, d, m):
        from treextract import BoxBlackbox
        with pytest.raises(InputError, match="d and m must be integers >= 1"):
            BoxBlackbox([], [], d=d, m=m)

    @pytest.mark.parametrize("n_boxes", [1, 0])
    def test_points_of_another_width_refused(self, n_boxes):
        """An (n, 1) matrix used to broadcast against a d = 2 box and get labels."""
        from treextract import BoxBlackbox, BoxConstraint
        box = BoxConstraint([0.0, 0.0], [1.0, 1.0])
        bb = BoxBlackbox([box][:n_boxes], [1][:n_boxes], d=2, m=2)
        assert bb.predict([0.5, 0.5]).tolist() == [n_boxes]  # one point, as a row
        with pytest.raises(InputError, match="expected points of dimension 2"):
            bb.predict(np.full((3, 1), 0.5))

    def test_function_blackbox_refuses_points_of_another_width(self):
        """A wrapped function used to be handed an (n, 3) matrix for d = 2."""
        from treextract import FunctionBlackbox
        f = FunctionBlackbox(lambda X: np.zeros(len(X), dtype=int), d=2, m=2)
        assert f.predict([0.5, 0.5]).tolist() == [0]
        with pytest.raises(InputError, match="expected points of dimension 2"):
            f.predict(np.zeros((3, 3)))

    def test_default_label_outside(self):
        from treextract import BoxBlackbox, BoxConstraint
        bb = BoxBlackbox([BoxConstraint([0.0], [1.0])], [1], d=1, m=3, default_label=2)
        assert np.array_equal(bb.predict(np.array([[0.5], [5.0]])), [1, 2])
