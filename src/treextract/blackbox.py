"""Blackbox models to be explained: a from-scratch random forest, a tabular
cart-pole policy learned by value iteration, and box-wise constant labels.

A blackbox is anything with integer attributes d and m and a pure
predict((n, d) array) -> (n,) int labels, which may be called from a second
thread while another call runs. The ones here refuse points of another width.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (BoxConstraint, Dataset, DecisionTree, _points, _route, _routing_table,
                   class_labels, is_count, leaf_row, split_row)
from .errors import ConfigError, InputError
from .extract import _majority, best_split_from_samples


@dataclass(frozen=True)
class FunctionBlackbox:
    """Wrap a plain vectorized function as a blackbox; its labels pass uncast."""

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    m: int

    def predict(self, X) -> np.ndarray:
        return np.asarray(self.fn(_points(np.atleast_2d(X), self.d)))


@dataclass(frozen=True)
class BoxBlackbox:
    """Piecewise-constant labels over disjoint axis-aligned boxes.

    Points outside every box get default_label. Used as the target for
    convergence tests because its exact region probabilities under a
    diagonal Gaussian mixture have closed form.
    """

    boxes: tuple[BoxConstraint, ...]
    labels: tuple[int, ...]
    d: int
    m: int
    default_label: int = 0

    def __post_init__(self):
        if not (is_count(self.d) and is_count(self.m)):
            raise InputError(f"d and m must be integers >= 1, got d={self.d!r}, m={self.m!r}")
        if len(self.boxes) != len(self.labels):
            raise InputError("boxes and labels must have equal length")
        if any(b.d != self.d for b in self.boxes):
            raise InputError("box dimension mismatch")
        if any(a.intersect(b) is not None for a, b in itertools.combinations(self.boxes, 2)):
            raise InputError("boxes must be pairwise disjoint")
        labels = class_labels((*self.labels, self.default_label), self.m)
        if labels is None:
            raise InputError("labels out of range")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "labels", tuple(labels[:-1].tolist()))
        object.__setattr__(self, "default_label", int(labels[-1]))

    def predict(self, X) -> np.ndarray:
        X = _points(np.atleast_2d(X), self.d)
        out = np.full(X.shape[0], self.default_label, dtype=np.int64)
        for box, label in zip(self.boxes, self.labels):
            out[box.contains_batch(X)] = label
        return out


# ---------------------------------------------------------------------------
# Random forest


@dataclass(frozen=True)
class RandomForestConfig:
    n_trees: int = 25
    max_depth: int = 8
    balance: bool = False
    seed: int = 0

    def __post_init__(self):
        if not is_count(self.n_trees) or not is_count(self.max_depth, 0):
            raise ConfigError("a forest needs n_trees >= 1 and max_depth >= 0")


@dataclass(frozen=True)
class RandomForest:
    """Bootstrap-bagged Gini trees, each split chosen among floor(sqrt(d))
    randomly drawn features.

    predict is the majority vote over trees; vote ties resolve to the
    lower class index. All trees are stacked into one routing table at
    construction, and every point descends every tree in one routing pass.
    """

    trees: tuple[DecisionTree, ...]
    d: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if any(t.d != self.d or t.m != self.m for t in self.trees):
            raise InputError(f"every tree of a forest must have d={self.d} and m={self.m}")
        object.__setattr__(self, "_table", _routing_table(self.trees))
        object.__setattr__(self, "_labels", np.concatenate([t.label for t in self.trees]))

    def predict(self, X) -> np.ndarray:
        labels = self._labels[_route(self._table, np.atleast_2d(X), self.d)]  # (trees, n)
        n = labels.shape[1]
        votes = np.bincount((np.arange(n) * self.m + labels).ravel(), minlength=n * self.m)
        return np.argmax(votes.reshape(n, self.m), axis=1)


def balance_rows(X, y, m: int):
    """Duplicate minority-class rows up to the majority-class count."""
    target = np.bincount(y, minlength=m).max()
    keep = [np.arange(y.shape[0])]
    for c in range(m):
        rows = np.flatnonzero(y == c)
        if rows.size:  # repeated cyclically to the deficit
            keep.append(np.resize(rows, target - rows.size))
    idx = np.concatenate(keep)
    return X[idx], y[idx]


# Row x feature cells a forest scores per split-scan call. It bounds the
# scan's temporaries: scoring every node of a step in one call raised the
# peak RSS of a synthetic-RF pass by about 30 %.
SPLIT_BATCH_CELLS = 1 << 15


def train_random_forest(data: Dataset, cfg: RandomForestConfig = RandomForestConfig()) -> RandomForest:
    """Train a forest of Gini trees on bootstrap resamples.

    balance=True duplicates minority-class rows to parity before bagging.
    Deterministic given cfg.seed: tree t draws its rows, then a feature
    subset for each splittable node in preorder, from default_rng([seed, t]).
    The trees grow in lockstep, each step scoring every tree's next
    splittable node in ragged split-scan batches.
    """
    if data.labels is None:
        raise InputError("training data must be labeled")
    X, y, m = data.features, data.labels, data.m
    if np.unique(y).size == 1:
        warnings.warn("single-class training data: forest is a constant predictor")
    if cfg.balance:
        X, y = balance_rows(X, y, m)
    (n, d), k = X.shape, math.isqrt(X.shape[1])
    values, codes = np.unique(X, return_inverse=True)
    codes = codes.reshape(X.shape)
    rngs = [np.random.default_rng([cfg.seed, t]) for t in range(cfg.n_trees)]
    nodes: list = [[] for _ in rngs]
    # Per tree, a stack of (rows, depth, label, histogram, parent): parent is
    # the id whose right child the node is, else -1; a left child's id is its
    # parent's + 1.
    stacks = [[(rows, 0, *_majority(y[rows], m), -1)]
              for rows in (rng.integers(n, size=n) for rng in rngs)]
    while any(stacks):
        # Each tree's next splittable node as (tree, id, rows, dims, depth),
        # in batches of at most SPLIT_BATCH_CELLS cells (or one larger node).
        batches, cells = [], 0
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth, label, hist, parent = stack.pop()
                if parent >= 0:
                    nodes[t][parent][3] = len(nodes[t])
                nodes[t].append(leaf_row(label, hist))
                if depth < cfg.max_depth and rows.size >= 2 and hist[label] < 1.0:
                    dims = np.sort(rngs[t].choice(d, size=k, replace=False))
                    if not batches or cells + k * rows.size > SPLIT_BATCH_CELLS:
                        batches.append([])
                        cells = 0
                    batches[-1].append((t, len(nodes[t]) - 1, rows, dims, depth))
                    cells += k * rows.size
                    break
        for batch in batches:
            sizes = [b[2].size for b in batch]
            rows = np.concatenate([b[2] for b in batch])
            dims = np.repeat([b[3] for b in batch], sizes, axis=0)
            cands = best_split_from_samples(codes[rows[:, None], dims], y[rows], m, 1.0,
                                            segments=np.repeat(np.arange(len(batch)), sizes),
                                            values=values)
            for (t, i, rows, dims, depth), c in zip(batch, cands):
                if c is not None:
                    left = X[rows, dims[c.dim]] <= c.threshold
                    nodes[t][i] = list(split_row(int(dims[c.dim]), c.threshold, i + 1, -1, m))
                    stacks[t] += [(rows[~left], depth + 1, c.right_label, c.right_hist, i),
                                  (rows[left], depth + 1, c.left_label, c.left_hist, -1)]
    return RandomForest(tuple(DecisionTree.from_rows(rows, d, m) for rows in nodes), d, m)


# ---------------------------------------------------------------------------
# Cart-pole system, value-iteration policy


# The classic constants (Barto, Sutton & Anderson 1983).
GRAVITY, CART_MASS, POLE_MASS, HALF_LENGTH = 9.8, 1.0, 0.1, 0.5
FORCE_MAG, TIMESTEP = 10.0, 0.02
X_LIMIT, THETA_LIMIT = 2.4, 12.0 * math.pi / 180.0


def step_batch(states: np.ndarray, actions: np.ndarray):
    """Classic cart-pole dynamics, Euler-integrated: the vectorized
    transition of a (4, n) block, one column per state; returns the (4, n)
    next states and the (n,) terminal mask.

    State is (cart position, cart velocity, pole angle, pole angular
    velocity); actions are 0 (push left) and 1 (push right). A transition
    is terminal when |angle| > THETA_LIMIT (12 degrees) or |position| >
    X_LIMIT (2.4); an episode also ends after EPISODE_CAP steps.
    """
    x, x_dot, theta, theta_dot = states
    force = np.where(np.asarray(actions) == 1, FORCE_MAG, -FORCE_MAG)
    total_mass = CART_MASS + POLE_MASS
    pml = POLE_MASS * HALF_LENGTH
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    temp = (force + pml * theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t ** 2 / total_mass))
    x_acc = temp - pml * theta_acc * cos_t / total_mass
    nxt = states + TIMESTEP * np.array([x_dot, x_acc, theta_dot, theta_acc])
    terminal = (np.abs(nxt[0]) > X_LIMIT) | (np.abs(nxt[2]) > THETA_LIMIT)
    return nxt, terminal


# The policy grid spans the termination bounds in position and angle.
STATE_RANGES = ((-X_LIMIT, X_LIMIT), (-3.0, 3.0), (-THETA_LIMIT, THETA_LIMIT), (-3.5, 3.5))
VI_TOL, VI_MAX_SWEEPS = 1e-8, 5000
EPISODE_CAP = 200  # steps, the most reward an episode can earn
# Transitions learn_policy simulates per slab of cells. It bounds the
# simulation's temporaries: the default 7^4 table in one batch traced an
# 18.1 MiB peak, and the table grows as grid cells x samples.
POLICY_SLAB_TRANSITIONS = 1 << 13


@dataclass(frozen=True)
class PolicyConfig:
    # Defaults reach the full episode-cap reward at desk scale while keeping
    # the action surface coarse enough for small trees to track.
    grid_sizes: tuple[int, ...] = (7, 7, 7, 7)
    n_transition_samples: int = 30  # per (cell, action) pair
    discount: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if len(self.grid_sizes) != 4 or not all(map(is_count, (*self.grid_sizes, self.n_transition_samples))):
            raise ConfigError("a policy needs four grid sizes >= 1 and n_transition_samples >= 1")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError("discount must be in [0, 1)")


@dataclass(frozen=True)
class TabularPolicy:
    """Greedy action table over a uniform discretization of the state space."""

    edges: tuple[np.ndarray, ...]  # interior cell edges per dimension
    actions: np.ndarray            # flat action per cell
    grid_sizes: tuple[int, ...]
    d: int = 4
    m = 2  # actions: push left, push right

    def __post_init__(self):
        if len(self.edges) != self.d or [len(e) + 1 for e in self.edges] != list(self.grid_sizes) \
                or not all(map(is_count, self.grid_sizes)):
            raise InputError(f"a policy needs {self.d} edge arrays of grid_sizes[i] - 1 edges each")
        if not all(np.all(np.diff(e) >= 0) for e in self.edges):
            raise InputError("policy cell edges must be sorted in increasing order")
        actions = class_labels(self.actions, self.m)
        if np.shape(self.actions) != (math.prod(self.grid_sizes),) or actions is None:
            raise InputError(f"a policy needs one action in [0, {self.m}) per grid cell")
        object.__setattr__(self, "actions", actions)

    def cell_index(self, X) -> np.ndarray:
        X = _points(np.atleast_2d(X), self.d)
        # Same cells as np.digitize for increasing edges, without its checks.
        cells = [e.searchsorted(x, side="right") for e, x in zip(self.edges, X.T)]
        return np.ravel_multi_index(cells, self.grid_sizes)

    def predict(self, X) -> np.ndarray:
        return self.actions[self.cell_index(X)]


def greedy_actions(q: np.ndarray, discount: float) -> np.ndarray:
    """Action 1 where q[:, 1] exceeds q[:, 0] by more than 1e-9 / (1 - discount), else 0."""
    # Q-values reach 1 / (1 - discount), so a smaller gap is rounding: a tie,
    # which goes left (action 0) whatever order the sums were taken in.
    return (q[:, 1] - q[:, 0] > 1e-9 / (1.0 - discount)).astype(np.int64)


def learn_policy(cfg: PolicyConfig = PolicyConfig(),
                 residuals_out: Optional[list] = None) -> TabularPolicy:
    """Estimate cell-to-cell transitions by sampling and run value iteration.

    Each (cell, action) pair is simulated cfg.n_transition_samples times from
    states drawn uniformly inside the cell; rewards are +1 per non-terminal
    transition. Slabs of at most POLICY_SLAB_TRANSITIONS transitions (one
    cell or more) are simulated in cell order, which keeps the one-batch rng
    draws, and counted once per distinct (pair, next cell); each sweep is one
    weighted bincount over those counts. The actions are greedy_actions of
    the final Q-values. residuals_out, when given, receives the per-sweep
    sup-norm value changes. If VI_MAX_SWEEPS sweeps end above VI_TOL, a
    UserWarning names the sweep count and the last residual.
    """
    shape, ns, n_cells = tuple(cfg.grid_sizes), cfg.n_transition_samples, math.prod(cfg.grid_sizes)
    rng = np.random.default_rng(cfg.seed)
    grids = [np.linspace(lo, hi, size + 1) for (lo, hi), size in zip(STATE_RANGES, shape)]
    stub = TabularPolicy(tuple(grid[1:-1] for grid in grids), np.zeros(n_cells, np.int64), shape)
    step, slabs = max(1, POLICY_SLAB_TRANSITIONS // (2 * ns)), []
    for first in range(0, n_cells, step):
        # Uniform states inside each of the slab's k cells, each simulated
        # under both actions; transition j belongs to pair 2 * first + j // ns.
        k = min(step, n_cells - first)
        cells = np.unravel_index(np.arange(first, first + k), shape)
        # Each cell's lower and upper edges, shaped (k, 1, 4).
        lo, hi = (np.stack([g[c + s] for g, c in zip(grids, cells)], axis=1)[:, None] for s in (0, 1))
        states = (lo + rng.random((k, ns, 4)) * (hi - lo)).repeat(2, axis=0)  # action 0, then 1
        nxt, terminal = step_batch(states.reshape(-1, 4).T, np.tile(np.repeat([0, 1], ns), k))
        # A terminal transition adds reward 0 and value 0, so it drops out; the
        # others are counted per distinct (pair, next cell).
        pair = np.arange(2 * first, 2 * (first + k)).repeat(ns)[~terminal]
        slabs.append(np.unique(pair * n_cells + stub.cell_index(nxt.T)[~terminal], return_counts=True))
    pair, nxt_cell = np.divmod(np.concatenate([slab[0] for slab in slabs]), n_cells)
    counts = np.concatenate([slab[1] for slab in slabs]).astype(np.float64)
    rewards = np.bincount(pair, counts, 2 * n_cells)

    def q_values(values):
        future = np.bincount(pair, counts * values.take(nxt_cell), 2 * n_cells)
        return ((rewards + cfg.discount * future) / ns).reshape(n_cells, 2)

    values, residuals = np.zeros(n_cells), [] if residuals_out is None else residuals_out
    for _ in range(VI_MAX_SWEEPS):
        q, previous = q_values(values), values
        values = np.maximum(q[:, 0], q[:, 1])
        residuals.append(float(abs(values - previous).max()))
        if residuals[-1] < VI_TOL:
            break
    else:
        warnings.warn(f"value iteration stopped after {VI_MAX_SWEEPS} sweeps at residual "
                      f"{residuals[-1]:.3g}, above VI_TOL = {VI_TOL:g}")
    q = q_values(values)
    return TabularPolicy(stub.edges, greedy_actions(q, cfg.discount), shape)


def _rollouts(policy: TabularPolicy, starts: np.ndarray):
    """Step one episode per row of starts in lockstep, each until it ends
    or reaches EPISODE_CAP steps. Returns the visited states (start
    included, terminal not) episode by episode in the order of starts, and
    each episode's length, which is its reward."""
    state, lane = starts.T, np.arange(starts.shape[0])  # one column per episode
    seen, owner = [], []
    for _ in range(EPISODE_CAP):
        seen.append(state)
        owner.append(lane)
        state, terminal = step_batch(state, policy.predict(state.T))
        state, lane = state[:, ~terminal], lane[~terminal]
        if not lane.size:
            break
    owner = np.concatenate(owner)
    return (np.concatenate(seen, axis=1).T[np.argsort(owner, kind="stable")],
            np.bincount(owner, minlength=starts.shape[0]))


def mean_rollout_reward(policy: TabularPolicy, n_episodes: int = 100, seed: int = 0) -> float:
    """Mean steps survived (capped) over n_episodes near-upright starts."""
    if not is_count(n_episodes):
        raise InputError("n_episodes must be >= 1")
    starts = np.random.default_rng(seed).uniform(-0.05, 0.05, size=(n_episodes, 4))
    return float(np.mean(_rollouts(policy, starts)[1]))


def collect_states(policy: TabularPolicy, n_points: int, seeds) -> list[Dataset]:
    """Roll out the policy and subsample visited states uniformly, one Dataset
    per seed: its pool runs episodes until it holds 5x the points (at least 3
    episodes), then gives n_points states without replacement, labeled by the
    policy. Each round steps every unfinished pool's next episodes in one
    lockstep batch; pool i draws its starts and subsample from
    default_rng(seeds[i]) as if it stepped one episode at a time."""
    if not is_count(n_points):
        raise InputError("n_points must be >= 1")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    need, pools = 5 * n_points, [[] for _ in rngs]
    pooled, episodes = [0] * len(rngs), [0] * len(rngs)
    while live := [i for i in range(len(rngs)) if pooled[i] < need or episodes[i] < 3]:
        ks = [max(3 - episodes[i], -(-(need - pooled[i]) // EPISODE_CAP)) for i in live]
        states, lengths = _rollouts(policy, np.concatenate(
            [rngs[i].uniform(-0.05, 0.05, size=(k, 4)) for i, k in zip(live, ks)]))
        sizes = np.add.reduceat(lengths, np.cumsum([0] + ks[:-1]))  # states per pool
        for i, k, part in zip(live, ks, np.split(states, np.cumsum(sizes)[:-1])):
            pools[i].append(part)
            pooled[i], episodes[i] = pooled[i] + len(part), episodes[i] + k
    pools = [np.concatenate(pool) for pool in pools]
    X = [pool[rng.choice(len(pool), size=n_points, replace=False)] for rng, pool in zip(rngs, pools)]
    names = ("cart_position", "cart_velocity", "pole_angle", "pole_velocity")
    return [Dataset(x, policy.predict(x), names, 2) for x in X]


# ---------------------------------------------------------------------------
# Synthetic classification data


POSITIVE_RATE, N_CLUSTERS, DIMS_PER_CLUSTER, SHIFT, SPREAD = 0.118, 3, 2, 2.2, 0.7


def make_imbalanced_classification(n: int, d: int = 50, seed: int = 0) -> Dataset:
    """Rare-positive Gaussian classification data.

    Negatives are standard normal in every dimension. A POSITIVE_RATE share
    of rows is positive, falling into N_CLUSTERS blobs, each shifted by
    +-SHIFT along its own DIMS_PER_CLUSTER feature dimensions with spread
    SPREAD, so the positive class is fragmented: localizing all blobs from
    few labeled rows is hard, while a mixture model fit to the inputs
    recovers them.
    """
    if d < N_CLUSTERS * DIMS_PER_CLUSTER:
        raise InputError(f"need d >= {N_CLUSTERS * DIMS_PER_CLUSTER}, one pair of dims per blob; got d={d}")
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < POSITIVE_RATE).astype(np.int64)
    X = rng.standard_normal((n, d))
    pos = np.flatnonzero(y == 1)
    blob = rng.integers(N_CLUSTERS, size=pos.size)
    for c in range(N_CLUSTERS):
        rows = pos[blob == c]
        dims = np.arange(c * DIMS_PER_CLUSTER, (c + 1) * DIMS_PER_CLUSTER)
        sign = 1.0 if c % 2 == 0 else -1.0
        X[np.ix_(rows, dims)] *= SPREAD
        X[np.ix_(rows, dims)] += sign * SHIFT
    return Dataset(X, y, tuple(f"f{i}" for i in range(d)), 2)
