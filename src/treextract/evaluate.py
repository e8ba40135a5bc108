"""Fidelity metrics, the closed-form exact-greedy oracle, and the
fidelity-versus-size experiment harness.

The oracle exploits the fact that for a label function that is piecewise
constant on disjoint axis-aligned boxes and a diagonal Gaussian mixture,
every joint probability Pr[f(x)=y and x in box] is a finite sum of products
of normal CDF differences, so population Gini gains can be computed exactly
and the greedy tree built without sampling.
"""

import math
import time
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import born_again_extract, cart_extract
from .blackbox import (BoxBlackbox, RandomForestConfig, collect_states, learn_policy,
                       make_imbalanced_classification, train_random_forest)
from .core import BoxConstraint, Dataset, DecisionTree, _check_seed, _points, is_count
from .errors import ConfigError, InputError
from .extract import (ExtractionConfig, _check_dims, _check_max_nodes, _label_points,
                      extract_tree, grow_best_first)
from .gmm import EMConfig, GaussianMixture, fit_em, log_box_masses, select_k_bic
from .io import csv_text

GAIN_FLOOR = 1e-12  # exact gains at or below this count as zero
GOLDEN_TOL = 1e-8  # golden-section refinement stops at this bracket width
COARSE_GRID = 33  # points per smooth piece scanned before golden-section refinement
GAIN_BATCH_CELLS = 1 << 16  # boxes x K x d cells per log_box_masses call in _exact_gain
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Fidelity


@dataclass(frozen=True)
class FidelityReport:
    accuracy: float
    f1: Optional[float]
    n_test: int
    confusion: np.ndarray  # confusion[blackbox_label, tree_label]


def fidelity(tree: DecisionTree, f, test_points, positive_class: int = 1) -> FidelityReport:
    """Pointwise agreement of the tree with the blackbox on fixed test points.

    F1 is reported for binary problems only, with the given positive class,
    which must then be 0 or 1. The tree and the blackbox must share d and m,
    and each test point have d coordinates.
    """
    if (tree.d, tree.m) != (f.d, f.m):
        raise InputError(f"tree (d={tree.d}, m={tree.m}) and blackbox (d={f.d}, m={f.m}) differ")
    if tree.m == 2 and not (is_count(positive_class, 0) and positive_class < 2):
        raise InputError(f"positive_class must be 0 or 1, got {positive_class}")
    X = _points(np.atleast_2d(test_points), tree.d)  # a wrong width is the caller's
    if X.shape[0] == 0:
        raise InputError("test_points must be nonempty")
    m = tree.m
    ref, pred = _label_points(f, X, "fidelity"), tree.predict_batch(X)
    confusion = np.bincount(ref * m + pred, minlength=m * m).reshape(m, m)
    acc = float(np.trace(confusion) / X.shape[0])
    f1 = None
    if m == 2:
        p, q = positive_class, 1 - positive_class
        tp, fp, fn = confusion[p, p], confusion[q, p], confusion[p, q]
        f1 = float(2 * tp / (2 * tp + fp + fn)) if tp + fp + fn > 0 else 0.0
    return FidelityReport(acc, f1, X.shape[0], confusion)


@dataclass(frozen=True)
class AgreementResult:
    rate: float
    se: float
    n: int
    exact: float


def agreement(tree_a: DecisionTree, tree_b: DecisionTree, gmm: GaussianMixture,
              n: int = 10 ** 5, rng: Optional[np.random.Generator] = None) -> AgreementResult:
    """Exact Pr[A(x) = B(x)] under the input model: the mass of box_a & box_b
    summed over the leaf pairs with equal labels. rate is the agreeing share
    of n draws, drawn as Binomial(n, exact) / n (the law of that count, as
    tree boundaries have measure zero), and se its standard error."""
    if not tree_a.d == tree_b.d == gmm.d:
        raise InputError(f"trees of d={tree_a.d}, {tree_b.d} and mixture dimension {gmm.d} differ")
    # Each tree's leaf boxes and labels.
    (lo_a, hi_a, y_a), (lo_b, hi_b, y_b) = (
        [v[t.feature < 0] for v in (*t._path_bounds(), t.label)] for t in (tree_a, tree_b))
    a, b = np.nonzero(y_a[:, None] == y_b)
    lower, upper = np.maximum(lo_a[a], lo_b[b]), np.minimum(hi_a[a], hi_b[b])
    # An empty intersection has mass exactly 0. fsum rounds the sum once, so
    # exact does not depend on the pair order.
    exact = min(math.fsum(np.exp(log_box_masses(gmm, lower, upper))), 1.0)
    rate = (np.random.default_rng(0) if rng is None else rng).binomial(n, exact) / n
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / n)
    return AgreementResult(rate, se, n, exact)


# ---------------------------------------------------------------------------
# Exact greedy oracle


def _class_masses(gmm: GaussianMixture, bb: BoxBlackbox, lower, upper) -> tuple:
    """(p, z) for T boxes with (T, d) bounds: the (T, m) p_y = Pr[f(x)=y and
    x in box] and the (T,) z = Pr[x in box].

    Empty boxes get zero masses. The boxes and their intersections with
    every blackbox box go through one log_box_masses call.
    """
    t = lower.shape[0]
    lo, hi = [lower], [upper]
    for b in bb.boxes:
        lo.append(np.maximum(lower, b.lower))
        hi.append(np.minimum(upper, b.upper))
    mass = np.exp(log_box_masses(gmm, np.concatenate(lo), np.concatenate(hi))).reshape(-1, t)
    z = mass[0]
    p = np.zeros((t, bb.m))
    for pb, label in zip(mass[1:], bb.labels):
        p[:, label] += pb
    p[:, bb.default_label] += np.maximum(z - mass[1:].sum(axis=0), 0.0)  # summed row by row
    return p, z


def _impurity_term(p, z):
    """(T,) z - |p|^2 / z, and 0 where z <= 0, for (T, m) p and (T,) z."""
    # matmul rounds |p|^2 as np.dot does (BLAS), unlike an elementwise sum,
    # so the oracle's gains stay bit-identical to the dot-product form.
    sq = (p[:, None, :] @ p[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z > 0, z - sq / z, 0.0)


def _exact_gain(gmm, bb, box, parent_h, dim, ts):
    """Exact Gini gains of splitting box at x_dim <= t for each threshold t
    of the vector ts; dim is one dimension or an array aligned with ts.
    Each threshold makes 2 * (boxes + 1) boxes for log_box_masses, whose
    temporaries hold K * d cells per box, so the thresholds go in batches
    of at most GAIN_BATCH_CELLS cells."""
    n = ts.shape[0]
    dim = np.broadcast_to(dim, ts.shape)
    step = max(1, GAIN_BATCH_CELLS // (2 * (len(bb.boxes) + 1) * gmm.means.size))
    if n > step:
        return np.concatenate([_exact_gain(gmm, bb, box, parent_h, dim[i:i + step], ts[i:i + step])
                               for i in range(0, n, step)])
    rows = np.arange(n)
    lower = np.repeat(box.lower[None], 2 * n, axis=0)
    upper = np.repeat(box.upper[None], 2 * n, axis=0)
    upper[rows, dim] = np.minimum(upper[rows, dim], ts)
    lower[rows + n, dim] = np.maximum(lower[rows + n, dim], ts)
    h = _impurity_term(*_class_masses(gmm, bb, lower, upper))
    return parent_h - h[:n] - h[n:]


def _search_interval(gmm: GaussianMixture, box: BoxConstraint, dim: int) -> tuple[float, float]:
    """Finite interval inside the box covering all relevant mixture mass."""
    env_lo = float(np.min(gmm.means[:, dim] - 12.0 * gmm.stddevs[:, dim]))
    env_hi = float(np.max(gmm.means[:, dim] + 12.0 * gmm.stddevs[:, dim]))
    lo, hi = max(box.lower[dim], env_lo), min(box.upper[dim], env_hi)
    return (lo, hi) if lo < hi else (env_lo, env_hi)


def _best_exact_split(gmm, bb, box, parent_h: float):
    """Exact gain maximizer over all dimensions for one region whose
    impurity term is parent_h, as (gain, dim, threshold).

    Candidate breakpoints are the blackbox box edges. The coarse grids of
    every smooth piece of every dimension are scanned by one _exact_gain
    call, and each piece's best bracket is refined by golden section. The
    brackets step in lockstep: one _exact_gain call evaluates the next point
    of every bracket still wider than GOLDEN_TOL (or 4 ulps of its ends).
    Ties break toward the lowest dimension, then the smallest threshold.
    """
    # (dim, a, b) for every smooth piece of every dimension: lo < hi and the
    # edges lie strictly between them, so every dimension has a piece and b > a.
    pieces = []
    for dim in range(bb.d):
        lo, hi = _search_interval(gmm, box, dim)
        edges = {float(v) for b in bb.boxes for v in (b.lower[dim], b.upper[dim])
                 if np.isfinite(v) and lo < v < hi}
        breaks = [lo] + sorted(edges) + [hi]
        pieces += [(dim, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    dims = np.array([p[0] for p in pieces])
    gain = lambda dim, t: _exact_gain(gmm, bb, box, parent_h, dim, t)  # noqa: E731
    grid = np.array([np.linspace(a, b, COARSE_GRID) for _, a, b in pieces])
    vals = gain(np.repeat(dims, COARSE_GRID), grid.ravel()).reshape(grid.shape)
    rows = np.arange(len(pieces))
    j = np.argmax(vals, axis=1)
    a = grid[rows, np.maximum(j - 1, 0)]
    b = grid[rows, np.minimum(j + 1, COARSE_GRID - 1)]
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = np.split(gain(np.tile(dims, 2), np.concatenate([c, d])), 2)
    # Each bracket's width tolerance is floored at 4 ulps of its ends: from
    # |x| = 2^26 on, GOLDEN_TOL is below the float spacing and never reached.
    tol = np.maximum(GOLDEN_TOL, 4 * np.spacing(np.maximum(abs(a), abs(b))))
    while (live := np.flatnonzero(b - a > tol)).size:
        keep_left = fc[live] >= fd[live]
        lt, rt = live[keep_left], live[~keep_left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - INV_PHI * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + INV_PHI * (b[rt] - a[rt])
        new = gain(dims[live], np.where(keep_left, c[live], d[live]))
        fc[lt], fd[rt] = new[keep_left], new[~keep_left]
    t = 0.5 * (a + b)
    g = gain(dims, t)
    on_grid = vals[rows, j] > g
    t = np.where(on_grid, grid[rows, j], t)
    g = np.where(on_grid, vals[rows, j], g)
    i = np.lexsort((t, dims, -g))[0]
    return float(g[i]), int(dims[i]), float(t[i])


@dataclass(frozen=True)
class OracleResult:
    tree: DecisionTree
    gains: dict  # node id -> exact best gain when it was a leaf (0: never scored)


def exact_greedy_oracle(gmm: GaussianMixture, bb: BoxBlackbox, k: int) -> OracleResult:
    """Exact greedy tree for a box-piecewise-constant blackbox.

    Gains and labels use closed-form region probabilities; the expansion
    order follows the highest exact potential gain, the same frontier rule
    the sampling extractor uses.
    """
    if not isinstance(bb, BoxBlackbox):
        raise InputError("the exact oracle requires a box-piecewise blackbox")
    _check_max_nodes(k)
    _check_dims(gmm, bb)

    def leaf_for(box):
        """((label, histogram, z), (box, impurity term)) for a region of mass z > 0."""
        p, z = _class_masses(gmm, bb, box.lower[None], box.upper[None])
        h, p, z = float(_impurity_term(p, z)[0]), p[0], float(z[0])
        hist = p / z
        return (int(np.argmax(p)), hist / hist.sum(), z), (box, h)

    def score(nodes):
        return [(best[0], best) for best in (_best_exact_split(gmm, bb, *r) for _, r in nodes)]

    def commit(i, region, best):
        # A gain above GAIN_FLOOR leaves both children a box and mass.
        _, dim, t = best
        return (dim, t), [leaf_for(child) for child in region[0].split(dim, t)]

    rows, gains = grow_best_first(*leaf_for(BoxConstraint.unbounded(bb.d)), score, commit,
                                  k, GAIN_FLOOR)
    return OracleResult(DecisionTree.from_rows(rows, bb.d, bb.m), dict(enumerate(gains)))


# ---------------------------------------------------------------------------
# Canonical synthetic benchmarks


def three_box_benchmark():
    """Three disjoint finite boxes labeled 1 over a 2-component mixture."""
    gmm = GaussianMixture(
        weights=[0.6, 0.4],
        means=[[-1.2, 0.0], [1.6, 0.6]],
        stddevs=[[0.9, 1.1], [0.8, 0.9]])
    boxes = (
        BoxConstraint([-3.5, -2.5], [-0.8, 1.2]),
        BoxConstraint([0.6, -1.5], [2.8, 0.3]),
        BoxConstraint([0.2, 0.9], [2.0, 2.6]),
    )
    return gmm, BoxBlackbox(boxes, (1, 1, 1), d=2, m=2)


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass
class TaskInstance:
    blackbox: object
    gmm: GaussianMixture
    train: Dataset
    test_points: np.ndarray


@dataclass
class FidelityTask:
    """A reproducible experiment setting: one call per seed yields the
    blackbox, fitted input model, training set, and held-out test points."""

    name: str
    samples_per_node: int
    instance: Callable[[int], TaskInstance]
    positive_class: int = 1


def cartpole_task() -> FidelityTask:
    """Control-policy distillation task at 200 samples per node: the policy
    is learned once, and per seed 100 fresh rollout states are collected for
    training, 100 for testing, and the input model refitted by BIC."""
    # Learned by the first instance. The lambda looks learn_policy up when
    # called, so a wrapper patched over this module's binding still sees it.
    policy = cache(lambda: learn_policy())

    def instance(seed: int) -> TaskInstance:
        train, test = collect_states(policy(), 100, [(7919 + seed) * 2 + 1, (104729 + seed) * 2])
        gmm = select_k_bic(train.features, cfg=EMConfig(seed=seed, n_init=2))
        return TaskInstance(policy(), gmm, train, test.features)

    return FidelityTask("cartpole", 200, instance)


def synthetic_rf_task() -> FidelityTask:
    """Imbalanced-classification distillation task standing in for private
    tabular data, at 1000 samples per node: per seed, 1000 rows of 50
    features with 11.8 % positives get a fresh 70/30 split, a balanced
    forest and an 8-component input model.

    The component count is fixed at 8 rather than chosen by BIC: in 50
    dimensions BIC's parameter penalty swamps the likelihood gain of the
    rare-class blobs and collapses the model to one component, which
    leaves conditional sampling blind to the minority class.
    """
    def instance(seed: int) -> TaskInstance:
        data = make_imbalanced_classification(1000, seed=1000 + seed)
        perm = np.random.default_rng([17, seed]).permutation(1000)
        tr, te = perm[:700], perm[700:]
        train = Dataset(data.features[tr], data.labels[tr], data.column_names, data.m)
        forest = train_random_forest(train, RandomForestConfig(balance=True, seed=seed))
        gmm = fit_em(train.features, 8, EMConfig(seed=seed, n_init=4))
        return TaskInstance(forest, gmm, train, data.features[te])

    return FidelityTask("synthetic-rf", 1000, instance)


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    size: int
    seed: int
    fidelity_acc: float
    fidelity_f1: Optional[float]
    budget: int
    wall_ms: float


@dataclass
class ExperimentResult:
    """Result rows plus one message per run that failed and left no row."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def median(self, algorithm: str, size: int, metric: str = "fidelity_f1") -> float:
        vals = [getattr(r, metric) for r in self.rows
                if r.algorithm == algorithm and r.size == size
                and getattr(r, metric) is not None]
        if not vals:
            raise InputError(f"no rows for {algorithm} at size {size}")
        return float(np.median(vals))

    def to_csv_text(self) -> str:
        return csv_text([f.name for f in fields(ResultRow)], map(astuple, self.rows))


ALGORITHMS = ("ours", "cart", "born_again")


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def run_fidelity_curve(task: FidelityTask, sizes: Sequence[int],
                       algorithms: Sequence[str] = ALGORITHMS,
                       n_seeds: int = 20, base_seed: int = 0) -> ExperimentResult:
    """Fidelity-versus-size sweep across seeds and algorithms.

    The rejection-sampling baseline is budget-matched to the active
    extractor's recorded blackbox calls per (seed, size). Failed runs are
    skipped with a warning, leave no row and are listed in the result's
    failures. Bad settings raise before the first task instance is built.
    """
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}")
    if not is_count(n_seeds):
        raise ConfigError("n_seeds must be >= 1")
    _check_seed(base_seed)
    model_driven = "ours" in algorithms or "born_again" in algorithms
    for size in sizes:
        _check_max_nodes(size)
        if model_driven:
            ExtractionConfig(size, task.samples_per_node)  # checks samples_per_node
    result = ExperimentResult()

    def fail(message):
        warnings.warn(message)
        result.failures.append(message)

    for seed in range(n_seeds):
        try:
            inst = task.instance(seed)
        except Exception as e:  # noqa: BLE001
            fail(f"task instance failed at seed={seed}: {e}")
            continue
        f, gmm = inst.blackbox, inst.gmm

        def attempt(name, size, build, record=True):
            t0 = time.perf_counter()
            try:
                tree = build()
            except Exception as e:  # noqa: BLE001
                fail(f"{name} failed at size={size} seed={seed}: {e}")
                return None
            if record:
                rep = fidelity(tree, f, inst.test_points, task.positive_class)
                result.rows.append(ResultRow(name, size, seed, rep.accuracy, rep.f1,
                                             tree.budget, (time.perf_counter() - t0) * 1e3))
            return tree

        for size in sizes:
            tree = None
            if model_driven:
                # Run ours even when only born-again was asked for: the
                # baseline is matched to its recorded budget.
                cfg = ExtractionConfig(size, task.samples_per_node,
                                       seed=_child_seed(base_seed, seed, size, 0))
                tree = attempt("ours", size, lambda: extract_tree(gmm, f, cfg),
                               record="ours" in algorithms)
            if "cart" in algorithms:
                attempt("cart", size, lambda: cart_extract(inst.train, f, size))
            if "born_again" in algorithms:
                if tree is None:
                    fail(f"born_again skipped at size={size} seed={seed}: "
                         "no matched budget")
                else:
                    bcfg = replace(cfg, seed=_child_seed(base_seed, seed, size, 2),
                                   total_sample_budget=tree.budget)
                    attempt("born_again", size,
                            lambda: born_again_extract(gmm, f, bcfg))
    return result
