"""Fidelity metrics, the closed-form exact-greedy oracle, and the
fidelity-versus-size experiment harness.

The oracle exploits the fact that for a label function that is piecewise
constant on disjoint axis-aligned boxes and a diagonal Gaussian mixture,
every joint probability Pr[f(x)=y and x in box] is a finite sum of products
of normal CDF differences, so population Gini gains can be computed exactly
and the greedy tree built without sampling.
"""
from __future__ import annotations

import csv
import io as _io
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import BaselineConfig, born_again_extract, cart_extract
from .blackbox import (BoxBlackbox, CartPoleSystem, PolicyConfig,
                       RandomForestConfig, collect_states, learn_policy,
                       make_imbalanced_classification, synthetic_box_blackbox,
                       train_random_forest)
from .core import AxisConstraint, BoxConstraint, Dataset, DecisionTree, LE, Leaf, conjoin
from .errors import InputError
from .extract import ExtractionConfig, extract_tree, grow_best_first
from .gmm import EMConfig, GaussianMixture, log_box_masses, sample, select_k_bic

GAIN_FLOOR = 1e-12  # exact gains at or below this count as zero


# ---------------------------------------------------------------------------
# Fidelity


@dataclass(frozen=True)
class FidelityReport:
    accuracy: float
    f1: Optional[float]
    n_test: int
    confusion: np.ndarray  # confusion[blackbox_label, tree_label]
    positive_class: int = 1


def fidelity(tree: DecisionTree, f, test_points, positive_class: int = 1) -> FidelityReport:
    """Pointwise agreement of the tree with the blackbox on fixed test points.

    F1 is reported for binary problems only, with the given positive class.
    """
    X = np.atleast_2d(np.asarray(test_points, dtype=np.float64))
    if X.shape[0] == 0:
        raise InputError("test_points must be nonempty")
    ref = np.asarray(f.predict(X), dtype=np.int64)
    pred = tree.predict_batch(X)
    m = tree.m
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (ref, pred), 1)
    acc = float(np.trace(confusion) / X.shape[0])
    f1 = None
    if m == 2:
        tp = confusion[positive_class, positive_class]
        fp = confusion[1 - positive_class, positive_class]
        fn = confusion[positive_class, 1 - positive_class]
        denom = 2 * tp + fp + fn
        f1 = float(2 * tp / denom) if denom > 0 else 0.0
    return FidelityReport(acc, f1, X.shape[0], confusion, positive_class)


@dataclass(frozen=True)
class AgreementResult:
    rate: float
    se: float
    n: int


def agreement(tree_a: DecisionTree, tree_b: DecisionTree, gmm: GaussianMixture,
              n: int = 10 ** 5, rng: Optional[np.random.Generator] = None) -> AgreementResult:
    """Monte Carlo estimate of Pr[A(x) = B(x)] under the input model."""
    if tree_a.d != tree_b.d:
        raise InputError("trees have different input dimensions")
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.atleast_2d(sample(gmm, rng, n))
    rate = float(np.mean(tree_a.predict_batch(X) == tree_b.predict_batch(X)))
    se = math.sqrt(max(rate * (1 - rate), 1e-12) / n)
    return AgreementResult(rate, se, n)


# ---------------------------------------------------------------------------
# Exact greedy oracle


def _class_masses(gmm: GaussianMixture, bb: BoxBlackbox, box) -> tuple:
    """(p, z): p_y = Pr[f(x)=y and x in box], z = Pr[x in box].

    box is one BoxConstraint, or a batch of T boxes as a pair of (T, d)
    lower/upper bound arrays, for which p is (T, m) and z is (T,). Empty
    boxes get zero masses. The boxes and their intersections with every
    blackbox box go through one log_box_masses call.
    """
    single = isinstance(box, BoxConstraint)
    lower, upper = (box.lower[None], box.upper[None]) if single else box
    t = lower.shape[0]
    lo, hi = [lower], [upper]
    for b in bb.boxes:
        lo.append(np.maximum(lower, b.lower))
        hi.append(np.minimum(upper, b.upper))
    mass = np.exp(log_box_masses(gmm, np.concatenate(lo), np.concatenate(hi))).reshape(-1, t)
    z = mass[0]
    p = np.zeros((t, bb.m))
    covered = np.zeros(t)
    for pb, label in zip(mass[1:], bb.labels):
        p[:, label] += pb
        covered += pb
    p[:, bb.default_label] += np.maximum(z - covered, 0.0)
    return (p[0], float(z[0])) if single else (p, z)


def _impurity_term(p, z):
    """z - |p|^2 / z, and 0 where z <= 0; p is (m,) with a scalar z, or a
    (T, m) batch with z of shape (T,)."""
    p = np.asarray(p, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    # matmul rounds |p|^2 as np.dot does (BLAS), unlike an elementwise sum,
    # so the oracle's gains stay bit-identical to the dot-product form.
    sq = (p[..., None, :] @ p[..., :, None])[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(z > 0, z - sq / z, 0.0)
    return float(h) if h.ndim == 0 else h


def _exact_gain(gmm, bb, box, parent_h, dim, t):
    """Exact Gini gain of splitting box at x_dim <= t. t may be a vector of
    thresholds, which are evaluated in one batch and give a gain array."""
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    n = ts.shape[0]
    lower = np.repeat(box.lower[None], 2 * n, axis=0)
    upper = np.repeat(box.upper[None], 2 * n, axis=0)
    upper[:n, dim] = np.minimum(upper[:n, dim], ts)
    lower[n:, dim] = np.maximum(lower[n:, dim], ts)
    h = _impurity_term(*_class_masses(gmm, bb, (lower, upper)))
    gain = parent_h - h[:n] - h[n:]
    return float(gain[0]) if np.ndim(t) == 0 else gain


def _golden_max(fn: Callable[[float], float], a: float, b: float,
                tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section maximization of fn over [a, b]."""
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


def _search_interval(gmm: GaussianMixture, box: BoxConstraint, dim: int) -> tuple[float, float]:
    """Finite interval inside the box covering all relevant mixture mass."""
    env_lo = float(np.min(gmm.means[:, dim] - 12.0 * gmm.stddevs[:, dim]))
    env_hi = float(np.max(gmm.means[:, dim] + 12.0 * gmm.stddevs[:, dim]))
    lo = max(box.lower[dim], env_lo)
    hi = min(box.upper[dim], env_hi)
    if lo >= hi:
        lo, hi = env_lo, env_hi
    return lo, hi


def _best_exact_split(gmm, bb, box, parent_h: float, coarse: int = 33):
    """Exact gain maximizer over all dimensions for one region whose
    impurity term is parent_h.

    Candidate breakpoints are the blackbox box edges; each smooth piece is
    scanned on a coarse grid (one batched gain call) and the best bracket
    refined by golden section. Ties break toward the lowest dimension, then
    the smallest threshold.
    """
    best = None  # (gain, dim, threshold)
    for dim in range(bb.d):
        lo, hi = _search_interval(gmm, box, dim)
        edges = set()
        for b in bb.boxes:
            for v in (b.lower[dim], b.upper[dim]):
                if np.isfinite(v) and lo < v < hi:
                    edges.add(float(v))
        breaks = [lo] + sorted(edges) + [hi]
        fn = lambda t: _exact_gain(gmm, bb, box, parent_h, dim, t)  # noqa: E731
        dim_best = None
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a <= 0:
                continue
            grid = np.linspace(a, b, coarse)
            vals = fn(grid)
            j = int(np.argmax(vals))
            ga = grid[max(j - 1, 0)]
            gb = grid[min(j + 1, coarse - 1)]
            t, g = _golden_max(fn, float(ga), float(gb))
            if vals[j] > g:
                t, g = float(grid[j]), float(vals[j])
            if dim_best is None or g > dim_best[0] or (g == dim_best[0] and t < dim_best[1]):
                dim_best = (g, t)
        if dim_best is None:
            continue
        if best is None or dim_best[0] > best[0]:
            best = (dim_best[0], dim, dim_best[1])
    return best


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
    if k < 1 or k % 2 == 0:
        raise InputError("k must be a positive odd node total")

    def leaf_for(box):
        """(leaf, z, impurity term) for a region."""
        p, z = _class_masses(gmm, bb, box)
        if z > 0:
            hist = p / z
            hist = hist / hist.sum()
        else:
            hist = np.full(bb.m, 1.0 / bb.m)
        return Leaf(int(np.argmax(p)), hist, mass=z), z, _impurity_term(p, z)

    def score(i, region):
        best = _best_exact_split(gmm, bb, region[0], region[1])
        return (best[0] if best else 0.0), best

    def commit(i, region, best):
        box, _, parent = region
        _, dim, t = best
        constraint = AxisConstraint(dim, t, LE)
        children = []
        for c in (constraint, constraint.negated()):
            child_box = conjoin(box, c)
            if child_box is None:
                children.append((Leaf(parent.label, parent.class_histogram, mass=0.0), None))
                continue
            leaf, z, h = leaf_for(child_box)
            children.append((leaf, (child_box, h, leaf) if z > 0 else None))
        return constraint, children

    root_box = BoxConstraint.unbounded(bb.d)
    root_leaf, _, root_h = leaf_for(root_box)
    nodes, gains = grow_best_first(root_leaf, (root_box, root_h, root_leaf), score,
                                   commit, k, GAIN_FLOOR)
    tree = DecisionTree(tuple(nodes), 0, bb.d, bb.m)
    return OracleResult(tree, dict(enumerate(gains)))


# ---------------------------------------------------------------------------
# Canonical synthetic benchmarks


def two_box_benchmark():
    """Two positive regions over a 2-component mixture whose exact greedy
    tree is a full 7-node tree (three clean splits, pure leaves)."""
    gmm = GaussianMixture(
        weights=[0.5, 0.5],
        means=[[-1.0, 0.0], [1.0, 0.2]],
        stddevs=[[1.0, 0.9], [0.9, 1.0]])
    inf = np.inf
    boxes = (
        BoxConstraint([-inf, -inf], [-0.6, 0.4]),
        BoxConstraint([0.9, -inf], [inf, inf]),
    )
    bb = synthetic_box_blackbox(boxes, (1, 1), d=2, m=2)
    return gmm, bb


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
    bb = synthetic_box_blackbox(boxes, (1, 1, 1), d=2, m=2)
    return gmm, bb


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


def cartpole_task(n_train: int = 100, n_test: int = 100, samples_per_node: int = 200,
                  policy_cfg: PolicyConfig = PolicyConfig(),
                  sys: CartPoleSystem = CartPoleSystem()) -> FidelityTask:
    """Control-policy distillation task: per seed, fresh rollout states are
    collected for training/testing and the input model refitted."""
    shared: dict = {}

    def instance(seed: int) -> TaskInstance:
        if "policy" not in shared:
            shared["policy"] = learn_policy(sys, policy_cfg)
        policy = shared["policy"]
        train = collect_states(policy, sys, n_train, seed=(7919 + seed) * 2 + 1)
        test = collect_states(policy, sys, n_test, seed=(104729 + seed) * 2)
        gmm = select_k_bic(train.features, cfg=EMConfig(seed=seed, n_init=2))
        return TaskInstance(policy, gmm, train, test.features)

    return FidelityTask("cartpole", samples_per_node, instance)


def synthetic_rf_task(n: int = 1000, d: int = 50, samples_per_node: int = 1000,
                      positive_rate: float = 0.118, gmm_k: Optional[int] = 8,
                      rf_cfg: Optional[RandomForestConfig] = None) -> FidelityTask:
    """Imbalanced-classification distillation task standing in for private
    tabular data: a fresh random split and forest per seed.

    The input-model component count defaults to 8 here rather than BIC:
    in 50 dimensions BIC's parameter penalty swamps the likelihood gain of
    the rare-class blobs and collapses the model to one component, which
    leaves conditional sampling blind to the minority class. Pass
    gmm_k=None to select by BIC anyway.
    """
    from .gmm import fit_em

    def instance(seed: int) -> TaskInstance:
        data = make_imbalanced_classification(n, d, positive_rate, seed=1000 + seed)
        rng = np.random.default_rng([17, seed])
        perm = rng.permutation(n)
        n_train = int(round(0.7 * n))
        tr, te = perm[:n_train], perm[n_train:]
        train = Dataset(data.features[tr], data.labels[tr], data.column_names, data.m)
        cfg = rf_cfg or RandomForestConfig(balance=True, seed=seed)
        forest = train_random_forest(train, cfg)
        em_cfg = EMConfig(seed=seed, n_init=4)
        if gmm_k is None:
            gmm = select_k_bic(train.features, cfg=em_cfg)
        else:
            gmm = fit_em(train.features, gmm_k, em_cfg)
        return TaskInstance(forest, gmm, train, data.features[te])

    return FidelityTask("synthetic-rf", samples_per_node, instance)


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    size: int
    seed: int
    fidelity_acc: float
    fidelity_f1: Optional[float]
    budget: int
    wall_ms: float


CSV_FIELDS = ("algorithm", "size", "seed", "fidelity_acc", "fidelity_f1",
              "budget", "wall_ms")


@dataclass
class ExperimentResult:
    """Result rows plus one message per run that failed and left no row."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def append(self, row: ResultRow) -> None:
        self.rows.append(row)

    def median(self, algorithm: str, size: int, metric: str = "fidelity_f1") -> float:
        vals = [getattr(r, metric) for r in self.rows
                if r.algorithm == algorithm and r.size == size
                and getattr(r, metric) is not None]
        if not vals:
            raise InputError(f"no rows for {algorithm} at size {size}")
        return float(np.median(vals))

    def to_csv_text(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in self.rows:
            writer.writerow([r.algorithm, r.size, r.seed,
                             repr(r.fidelity_acc),
                             "" if r.fidelity_f1 is None else repr(r.fidelity_f1),
                             r.budget, repr(r.wall_ms)])
        return buf.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "ExperimentResult":
        reader = csv.DictReader(_io.StringIO(text))
        out = cls()
        for rec in reader:
            out.append(ResultRow(rec["algorithm"], int(rec["size"]), int(rec["seed"]),
                                 float(rec["fidelity_acc"]),
                                 None if rec["fidelity_f1"] == "" else float(rec["fidelity_f1"]),
                                 int(rec["budget"]), float(rec["wall_ms"])))
        return out


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
    failures.
    """
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}")
    result = ExperimentResult()

    def fail(message):
        warnings.warn(message)
        result.failures.append(message)

    def run_seed(seed: int):
        try:
            inst = task.instance(seed)
        except Exception as e:  # noqa: BLE001
            fail(f"task instance failed at seed={seed}: {e}")
            return
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
                result.append(ResultRow(name, size, seed, rep.accuracy, rep.f1,
                                        tree.budget, (time.perf_counter() - t0) * 1e3))
            return tree

        for size in sizes:
            ours_budget = None
            if "ours" in algorithms or "born_again" in algorithms:
                # Run ours even when only born-again was asked for: the
                # baseline is matched to its recorded budget.
                cfg = ExtractionConfig(size, task.samples_per_node,
                                       seed=_child_seed(base_seed, seed, size, 0))
                tree = attempt("ours", size, lambda: extract_tree(gmm, f, cfg),
                               record="ours" in algorithms)
                if tree is not None:
                    ours_budget = tree.budget
            if "cart" in algorithms:
                attempt("cart", size, lambda: cart_extract(inst.train, f, size))
            if "born_again" in algorithms:
                if ours_budget is None:
                    fail(f"born_again skipped at size={size} seed={seed}: "
                         "no matched budget")
                else:
                    bcfg = BaselineConfig(size, samples_per_node=task.samples_per_node,
                                          total_sample_budget=ours_budget,
                                          seed=_child_seed(base_seed, seed, size, 2))
                    attempt("born_again", size,
                            lambda: born_again_extract(gmm, f, bcfg))

    for seed in range(n_seeds):
        run_seed(seed)
    return result
