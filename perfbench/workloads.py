"""The four benchmark workloads.

Each workload builds its fixtures once in ``setup`` and then runs passes.
Pass p of workload seed s draws its inputs from (s, p) only, so a traced and
an untraced run of the same pass see the same inputs. ``run_pass`` times the
program's work alone; the output checks run after the clock stops.

Program functions are always looked up on their module at call time
(``ev.extract_tree``, not a name imported here), so a tracer that patches the
modules sees every call.
"""
from __future__ import annotations

import hashlib
import json
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

import hostspeed
import treextract.evaluate as ev
import treextract.gmm as gm
import treextract.io as tio
from treextract.core import BoxConstraint, DecisionTree

ALGORITHMS = ("ours", "cart", "born_again")


@dataclass
class PassResult:
    """What one pass produced, and what its checks found."""

    seconds: float = 0.0
    op_ms: list = field(default_factory=list)     # per operation wall time
    op_points: list = field(default_factory=list) # points drawn per operation
    quality: list = field(default_factory=list)   # values behind `fidelity`
    digests: list = field(default_factory=list)   # sha256 per output tree
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)    # failed checks, as text
    failures: list = field(default_factory=list)  # failed operations, as text
    bb_points: int = 0     # blackbox points the outputs account for
    calibration: list = field(default_factory=list)  # host-speed loop times
    notes: dict = field(default_factory=dict)


def pass_key(seed: int, p: int) -> int:
    """Integer naming pass p of workload seed `seed`."""
    return 1000 * int(seed) + int(p)


def tree_digest(tree: DecisionTree) -> str:
    doc = tio.tree_to_doc(tree)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _check_tree(tree, res: PassResult, what: str) -> None:
    try:
        tree.validate()
    except Exception as e:  # noqa: BLE001 - any failure is a failed check
        res.errors.append(f"{what}: validate() raised {e!r}")
    res.digests.append(tree_digest(tree))


@contextmanager
def _capture(module, names, log, after):
    """Record (name, args, tree, seconds) for each call of module.<name>,
    then call after()."""
    saved = {n: getattr(module, n) for n in names}

    def make(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            tree = fn(*args, **kwargs)
            log.append((name, args, tree, time.perf_counter() - t0))
            after()
            return tree
        return wrapper

    for n, fn in saved.items():
        setattr(module, n, make(n, fn))
    try:
        yield log
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


# ---------------------------------------------------------------------------
# Fidelity grids through run_fidelity_curve


class GridWorkload:
    """A fidelity-versus-size grid run through ``ev.run_fidelity_curve``.

    Task instance seeds are shifted by the pass key so every pass sees fresh
    training data, input models and blackboxes. Failed rows, which the
    harness turns into warnings, are counted against the full grid.
    """

    name = ""
    sizes: tuple = ()
    n_seeds = 1
    gated_size = 0   # tree size behind op_ms, points_per_op and fidelity

    def make_task(self):
        raise NotImplementedError

    def prime(self, task, seed):
        """One-time fixture work done in set-up."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.base = self.make_task()
        self.prime(self.base, seed)

    def run_pass(self, p: int, region=None) -> PassResult:
        key = pass_key(self.seed, p)
        base = self.base
        n_test: dict = {}
        region = region or (lambda name: nullcontext())

        def instance(s):
            with region("evaluate.task_instance"):
                inst = base.instance(100_000 + self.n_seeds * key + s)
            n_test[s] = int(inst.test_points.shape[0])
            clock.tick()
            return inst

        task = ev.FidelityTask(base.name, base.samples_per_node, instance,
                               base.positive_class)
        log: list = []
        res = PassResult()
        clock = hostspeed.Clock()
        with warnings.catch_warnings(record=True) as caught, \
                _capture(ev, ("extract_tree", "cart_extract", "born_again_extract"), log,
                         clock.tick):
            warnings.simplefilter("always")
            result = ev.run_fidelity_curve(task, self.sizes, ALGORITHMS,
                                           n_seeds=self.n_seeds, base_seed=key)
            res.seconds = clock.seconds()
        res.calibration = clock.samples

        rows = result.rows
        res.attempted = self.n_seeds * len(self.sizes) * len(ALGORITHMS)
        res.failed = res.attempted - len(rows)
        res.failures = sorted({str(w.message) for w in caught})
        last_ours = None
        for name, args, tree, dt in log:
            _check_tree(tree, res, name)
            res.bb_points += int(tree.budget)
            if name == "extract_tree":
                last_ours = tree.budget
                if args[2].max_nodes == self.gated_size:
                    res.op_ms.append(1e3 * dt)
                    res.op_points.append(int(tree.budget))
            elif name == "born_again_extract":
                matched = args[2].total_sample_budget
                if matched != last_ours:
                    res.errors.append(f"born-again budget {matched} is not the "
                                      f"preceding ours budget {last_ours}")
                if tree.budget > matched:
                    res.errors.append(f"born-again labelled {tree.budget} points "
                                      f"over its matched budget {matched}")
        res.bb_points += sum(n_test[r.seed] for r in rows)
        ours = [r for r in rows if r.algorithm == "ours"]
        res.quality = [r.fidelity_acc for r in ours if r.size == self.gated_size]
        res.notes["ours_f1"] = [r.fidelity_f1 for r in ours if r.size == self.gated_size]
        res.notes["median_acc"] = {f"{a}@{s}": result.median(a, s, "fidelity_acc")
                                   for a in ALGORITHMS for s in self.sizes
                                   if any(r.algorithm == a and r.size == s for r in rows)}
        return res


class RfDistill(GridWorkload):
    """Criterion 4's shape, one task seed per pass: a 50-d imbalanced task,
    a 25-tree balanced forest, an 8-component input model, 31-node trees at
    1000 samples per node, for ours, CART and born-again."""

    name = "rf-distill"
    sizes = (31,)
    n_seeds = 1
    gated_size = 31

    def make_task(self):
        return ev.synthetic_rf_task()


class CartpoleCurve(GridWorkload):
    """Criteria 2 and 3: the cart-pole policy at sizes 3/7/11/15 over 20
    task seeds per pass, 200 samples per node, all three algorithms."""

    name = "cartpole-curve"
    sizes = (3, 7, 11, 15)
    n_seeds = 20
    gated_size = 15

    def make_task(self):
        return ev.cartpole_task()

    def prime(self, task, seed):
        # cartpole_task learns its policy on the first instance and keeps it.
        task.instance(seed)


# ---------------------------------------------------------------------------
# Convergence to the exact greedy tree


class ExactConvergence:
    """Criterion 5's shape: the exact greedy oracle for three_box_benchmark,
    then 7-node extractions at 100/1000/10000 samples per node for
    SEEDS_PER_PASS seeds, each scored by agreement on 10^5 draws."""

    name = "exact-convergence"
    SAMPLES = (100, 1000, 10_000)
    SEEDS_PER_PASS = 12
    MIN_AGREEMENT = 0.95  # criterion 5's bar for the median at 10^4

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.gmm, self.bb = ev.three_box_benchmark()

    def run_pass(self, p: int, region=None) -> PassResult:
        key = pass_key(self.seed, p)
        gmm, bb = self.gmm, self.bb
        res = PassResult()
        trees, rates = [], []
        clock = hostspeed.Clock()
        res.attempted += 1
        try:
            oracle = ev.exact_greedy_oracle(gmm, bb, 7).tree
        except Exception as e:  # noqa: BLE001
            res.failed += 1
            res.failures.append(f"exact_greedy_oracle raised {e!r}")
            oracle = None
        for i in range(self.SEEDS_PER_PASS):
            for n in self.SAMPLES:
                res.attempted += 2
                cfg = ev.ExtractionConfig(7, n, seed=key * 100 + i)
                try:
                    t0 = time.perf_counter()
                    tree = ev.extract_tree(gmm, bb, cfg)
                    res.op_ms.append(1e3 * (time.perf_counter() - t0))
                except Exception as e:  # noqa: BLE001
                    res.failed += 2
                    res.failures.append(f"extract_tree n={n} seed={i} raised {e!r}")
                    continue
                trees.append(tree)
                try:
                    rates.append((n, ev.agreement(tree, oracle, gmm, 10 ** 5,
                                                  np.random.default_rng([key, i, n])).rate))
                except Exception as e:  # noqa: BLE001
                    res.failed += 1
                    res.failures.append(f"agreement n={n} seed={i} raised {e!r}")
                clock.tick()
        res.seconds = clock.seconds()
        res.calibration = clock.samples

        if oracle is not None:
            _check_tree(oracle, res, "exact_greedy_oracle")
        for tree in trees:
            _check_tree(tree, res, "extract_tree")
            res.op_points.append(int(tree.budget))
            res.bb_points += int(tree.budget)
        res.quality = [r for n, r in rates if n == self.SAMPLES[-1]]
        medians = {n: float(np.median([r for m, r in rates if m == n]))
                   for n in self.SAMPLES if any(m == n for m, _ in rates)}
        res.notes["median_agreement"] = medians
        if res.quality and np.median(res.quality) < self.MIN_AGREEMENT:
            res.errors.append(f"median agreement at 10^4 is {np.median(res.quality):.4f}"
                              f" < {self.MIN_AGREEMENT}")
        return res


# ---------------------------------------------------------------------------
# Far-tail conditional sampling


def _log_interval(a, b):
    """log(Phi(b) - Phi(a)) for standardized a < b, stable in either tail."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    flip = a > 0  # upper tail: use the complementary form
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    lhi, llo = log_ndtr(hi), log_ndtr(lo)
    with np.errstate(divide="ignore"):
        return lhi + np.log1p(-np.exp(llo - lhi))


@dataclass
class TailRequest:
    kind: str
    gmm: gm.GaussianMixture
    box: BoxConstraint
    weights: np.ndarray  # the conditional component weights, worked out here


class TailSampling:
    """condition + sample_conditional on boxes whose standardized bounds lie
    6 to 30 sd out. Each pass draws DRAWS points for PER_KIND requests of
    each kind: one-sided single-component boxes, two-sided single-component
    boxes, and two-component boxes that are bulk for a majority component
    and far tail for a 10-40 % minority component."""

    name = "tail-sampling"
    DRAWS = 10_000
    PER_KIND = 8
    KINDS = ("one-sided", "two-sided", "mixed")
    SE_BOUND = 5.0

    def setup(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def _tail_interval(rng, mu, sd, two_sided, s_max=30.0):
        s = rng.uniform(6.0, s_max)
        w = rng.uniform(0.5, 3.0) if two_sided else np.inf
        if rng.random() < 0.5:
            return mu + s * sd, mu + (s + w) * sd
        return mu - (s + w) * sd, mu - s * sd

    def requests(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p, 7])
        out = []
        for kind in self.KINDS:
            for _ in range(self.PER_KIND):
                mu = rng.uniform(-5.0, 5.0, size=2)
                sd = rng.uniform(0.2, 3.0, size=2)
                if kind != "mixed":
                    lo = np.full(2, -np.inf)
                    hi = np.full(2, np.inf)
                    lo[0], hi[0] = self._tail_interval(rng, mu[0], sd[0], kind == "two-sided")
                    if rng.random() < 0.5:
                        # Keep s0^2 + s1^2 <= 1200, so the box mass (about
                        # exp(-600)) stays above gmm.Z_FLOOR (1e-300).
                        s0 = min(abs(lo[0] - mu[0]), abs(hi[0] - mu[0])) / sd[0]
                        lo[1], hi[1] = self._tail_interval(rng, mu[1], sd[1],
                                                           kind == "two-sided",
                                                           np.sqrt(1200.0 - s0 ** 2))
                    g = gm.GaussianMixture([1.0], [mu], [sd])
                    out.append(TailRequest(kind, g, BoxConstraint(lo, hi), np.ones(1)))
                    continue
                # Component 0 has its bulk in the box (mean +- 1 sd along
                # dim 0); component 1 sits s sd beyond the box's lower edge.
                s = rng.uniform(6.0, 30.0)
                sd1 = rng.uniform(0.2, 3.0)
                q = rng.uniform(0.1, 0.4)   # component 1's conditional weight
                lo0, hi0 = mu[0] - sd[0], mu[0] + sd[0]
                mu1 = lo0 - s * sd1
                log_m0 = _log_interval(-1.0, 1.0)
                log_m1 = _log_interval(s, (hi0 - mu1) / sd1)
                log_r = np.log((1 - q) / q) + log_m1 - log_m0  # log(w0 / w1)
                w0 = float(np.exp(log_r - np.logaddexp(0.0, log_r)))
                g = gm.GaussianMixture([w0, 1.0 - w0], [mu, [mu1, mu[1]]],
                                       [sd, [sd1, sd[1]]])
                box = BoxConstraint([lo0, -np.inf], [hi0, np.inf])
                out.append(TailRequest(kind, g, box, np.array([1 - q, q])))
        return out

    def run_pass(self, p: int, region=None) -> PassResult:
        reqs = self.requests(p)
        rng = np.random.default_rng([self.seed, p, 11])
        res = PassResult()
        draws = []
        clock = hostspeed.Clock()
        for req in reqs:
            res.attempted += 1
            try:
                t0 = time.perf_counter()
                cm = gm.condition(req.gmm, req.box)
                X = gm.sample_conditional(cm, rng, self.DRAWS)
                res.op_ms.append(1e3 * (time.perf_counter() - t0))
                res.op_points.append(int(X.shape[0]))
                draws.append((req, X))
            except Exception as e:  # noqa: BLE001
                res.failed += 1
                res.failures.append(f"{req.kind} request raised {e!r}")
            clock.tick()
        res.seconds = clock.seconds()
        res.calibration = clock.samples
        for req, X in draws:
            self._check(req, X, res)
        return res

    def _check(self, req: TailRequest, X, res: PassResult) -> None:
        """Box membership, 5-SE means for single-component boxes, and the
        Kolmogorov-Smirnov distance of each bounded coordinate to its exact
        conditional marginal (a truncated-normal mixture)."""
        from scipy.stats import truncnorm  # here: importing it takes ~0.7 s of set-up

        g, box = req.gmm, req.box
        if X.shape != (self.DRAWS, g.d) or not np.all(np.isfinite(X)):
            res.errors.append(f"{req.kind}: bad draw array shape {X.shape}")
            return
        if not box.contains_batch(X).all():
            res.errors.append(f"{req.kind}: {int((~box.contains_batch(X)).sum())} draws "
                              "outside the box")
        for i in range(g.d):
            a = (box.lower[i] - g.means[:, i]) / g.stddevs[:, i]
            b = (box.upper[i] - g.means[:, i]) / g.stddevs[:, i]
            dists = truncnorm(a, b, loc=g.means[:, i], scale=g.stddevs[:, i])
            if g.k == 1:
                mean, sd = float(dists.mean()[0]), float(dists.std()[0])
                err = abs(float(X[:, i].mean()) - mean)
                if err > self.SE_BOUND * sd / np.sqrt(X.shape[0]):
                    res.errors.append(f"{req.kind}: dim {i} mean off by "
                                      f"{err / sd * np.sqrt(X.shape[0]):.1f} SE")
            if np.isfinite(box.lower[i]) or np.isfinite(box.upper[i]):
                x = np.sort(X[:, i])
                cdf = dists.cdf(x[:, None]) @ req.weights
                n = x.size
                d_ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                           np.max(cdf - np.arange(n) / n))
                res.quality.append(1.0 - float(d_ks))


WORKLOADS = {w.name: w for w in (RfDistill, CartpoleCurve, ExactConvergence, TailSampling)}
