"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (bypassing capture) with the measured values.

Shared expensive artifacts (the control policy, the 20-seed fidelity curves)
are built once per session in fixtures below.
"""
import time

import numpy as np
import pytest
from scipy import integrate, stats

from treextract import (BoxConstraint, EMConfig, ExtractionConfig, GaussianMixture,
                        PolicyConfig, agreement, condition, estimate_split, exact_greedy_oracle,
                        extract_tree, fit_em, learn_policy, mean_rollout_reward,
                        sample_conditional, sample_truncated_normal)
from treextract.evaluate import (cartpole_task, run_fidelity_curve,
                                 synthetic_rf_task, three_box_benchmark)
from treextract.io import load_tree, save_tree

SIZES = (3, 7, 11, 15)
TARGET_CURVE = (0.752, 0.839, 0.912, 0.936)
CURVE_TOL = 0.08

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def check(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _assert_full_grid(result, expected_rows):
    """Medians over surviving rows only mean something if no run failed."""
    assert not result.failures, result.failures
    assert len(result.rows) == expected_rows, (len(result.rows), expected_rows)


@pytest.fixture(scope="session")
def policy_with_timing():
    t0 = time.perf_counter()
    policy = learn_policy(PolicyConfig())
    reward = mean_rollout_reward(policy, n_episodes=100, seed=0)
    elapsed = time.perf_counter() - t0
    return policy, reward, elapsed


@pytest.fixture(scope="session")
def cartpole_curve():
    task = cartpole_task()
    t0 = time.perf_counter()
    result = run_fidelity_curve(task, SIZES, ("ours", "cart", "born_again"),
                                n_seeds=20, base_seed=0)
    _assert_full_grid(result, 20 * len(SIZES) * 3)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def synthetic_curve():
    task = synthetic_rf_task()
    result = run_fidelity_curve(task, (31,), ("ours", "cart", "born_again"),
                                n_seeds=20, base_seed=0)
    _assert_full_grid(result, 20 * 1 * 3)
    return result


def test_criterion_1_cartpole_policy_reward(policy_with_timing):
    _, reward, elapsed = policy_with_timing
    check("criterion 1 (policy reward)",
          reward >= 195.0 and elapsed < 120.0,
          f"mean reward {reward:.1f} >= 195 over 100 episodes, "
          f"runtime {elapsed:.1f}s < 120s")


def test_criterion_2_cartpole_fidelity_curve(cartpole_curve):
    result, elapsed = cartpole_curve
    medians = [result.median("ours", s) for s in SIZES]
    within = [abs(m - t) <= CURVE_TOL for m, t in zip(medians, TARGET_CURVE)]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    detail = ", ".join(f"size {s}: {m:.3f} (target {t})"
                       for s, m, t in zip(SIZES, medians, TARGET_CURVE))
    check("criterion 2 (fidelity curve)",
          all(within) and monotone and elapsed < 600.0,
          f"{detail}; monotone={monotone}; runtime {elapsed:.0f}s < 600s")


def test_criterion_3_ordering_at_size_15(cartpole_curve):
    result, _ = cartpole_curve
    ours = result.median("ours", 15)
    born = result.median("born_again", 15)
    cart = result.median("cart", 15)
    check("criterion 3 (ordering at 15)",
          ours > born > cart and ours - cart >= 0.05,
          f"ours {ours:.3f} > born-again {born:.3f} > cart {cart:.3f}, "
          f"ours-cart {ours - cart:.3f} >= 0.05")


def test_criterion_4_imbalanced_rf_task(synthetic_curve):
    ours = synthetic_curve.median("ours", 31)
    cart = synthetic_curve.median("cart", 31)
    born = synthetic_curve.median("born_again", 31)
    check("criterion 4 (imbalanced RF task)",
          ours > cart and ours > born,
          f"median F1 at 31 nodes: ours {ours:.3f} > cart {cart:.3f} "
          f"and ours > born-again {born:.3f}")


def test_criterion_5_convergence_to_exact_tree():
    t0 = time.perf_counter()
    gmm, bb = three_box_benchmark()
    oracle = exact_greedy_oracle(gmm, bb, 7).tree
    medians = {}
    for n in (100, 1000, 10000):
        rates = [agreement(extract_tree(gmm, bb, ExtractionConfig(7, n, seed=seed)),
                           oracle, gmm, 10 ** 5,
                           np.random.default_rng(10_000 + seed)).rate
                 for seed in range(20)]
        medians[n] = float(np.median(rates))
    elapsed = time.perf_counter() - t0
    nondecreasing = medians[100] <= medians[1000] <= medians[10000]
    check("criterion 5 (convergence)",
          medians[10000] >= 0.95 and nondecreasing and elapsed < 300.0,
          f"median agreement {medians[100]:.3f} -> {medians[1000]:.3f} -> "
          f"{medians[10000]:.3f}, final >= 0.95, nondecreasing={nondecreasing}, "
          f"runtime {elapsed:.0f}s < 300s")


def _random_gmm_and_box(rng):
    k = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    w = rng.uniform(0.2, 1.0, size=k)
    w /= w.sum()
    gmm = GaussianMixture(w, rng.uniform(-2, 2, size=(k, d)),
                          rng.uniform(0.3, 2.0, size=(k, d)))
    lower = np.where(rng.random(d) < 0.3, -np.inf, rng.uniform(-4, 0, size=d))
    width = rng.uniform(0.5, 5.0, size=d)
    upper = np.where(rng.random(d) < 0.3, np.inf, lower + width)
    upper = np.where(np.isinf(lower), np.where(np.isinf(upper), np.inf,
                                               rng.uniform(-2, 3, size=d)), upper)
    return gmm, BoxConstraint(lower, upper)


def _quadrature_weights(gmm, box):
    raw = []
    for j in range(gmm.k):
        total = gmm.weights[j]
        for i in range(gmm.d):
            lo = max(box.lower[i], gmm.means[j, i] - 40 * gmm.stddevs[j, i])
            hi = min(box.upper[i], gmm.means[j, i] + 40 * gmm.stddevs[j, i])
            val = 0.0
            if lo < hi:
                val, _ = integrate.quad(
                    lambda x, j=j, i=i: stats.norm.pdf(x, gmm.means[j, i],
                                                       gmm.stddevs[j, i]),
                    lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
            total *= val
        raw.append(total)
    raw = np.array(raw)
    return raw / raw.sum(), float(raw.sum())


def test_criterion_6_sampler_suite():
    rng = np.random.default_rng(1234)
    worst_phi = 0.0
    for _ in range(50):
        gmm, box = _random_gmm_and_box(rng)
        try:
            cm = condition(gmm, box)
        except Exception:
            continue
        ref_phi, _ = _quadrature_weights(gmm, box)
        worst_phi = max(worst_phi, float(np.abs(cm.tilde_phi - ref_phi).max()))
    quad_ok = worst_phi <= 1e-8

    gmm2 = GaussianMixture([0.5, 0.5], [[-1.0, 0.5], [1.5, -0.5]],
                           [[0.8, 1.2], [1.1, 0.7]])
    box2 = BoxConstraint([-0.5, -np.inf], [0.8, 0.9])
    X = sample_conditional(condition(gmm2, box2), np.random.default_rng(0), 10 ** 5)
    membership = float(box2.contains_batch(X).mean())

    # Truncated-normal KS against numerically integrated references.
    def ks_pvalue(mu, sigma, lo, hi, seed):
        r = np.random.default_rng(seed)
        xs = np.array([sample_truncated_normal(mu, sigma, lo, hi, r)
                       for _ in range(10 ** 4)])
        a = max(lo, mu - 40 * sigma)
        b = min(hi, mu + 40 * sigma)
        grid = np.linspace(a, b, 4001)
        dens = stats.norm.pdf(grid, mu, sigma)
        cum = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
        cum /= cum[-1]
        return stats.kstest(xs, lambda x: np.interp(x, grid, cum)).pvalue

    pvals = {
        "center": ks_pvalue(0.0, 1.0, -1.0, 0.5, 1),
        "one-sided": ks_pvalue(2.0, 0.7, 3.0, np.inf, 2),
        "far-tail (8,9]": ks_pvalue(0.0, 1.0, 8.0, 9.0, 3),
    }
    ks_ok = all(p > 0.01 for p in pvals.values())

    r = np.random.default_rng(4)
    half = np.array([sample_truncated_normal(0.0, 1.0, 0.0, np.inf, r)
                     for _ in range(10 ** 5)])
    half_err = abs(half.mean() - np.sqrt(2 / np.pi))

    check("criterion 6 (sampler suite)",
          quad_ok and membership == 1.0 and ks_ok and half_err < 0.01,
          f"max |tilde_phi - quadrature| {worst_phi:.2e} <= 1e-8; "
          f"box membership {membership:.4f} = 1.0 over 1e5 draws; "
          f"KS p-values {({k: round(v, 3) for k, v in pvals.items()})} all > 0.01; "
          f"half-normal mean error {half_err:.4f} < 0.01")


def brute_force_gain(X, y, m, mass, dim, threshold):
    n = len(y)
    left = [i for i in range(n) if X[i][dim] <= threshold]
    right = [i for i in range(n) if X[i][dim] > threshold]

    def impurity(rows):
        if not rows:
            return 0.0
        return 1.0 - sum((sum(1 for i in rows if y[i] == c) / len(rows)) ** 2
                         for c in range(m))

    if not left or not right:
        return 0.0
    return (impurity(range(n)) * mass
            - impurity(left) * (mass * len(left) / n)
            - impurity(right) * (mass * len(right) / n))


def test_criterion_7_estimator_suite():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        m = int(rng.integers(2, 4))
        X = rng.normal(size=(n, 2))
        y = rng.integers(m, size=n)
        mass = float(rng.uniform(0.1, 1.0))
        dim = int(rng.integers(2))
        t = float(rng.normal())
        diff = abs(estimate_split(X, y, m, mass, dim, t)
                   - brute_force_gain(X, y, m, mass, dim, t))
        worst = max(worst, diff)
    exact_ok = worst <= 1e-12

    # Unbiasedness scale: estimates at the oracle-optimal root split stay
    # within 4 Monte Carlo standard errors of the exact gain.
    gmm, bb = three_box_benchmark()
    oracle = exact_greedy_oracle(gmm, bb, 3)
    g_exact = oracle.gains[0]
    cm = condition(gmm, BoxConstraint.unbounded(2))
    estimates = []
    for seed in range(200):
        r = np.random.default_rng(seed)
        X = sample_conditional(cm, r, 1000)
        y = bb.predict(X)
        estimates.append(estimate_split(X, y, 2, 1.0, oracle.tree.feature[0],
                                        oracle.tree.threshold[0]))
    estimates = np.array(estimates)
    se = estimates.std(ddof=1)
    frac = float(np.mean(np.abs(estimates - g_exact) <= 4 * se))
    check("criterion 7 (estimator suite)",
          exact_ok and frac >= 0.95,
          f"max |gain - brute force| {worst:.2e} <= 1e-12 over 100 instances; "
          f"{frac:.0%} of 200 trials within 4 SE of the exact gain (>= 95%)")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    gmm, bb = three_box_benchmark()
    cfg = ExtractionConfig(11, 300, seed=77)
    save_tree(tmp_path / "a.json", extract_tree(gmm, bb, cfg))
    save_tree(tmp_path / "b.json", extract_tree(gmm, bb, cfg))
    byte_identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    tree = load_tree(tmp_path / "a.json")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 2)) * 3
    round_trip_ok = np.array_equal(tree.predict_batch(X),
                                   extract_tree(gmm, bb, cfg).predict_batch(X))

    monotone_ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(30, 200))
        d = int(r.integers(1, 5))
        k = int(r.integers(1, 4))
        X = r.normal(size=(n, d)) * r.uniform(0.5, 3) + r.normal(size=d)
        hist = []
        fit_em(X, min(k, n), EMConfig(seed=seed, n_init=1), history_out=hist)
        for a, b in zip(hist, hist[1:]):
            if b - a < -1e-8 * (1 + abs(b)):
                monotone_ok = False
    check("criterion 8 (determinism and round-trips)",
          byte_identical and round_trip_ok and monotone_ok,
          f"byte-identical trees under fixed seed: {byte_identical}; "
          f"JSON round-trip preserves predictions: {round_trip_ok}; "
          f"EM log-likelihood monotone on 20 random datasets: {monotone_ok}")
