import signal
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, stats

from treextract import (BoxConstraint, ConfigError, EMConfig, EmptyRegionError,
                        GaussianMixture, InputError, box_mass, condition,
                        fit_em, sample, sample_conditional,
                        sample_truncated_normal, select_k_bic)
from treextract import gmm as gmm_mod

from helpers import (ZeroUniforms, reference_fit_em, reference_sample_conditional,
                     reference_truncated_normal)


def log_pdf(gmm, X):
    """Log density of the mixture at each row of X, evaluated in coordinates
    standardized by the mixture's mean and sd."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    w, mu, sd = gmm.weights, gmm.means, gmm.stddevs
    loc = w @ mu
    scale = np.sqrt(w @ (sd * sd + (mu - loc) ** 2))
    Z = (X - loc) / scale
    return gmm_mod.logsumexp(gmm_mod._log_joint(Z, Z * Z, w, (mu - loc) / scale, sd / scale),
                             axis=0) - np.sum(np.log(scale))


def pdf(gmm, X):
    """Mixture density: exp of log_pdf."""
    return np.exp(log_pdf(gmm, X))


def quadrature_component_weights(gmm, box):
    """Independent reference: integrate each component's density over the box."""
    raw = []
    for j in range(gmm.k):
        total = gmm.weights[j]
        for i in range(gmm.d):
            lo = max(box.lower[i], gmm.means[j, i] - 40 * gmm.stddevs[j, i])
            hi = min(box.upper[i], gmm.means[j, i] + 40 * gmm.stddevs[j, i])
            if lo >= hi:
                total = 0.0
                break
            val, _ = integrate.quad(
                lambda x, j=j, i=i: stats.norm.pdf(x, gmm.means[j, i], gmm.stddevs[j, i]),
                lo, hi, epsabs=1e-13, epsrel=1e-13)
            total *= val
        raw.append(total)
    raw = np.array(raw)
    return raw / raw.sum(), raw.sum()


class TestCondition:
    def test_unconstrained_is_identity(self, gmm_2d):
        cm = condition(gmm_2d, BoxConstraint.unbounded(2))
        assert np.allclose(cm.tilde_phi, gmm_2d.weights, atol=1e-12)
        assert abs(cm.Z - 1.0) < 1e-12

    def test_half_line_standard_normal(self):
        gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
        cm = condition(gmm, BoxConstraint([-np.inf], [0.0]))
        assert cm.tilde_phi[0] == 1.0
        assert abs(cm.Z - 0.5) < 1e-12

    def test_two_component_matches_quadrature(self, gmm_1d_bimodal):
        box = BoxConstraint([0.0], [np.inf])
        cm = condition(gmm_1d_bimodal, box)
        ref_phi, ref_z = quadrature_component_weights(gmm_1d_bimodal, box)
        assert np.abs(cm.tilde_phi - ref_phi).max() <= 1e-8
        assert abs(cm.Z - ref_z) <= 1e-8

    def test_empty_region_raises(self, gmm_2d):
        far = BoxConstraint([1e6, 1e6], [1e6 + 1e-9, 1e6 + 1e-9])
        with pytest.raises(EmptyRegionError):
            condition(gmm_2d, far)

    def test_box_dimension_checked(self, gmm_2d):
        with pytest.raises(InputError, match="box dimension 1 does not match d=2"):
            condition(gmm_2d, BoxConstraint([0.0], [1.0]))

    def test_unsatisfiable_box_raises(self, gmm_2d):
        bad = BoxConstraint([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(EmptyRegionError):
            condition(gmm_2d, bad)

    @pytest.mark.parametrize("width", [1e-12, 1e-15, 1e-17])
    @pytest.mark.parametrize("mu, sd, lo", [(0.0, 1.0, 0.0), (0.3, 0.7, 1e-3)])
    def test_narrow_box_matches_quadrature(self, width, mu, sd, lo):
        gmm = GaussianMixture([1.0], [[mu]], [[sd]])
        box = BoxConstraint([lo], [lo + width])
        ref, _ = integrate.quad(lambda x: stats.norm.pdf(x, mu, sd), box.lower[0],
                                box.upper[0], epsabs=0.0, epsrel=1e-13)
        assert abs(box_mass(gmm, box) / ref - 1.0) <= 1e-9
        assert abs(condition(gmm, box).Z / ref - 1.0) <= 1e-9

    def test_shrinking_box_never_increases_mass(self, gmm_2d, rng):
        for _ in range(20):
            lo = rng.uniform(-3, 0, size=2)
            hi = lo + rng.uniform(0.5, 4, size=2)
            outer = BoxConstraint(lo, hi)
            inner = BoxConstraint(lo + 0.2, hi - 0.2)
            if not inner.is_satisfiable():
                continue
            assert box_mass(gmm_2d, inner) <= box_mass(gmm_2d, outer) + 1e-15

    def test_nested_mass_ratio_matches_acceptance_rate(self, gmm_2d, rng):
        outer = BoxConstraint([-2.0, -2.0], [2.0, 2.0])
        inner = BoxConstraint([-1.0, -0.5], [1.5, 2.0])
        cm = condition(gmm_2d, outer)
        n = 10 ** 4
        X = sample_conditional(cm, rng, n)
        rate = inner.contains_batch(X).mean()
        expected = box_mass(gmm_2d, inner.intersect(outer)) / box_mass(gmm_2d, outer)
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) <= 3 * se


class TestSampling:
    def test_all_draws_satisfy_box(self, gmm_2d, rng):
        box = BoxConstraint([-0.5, -np.inf], [0.75, 1.0])
        cm = condition(gmm_2d, box)
        X = sample_conditional(cm, rng, 10 ** 4)
        assert box.contains_batch(X).all()

    def test_unconstrained_matches_plain_sampler(self, gmm_2d):
        cm = condition(gmm_2d, BoxConstraint.unbounded(2))
        a = sample_conditional(cm, np.random.default_rng(7), 10 ** 4)
        b = sample(gmm_2d, np.random.default_rng(7), 10 ** 4)
        for i in range(2):
            assert stats.ks_2samp(a[:, i], b[:, i]).pvalue > 0.01

    def test_marginal_matches_rejection_reference(self, gmm_1d_bimodal):
        box = BoxConstraint([0.0], [np.inf])
        cm = condition(gmm_1d_bimodal, box)
        direct = sample_conditional(cm, np.random.default_rng(1), 10 ** 4)[:, 0]
        # Rejection-sampling oracle: draw unconditionally, discard violators.
        rng = np.random.default_rng(2)
        kept = []
        while len(kept) < 10 ** 4:
            X = sample(gmm_1d_bimodal, rng, 4 * 10 ** 4)
            kept.extend(X[box.contains_batch(X)][:, 0])
        ref = np.array(kept[: 10 ** 4])
        assert stats.ks_2samp(direct, ref).pvalue > 0.01

    def test_single_point_shape(self, gmm_2d, rng):
        x = sample_conditional(condition(gmm_2d, BoxConstraint.unbounded(2)), rng, 1)
        assert x.shape == (1, 2)

    def test_sample_matches_conditioning_on_unbounded_box(self, gmm_2d):
        gmm = GaussianMixture(gmm_2d.weights, gmm_2d.means, gmm_2d.stddevs)
        cm = condition(gmm, BoxConstraint.unbounded(2))
        for n in (1, 7, 1000, 7):  # later calls draw from the cached conditional
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            assert sample(gmm, a, n).tobytes() == sample_conditional(cm, b, n).tobytes()
            assert a.bit_generator.state == b.bit_generator.state
        assert np.array_equal(gmm.unconditional.box.upper, BoxConstraint.unbounded(2).upper)

    def test_unbounded_box_conditioned_once_per_mixture(self, gmm_2d, monkeypatch):
        from treextract import ExtractionConfig, extract_tree
        from helpers import two_box_benchmark

        calls = []
        real = gmm_mod.condition
        monkeypatch.setattr(gmm_mod, "condition",
                            lambda g, box: calls.append(g) or real(g, box))
        gmm = GaussianMixture(gmm_2d.weights, gmm_2d.means, gmm_2d.stddevs)
        for seed in range(3):
            sample(gmm, np.random.default_rng(seed), 10)
        assert calls == [gmm]
        # Root and prune of an extraction draw from the same conditional.
        bb_gmm, bb = two_box_benchmark()
        for seed in range(2):
            extract_tree(bb_gmm, bb, ExtractionConfig(5, 50, seed=seed, prune=True))
        assert calls == [gmm, bb_gmm]

    def test_deterministic_given_seed(self, gmm_2d):
        box = BoxConstraint([-1.0, 0.0], [2.0, np.inf])
        cm = condition(gmm_2d, box)
        a = sample_conditional(cm, np.random.default_rng(42), 100)
        b = sample_conditional(cm, np.random.default_rng(42), 100)
        assert np.array_equal(a, b)


@st.composite
def tail_mixtures(draw, max_d=2):
    """A mixture and a box whose bounded dimensions are bulk, or 6 to 20 sd
    out on either side for component 0. With k >= 2, component 1 sits on the
    box's edges (bulk for it) and the weights are set so that no component
    carries more of the box's mass than component 0, so one draw mixes
    far-tail and bulk rows. Tail dimensions past a total s^2 of 1200 (box
    mass about exp(-600), above gmm.Z_FLOOR) are made bulk instead."""
    d, k = draw(st.integers(1, max_d)), draw(st.integers(1, 3))
    mu = draw(arrays(np.float64, (k, d), elements=st.floats(-3.0, 3.0)))
    sd = draw(arrays(np.float64, (k, d), elements=st.floats(0.5, 2.0)))
    lower, upper = np.full(d, -np.inf), np.full(d, np.inf)
    budget = 1200.0
    for i in range(d):
        kind = draw(st.sampled_from(["free", "bulk", "upper tail", "lower tail"]))
        s = draw(st.floats(6.0, 20.0))
        width = draw(st.sampled_from([1e-3, 1.0, np.inf]))
        if kind.endswith("tail"):
            budget -= s * s
            kind = kind if budget >= 0 else "bulk"
        if kind == "bulk":
            lower[i], upper[i] = mu[0, i] - sd[0, i], mu[0, i] + sd[0, i]
        elif kind == "upper tail":
            lower[i] = mu[0, i] + s * sd[0, i]
            upper[i] = lower[i] + width
        elif kind == "lower tail":
            upper[i] = mu[0, i] - s * sd[0, i]
            lower[i] = upper[i] - width
    if k >= 2:
        edge = np.where(np.isfinite(lower), lower, upper)
        mu[1] = np.where(np.isfinite(edge), edge, mu[1])
    box = BoxConstraint(lower, upper)
    log_m = gmm_mod._log_masses(GaussianMixture(np.full(k, 1.0 / k), mu, sd),
                                lower[None], upper[None])[0][0]
    w = np.exp(np.minimum(log_m[0] - log_m, 0.0))  # no more mass than component 0
    return GaussianMixture(w / w.sum(), mu, sd), box


@pytest.fixture
def alarm():
    """Fail a test that runs past 10 s with TimeoutError instead of hanging
    the suite (SIGALRM; the test must spend its time in Python code)."""
    def on_alarm(signum, frame):
        raise TimeoutError("test ran past its 10 s alarm")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTailSampling:
    @settings(max_examples=150, deadline=None)
    @given(tail_mixtures(), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
    def test_one_uniform_per_bounded_coordinate(self, model, n, seed):
        gmm, box = model
        rng = np.random.default_rng(seed)
        X = sample_conditional(condition(gmm, box), rng, n)
        assert box.contains_batch(X).all() and np.all(np.isfinite(X))
        ref = np.random.default_rng(seed)
        ref.random(n)  # the component draw
        for lo, hi in zip(box.lower, box.upper):
            if np.isinf(lo) and np.isinf(hi):
                ref.standard_normal(n)
            else:
                ref.random(n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_narrow_far_tail_interval(self, alarm):
        lo, hi = 8.0, 8.0 + 1e-9
        rng = np.random.default_rng(3)
        xs = np.array([sample_truncated_normal(0.0, 1.0, lo, hi, rng) for _ in range(1000)])
        cm = condition(GaussianMixture([1.0], [[0.0]], [[1.0]]), BoxConstraint([lo], [hi]))
        X = sample_conditional(cm, rng, 1000)[:, 0]
        for draws in (xs, X):
            assert np.all((draws > lo) & (draws <= hi))


class TestReferenceSampler:
    """sample_conditional against the dimension-by-dimension reference:
    byte-equal draws and the same generator state afterwards."""

    @staticmethod
    def _assert_matches_reference(cm, make_rng, n):
        rng, ref = make_rng(), make_rng()
        X = sample_conditional(cm, rng, n)
        R = reference_sample_conditional(cm, ref, n)
        assert X.flags.c_contiguous and X.shape == R.shape
        assert X.tobytes() == R.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        return X, rng

    @settings(max_examples=200, deadline=None)
    @given(tail_mixtures(max_d=6), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_draws_match_reference(self, model, n, seed, zeros):
        gmm, box = model
        # With zeros about one uniform in 20 is 0.0, so redraws run.
        make = (lambda: ZeroUniforms(seed, 0.05)) if zeros else (lambda: np.random.default_rng(seed))
        self._assert_matches_reference(condition(gmm, box), make, n)

    def test_zero_uniform_at_infinite_bound_is_redrawn(self):
        gmm = GaussianMixture([0.5, 0.5], [[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]],
                              [[1.0, 1.0, 1.0], [0.5, 1.0, 2.0]])
        # Bounded above only (in the bulk), free, and bounded below only (8 sd
        # out for component 0): a 0.0 uniform is non-finite in both.
        box = BoxConstraint([-np.inf, -np.inf, 8.0], [0.5, np.inf, np.inf])
        n = 500
        X, rng = self._assert_matches_reference(condition(gmm, box), lambda: ZeroUniforms(5, 0.1), n)
        assert rng.uniforms > 3 * n  # components and two bounded dimensions, plus redraws
        assert np.isfinite(X).all() and box.contains_batch(X).all()

    @pytest.mark.parametrize("mu,sigma,lo,hi", [
        (0.0, 1.0, -1.0, 0.5),          # bulk
        (2.0, 0.7, 3.0, np.inf),        # bulk, one-sided
        (-1.0, 2.0, -np.inf, 0.0),      # bulk, bounded above
        (0.0, 1.0, 8.0, 9.0),           # far upper tail
        (1.0, 0.5, -np.inf, -9.0),      # far lower tail, one-sided
        (0.0, 1.0, 15.0, 15.0 + 1e-9),  # narrow far tail
        (0.0, 1.0, -np.inf, np.inf),    # untruncated
    ])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_truncated_normal_matches_reference(self, mu, sigma, lo, hi, zeros):
        def make():
            return ZeroUniforms(9, 0.1) if zeros else np.random.default_rng(9)
        rng, ref = make(), make()
        xs = [sample_truncated_normal(mu, sigma, lo, hi, rng) for _ in range(300)]
        rs = [reference_truncated_normal(mu, sigma, lo, hi, ref) for _ in range(300)]
        assert np.array(xs).tobytes() == np.array(rs).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestPdf:
    def test_integrates_to_one_1d(self, gmm_1d_bimodal):
        grid = np.linspace(-12, 12, 20001).reshape(-1, 1)
        dens = pdf(gmm_1d_bimodal, grid)
        total = np.trapezoid(dens, grid[:, 0])
        assert abs(total - 1.0) <= 1e-3

    def test_matches_scipy_mixture(self, gmm_1d_bimodal):
        xs = np.linspace(-5, 5, 11).reshape(-1, 1)
        ref = 0.5 * stats.norm.pdf(xs[:, 0], -2, 1) + 0.5 * stats.norm.pdf(xs[:, 0], 2, 1)
        assert np.allclose(pdf(gmm_1d_bimodal, xs), ref, atol=1e-12)


class TestFitEM:
    def test_single_component_is_sample_moments(self, rng):
        X = rng.normal(3.0, 2.0, size=(400, 2))
        g = fit_em(X, 1, EMConfig(seed=0))
        assert np.allclose(g.means[0], X.mean(axis=0), atol=1e-8)
        assert np.allclose(g.stddevs[0] ** 2, X.var(axis=0), rtol=1e-6)

    def test_recovers_separated_clusters(self, rng):
        X = np.concatenate([rng.normal(-5, 1, size=(500, 2)),
                            rng.normal(5, 1, size=(500, 2))])
        g = fit_em(X, 2, EMConfig(seed=1))
        means = np.sort(g.means[:, 0])
        assert abs(means[0] + 5) < 0.2 and abs(means[1] - 5) < 0.2
        assert np.abs(g.weights - 0.5).max() < 0.05

    def test_loglik_monotone(self, rng):
        X = rng.normal(size=(200, 3)) @ np.diag([1.0, 2.0, 0.5]) + rng.normal(size=(200, 3))
        hist = []
        fit_em(X, 3, EMConfig(seed=2, n_init=1), history_out=hist)
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b - a >= -1e-8 * (1 + abs(b))

    @pytest.mark.parametrize("call, error, message", [
        (lambda X, r: fit_em(X, 2.0), ConfigError, "k must be an integer"),
        (lambda X, r: fit_em(X, 0), ConfigError, "k must be an integer"),
        (lambda X, r: fit_em(X, 2, EMConfig(n_init=2.5)), ConfigError,
         "n_init must be >= 1 and an integer"),
        (lambda X, r: fit_em(X, True), ConfigError, "k must be an integer"),
        (lambda X, r: fit_em(X, 2, EMConfig(n_init=True)), ConfigError,
         "n_init must be >= 1 and an integer"),
        (lambda X, r: sample(fit_em(X, 1), r, 2.5), InputError, "size must be an integer >= 0"),
        (lambda X, r: sample(fit_em(X, 1), r, True), InputError, "size must be an integer >= 0"),
        (lambda X, r: sample(fit_em(X, 1), r, -1), InputError, "size must be an integer >= 0"),
        (lambda X, r: sample_conditional(fit_em(X, 1).unconditional, r, 2.5), InputError,
         "size must be an integer >= 0"),
    ], ids=["float_k", "zero_k", "float_n_init", "bool_k", "bool_n_init",
            "float_size", "bool_size", "negative_size", "float_conditional_size"])
    def test_counts_must_be_integers(self, rng, call, error, message):
        with pytest.raises(error, match=message):
            call(rng.normal(size=(20, 2)), rng)

    @pytest.mark.parametrize("size", [0, np.int64(0)])
    def test_zero_size_draws_an_empty_matrix(self, rng, size):
        gmm = fit_em(rng.normal(size=(20, 3)), 2)
        assert sample(gmm, rng, size).shape == (0, 3)
        assert sample_conditional(gmm.unconditional, rng, size).shape == (0, 3)

    def test_k_exceeding_n_rejected(self, rng):
        with pytest.raises(ConfigError):
            fit_em(rng.normal(size=(5, 2)), 6)

    def test_deterministic(self, rng):
        X = rng.normal(size=(120, 2))
        a = fit_em(X, 3, EMConfig(seed=9))
        b = fit_em(X, 3, EMConfig(seed=9))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)

    def test_variance_floor_on_constant_column(self, rng):
        X = np.column_stack([rng.normal(size=100), np.ones(100)])
        g = fit_em(X, 2, EMConfig(seed=0))
        assert np.all(g.stddevs > 0)

    def test_bic_prefers_two_on_bimodal(self, rng):
        X = np.concatenate([rng.normal(-4, 0.8, size=(300, 1)),
                            rng.normal(4, 0.8, size=(300, 1))])
        g = select_k_bic(X, cfg=EMConfig(seed=0, n_init=2))
        assert g.k >= 2


def _em_case_data(kind, seed, n, d):
    """n rows of d features: Gaussian blobs; uniform noise, where EM converges
    slowly; two distinct rows repeated, where a component collapses; or two
    tight clusters far apart, where restarts tie with permuted components."""
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        centers = rng.normal(scale=rng.uniform(0.5, 5.0), size=(int(rng.integers(1, 5)), d))
        return centers[rng.integers(len(centers), size=n)] + rng.normal(size=(n, d))
    if kind == "uniform":
        return rng.uniform(size=(n, d))
    if kind == "collapse":
        return rng.normal(size=(2, d))[np.arange(n) % 2]
    return np.where(np.arange(n)[:, None] % 2, 5.0, -5.0) + rng.normal(scale=0.1, size=(n, d))


# (kind, seed, n, d, k, n_init) inputs on which the restarts stop at
# different iterations, the winner stops before another restart does, all
# run to EM_MAX_ITERS, a component is dropped, and equal final
# log-likelihoods come from different fits.
EM_CASES = {
    "stops_differ": ("uniform", 0, 300, 1, 6, 4),
    "winner_stops_first": ("uniform", 0, 60, 2, 3, 3),
    "max_iters": ("uniform", 3, 300, 1, 6, 4),
    "collapse": ("collapse", 0, 20, 2, 3, 2),
    "tie": ("tie", 0, 60, 2, 2, 4),
}


def _fit_both(case):
    """fit_em and the one-restart-at-a-time reference on one case, each with
    its warnings and history."""
    kind, seed, n, d, k, n_init = case
    X, cfg = _em_case_data(kind, seed, n, d), EMConfig(seed=seed % 1000, n_init=n_init)
    out = []
    for fit in (lambda: fit_em(X, min(k, n), cfg, history_out=hist),
                lambda: reference_fit_em(X, min(k, n), cfg)):
        hist: list = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit()
        out.append((result, hist, [str(w.message) for w in caught]))
    return out


class TestLockstepRestarts:
    """fit_em runs its restarts in lockstep; each must fit exactly as the same
    restart run on its own (tests/helpers.py::reference_fit_em)."""

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.sampled_from(["blobs", "uniform", "collapse", "tie"]),
                     st.integers(0, 2 ** 32 - 1), st.integers(5, 300), st.integers(1, 5),
                     st.integers(1, 6), st.integers(1, 4)))
    @example(EM_CASES["stops_differ"])
    @example(EM_CASES["winner_stops_first"])
    @example(EM_CASES["max_iters"])
    @example(EM_CASES["collapse"])
    @example(EM_CASES["tie"])
    def test_matches_one_restart_at_a_time(self, case):
        (got, hist, caught), ((ref, ref_hist, _), _, ref_caught) = _fit_both(case)
        for a, b in ((got.weights, ref.weights), (got.means, ref.means),
                     (got.stddevs, ref.stddevs)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert hist == ref_hist and caught == ref_caught

    def test_cases_reach_each_situation(self):
        ref = {name: _fit_both(case)[1] for name, case in EM_CASES.items()}
        restarts = {name: r[0][2] for name, r in ref.items()}  # (loglik, iterations, means)
        iters = [it for _, it, _ in restarts["stops_differ"]]
        assert len(set(iters)) > 1 and min(iters) < gmm_mod.EM_MAX_ITERS
        runs = restarts["winner_stops_first"]
        assert max(runs, key=lambda run: run[0])[1] < max(it for _, it, _ in runs)
        assert all(it == gmm_mod.EM_MAX_ITERS for _, it, _ in restarts["max_iters"])
        assert ref["collapse"][2] == ["dropping 1 degenerate mixture component(s)"]
        (first, _, mu0), *rest = restarts["tie"]
        assert any(ll == first and not np.array_equal(mu, mu0) for ll, _, mu in rest)


    def test_one_restart_at_k_1(self, monkeypatch):
        """At k = 1 every restart starts from the same responsibilities: four
        restarts fit byte for byte as one does, history included, and only
        one is seeded."""
        X = np.random.default_rng(3).normal(size=(200, 3)) * [1.0, 5.0, 0.1]
        fits = []
        for n_init in (1, 4):
            hist = []
            g = fit_em(X, 1, EMConfig(seed=7, n_init=n_init), history_out=hist)
            fits.append((g.weights.tobytes(), g.means.tobytes(), g.stddevs.tobytes(), hist))
        assert fits[1] == fits[0]
        seeded, seed_resp = [], gmm_mod._kmeanspp_resp
        monkeypatch.setattr(gmm_mod, "_kmeanspp_resp",
                            lambda X, k, rng: seeded.append(k) or seed_resp(X, k, rng))
        fit_em(X, 1, EMConfig(seed=7, n_init=4))
        assert seeded == [1]


def _offset_data():
    """2,000 points: sd 0.01 at offset 1e6 and sd 1 at offset 1e8, with the
    sample moments set exactly so that the truth is the generating values."""
    Z = np.random.default_rng(11).normal(size=(2000, 2))
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    return np.array([1e6, 1e8]) + np.array([0.01, 1.0]) * Z


class TestLargeOffsets:
    def test_fit_recovers_spread_far_from_origin(self):
        g = fit_em(_offset_data(), 1, EMConfig(seed=0, n_init=1))
        np.testing.assert_allclose(g.stddevs[0], [0.01, 1.0], rtol=0.01)
        assert np.all(np.abs(g.means[0] - [1e6, 1e8]) <= [1e-4, 1e-2])

    def test_log_pdf_matches_direct_formula(self):
        X = _offset_data()
        # A fitted single component is the sample moments. Its mean is
        # representable only to ulp(1e6) = 1.2e-8 sd, which moves the log
        # density by up to 1e-7.
        fitted = fit_em(X, 1, EMConfig(seed=0, n_init=1))
        ref = stats.norm.logpdf(X, X.mean(axis=0), X.std(axis=0)).sum(axis=1)
        np.testing.assert_allclose(log_pdf(fitted, X), ref, rtol=1e-9, atol=1e-6)
        w = np.array([0.3, 0.7])
        mu = np.array([[1e6, 1e8], [1e6 + 0.05, 1e8 - 3.0]])
        sd = np.array([[0.01, 1.0], [0.02, 2.0]])
        per_comp = stats.norm.logpdf(X[:, None, :], mu, sd).sum(axis=2) + np.log(w)
        np.testing.assert_allclose(log_pdf(GaussianMixture(w, mu, sd), X),
                                   scipy.special.logsumexp(per_comp, axis=1),
                                   rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.floats(-2.0, 2.0), st.booleans(), st.floats(-1e3, 1e3))
    def test_fit_is_affine_equivariant(self, seed, d, k, log_a, negative, shift):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=3.0, size=(k, d))
        X = centers[rng.integers(k, size=60)] + rng.normal(size=(60, d))
        a = (-1.0 if negative else 1.0) * 10.0 ** log_a
        # Up to 1e3 data sds away; beyond that, rounding aX + b alone moves
        # the data by ulp(b), which EM's iterations can amplify toward 1e-9.
        b = shift * abs(a)
        cfg = EMConfig(seed=seed % 1000, n_init=1)
        g, h = fit_em(X, k, cfg), fit_em(a * X + b, k, cfg)
        np.testing.assert_allclose(h.weights, g.weights, rtol=1e-9)
        np.testing.assert_allclose(h.stddevs, abs(a) * g.stddevs, rtol=1e-9)
        np.testing.assert_allclose(h.means, a * g.means + b, rtol=1e-9,
                                   atol=1e-9 * abs(a) * np.abs(X).max())


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            GaussianMixture([0.7, 0.7], [[0.0], [1.0]], [[1.0], [1.0]])

    def test_stddevs_positive(self):
        with pytest.raises(InputError):
            GaussianMixture([1.0], [[0.0]], [[0.0]])

    @pytest.mark.parametrize("field,value,message", [
        ("weights", [np.nan, 1.0], "weights must be finite"),
        ("weights", [np.inf, 1.0], "weights must be finite"),
        ("means", [[0.0], [np.nan]], "means must be finite"),
        ("means", [[0.0], [np.inf]], "means must be finite"),
        ("stddevs", [[1.0], [np.nan]], "stddevs must be finite"),
        ("stddevs", [[1.0], [np.inf]], "stddevs must be finite"),
    ])
    def test_nonfinite_parameters_rejected(self, field, value, message):
        params = {"weights": [0.5, 0.5], "means": [[0.0], [1.0]], "stddevs": [[1.0], [1.0]]}
        with pytest.raises(InputError, match=message):
            GaussianMixture(**dict(params, **{field: value}))

    def test_zero_dimensions_rejected(self):
        """As Dataset does: with no dimension the exact oracle has no split to scan."""
        with pytest.raises(InputError, match=r"d >= 1"):
            GaussianMixture([1.0], np.zeros((1, 0)), np.ones((1, 0)))

    @pytest.mark.parametrize("fit", [lambda X: fit_em(X, 2), select_k_bic], ids=["fit_em", "bic"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, None], ids=["nan", "inf", "1-d"])
    def test_nonfinite_features_rejected_before_em(self, rng, fit, bad):
        X = rng.normal(size=(50, 2))
        if bad is None:  # a vector, not a matrix: select_k_bic used to raise ValueError
            X = X[:, 0]
        else:
            X[17, 1] = bad
        with pytest.raises(InputError, match="finite features"):
            fit(X)


# Few distinct values so that tied maxima are common, plus -inf entries.
_lse_values = st.one_of(st.sampled_from([-np.inf, -np.inf, 0.0, -1.0, 2.5, -745.0]),
                        st.floats(-1000.0, 1000.0))


class TestLogsumexp:
    @staticmethod
    def _assert_bitwise(ours, ref):
        ours, ref = np.asarray(ours), np.asarray(ref)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes(), (ours, ref)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 12), elements=_lse_values))
    def test_matches_scipy_1d(self, a):
        self._assert_bitwise(gmm_mod.logsumexp(a), scipy.special.logsumexp(a))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 12)),
                  elements=_lse_values),
           st.lists(st.integers(0, 5), max_size=3))
    def test_matches_scipy_axis1(self, a, blank_rows):
        for r in blank_rows:
            a[r % a.shape[0]] = -np.inf
        self._assert_bitwise(gmm_mod.logsumexp(a, axis=1),
                             scipy.special.logsumexp(a, axis=1))

    def test_matches_scipy_3d_middle_axis(self):
        """The E step's (restart, component, point) shape reduced over the
        components, with an all -inf column and a +inf entry (both take the
        direct log(sum(exp)) fallback) beside finite and tied columns."""
        a = np.random.default_rng(7).normal(scale=30.0, size=(3, 4, 6))
        a[0, :, 1] = -np.inf
        a[1, 2, 3] = np.inf
        a[2, :2, 4] = a[2, 2:, 4].max() + 1.0
        self._assert_bitwise(gmm_mod.logsumexp(a, axis=1), scipy.special.logsumexp(a, axis=1))

    def test_edge_rows(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [1.0, 1.0, 1.0],
                      [np.inf, 0.0, 1.0], [-np.inf, 3.0, 3.0]])
        self._assert_bitwise(gmm_mod.logsumexp(a, axis=1),
                             scipy.special.logsumexp(a, axis=1))
        self._assert_bitwise(gmm_mod.logsumexp(a), scipy.special.logsumexp(a))
