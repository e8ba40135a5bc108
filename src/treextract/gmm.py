"""Axis-aligned Gaussian mixture input model.

Covers EM fitting with restarts, density evaluation, unconditional sampling,
and exact sampling conditioned on a box constraint. Conditioning reweights
the mixture components by their probability mass inside the box,

    w'_j = w_j * prod_i ( Phi((hi_i - mu_ji)/sd_ji) - Phi((lo_i - mu_ji)/sd_ji) ),

normalizes by Z = sum_j w'_j, and then draws each coordinate from an
independent truncated normal. All randomness flows through an explicit
numpy Generator; parallel callers should use independently seeded streams
(e.g. children of a numpy SeedSequence).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .core import BoxConstraint, _check_seed, _frozen_array, is_count
from .errors import ConfigError, EmptyRegionError, InputError

Z_FLOOR = 1e-300
LOG_Z_FLOOR = math.log(Z_FLOOR)

# Standardized bound beyond which the linear-space inverse CDF loses
# precision and the sampler inverts the CDF in log space instead.
TAIL_CUTOFF = 6.0

# Standardized box width below which a box mass is integrated from the
# midpoint rather than taken as a difference of two CDF values.
NARROW_WIDTH = 1e-5


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance Gaussian mixture over R^d, d >= 1. stddevs
    stores per-dimension standard deviations (not variances)."""

    weights: np.ndarray
    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        w, mu, sd = (_frozen_array(a) for a in (self.weights, self.means, self.stddevs))
        if mu.ndim != 2 or mu.shape[1] < 1 or sd.shape != mu.shape or w.shape != mu.shape[:1] \
                or not np.isfinite(mu).all():
            raise InputError("means must be finite, (K, d >= 1), and parameter shapes consistent")
        if not np.all(w >= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise InputError("weights must be finite, nonnegative and sum to 1")
        if not np.all((sd > 0) & (sd < np.inf)):
            raise InputError("stddevs must be finite and strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "stddevs", sd)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @cached_property
    def unconditional(self) -> ConditionalMixture:
        """The conditional on the unbounded box, built once."""
        return condition(self, BoxConstraint.unbounded(self.d))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis, bit for bit as scipy.special.logsumexp
    computes it for real input, without scipy's per-call dispatch cost.

    The max is split out and the tied maxima counted as m, so the result is
    log1p(s/m) + log(m) + max with s the sum of the remaining shifted terms
    (Blanchard, Higham & Higham 2021); with all -inf, any +inf or a NaN it is
    -inf, +inf or NaN, as the direct log(sum(exp(a))) is.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max(axis, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(tied, 0.0, np.exp(a - a_max)).sum(axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _log_joint(Z, Z2, w, mu, sd) -> np.ndarray:
    """(..., K, n) log w_j + log N(z | mu_j, diag(sd_j^2)) for each row z of Z,
    from (..., K) weights w and (..., K, d) mu and sd; Z2 = Z * Z."""
    # The quadratic form as three matmuls, the diagonal case of scikit-learn's
    # _estimate_log_gaussian_prob: sum_i (z_i - mu_i)^2 prec_i =
    # prec @ Z2.T - 2 (mu prec) @ Z.T + sum_i mu_i^2 prec_i. Its terms cancel
    # where |z| and |mu| dwarf sd, so callers pass standardized coordinates.
    # Components run along axis -2: numpy reduces a short inner axis slowly.
    # Weights must be positive, as EM's are (it floors each nk at 1e-10).
    prec = 1.0 / (sd * sd)
    mu_prec = mu * prec
    quad = prec @ Z2.T - 2.0 * (mu_prec @ Z.T) + (mu * mu_prec).sum(axis=-1, keepdims=True)
    return -0.5 * quad + (np.log(w) - np.log(sd).sum(axis=-1)
                          - 0.5 * Z.shape[1] * math.log(2 * math.pi))[..., None]


def _log_masses(gmm: GaussianMixture, lower: np.ndarray,
                upper: np.ndarray) -> tuple:
    """Log masses of T boxes under the mixture.

    lower and upper are (T, d) bounds. Returns the (T, K) per-component log
    masses log w_j + sum_i log( Phi(beta_ji) - Phi(alpha_ji) ), their (T,)
    logsumexp, and the (T, K, d) standardized bounds alpha and beta. Empty
    boxes (lower >= upper in some dimension) get log mass -inf.
    """
    alpha = (lower[:, None, :] - gmm.means) / gmm.stddevs
    beta = (upper[:, None, :] - gmm.means) / gmm.stddevs
    width = (upper - lower)[:, None, :] / gmm.stddevs
    with np.errstate(divide="ignore"):
        logw = np.log(gmm.weights) + np.log(_phi_interval(alpha, beta, width)).sum(axis=2)
    return logw, logsumexp(logw, axis=1), alpha, beta


def log_box_masses(gmm: GaussianMixture, lower, upper) -> np.ndarray:
    """(T,) log probabilities of T boxes given as (T, d) lower/upper bounds.
    Empty boxes get -inf."""
    lower, upper = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
    return _log_masses(gmm, lower, upper)[1]


def _phi_interval(alpha, beta, width) -> np.ndarray:
    """Phi(beta) - Phi(alpha), computed stably in either tail and at any width.

    When the interval sits in the upper tail the complementary CDF form
    Phi(-alpha) - Phi(-beta) avoids catastrophic cancellation near 1.
    """
    # Below NARROW_WIDTH a CDF difference keeps only ulp(Phi) / (phi * width)
    # relative accuracy, so the mass comes from the midpoint m instead:
    # phi(m) * width * (1 + (m^2 - 1) width^2 / 24), truncation error below
    # 1e-16 relative there. width = (upper - lower) / sd keeps the digits
    # that beta - alpha rounds away.
    upper_tail = alpha > 0
    direct = ndtr(beta) - ndtr(alpha)
    flipped = ndtr(-alpha) - ndtr(-beta)
    out = np.maximum(np.where(upper_tail, flipped, direct), 0.0)
    narrow = (width > 0) & (width < NARROW_WIDTH)
    if narrow.any():
        m, w = 0.5 * (alpha[narrow] + beta[narrow]), width[narrow]
        out[narrow] = w * np.exp(-0.5 * m * m) / math.sqrt(2 * math.pi) \
            * (1.0 + (m * m - 1.0) * w * w / 24.0)
    return out


@dataclass(frozen=True)
class ConditionalMixture:
    """A GaussianMixture restricted to a satisfiable box.

    tilde_phi holds the renormalized component weights and Z the total
    probability mass of the box under the base mixture.
    """

    base: GaussianMixture
    box: BoxConstraint
    tilde_phi: np.ndarray
    Z: float
    # Standardized bounds per component and dimension, cached for sampling.
    alpha: np.ndarray = field(repr=False, default=None)
    beta: np.ndarray = field(repr=False, default=None)


def condition(gmm: GaussianMixture, box: BoxConstraint) -> ConditionalMixture:
    """Exact conditional of the mixture on a box constraint.

    Raises EmptyRegionError when the box mass (0 for an unsatisfiable box)
    falls below Z_FLOOR; callers treat such a region as zero-gain.
    """
    if box.d != gmm.d:
        raise InputError(f"box dimension {box.d} does not match d={gmm.d}")
    logw, log_z, alpha, beta = _log_masses(gmm, box.lower[None], box.upper[None])
    logw, log_z = logw[0], float(log_z[0])
    if not np.isfinite(log_z) or log_z < LOG_Z_FLOOR:
        raise EmptyRegionError(f"box mass below floor (log mass {log_z:.1f})")
    tilde = np.exp(logw - log_z)
    tilde = tilde / tilde.sum()
    return ConditionalMixture(gmm, box, tilde, math.exp(log_z), alpha=alpha[0], beta=beta[0])


def box_mass(gmm: GaussianMixture, box: Optional[BoxConstraint]) -> float:
    """Probability of the box under the mixture; 0 for empty regions."""
    if box is None or not box.is_satisfiable():
        return 0.0
    return float(np.exp(log_box_masses(gmm, box.lower[None], box.upper[None])[0]))


def _categorical(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    u = rng.random(size)
    edges = np.cumsum(p)
    edges[-1] = 1.0  # above every u, so no index reaches len(p)
    return np.searchsorted(edges, u, side="right")


def _cdf_tables(a, b):
    """Inverse-CDF tables for standard-normal draws on the intervals (a, b].

    Intervals with a >= 0 are mirrored to (lo, hi] = (-b, -a] (flip) and the
    draw negated: the lower-tail CDF keeps the precision the upper tail would
    lose. Returns flip, lo, hi, Phi(lo), Phi(hi) - Phi(lo) and the tail
    entries, whose (lo, hi] lies below -TAIL_CUTOFF.
    """
    flip = a >= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    clo = ndtr(lo)
    return flip, lo, hi, clo, ndtr(hi) - clo, hi <= -TAIL_CUTOFF


def _inverse_cdf(tables, j, rng):
    """Draws z on the mirrored intervals of 1-d table entries j, one uniform u
    each: z = Phi^-1(Phi(lo) + u (Phi(hi) - Phi(lo))), in log space on tail
    entries (exact to a few ulps at any depth and width). A non-finite z (u
    at an end of [0, 1) at an infinite bound) is redrawn before returning."""
    _, lo, hi, clo, width, tail = tables
    u = rng.random(j.size)
    if not tail.any():
        z = ndtri(clo[j] + u * width[j])
    else:
        # The log mass as log_hi + log(1 - e^x); log1p(-e^x) would only
        # sharpen a term whose error is far below log_hi's ulp.
        log_lo, log_hi = log_ndtr(lo), log_ndtr(hi)
        t = tail[j]
        z = np.empty(j.size)
        with np.errstate(divide="ignore"):  # u == 0, or hi - lo below log_hi's ulp
            log_mass = log_hi + np.log(-np.expm1(log_lo - log_hi))
            z[t] = ndtri_exp(np.logaddexp(log_lo[j[t]], np.log(u[t]) + log_mass[j[t]]))
        t = ~t
        z[t] = ndtri(clo[j[t]] + u[t] * width[j[t]])
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        z[bad] = _inverse_cdf(tables, j[bad], rng)
    return z


def sample_truncated_normal(mu: float, sigma: float, lo: float, hi: float,
                            rng: np.random.Generator) -> float:
    """One draw from N(mu, sigma^2) restricted to (lo, hi], by the inverse
    CDF of one uniform (in log space past TAIL_CUTOFF)."""
    if not (np.isfinite(mu) and 0 < sigma < np.inf):
        raise InputError(f"mu must be finite and sigma in (0, inf), got {mu}, {sigma}")
    with np.errstate(over="ignore"):  # numpy floats overflow to inf quietly, as Python's do
        a, b = (lo - mu) / sigma, (hi - mu) / sigma
    if not a < b:  # also if either overflows
        raise InputError(f"empty interval ({lo}, {hi}], standardized ({a}, {b}]")
    if lo == -np.inf and hi == np.inf:
        return float(mu + sigma * rng.standard_normal())
    tables = _cdf_tables(np.array([a]), np.array([b]))
    z = float(_inverse_cdf(tables, np.zeros(1, dtype=np.intp), rng)[0])
    x = mu + sigma * (-z if tables[0][0] else z)
    # Enforce the half-open interval exactly despite rounding.
    return float(min(max(x, np.nextafter(lo, np.inf)), hi))


def sample_conditional(cm: ConditionalMixture, rng: np.random.Generator,
                       size: int) -> np.ndarray:
    """Draw a (size, d) matrix of points from the conditional mixture.

    Every returned point satisfies the box exactly. The generator is read in
    a fixed order: one uniform per point for its component, then dimension
    by dimension one standard normal per point where the box leaves the
    dimension unbounded (a run of such dimensions in one call), else one
    uniform per point with any redraws. So conditioning on the unbounded box
    reproduces the unconditional sampler draw for draw.
    """
    if not is_count(size, 0):
        raise InputError(f"size must be an integer >= 0, got {size!r}")
    n, gmm = size, cm.base
    comps = _categorical(rng, cm.tilde_phi, n)
    lower, upper = cm.box.lower, cm.box.upper
    bounded = np.flatnonzero((lower > -np.inf) | (upper < np.inf))
    sd = gmm.stddevs.T.copy()
    Z = np.empty((gmm.d, n))
    start = 0
    if bounded.size:
        # One table entry per (bounded dimension, component). The mirror flag
        # goes into the sign of the sd, as sd * (-z) == (-sd) * z exactly.
        tables = _cdf_tables(cm.alpha[:, bounded].T, cm.beta[:, bounded].T)
        sd[bounded] *= np.where(tables[0], -1.0, 1.0)
        for row, i in enumerate(bounded):
            rng.standard_normal(out=Z[start:i])
            Z[i] = _inverse_cdf([t[row] for t in tables], comps, rng)
            start = i + 1
    rng.standard_normal(out=Z[start:])
    Z *= np.take(sd, comps, axis=1)
    Z += np.take(gmm.means.T, comps, axis=1)
    np.clip(Z, np.nextafter(lower, np.inf)[:, None], upper[:, None], out=Z)
    return np.ascontiguousarray(Z.T)


def sample(gmm: GaussianMixture, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, d) unconditional draws: component from Categorical(weights),
    then the component's axis-aligned normal. Drawn from gmm.unconditional,
    the cached conditional on the unbounded box (same code path, Z = 1)."""
    return sample_conditional(gmm.unconditional, rng, size)


EM_MAX_ITERS = 200
EM_LOGLIK_TOL = 1e-7  # stop once an iteration gains at most this, relative


@dataclass(frozen=True)
class EMConfig:
    n_init: int = 4
    seed: int = 0

    def __post_init__(self):
        if not is_count(self.n_init):
            raise ConfigError(f"n_init must be >= 1 and an integer, got {self.n_init!r}")
        _check_seed(self.seed)


def _kmeanspp_resp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """(k, n) responsibilities of X's rows hard-assigned to the nearest of k
    k-means++ centers (the first of equals), raised by 1e-6 and normalized."""
    n = X.shape[0]
    d2 = np.sum((X - X[rng.integers(n)]) ** 2, axis=1)
    assign = np.zeros(n, dtype=np.intp)
    for j in range(1, k):
        total = d2.sum()
        # With every point on a center, a random point is drawn; it is
        # nearer to none than the centers before it.
        i = rng.integers(n) if total <= 0 else _categorical(rng, d2 / total, 1)[0]
        dj = np.sum((X - X[i]) ** 2, axis=1)
        assign[dj < d2] = j
        d2 = np.minimum(d2, dj)
    resp = (np.arange(k)[:, None] == assign) + 1e-6
    return resp / resp.sum(axis=0)


def fit_em(X, k: int, cfg: EMConfig = EMConfig(),
           history_out: Optional[list] = None) -> GaussianMixture:
    """Fit a diagonal-covariance mixture to an (n, d) X by k-means++-seeded EM.

    Runs cfg.n_init restarts (one at k = 1, where all would be the same) in
    lockstep, each step one stacked call over a (restart, component, point)
    array. Each restart stops at its own iteration, and its fit equals the
    restart run on its own bit for bit. Keeps the best final log-likelihood,
    the first of equals; deterministic given cfg.seed. Components whose
    weight collapses below 1e-8 are dropped with a warning. history_out,
    when given, receives the winner's log-likelihood sequence (one entry per
    iteration).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or not np.isfinite(X).all():
        raise InputError("expected a 2-d matrix of finite features")
    n = X.shape[0]
    if not is_count(k) or k > n:
        raise ConfigError(f"k must be an integer from 1 to the number of points n={n}, "
                          f"got {k!r}")
    # EM runs on the data standardized per dimension (scale 1 for a constant
    # column), so an offset costs no precision and the fit is affine-equivariant.
    # Seeding and the hard assignment use the raw X, where k-means++ weighs
    # each feature by its own spread.
    loc, spread = X.mean(axis=0), np.ptp(X, axis=0)
    scale = np.where(spread > 0, X.std(axis=0), 1.0)
    Z = (X - loc) / scale
    Z2 = Z * Z
    # Variance floor: 1e-6 of each dimension's squared data range (at least 1e-3).
    floor = 1e-6 * np.maximum(spread, 1e-3) ** 2 / scale ** 2
    # (restart, component, point), restart r seeded by its own generator. At
    # k = 1 every restart starts from the same responsibilities, so one runs.
    restarts = range(cfg.n_init if k > 1 else 1)
    resp = np.stack([_kmeanspp_resp(X, k, np.random.default_rng([cfg.seed, r]))
                     for r in restarts])
    live = list(restarts)  # the restarts still iterating, in order
    # Each restart's standardized log-likelihoods after a -inf start, and
    # its latest (w, mu, sd).
    hists, fits = [[-np.inf] for _ in live], {}
    for it in range(EM_MAX_ITERS):
        # M step
        nk = np.maximum(resp.sum(axis=2, keepdims=True), 1e-10)
        w = nk[..., 0] / n
        mu = (resp @ Z) / nk
        sd = np.sqrt(np.maximum((resp @ Z2) / nk - mu * mu, floor))
        # E step
        logp = _log_joint(Z, Z2, w, mu, sd)
        norm = logsumexp(logp, axis=1)
        keep = []
        for i, (r, loglik) in enumerate(zip(live, norm.sum(axis=1).tolist())):
            # The standardized log-likelihood makes the stop rule unit-free.
            if not loglik - hists[r][-1] <= EM_LOGLIK_TOL * (1.0 + abs(loglik)):
                keep.append(i)
            hists[r].append(loglik)
            fits[r] = (w[i], mu[i], sd[i])
        if len(keep) < len(live):
            if not keep:
                break
            live, logp, norm = [live[i] for i in keep], logp[keep], norm[keep]
        resp = np.exp(logp - norm[:, None])
    best = max(restarts, key=lambda r: hists[r][-1])  # the first of equals
    w, mu, sd = fits[best]
    if history_out is not None:
        # In the data's units: the standardized log-likelihood minus n log|scale|.
        log_scale = n * float(np.log(scale).sum())
        history_out.extend(loglik - log_scale for loglik in hists[best][1:])

    keep = w >= 1e-8
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} degenerate mixture component(s)")
        w, mu, sd = w[keep], mu[keep], sd[keep]
    w = w / w.sum()
    return GaussianMixture(w, loc + scale * mu, scale * sd)


def select_k_bic(X, cfg: EMConfig = EMConfig()) -> GaussianMixture:
    """Pick K by BIC over {1, 2, 5, 10, 20}, capped at n/10 (K = 1 always runs)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape if X.ndim == 2 else (0, 0)  # K = 1's fit_em refuses any other X
    fits = []  # (BIC, mixture) for each K
    for k in (c for c in (1, 2, 5, 10, 20) if c <= max(1, n // 10)):
        hist: list = []
        gmm = fit_em(X, k, cfg, history_out=hist)
        n_params = (gmm.k - 1) + 2 * gmm.k * d
        fits.append((-2.0 * hist[-1] + n_params * math.log(n), gmm))
    return min(fits, key=lambda fit: fit[0])[1]  # the first of equals
