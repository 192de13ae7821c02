"""
Sampling-error asymptotics for the worst-case Expected Shortfall value.

When both supports are finite, the optimal value as a function of the
marginal weight vectors is a piecewise-linear concave min over dual
vertices, hence Hadamard directionally differentiable.  The directional
derivative along a simplex-tangent direction (d_mu, d_nu), the minimum of
phi . d_mu + psi . d_nu over the optimal face of the MES dual, is read off
the certificate of one ``solve_mes`` at (mu + h d_mu, nu + h d_nu) (see
:class:`DualFace`); no LP model of the face is built.

``simulate_error_distribution`` replays the finite-sample experiment
(empirical marginals, full re-solve), while ``simulate_limit_distribution``
samples the theoretical limit: the derivative evaluated at independent
centred Gaussian vectors with multinomial covariance.  The limit is
Gaussian exactly when the optimal face projects to one point on the
tangent space (a unique dual optimum is sufficient but not necessary);
otherwise it is a min of distinct linear forms.  ``anderson_darling_normal``
(mean and variance estimated from the sample) is the shipped diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    DirectionNotTangent,
    LossMatrix,
    NumericalFailure,
    ProbabilityVector,
    SpectralGrid,
    TooFewSamples,
    _require_alpha,
    check_instance,
)
from .bounds import solve_mes
from .lpsolver import solve_lp  # noqa: F401  unused; perfbench/tracing.py wraps this name
from .losses import normal_cdf
from .rng import box_muller, make_rng, substream

_TANGENT_TOL = 1e-9
_FACE_TOL = 1e-7
_STEP_TRIES = 6
_LINEARITY_PROBES = 4


@dataclass(frozen=True)
class CltExperiment:
    """A finite-sample resampling experiment on a fixed instance."""

    mu: ProbabilityVector
    nu: ProbabilityVector
    loss: LossMatrix
    alpha: float
    n_x: int
    n_y: int
    replications: int
    seed: int

    def __post_init__(self) -> None:
        check_instance(self.mu, self.nu, self.loss)
        _require_alpha(self.alpha)
        if self.n_x < 1 or self.n_y < 1:
            raise DimensionMismatch("sample sizes must be positive")
        if self.replications < 1:
            raise DimensionMismatch("need at least one replication")


@dataclass(frozen=True)
class LimitSample:
    """Draws of the limiting law: derivative values at Gaussian directions."""

    draws: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        d = np.asarray(self.draws, dtype=float)
        if not np.all(np.isfinite(d)):
            raise NumericalFailure("limit draws must be finite")
        object.__setattr__(self, "draws", d)


def sample_empirical(p: ProbabilityVector, n: int, rng: np.random.Generator
                     ) -> ProbabilityVector:
    """Empirical reweighting from n multinomial draws; weights are exact
    multiples of 1/n (counts sum to n in integer arithmetic)."""
    if n < 1:
        raise DimensionMismatch("sample size must be positive")
    counts = rng.multinomial(n, p.weights)
    return ProbabilityVector(counts.astype(float) / n, labels=p.labels)


def multinomial_covariance(p: ProbabilityVector) -> np.ndarray:
    """Covariance of one multinomial draw: diag(p) - p p^T (rows sum to 0)."""
    w = p.weights
    return np.diag(w) - np.outer(w, w)


class DualFace:
    """The optimal face of the MES dual at ``alpha``: the certificates that
    cover every cell with dual value V at (mu, nu).  Construction solves the
    instance once (unless ``value`` is supplied).  :meth:`derivative` solves
    at (mu + h d_mu, nu + h d_nu).  The cover does not involve the marginals,
    so that certificate is dual feasible at (mu, nu), on the face once its
    dual value there is V (within ``_FACE_TOL``), and for h below the first
    kink of V along d it minimizes d over the face (parametric LP); else h
    shrinks by 16, at most ``_STEP_TRIES`` times."""

    def __init__(self, mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                 alpha: float, value: float | None = None):
        check_instance(mu, nu, loss)
        _require_alpha(alpha)
        self.mu = mu
        self.nu = nu
        self.loss = loss
        self.alpha = float(alpha)
        if value is None:
            value = solve_mes(mu, nu, loss, alpha).value
        self.value = float(value)
        self._nx, self._ny = loss.shape

    def derivative(self, d_mu: np.ndarray, d_nu: np.ndarray) -> float:
        d_mu = np.asarray(d_mu, dtype=float)
        d_nu = np.asarray(d_nu, dtype=float)
        if d_mu.shape != (self._nx,) or d_nu.shape != (self._ny,):
            raise DimensionMismatch("direction shapes do not match the marginals")
        scale = max(1.0, float(np.abs(d_mu).max(initial=0.0)),
                    float(np.abs(d_nu).max(initial=0.0)))
        if abs(d_mu.sum()) > _TANGENT_TOL * scale or abs(d_nu.sum()) > _TANGENT_TOL * scale:
            raise DirectionNotTangent("directions must sum to zero")
        if np.any((self.mu.weights == 0.0) & (d_mu < -_TANGENT_TOL * scale)) or \
                np.any((self.nu.weights == 0.0) & (d_nu < -_TANGENT_TOL * scale)):
            raise DirectionNotTangent("direction leaves the simplex at a zero atom")
        # round-off guard: pin negligible components at zero-mass atoms, where
        # the dual face is unbounded in the matching potential
        d_mu = np.where((self.mu.weights == 0.0), np.maximum(d_mu, 0.0), d_mu)
        d_nu = np.where((self.nu.weights == 0.0), np.maximum(d_nu, 0.0), d_nu)
        w = np.concatenate([self.mu.weights, self.nu.weights])
        d = np.concatenate([d_mu, d_nu])
        falling = d < 0.0
        h = min(1e-3 / scale, 0.5 * float(np.min(w[falling] / -d[falling], initial=np.inf)))
        grid = SpectralGrid.dirac(self.alpha)
        for _ in range(_STEP_TRIES):
            # renormalized against the round-off in the sums of d_mu and d_nu
            mu_h, nu_h = (ProbabilityVector(w / w.sum()) for w in
                          (self.mu.weights + h * d_mu, self.nu.weights + h * d_nu))
            cert = solve_mes(mu_h, nu_h, self.loss, self.alpha).certificate
            if cert.value(self.mu, self.nu, grid) <= self.value + _FACE_TOL:
                return float(cert.phi @ d_mu + cert.psi @ d_nu)
            h /= 16.0
        raise NumericalFailure(f"no certificate on the optimal face down to step {16.0 * h:.3e}")

    def asymmetry(self, d_mu: np.ndarray, d_nu: np.ndarray) -> float:
        """V'(d) + V'(-d); zero iff the derivative is linear along +-d."""
        return self.derivative(d_mu, d_nu) + self.derivative(-d_mu, -d_nu)

    def linearity_diagnostic(self, seed: int = 0) -> dict:
        """Probe the face for dual ties along ``_LINEARITY_PROBES`` random
        directions; an asymmetry above 1e-5 on any certifies a non-singleton
        face."""
        rng = make_rng(seed)
        worst = 0.0
        for _ in range(_LINEARITY_PROBES):
            d_mu = rng.normal(size=self._nx) * (self.mu.weights > 0)
            d_mu -= d_mu.sum() / max((self.mu.weights > 0).sum(), 1) * (self.mu.weights > 0)
            d_nu = rng.normal(size=self._ny) * (self.nu.weights > 0)
            d_nu -= d_nu.sum() / max((self.nu.weights > 0).sum(), 1) * (self.nu.weights > 0)
            worst = max(worst, abs(self.asymmetry(d_mu, d_nu)))
        return {"max_asymmetry": worst, "linear": worst <= 1e-5}


def hadamard_derivative(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                        alpha: float, d_mu, d_nu, value: float | None = None) -> float:
    """Directional derivative of the optimal value along (d_mu, d_nu)."""
    return DualFace(mu, nu, loss, alpha, value=value).derivative(
        np.asarray(d_mu, dtype=float), np.asarray(d_nu, dtype=float))


def replication_value(exp: CltExperiment, rep: int) -> float:
    """Optimal value of one resampled replication (its own Philox substream)."""
    rng = substream(exp.seed, rep)
    mu_n = sample_empirical(exp.mu, exp.n_x, rng)
    nu_n = sample_empirical(exp.nu, exp.n_y, rng)
    return solve_mes(mu_n, nu_n, exp.loss, exp.alpha).value


def simulate_error_distribution(exp: CltExperiment, true_value: float | None = None
                                ) -> np.ndarray:
    """sqrt(n_x)-scaled deviations of the resampled optimal values from the
    true value, one per replication, in replication order (each replication
    draws from the substream keyed by (seed, index), so the result does not
    depend on execution order)."""
    if true_value is None:
        true_value = solve_mes(exp.mu, exp.nu, exp.loss, exp.alpha).value
    scale = math.sqrt(exp.n_x)
    return np.array([scale * (replication_value(exp, rep) - true_value)
                     for rep in range(exp.replications)])


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor A with A A^T = cov; zero eigenvalues truncated at 1e-12."""
    vals, vecs = np.linalg.eigh(cov)
    keep = vals > 1e-12
    return vecs[:, keep] * np.sqrt(vals[keep])


def simulate_limit_distribution(mu: ProbabilityVector, nu: ProbabilityVector,
                                loss: LossMatrix, alpha: float, R: int,
                                seed: int, y_scale: float = 1.0) -> LimitSample:
    """R draws of the limiting law: the dual-face derivative evaluated at
    independent centred Gaussians with multinomial covariance.

    The Gaussians come from ``make_rng(seed)``.  ``y_scale`` rescales the
    second block (sqrt(n_x/n_y) for samples of unequal sizes under sqrt(n_x)
    scaling).
    """
    rng = make_rng(seed)
    if R < 1:
        raise DimensionMismatch("need at least one draw")
    face = DualFace(mu, nu, loss, alpha)
    ax = _psd_factor(multinomial_covariance(mu))
    ay = _psd_factor(multinomial_covariance(nu))
    pos_mu = mu.weights > 0.0
    pos_nu = nu.weights > 0.0
    draws = np.empty(R)
    for k in range(R):
        z_mu = ax @ box_muller(rng, ax.shape[1])
        z_nu = y_scale * (ay @ box_muller(rng, ay.shape[1]))
        # exact tangency against round-off; zero-mass atoms stay exactly zero
        z_mu[pos_mu] -= z_mu[pos_mu].sum() / pos_mu.sum()
        z_nu[pos_nu] -= z_nu[pos_nu].sum() / pos_nu.sum()
        draws[k] = face.derivative(z_mu, z_nu)
    return LimitSample(draws=draws, seed=seed)


def anderson_darling_normal(samples) -> tuple[float, float, bool]:
    """Anderson-Darling normality test with estimated mean and variance.

    Returns (adjusted statistic, approximate p-value, reject-at-5%).
    Degenerate samples (zero variance) reject with p = 0.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 8:
        raise TooFewSamples(f"need at least 8 samples, got {n}")
    s = float(x.std(ddof=1))
    if not np.isfinite(s) or s <= 1e-12 * max(1.0, abs(float(x.mean()))):
        return math.inf, 0.0, True
    z = normal_cdf((x - x.mean()) / s)
    z = np.clip(z, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    a2 = -n - float(np.mean((2 * i - 1) * (np.log(z) + np.log1p(-z[::-1]))))
    a2 *= 1.0 + 0.75 / n + 2.25 / n ** 2
    if a2 < 0.2:
        p = 1.0 - math.exp(-13.436 + 101.14 * a2 - 223.73 * a2 ** 2)
    elif a2 < 0.34:
        p = 1.0 - math.exp(-8.318 + 42.796 * a2 - 59.938 * a2 ** 2)
    elif a2 < 0.6:
        p = math.exp(0.9177 - 4.279 * a2 - 1.38 * a2 ** 2)
    elif a2 <= 13.0:
        p = math.exp(1.2937 - 5.709 * a2 + 0.0186 * a2 ** 2)
    else:
        p = 0.0
    return float(a2), float(min(max(p, 0.0), 1.0)), bool(p < 0.05)


__all__ = [
    "CltExperiment",
    "DualFace",
    "LimitSample",
    "anderson_darling_normal",
    "hadamard_derivative",
    "multinomial_covariance",
    "replication_value",
    "sample_empirical",
    "simulate_error_distribution",
    "simulate_limit_distribution",
]
