"""
Instance generators: a linear loss with Gaussian factors, and a two-counterparty
credit portfolio whose systematic losses follow the one-factor Vasicek model.
Both produce equal-weight empirical supports in the core instance schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, InvalidParams, LossMatrix, ProbabilityVector, _seal,
                   validate_marginal)
from .rng import box_muller, make_rng

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal distribution function via the erf route: ``math.erf``
    for a scalar, ``scipy.special.erf`` for an array.  scipy.special is
    imported at the first array call, so that importing riskbound does not
    load it: only the CCR instance generator, ``normal_inv_cdf`` and the
    normality test evaluate the CDF on arrays.  The values are those of
    a module-level import, bit for bit."""
    if not np.ndim(x):
        return 0.5 * (1.0 + math.erf(float(x) / _SQRT2))
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / _SQRT2))


def _normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


# Acklam's rational approximation of the normal quantile; |error| < 1.2e-9
# before refinement.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
               (((( _D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                (((( _D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return ((((( _A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
           ((((( _B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def normal_inv_cdf(p) -> float | np.ndarray:
    """Normal quantile: Acklam's approximation refined by one Newton step,
    giving round-trip error below 1e-10 across [1e-8, 1 - 1e-8]."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("normal_inv_cdf requires p in (0,1)")
    flat = np.atleast_1d(arr)
    x = np.array([_acklam(float(v)) for v in flat])
    x -= (normal_cdf(x) - flat) / _normal_pdf(x)
    return float(x[0]) if np.ndim(p) == 0 else x.reshape(arr.shape)


@dataclass(frozen=True)
class CcrParams:
    """Two-counterparty credit portfolio parameters: default probabilities,
    factor loadings, exposure correlation, and exposure moments."""

    pd1: float
    pd2: float
    rho1: float
    rho2: float
    r: float
    mu1: float
    mu2: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        for name in ("pd1", "pd2"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidParams(f"{name} must lie in (0,1), got {v}")
        for name in ("rho1", "rho2"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise InvalidParams(f"{name} must lie in [0,1), got {v}")
        if not (-1.0 < self.r < 1.0):
            raise InvalidParams(f"r must lie in (-1,1), got {self.r}")
        for name in ("sigma1", "sigma2"):
            if getattr(self, name) <= 0.0:
                raise InvalidParams(f"{name} must be positive")


def vasicek_ccr_loss(x, y1, y2, params: CcrParams):
    """Systematic credit loss of two counterparties given the common factor x
    and portfolio values (y1, y2); broadcasts over array inputs."""
    t1 = normal_cdf((normal_inv_cdf(params.pd1) - math.sqrt(params.rho1) * np.asarray(x))
                    / math.sqrt(1.0 - params.rho1))
    t2 = normal_cdf((normal_inv_cdf(params.pd2) - math.sqrt(params.rho2) * np.asarray(x))
                    / math.sqrt(1.0 - params.rho2))
    out = np.maximum(y1, 0.0) * t1 + np.maximum(y2, 0.0) * t2
    return float(out) if np.ndim(out) == 0 else out


def build_gaussian_linear_instance(n_x: int, n_y: int, seed: int
                                   ) -> tuple[ProbabilityVector, ProbabilityVector, LossMatrix]:
    """Equal-weight empirical supports of standard normals with L(x,y) = x + y."""
    if n_x < 1 or n_y < 1:
        raise InvalidParams("support sizes must be positive")
    rng = make_rng(seed)
    x = box_muller(rng, n_x)
    y = box_muller(rng, n_y)
    mu = validate_marginal(np.full(n_x, 1.0 / n_x), labels=x.tolist())
    nu = validate_marginal(np.full(n_y, 1.0 / n_y), labels=y.tolist())
    loss = LossMatrix(_seal(x[:, None] + y[None, :]))
    return mu, nu, loss


def build_ccr_instance(params: CcrParams, n: int, seed: int
                       ) -> tuple[ProbabilityVector, ProbabilityVector, LossMatrix]:
    """n systematic-factor draws against n bivariate-normal exposure draws.

    The exposure pair uses the exact 2x2 Cholesky factor of
    [[s1^2, r s1 s2], [r s1 s2, s2^2]].
    """
    if n < 1:
        raise InvalidParams("n must be positive")
    rng = make_rng(seed)
    x = box_muller(rng, n)
    z = box_muller(rng, 2 * n).reshape(n, 2)
    y1 = params.mu1 + params.sigma1 * z[:, 0]
    y2 = (params.mu2 + params.sigma2
          * (params.r * z[:, 0] + math.sqrt(1.0 - params.r ** 2) * z[:, 1]))
    loss = LossMatrix(_seal(vasicek_ccr_loss(x[:, None], y1[None, :], y2[None, :], params)))
    mu = validate_marginal(np.full(n, 1.0 / n), labels=x.tolist())
    nu = validate_marginal(np.full(n, 1.0 / n),
                           labels=[(float(a), float(b)) for a, b in zip(y1, y2)])
    return mu, nu, loss


DEFAULT_CCR_PARAMS = CcrParams(pd1=0.02, pd2=0.02, rho1=0.2, rho2=0.2, r=0.5,
                               mu1=100.0, mu2=-100.0, sigma1=100.0, sigma2=100.0)


__all__ = [
    "CcrParams",
    "DEFAULT_CCR_PARAMS",
    "build_ccr_instance",
    "build_gaussian_linear_instance",
    "normal_cdf",
    "normal_inv_cdf",
    "vasicek_ccr_loss",
]
