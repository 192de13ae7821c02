"""
Empirical stability of the worst-case values under marginal perturbation.

The sweep perturbs the marginals on a dyadic schedule, re-solves the bound,
and records the value change against Wasserstein distances of the marginals
together with the Lipschitz/Holder upper bound

    |V - V'|  <=  C_q * (W_r(mu, mu') + W_r(nu, nu')) * ||sigma||_{r_q},

obtained by gluing optimal marginal couplings (the sum of marginal costs
dominates the product-space transport cost).  Prokhorov-metric statements
are evaluated through Wasserstein distances instead: on finite supports
W_1-convergence is equivalent to weak convergence.  W_r^r is an optimal
transport value, computed by ``bounds.solve_transport`` (the certified
column generation of ``solve_msp`` on the grid without levels) on the
ground cost rescaled to the unit range, so that the solver's absolute
tolerances hold at every ground scale.  Between labelled laws on the ground
of their labels (``ground_from_labels``) the column generation takes its
staircase in label order, the quantile coupling, which is optimal for
|x - y|^r.  Its tree potentials certify it, so each distance of a sweep is
one round with no LP model: only the value solves of the sweep reach HiGHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    DomainError,
    Coupling,
    InvalidHolderData,
    LossMatrix,
    NumericalFailure,
    ProbabilityVector,
    SpectralGrid,
    _label_coordinates,
    grid_sigma_norm,
    validate_marginal,
)
from .asymptotics import sample_empirical
from .bounds import solve_mes, solve_msp, solve_transport
from .riskmeasures import law_from_coupling, spectral_risk
from .rng import substream

_BOUND_SLACK = 1e-7
_QUOTIENT_ENTRIES = 1 << 20     # differences held at once by _difference_quotient
_RESAMPLE_BASE = 32            # resampling draws per 1/eps^2 in perturbation_sweep


def wasserstein_discrete(p: ProbabilityVector, q: ProbabilityVector,
                         ground: LossMatrix, r: float = 1.0) -> float:
    """W_r between two laws on a common support with the supplied ground
    metric (symmetry and zero diagonal are checked; the triangle inequality
    is the caller's contract).

    W_r^r = top * min_pi E_pi[d^r / top] with top = max |d^r|: a certified
    :func:`~riskbound.bounds.solve_transport`, whose cost lies in [-1, 1]
    whatever the scale of the ground, so that the solver's absolute
    tolerances are relative to top.  When both laws carry numeric labels
    and d^r is Monge in their order, as |x - y|^r is on the line, the solve
    takes the north-west corner in label order, whose staircase tree
    potentials certify it: one round, no LP model.  Otherwise its staircase
    sorts by mean cost, and the master runs when that tree does not certify
    it.  A ground that is zero everywhere gives 0.0 without a solve.
    """
    if r < 1.0:
        raise DomainError(f"Wasserstein order must satisfy r >= 1, got {r}")
    d = ground.values
    if d.shape != (p.size, q.size):
        raise DimensionMismatch("ground metric shape does not match the laws")
    if d.shape[0] == d.shape[1]:
        if np.abs(np.diagonal(d)).max(initial=0.0) > 1e-12 or np.abs(d - d.T).max(initial=0.0) > 1e-12:
            raise DomainError("ground matrix must be symmetric with zero diagonal")
    cost = d ** r
    top = float(np.abs(cost).max())
    if top == 0.0:
        return 0.0
    value = top * solve_transport(p, q, LossMatrix(cost / top), "min")[0]
    return float(value ** (1.0 / r)) if value > 0.0 else 0.0


def ground_from_labels(p: ProbabilityVector) -> LossMatrix:
    """|x_i - x_j| when numeric support coordinates are available, else the
    discrete 0/1 metric."""
    x = _label_coordinates(p.labels)
    if x is not None:
        return LossMatrix(np.abs(x[:, None] - x[None, :]))
    return LossMatrix(1.0 - np.eye(p.size))


def lipschitz_estimate(loss: LossMatrix, ground_x: LossMatrix, ground_y: LossMatrix) -> float:
    """Smallest C with |L(x,y) - L(x',y')| <= C (d_X(x,x') + d_Y(y,y')) over
    the support, via one-coordinate finite differences."""
    lv = loss.values
    return max(_difference_quotient(lv, ground_x.values),
               _difference_quotient(lv.T, ground_y.values))


def _difference_quotient(a: np.ndarray, d: np.ndarray) -> float:
    """max over i < i2 with d[i, i2] > 0 of max|a[i] - a[i2]| / d[i, i2];
    0.0 if no pair qualifies.  Rows i go in blocks against all later rows,
    so that each block's differences hold about ``_QUOTIENT_ENTRIES``
    entries (one row's at least)."""
    m, n = a.shape
    block = max(1, _QUOTIENT_ENTRIES // max(m * n, 1))
    best = 0.0
    for s in range(0, m - 1, block):
        rows = np.arange(s, min(s + block, m - 1))
        later = d[rows, s + 1:]
        pos = (later > 0.0) & (np.arange(s + 1, m)[None, :] > rows[:, None])
        if pos.any():
            diff = a[rows][:, None, :] - a[None, s + 1:, :]
            spread = np.abs(diff, out=diff).max(axis=2)
            best = max(best, float((spread[pos] / later[pos]).max()))
    return best


@dataclass(frozen=True)
class PerturbationRow:
    epsilon: float
    w_r_mu: float
    w_r_nu: float
    value: float
    delta_value: float
    bound: float


@dataclass(frozen=True)
class PerturbationReport:
    """Sweep outcome; construction verifies the bound on every row."""

    rows: tuple[PerturbationRow, ...]
    base_value: float
    lipschitz: float
    sigma_norm: float
    scheme: str
    loglog_slope: float

    def __post_init__(self) -> None:
        for row in self.rows:
            if math.isfinite(row.bound) and row.delta_value > row.bound + _BOUND_SLACK:
                raise NumericalFailure(
                    f"value change {row.delta_value} exceeds the bound {row.bound} "
                    f"at epsilon {row.epsilon}")


def _solve_value(mu, nu, loss, alpha_or_grid) -> float:
    if isinstance(alpha_or_grid, SpectralGrid):
        return solve_msp(mu, nu, loss, alpha_or_grid).value
    return solve_mes(mu, nu, loss, float(alpha_or_grid)).value


def _mix_with_uniform(p: ProbabilityVector, eps: float) -> ProbabilityVector:
    w = (1.0 - eps) * p.weights + eps / p.size
    return ProbabilityVector(w / w.sum(), labels=p.labels)


def _trend_slope(eps: np.ndarray, dv: np.ndarray) -> float:
    mask = dv > 1e-14
    if mask.sum() < 2:
        return math.inf  # no measurable change: decay is immediate
    le = np.log(eps[mask])
    lv = np.log(dv[mask])
    return float(np.polyfit(le, lv, 1)[0])


def perturbation_sweep(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                       alpha_or_grid, scheme: str = "mixing", steps: int = 8,
                       seed: int = 0, r: float = 1.0) -> PerturbationReport:
    """Dyadic perturbation schedule eps = 1, 1/2, ..., 2^{-(steps-1)},
    always closed by an exact eps = 0 row.

    ``mixing`` blends each marginal with the uniform law at weight eps;
    ``resampling`` replaces it by an empirical law of
    ceil(_RESAMPLE_BASE / eps^2) draws, _RESAMPLE_BASE = 32 (so the expected
    W_1 error scales like eps).  The recorded bound uses the finite-difference
    Lipschitz constant and the sup-norm of the grid spectrum; the trend
    statistic is the least-squares slope of log |delta V| against log eps
    (positive = vanishing error).
    """
    if scheme not in ("mixing", "resampling"):
        raise DomainError(f"unknown perturbation scheme {scheme!r}")
    if steps < 1:
        raise DomainError("steps must be positive")
    gx = ground_from_labels(mu)
    gy = ground_from_labels(nu)
    c_lip = lipschitz_estimate(loss, gx, gy)
    if isinstance(alpha_or_grid, SpectralGrid):
        norm = grid_sigma_norm(alpha_or_grid, np.inf)
    else:
        norm = 1.0 / (1.0 - float(alpha_or_grid))
    base = _solve_value(mu, nu, loss, alpha_or_grid)
    rows = []
    for s in range(steps):
        eps = 2.0 ** (-s)
        if scheme == "mixing":
            mu_e = _mix_with_uniform(mu, eps)
            nu_e = _mix_with_uniform(nu, eps)
        else:
            n = int(math.ceil(_RESAMPLE_BASE / eps ** 2))
            mu_e = sample_empirical(mu, n, substream(seed, 2 * s))
            nu_e = sample_empirical(nu, n, substream(seed, 2 * s + 1))
        w_mu = wasserstein_discrete(mu, mu_e, gx, r)
        w_nu = wasserstein_discrete(nu, nu_e, gy, r)
        value = _solve_value(mu_e, nu_e, loss, alpha_or_grid)
        rows.append(PerturbationRow(
            epsilon=float(eps), w_r_mu=float(w_mu), w_r_nu=float(w_nu),
            value=float(value), delta_value=float(abs(value - base)),
            bound=float(c_lip * (w_mu + w_nu) * norm)))
    slope = _trend_slope(np.array([r_.epsilon for r_ in rows]),
                         np.array([r_.delta_value for r_ in rows]))
    rows.append(PerturbationRow(epsilon=0.0, w_r_mu=0.0, w_r_nu=0.0,
                                value=base, delta_value=0.0, bound=0.0))
    return PerturbationReport(rows=tuple(rows), base_value=base, lipschitz=c_lip,
                              sigma_norm=norm, scheme=scheme, loglog_slope=slope)


def holder_sensitivity_check(loss: LossMatrix, pi1: Coupling, pi2: Coupling,
                             grid: SpectralGrid, c_q: float, q: float, r: float,
                             ground_x: LossMatrix, ground_y: LossMatrix,
                             r_q: float | None = None) -> tuple[float, float, bool]:
    """Risk difference under two couplings against the Holder sensitivity
    bound  C_q * W_r(pi1, pi2) * ||sigma||_{r_q}; the caller certifies that
    the loss is (q, C_q)-Holder for the supplied ground metrics."""
    if not (np.isfinite(c_q) and c_q > 0.0):
        raise InvalidHolderData(f"Holder constant must be positive, got {c_q}")
    if not (0.0 < q <= 1.0):
        raise InvalidHolderData(f"Holder exponent must lie in (0,1], got {q}")
    if r < 1.0 or r < q:
        raise InvalidHolderData(f"need r >= max(1, q), got r={r}, q={q}")
    min_rq = math.inf if r == q else r / (r - q)
    if r_q is None:
        r_q = min_rq
    elif r_q < min_rq - 1e-12:
        raise InvalidHolderData(f"r_q = {r_q} below the admissible r/(r-q) = {min_rq}")
    if pi1.matrix.shape != loss.shape or pi2.matrix.shape != loss.shape:
        raise DimensionMismatch("couplings must be loss-shaped")
    lhs = abs(spectral_risk(law_from_coupling(loss, pi1), grid)
              - spectral_risk(law_from_coupling(loss, pi2), grid))
    nx, ny = loss.shape
    dx = ground_x.values
    dy = ground_y.values
    prod = (dx[:, None, :, None] + dy[None, :, None, :]).reshape(nx * ny, nx * ny)
    w = wasserstein_discrete(validate_marginal(pi1.matrix.ravel()),
                             validate_marginal(pi2.matrix.ravel()),
                             LossMatrix(prod), r)
    rhs = c_q * w * grid_sigma_norm(grid, r_q)
    return lhs, rhs, bool(lhs <= rhs + _BOUND_SLACK)


__all__ = [
    "PerturbationReport",
    "PerturbationRow",
    "ground_from_labels",
    "holder_sensitivity_check",
    "lipschitz_estimate",
    "perturbation_sweep",
    "wasserstein_discrete",
]
