"""
Quantiles, Expected Shortfall, and spectral risk measures on finite laws.

Expected Shortfall is computed by three equivalent routes, kept separate so
they can cross-check each other:

1. ``es_tail_average``        -- exact Lebesgue integral of the quantile
                                 function over [alpha, 1];
2. ``es_rockafellar_uryasev`` -- minimum of g(b) = b + (1-a)^{-1} E[(L-b)+],
                                 with the full minimizer interval;
3. ``es_dual_density``        -- the maximizing density bounded by
                                 (1-a)^{-1}, whose L-expectation equals ES.

The quantile convention is the left-continuous generalized inverse
F^{<-}(a) = inf{x : P(L <= x) >= a}, with a 1e-12 slack on the >= test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    DimensionMismatch,
    LossMatrix,
    ProbabilityVector,
    SpectralGrid,
    _eq_by_value,
    _require_alpha,
    validate_marginal,
)

_CUM_SLACK = 1e-12


@dataclass(frozen=True)
class DiscreteLaw:
    """A finitely supported loss law: loss values with matching probabilities."""

    losses: np.ndarray
    probs: ProbabilityVector

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.losses, dtype=float)
        if x.ndim != 1:
            raise DimensionMismatch("losses must be 1-D")
        if x.size != self.probs.size:
            raise DimensionMismatch(
                f"{x.size} losses vs {self.probs.size} probabilities"
            )
        x.flags.writeable = False
        object.__setattr__(self, "losses", x)

    @property
    def size(self) -> int:
        return int(self.losses.size)

    def mean(self) -> float:
        return float(np.dot(self.losses, self.probs.weights))

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Support and probabilities sorted by loss value (stable)."""
        order = np.argsort(self.losses, kind="stable")
        return self.losses[order], self.probs.weights[order]


def law_from_coupling(loss: LossMatrix, pi: Coupling) -> DiscreteLaw:
    """Push a coupling through the loss: the law of L(X,Y) on the line, with
    one atom per cell of the coupling's support, in its order."""
    if loss.shape != pi.shape:
        raise DimensionMismatch("loss and coupling shapes differ")
    return DiscreteLaw(loss.values.ravel()[pi.index], validate_marginal(pi.values))


def uniform_law(losses) -> DiscreteLaw:
    x = np.asarray(losses, dtype=float)
    return DiscreteLaw(x, validate_marginal(np.full(x.size, 1.0 / x.size)))


def var(law: DiscreteLaw, alpha: float) -> float:
    """Left-continuous quantile inf{x : P(L <= x) >= alpha} on the finite support."""
    return float(var_levels(law, [alpha])[0])


def var_levels(law: DiscreteLaw, levels) -> np.ndarray:
    """:func:`var` at each of ``levels``, from one sort of the law and one
    ``searchsorted`` over all levels; an index past the last atom (rounding
    of the cumulative sum) is clipped to it."""
    u = np.asarray(levels, dtype=float)
    for a in u:
        _require_alpha(a)
    if not u.size:
        return np.empty(0)
    xs, ps = law.sorted()
    idx = np.searchsorted(np.cumsum(ps), u - _CUM_SLACK, side="left")
    return xs[np.minimum(idx, xs.size - 1)]


def es_tail_average(law: DiscreteLaw, alpha: float) -> float:
    """(1-alpha)^{-1} * integral of the quantile function over [alpha, 1].

    Exact on the piecewise-constant quantile function; alpha = 0 gives the mean.
    """
    _require_alpha(alpha, allow_zero=True)
    if alpha == 0.0:
        return law.mean()
    xs, ps = law.sorted()
    hi = np.minimum(np.cumsum(ps), 1.0)
    lo = np.concatenate([[0.0], hi[:-1]])
    seg = np.clip(hi - np.maximum(lo, alpha), 0.0, None)
    return float(np.dot(xs, seg) / (1.0 - alpha))


def es_rockafellar_uryasev(law: DiscreteLaw, alpha: float) -> tuple[float, float, float]:
    """Minimize g(b) = b + (1-alpha)^{-1} E[(L-b)+] over b.

    g is piecewise linear with kinks only at support points, so scanning the
    support is exact.  Returns (minimum value, argmin lower end, argmin upper
    end); the argmin is the interval {b : P(L > b) <= 1-alpha <= P(L >= b)}.
    """
    a = _require_alpha(alpha)
    xs, ps = law.sorted()
    # merge tied support values so the tail probabilities are exact
    xu, first = np.unique(xs, return_index=True)
    pu = np.add.reduceat(ps, first)
    inv = 1.0 / (1.0 - a)
    gvals = xu + inv * np.array([np.dot(np.clip(xu - b, 0.0, None), pu) for b in xu])
    value = float(gvals.min())
    cum = np.cumsum(pu)
    p_gt = 1.0 - cum                               # P(L > x_k)
    p_ge = 1.0 - np.concatenate([[0.0], cum[:-1]])  # P(L >= x_k)
    feasible = (p_gt <= (1.0 - a) + _CUM_SLACK) & (p_ge >= (1.0 - a) - _CUM_SLACK)
    if not feasible.any():  # cannot happen for a valid law; guard for round-off
        feasible = gvals <= value + 1e-12
    lo = float(xu[np.argmax(feasible)])
    hi = float(xu[xu.size - 1 - np.argmax(feasible[::-1])])
    return value, lo, hi


def es_dual_density(law: DiscreteLaw, alpha: float) -> ProbabilityVector:
    """The maximizing measure of the ES dual representation, per support atom.

    Density (1-alpha)^{-1} (1_{L > q} + kappa 1_{L = q}) against the law, with
    q the alpha-quantile and kappa = ((1-alpha) - P(L > q)) / P(L = q) when
    P(L = q) > 0.  Weights are returned in the law's original atom order.
    """
    a = _require_alpha(alpha)
    q = var(law, a)
    p = law.probs.weights
    x = law.losses
    p_gt = float(p[x > q].sum())
    p_eq = float(p[x == q].sum())
    kappa = 0.0 if p_eq == 0.0 else ((1.0 - a) - p_gt) / p_eq
    inv = 1.0 / (1.0 - a)
    theta = inv * p * ((x > q) + kappa * (x == q))
    # round-off guard: the construction sums to 1 exactly in exact arithmetic
    theta = np.clip(theta, 0.0, None)
    return validate_marginal(theta / theta.sum() if abs(theta.sum() - 1.0) < 1e-9 else theta)


def spectral_risk(law: DiscreteLaw, grid: SpectralGrid) -> float:
    """Mixture of Expected Shortfalls against a spectral grid:
    z0 * mean + sum_k w_k * ES_{u_k}."""
    total = grid.z0 * law.mean() if grid.z0 else 0.0
    for u, w in zip(grid.levels, grid.weights):
        total += w * es_tail_average(law, float(u))
    return float(total)


__all__ = [
    "DiscreteLaw",
    "es_dual_density",
    "es_rockafellar_uryasev",
    "es_tail_average",
    "law_from_coupling",
    "spectral_risk",
    "uniform_law",
    "var",
    "var_levels",
]
