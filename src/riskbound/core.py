"""
Domain types for dependence-uncertainty risk bounds.

Everything downstream works with four kinds of objects:

- ``ProbabilityVector`` -- a marginal law on a finite support.
- ``LossMatrix``        -- the loss evaluated on the product of two supports.
- ``Coupling``          -- a joint law with prescribed marginals.
- ``SpectralFunction`` / ``SpectralGrid`` -- a risk spectrum sigma and its
  mixing-measure decomposition.

The spectral calculus implemented here: a nonnegative, nondecreasing,
right-continuous sigma on [0,1) with unit integral induces

- ``gamma``: the measure whose distribution function is sigma, and
- ``Gamma``: the probability measure with d(Gamma) = (1-u) d(gamma),

which turns a sigma-weighted average of quantiles into a Gamma-weighted
average of Expected Shortfalls.  ``Gamma`` may place an atom ``z0 = sigma(0)``
at u = 0 (the mean term); the part on (0,1) is discretized to a finite
``SpectralGrid``.  Grids are exact for atomic Gamma (Expected Shortfall,
piecewise-constant sigma) and equal-mass midpoint quantizations otherwise.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Sequence

import numpy as np

# Input-validation and structural tolerances (double precision headroom
# above simplex round-off; see individual checks).
WEIGHT_TOL = 1e-12      # probability vectors: |sum - 1| below this renormalizes
COUPLING_TOL = 1e-9     # couplings: marginal residual allowance
SIGMA_NORM_TOL = 1e-8   # spectral functions: |integral - 1| allowance
GRID_MASS_TOL = 1e-10   # spectral grids: |z0 + sum(w) - 1| allowance

# Boundedness cap for the square-root spectrum family; sigma is evaluated
# as constant on [POWER_SQRT_UMAX, 1).
POWER_SQRT_UMAX = 1.0 - 1e-6


# ---------------------------------------------------------------------------
# Semantic errors
# ---------------------------------------------------------------------------


class RiskBoundError(Exception):
    """Base error for the riskbound package."""


class NegativeWeight(RiskBoundError):
    """A probability weight is negative."""


class SumNotOne(RiskBoundError):
    """Probability weights do not sum to one within tolerance."""


class Empty(RiskBoundError):
    """An empty support was supplied."""


class AlphaOutOfRange(RiskBoundError):
    """Confidence level outside its admissible interval."""


class InvalidSpectrum(RiskBoundError):
    """Spectral function violates nonnegativity/monotonicity/normalization."""


class DimensionMismatch(RiskBoundError):
    """Array dimensions are inconsistent."""


class NumericalFailure(RiskBoundError):
    """A numerical routine could not certify its result."""


class ProblemTooLarge(RiskBoundError):
    """Instance exceeds the documented desk-scale envelope."""


class CertificateInvalid(RiskBoundError):
    """A dual certificate violates its feasibility constraints."""


class DirectionNotTangent(RiskBoundError):
    """Perturbation direction is not tangent to the probability simplex."""


class TooFewSamples(RiskBoundError):
    """Not enough samples for the requested statistic."""


class InvalidHolderData(RiskBoundError):
    """Holder-continuity data (constant, exponents) are inadmissible."""


class InvalidParams(RiskBoundError):
    """Model parameters outside their admissible ranges."""


class DomainError(RiskBoundError):
    """Function argument outside its mathematical domain."""


# ---------------------------------------------------------------------------
# Probability vectors and loss matrices
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    out.flags.writeable = False
    return out


def _eq_by_value(self, other) -> bool:
    """``==`` of a frozen dataclass that holds arrays: the same type and
    equal compared fields, arrays by ``np.array_equal`` (shape and values),
    anything else by ``==``.  The generated ``==`` would compare arrays
    elementwise and raise numpy's ambiguous-truth ``ValueError``."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                    else a == b):
                return False
    return True


@dataclass(frozen=True)
class ProbabilityVector:
    """A finite marginal law: nonnegative weights summing to one.

    ``labels`` optionally carries support-point identifiers (for empirical
    laws these are the sampled coordinates); they take no part in any
    computation except ground-metric construction.
    """

    weights: np.ndarray
    labels: tuple | None = None

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise Empty("probability vector must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(w)):
            raise NegativeWeight("probability weights must be finite")
        if np.any(w < 0.0):
            raise NegativeWeight(f"negative weight at index {int(np.argmin(w))}: {w.min()}")
        s = float(w.sum())
        dev = abs(s - 1.0)
        if dev >= WEIGHT_TOL:
            raise SumNotOne(f"weights sum to {s!r}, deviation {dev:.3e} >= {WEIGHT_TOL}")
        if dev != 0.0:
            w = w / s
        if self.labels is not None and len(self.labels) != w.size:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {w.size} weights"
            )
        object.__setattr__(self, "weights", _freeze(w))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def validate_marginal(weights: Sequence[float], labels: Sequence | None = None) -> ProbabilityVector:
    """Validate raw weights into a :class:`ProbabilityVector`.

    Raises :class:`NegativeWeight`, :class:`SumNotOne` (deviation >= 1e-12)
    or :class:`Empty`.  Sums deviating by less than 1e-12 are renormalized.
    """
    return ProbabilityVector(np.asarray(weights, dtype=float), labels=tuple(labels) if labels is not None else None)


def _require_alpha(alpha: float, allow_zero: bool = False) -> float:
    """``alpha`` as a float when it lies in (0,1), or in [0,1) with
    ``allow_zero``; ``AlphaOutOfRange`` otherwise (NaN included)."""
    lo_ok = alpha >= 0.0 if allow_zero else alpha > 0.0
    if not (lo_ok and alpha < 1.0):
        interval = "[0,1)" if allow_zero else "(0,1)"
        raise AlphaOutOfRange(f"alpha must lie in {interval}, got {alpha}")
    return float(alpha)


def _label_coordinates(labels: Sequence | None) -> np.ndarray | None:
    """The labels as support coordinates on the line when every one is an
    int or a float; None when there are no labels or one is not a number."""
    if labels is not None and all(isinstance(v, (int, float)) for v in labels):
        return np.asarray(labels, dtype=float)
    return None


@dataclass(frozen=True)
class LossMatrix:
    """Loss values L(x_i, y_j) on the product of two finite supports."""

    values: np.ndarray

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise DimensionMismatch("loss matrix must be a nonempty 2-D array")
        if not np.all(np.isfinite(v)):
            raise NumericalFailure("loss matrix contains non-finite entries")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]


def check_instance(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix) -> None:
    """Require loss dimensions to match the paired marginals."""
    if loss.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"loss is {loss.shape[0]}x{loss.shape[1]} but marginals are {mu.size} and {nu.size}"
        )


class _DenseView:
    """A dataclass field that the constructor takes, and the object holds by
    its support: reading it gives a read-only dense array.

    The generated ``__init__`` parks its argument in the object's ``_dense``
    dict, where ``__post_init__`` takes it to build the support form.  The
    dict is then the cache of the dense view, built by ``build(obj)`` on
    first read.  Reading the field on the class raises ``AttributeError``,
    so the field has no default."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        views = obj.__dict__["_dense"]
        if self.name not in views:
            views[self.name] = _freeze(self.build(obj))
        return views[self.name]

    def __set__(self, obj, value) -> None:
        obj.__dict__.setdefault("_dense", {})[self.name] = value


def _spread(shape: tuple, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense array of ``values``, (..., s), on the row-major flat
    ``index`` of ``shape``, with zeros elsewhere: (..., *shape)."""
    lead = values.shape[:-1]
    out = np.zeros(lead + (math.prod(shape),))
    out[..., index] = values
    return out.reshape(lead + tuple(shape))


def _support(shape: tuple, index, values, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``index`` and ``values`` of an array of ``shape`` held by its support,
    checked: one finite value per index, and integer indices that increase
    strictly within the array.  ``DimensionMismatch``, or
    ``NumericalFailure`` for a value that is not finite, naming ``name``."""
    index = np.asarray(index)
    values = np.asarray(values, dtype=float)
    if index.ndim != 1 or index.shape != values.shape:
        raise DimensionMismatch(f"{name}: {index.size} indices for {values.size} values")
    if index.size and index.dtype.kind not in "iu":
        raise DimensionMismatch(f"{name}: indices must be integers")
    size = math.prod(shape)
    if index.size and (index[0] < 0 or index[-1] >= size or np.any(np.diff(index) <= 0)):
        raise DimensionMismatch(f"{name}: indices must increase strictly within [0, {size})")
    if not np.all(np.isfinite(values)):
        raise NumericalFailure(f"{name} contains non-finite entries")
    return index.astype(np.int64, copy=False), values


@dataclass(frozen=True)
class Coupling:
    """A joint probability matrix held by its support; marginal agreement is
    checked on request.

    ``index`` holds the row-major flat indices of the cells, strictly
    increasing, and ``values`` the mass on each; every other cell is 0.
    Cells of zero mass may be listed.  ``matrix`` is the dense
    ``shape``-sized view, read-only, built on first read.  ``Coupling(matrix)``
    takes a dense array, whose support is its nonzero cells;
    :meth:`from_support` takes the support form.  Either way entries must
    be finite and no lower than -1e-9, and those below 0 are set to 0.
    Couplings are ``==`` when their dense matrices are, whichever cells of
    zero mass their supports list."""

    matrix: np.ndarray = _DenseView(lambda c: _spread(c.shape, c.index, c.values))
    shape: tuple[int, int] = field(init=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        m = np.asarray(self._dense.pop("matrix"), dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise DimensionMismatch("coupling must be a nonempty 2-D array")
        index = np.flatnonzero(m)
        self._hold(m.shape, index, m.ravel()[index])

    @classmethod
    def from_support(cls, shape: tuple[int, int], index, values) -> "Coupling":
        """The coupling of ``shape`` with mass ``values`` on the row-major
        flat ``index``, which must increase strictly within the shape."""
        shape = tuple(shape)
        if len(shape) != 2 or min(shape) < 1:
            raise DimensionMismatch(f"coupling shape {shape} is not a nonempty 2-D shape")
        pi = object.__new__(cls)
        object.__setattr__(pi, "_dense", {})
        pi._hold(shape, index, values)
        return pi

    def _hold(self, shape: tuple, index, values) -> None:
        index, values = _support(shape, index, values, "coupling")
        if values.size and values.min() < -COUPLING_TOL:
            raise NegativeWeight(f"coupling entry {values.min()} below -{COUPLING_TOL}")
        index = np.array(index, dtype=np.int64)
        index.flags.writeable = False
        object.__setattr__(self, "shape", (int(shape[0]), int(shape[1])))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", _freeze(np.where(values < 0.0, 0.0, values)))

    def marginal_residuals(self, mu: ProbabilityVector, nu: ProbabilityVector
                           ) -> tuple[float, float]:
        i, j = np.divmod(self.index, self.shape[1])
        rows = np.bincount(i, weights=self.values, minlength=self.shape[0])
        cols = np.bincount(j, weights=self.values, minlength=self.shape[1])
        return float(np.abs(rows - mu.weights).max()), float(np.abs(cols - nu.weights).max())

    def require_marginals(self, mu: ProbabilityVector, nu: ProbabilityVector) -> None:
        if self.shape != (mu.size, nu.size):
            raise DimensionMismatch("coupling shape does not match marginals")
        r, c = self.marginal_residuals(mu, nu)
        if r > COUPLING_TOL or c > COUPLING_TOL:
            raise NumericalFailure(
                f"coupling marginal residuals ({r:.3e}, {c:.3e}) exceed {COUPLING_TOL}"
            )


def coupling_between(matrix: np.ndarray, mu: ProbabilityVector, nu: ProbabilityVector) -> Coupling:
    """Construct a coupling and verify it lies in Pi(mu, nu)."""
    pi = Coupling(matrix)
    pi.require_marginals(mu, nu)
    return pi


# ---------------------------------------------------------------------------
# Spectral functions
# ---------------------------------------------------------------------------

_SIGMA_KINDS = ("expected-shortfall", "piecewise-constant", "power-sqrt", "table")


@dataclass(frozen=True)
class SpectralFunction:
    """A risk spectrum: nonnegative, nondecreasing, right-continuous on [0,1),
    bounded, with unit integral.

    Kinds
    -----
    expected-shortfall(alpha)
        sigma = (1-alpha)^{-1} 1_{[alpha,1)}.
    piecewise-constant(breakpoints, levels)
        sigma = levels[m] on [t_m, t_{m+1}); ``breakpoints`` are the interior
        t_1 < ... < t_{M-1}; the outer endpoints 0 and 1 are implicit.
    power-sqrt
        sigma(u) = 3(1 - sqrt(1-u)), capped at u = 1 - 1e-6 to stay bounded.
    table(u, sigma)
        continuous piecewise-linear interpolation of nodes (u_i, sigma_i)
        with u_0 = 0 and u_last = 1 (the final node is read as the left
        limit at 1).
    """

    kind: str
    alpha: float | None = None
    breakpoints: np.ndarray | None = None
    levels: np.ndarray | None = None
    table_u: np.ndarray | None = None
    table_sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SIGMA_KINDS:
            raise InvalidSpectrum(f"unknown spectral kind {self.kind!r}")
        if self.kind == "expected-shortfall":
            a = self.alpha
            if a is None or not (0.0 <= a < 1.0):
                raise AlphaOutOfRange(f"expected-shortfall level must lie in [0,1), got {a}")
        elif self.kind == "piecewise-constant":
            b = np.asarray([] if self.breakpoints is None else self.breakpoints, dtype=float)
            s = np.asarray(self.levels, dtype=float)
            if s.ndim != 1 or s.size == 0:
                raise InvalidSpectrum("piecewise-constant sigma needs at least one level")
            if b.size != s.size - 1:
                raise InvalidSpectrum("need exactly len(levels) - 1 interior breakpoints")
            if b.size and not (b.min() > 0.0 and b.max() < 1.0 and np.all(np.diff(b) > 0.0)):
                raise InvalidSpectrum("interior breakpoints must be strictly increasing in (0,1)")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(np.diff(s) < 0.0):
                raise InvalidSpectrum("sigma levels must be finite, nonnegative and nondecreasing")
            edges = np.concatenate([[0.0], b, [1.0]])
            total = float(np.sum(s * np.diff(edges)))
            if abs(total - 1.0) > SIGMA_NORM_TOL:
                raise InvalidSpectrum(f"sigma integrates to {total}, not 1")
            object.__setattr__(self, "breakpoints", _freeze(b))
            object.__setattr__(self, "levels", _freeze(s))
        elif self.kind == "table":
            u = np.asarray(self.table_u, dtype=float)
            s = np.asarray(self.table_sigma, dtype=float)
            if u.ndim != 1 or u.size < 2 or u.shape != s.shape:
                raise InvalidSpectrum("table needs matching u/sigma arrays with >= 2 nodes")
            if u[0] != 0.0 or u[-1] != 1.0 or not np.all(np.diff(u) > 0.0):
                raise InvalidSpectrum("table nodes must increase strictly from 0 to 1")
            if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(np.diff(s) < -1e-15):
                raise InvalidSpectrum("table sigma must be finite, nonnegative and nondecreasing")
            total = float(np.trapezoid(s, u))
            if abs(total - 1.0) > SIGMA_NORM_TOL:
                raise InvalidSpectrum(f"sigma integrates to {total}, not 1")
            object.__setattr__(self, "table_u", _freeze(u))
            object.__setattr__(self, "table_sigma", _freeze(s))
        # power-sqrt carries no parameters; the cap is a module constant.

    # -- factories ---------------------------------------------------------

    @classmethod
    def expected_shortfall(cls, alpha: float) -> "SpectralFunction":
        return cls(kind="expected-shortfall", alpha=float(alpha))

    @classmethod
    def piecewise_constant(cls, breakpoints: Sequence[float], levels: Sequence[float]) -> "SpectralFunction":
        return cls(kind="piecewise-constant",
                   breakpoints=np.asarray(breakpoints, dtype=float),
                   levels=np.asarray(levels, dtype=float))

    @classmethod
    def flat(cls) -> "SpectralFunction":
        """sigma identically one: the plain optimal-transport case."""
        return cls.piecewise_constant([], [1.0])

    @classmethod
    def power_sqrt(cls) -> "SpectralFunction":
        return cls(kind="power-sqrt")

    @classmethod
    def table(cls, u: Sequence[float], sigma: Sequence[float]) -> "SpectralFunction":
        return cls(kind="table", table_u=np.asarray(u, dtype=float),
                   table_sigma=np.asarray(sigma, dtype=float))

    # -- evaluation --------------------------------------------------------

    def sigma(self, u: np.ndarray | float) -> np.ndarray | float:
        """Evaluate sigma pointwise on [0,1)."""
        uu = np.asarray(u, dtype=float)
        if self.kind == "expected-shortfall":
            out = np.where(uu >= self.alpha, 1.0 / (1.0 - self.alpha), 0.0)
        elif self.kind == "piecewise-constant":
            edges = np.concatenate([self.breakpoints, [np.inf]])
            idx = np.searchsorted(edges, uu, side="right")
            out = self.levels[idx]
        elif self.kind == "power-sqrt":
            capped = np.minimum(uu, POWER_SQRT_UMAX)
            out = 3.0 * (1.0 - np.sqrt(1.0 - capped))
        else:  # table
            out = np.interp(uu, self.table_u, self.table_sigma)
        return out if np.ndim(u) else float(out)

    @property
    def z0(self) -> float:
        """Mass of gamma (and Gamma) at u = 0, i.e. sigma(0)."""
        return float(self.sigma(0.0))

    def sup_norm(self) -> float:
        if self.kind == "expected-shortfall":
            return 1.0 / (1.0 - self.alpha)
        if self.kind == "piecewise-constant":
            return float(self.levels[-1])
        if self.kind == "power-sqrt":
            return float(self.sigma(POWER_SQRT_UMAX))
        return float(self.table_sigma[-1])


# -- Gamma-tilde cumulative mass (the part of Gamma on (0,1)) ---------------


def _gamma_tilde_cdf(sf: SpectralFunction, u: np.ndarray) -> np.ndarray:
    """Cumulative Gamma-mass on (0, u] for the continuous kinds.

    Uses the closed-form antiderivatives: d(Gamma) = (1-u) sigma'(u) du away
    from atoms.
    """
    u = np.asarray(u, dtype=float)
    if sf.kind == "power-sqrt":
        # density (3/2) sqrt(1-u) on (0, umax); cdf 1 - (1-u)^{3/2}
        capped = np.minimum(u, POWER_SQRT_UMAX)
        return 1.0 - (1.0 - capped) ** 1.5
    if sf.kind == "table":
        nodes = sf.table_u
        slopes = np.diff(sf.table_sigma) / np.diff(nodes)
        # per-piece Gamma mass: slope * [(1-a)^2 - (1-b)^2] / 2
        a, b = nodes[:-1], nodes[1:]
        piece = slopes * ((1.0 - a) ** 2 - (1.0 - b) ** 2) / 2.0
        cum = np.concatenate([[0.0], np.cumsum(piece)])
        idx = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, len(slopes) - 1)
        ua = nodes[idx]
        part = slopes[idx] * ((1.0 - ua) ** 2 - (1.0 - np.maximum(u, ua)) ** 2) / 2.0
        return cum[idx] + part
    raise InvalidSpectrum(f"no continuous Gamma cdf for kind {sf.kind!r}")


def _gamma_tilde_quantile(sf: SpectralFunction, mass: np.ndarray) -> np.ndarray:
    """Invert the raw Gamma-tilde cdf at the requested masses."""
    mass = np.asarray(mass, dtype=float)
    if sf.kind == "power-sqrt":
        return 1.0 - (1.0 - mass) ** (2.0 / 3.0)
    # generic monotone bisection on the closed-form cdf
    lo = np.zeros_like(mass)
    hi = np.ones_like(mass)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _gamma_tilde_cdf(sf, mid) < mass
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Spectral grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralGrid:
    """Finite decomposition of Gamma: atom ``z0`` at u = 0 plus weighted
    levels in (0,1).  ``gamma_weights``, derived and never passed, are the
    matching gamma-masses g_k = w_k / (1 - u_k)."""

    z0: float
    levels: np.ndarray
    weights: np.ndarray
    gamma_weights: np.ndarray = field(init=False)

    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        u = np.asarray(self.levels, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if u.shape != w.shape or u.ndim != 1:
            raise DimensionMismatch("levels and weights must be matching 1-D arrays")
        if u.size and (u.min() <= 0.0 or u.max() >= 1.0 or np.any(np.diff(u) <= 0.0)):
            raise InvalidSpectrum("grid levels must be strictly increasing in (0,1)")
        if np.any(w <= 0.0):
            raise InvalidSpectrum("grid weights must be strictly positive")
        if not (0.0 <= self.z0 <= 1.0 + GRID_MASS_TOL):
            raise InvalidSpectrum(f"z0 = {self.z0} outside [0,1]")
        total = float(self.z0 + w.sum())
        if abs(total - 1.0) > GRID_MASS_TOL:
            raise InvalidSpectrum(f"grid mass {total} deviates from 1 beyond {GRID_MASS_TOL}")
        object.__setattr__(self, "z0", float(self.z0))
        object.__setattr__(self, "levels", _freeze(u))
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "gamma_weights", _freeze(w / (1.0 - u)))

    @property
    def n_levels(self) -> int:
        return int(self.levels.size)

    @classmethod
    def dirac(cls, alpha: float) -> "SpectralGrid":
        """Gamma = delta_alpha: the plain Expected Shortfall case.

        Every solve builds one, so the fields are set directly: with alpha in
        (0,1) the checks of ``__post_init__`` hold by construction."""
        u = np.array([_require_alpha(alpha)])
        w = np.ones(1)
        grid = object.__new__(cls)
        object.__setattr__(grid, "z0", 0.0)
        object.__setattr__(grid, "levels", _freeze(u))
        object.__setattr__(grid, "weights", _freeze(w))
        object.__setattr__(grid, "gamma_weights", _freeze(w / (1.0 - u)))
        return grid


def discretize_spectrum(sigma: SpectralFunction, K: int) -> SpectralGrid:
    """Decompose Gamma_sigma into a :class:`SpectralGrid`.

    Expected-shortfall and piecewise-constant (and hence flat) spectra have
    purely atomic Gamma, so the grid is exact and independent of ``K``.
    Continuous kinds are quantized into ``K`` bins of equal Gamma-mass with
    each bin represented at its conditional median level; the boundedness
    cap's mass deficit (<= 1e-9 for power-sqrt) folds back proportionally so
    the grid mass is exactly 1 - z0.
    """
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise InvalidSpectrum(f"K must be a positive integer, got {K!r}")
    if sigma.kind == "expected-shortfall":
        if sigma.alpha == 0.0:
            # sigma identically 1: all mass at u = 0
            return SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))
        return SpectralGrid.dirac(sigma.alpha)
    if sigma.kind == "piecewise-constant":
        z0 = float(sigma.levels[0])
        jumps = np.diff(sigma.levels)
        keep = jumps > 0.0
        t = sigma.breakpoints[keep]
        w = (1.0 - t) * jumps[keep]
        # fold any normalization slack (within SIGMA_NORM_TOL) into the weights
        if w.size:
            w = w * (1.0 - z0) / w.sum()
        elif abs(z0 - 1.0) > GRID_MASS_TOL:
            raise InvalidSpectrum("atomless remainder with z0 != 1")
        else:
            z0 = 1.0
        return SpectralGrid(z0=z0, levels=t, weights=w)
    # continuous kinds: equal-mass midpoint quantization of Gamma-tilde
    z0 = sigma.z0
    total = float(_gamma_tilde_cdf(sigma, np.array([1.0 - 1e-15]))[0])
    if total <= 0.0:
        if abs(z0 - 1.0) > GRID_MASS_TOL:
            raise InvalidSpectrum("continuous sigma with no Gamma mass and z0 != 1")
        return SpectralGrid(z0=1.0, levels=np.array([]), weights=np.array([]))
    mids = (np.arange(K) + 0.5) / K * total
    levels = _gamma_tilde_quantile(sigma, mids)
    weights = np.full(K, (1.0 - z0) / K)
    return SpectralGrid(z0=z0, levels=levels, weights=weights)


def grid_sigma_values(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Step representation of the sigma induced by a grid.

    Returns (edges, values): sigma = values[m] on [edges[m], edges[m+1]),
    reconstructed as the distribution function of the grid's gamma-masses.
    Used for computing Lebesgue norms of sigma exactly.
    """
    edges = np.concatenate([[0.0], grid.levels, [1.0]])
    values = grid.z0 + np.concatenate([[0.0], np.cumsum(grid.gamma_weights)])
    return edges, values


def grid_sigma_norm(grid: SpectralGrid, p: float) -> float:
    """Lebesgue p-norm (p may be inf) of the grid's step sigma on [0,1]."""
    edges, values = grid_sigma_values(grid)
    if math.isinf(p):
        return float(values[-1])
    if p < 1.0:
        raise DomainError(f"norm order must satisfy p >= 1, got {p}")
    lengths = np.diff(edges)
    return float(np.sum(values ** p * lengths) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Instance (de)serialization
# ---------------------------------------------------------------------------


def sigma_to_dict(sf: SpectralFunction) -> dict[str, Any]:
    if sf.kind == "expected-shortfall":
        return {"kind": sf.kind, "alpha": sf.alpha}
    if sf.kind == "piecewise-constant":
        return {"kind": sf.kind, "breakpoints": sf.breakpoints.tolist(),
                "levels": sf.levels.tolist()}
    if sf.kind == "power-sqrt":
        return {"kind": sf.kind}
    return {"kind": sf.kind, "u": sf.table_u.tolist(), "sigma": sf.table_sigma.tolist()}


def _numbers(d: dict, name: str, error: type[RiskBoundError], prefix: str = "") -> np.ndarray:
    """Field ``name`` of a decoded JSON object as a float array; ``error``
    naming the field when it is missing or not (a rectangular list of) finite number(s)."""
    try:
        out = np.asarray(d[name], dtype=float)
    except KeyError:
        raise error(f"missing field '{prefix}{name}'") from None
    except (TypeError, ValueError):
        raise error(f"field '{prefix}{name}' must be a number or a rectangular list of "
                    "numbers") from None
    if not np.all(np.isfinite(out)):
        raise error(f"field '{prefix}{name}' must hold finite numbers")
    return out


def sigma_from_dict(d: dict[str, Any]) -> SpectralFunction:
    """Decode a spectrum; malformed input raises ``InvalidSpectrum`` naming
    the field."""
    if not isinstance(d, dict):
        raise InvalidSpectrum("field 'sigma' must be an object with a 'kind'")
    kind = d.get("kind")
    if kind == "expected-shortfall":
        alpha = _numbers(d, "alpha", InvalidSpectrum, "sigma.")
        if alpha.ndim:
            raise InvalidSpectrum("field 'sigma.alpha' must be a number")
        return SpectralFunction.expected_shortfall(float(alpha))
    if kind == "piecewise-constant":
        return SpectralFunction.piecewise_constant(
            _numbers({"breakpoints": [], **d}, "breakpoints", InvalidSpectrum, "sigma."),
            _numbers(d, "levels", InvalidSpectrum, "sigma."))
    if kind == "power-sqrt":
        return SpectralFunction.power_sqrt()
    if kind == "table":
        return SpectralFunction.table(_numbers(d, "u", InvalidSpectrum, "sigma."),
                                      _numbers(d, "sigma", InvalidSpectrum, "sigma."))
    raise InvalidSpectrum(f"unknown spectral kind {kind!r}")


def instance_to_dict(mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                     sigma: SpectralFunction | None = None) -> dict[str, Any]:
    """Serialize an instance to the interchange schema
    ``{"mu": [...], "nu": [...], "loss": [[...]], "sigma": {...}}``.

    Numeric support coordinates, when known, travel in the optional
    ``x_support`` / ``y_support`` fields.
    """
    out: dict[str, Any] = {
        "mu": mu.weights.tolist(),
        "nu": nu.weights.tolist(),
        "loss": loss.values.tolist(),
    }
    if sigma is not None:
        out["sigma"] = sigma_to_dict(sigma)
    if _label_coordinates(mu.labels) is not None:
        out["x_support"] = list(mu.labels)
    if _label_coordinates(nu.labels) is not None:
        out["y_support"] = list(nu.labels)
    return out


def instance_from_dict(d: dict[str, Any]) -> tuple[ProbabilityVector, ProbabilityVector,
                                                    LossMatrix, SpectralFunction | None]:
    """Decode an instance; malformed input raises ``DimensionMismatch`` or
    ``InvalidSpectrum`` naming the field."""
    if not isinstance(d, dict):
        raise DimensionMismatch("instance must be an object with fields 'mu', 'nu' and 'loss'")
    for name in ("x_support", "y_support"):
        if not isinstance(d.get(name, []), list):
            raise DimensionMismatch(f"field {name!r} must be a list of labels")
    mu = validate_marginal(_numbers(d, "mu", DimensionMismatch), labels=d.get("x_support"))
    nu = validate_marginal(_numbers(d, "nu", DimensionMismatch), labels=d.get("y_support"))
    loss = LossMatrix(_numbers(d, "loss", DimensionMismatch))
    check_instance(mu, nu, loss)
    sigma = sigma_from_dict(d["sigma"]) if "sigma" in d else None
    return mu, nu, loss, sigma


def load_instance(path) -> tuple[ProbabilityVector, ProbabilityVector,
                                 LossMatrix, SpectralFunction | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def dump_instance(path, mu: ProbabilityVector, nu: ProbabilityVector, loss: LossMatrix,
                  sigma: SpectralFunction | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(mu, nu, loss, sigma), fh)
        fh.write("\n")


__all__ = [
    "AlphaOutOfRange",
    "CertificateInvalid",
    "Coupling",
    "DimensionMismatch",
    "DirectionNotTangent",
    "DomainError",
    "Empty",
    "GRID_MASS_TOL",
    "InvalidHolderData",
    "InvalidParams",
    "InvalidSpectrum",
    "LossMatrix",
    "NegativeWeight",
    "NumericalFailure",
    "POWER_SQRT_UMAX",
    "ProbabilityVector",
    "ProblemTooLarge",
    "RiskBoundError",
    "SIGMA_NORM_TOL",
    "SpectralFunction",
    "SpectralGrid",
    "SumNotOne",
    "TooFewSamples",
    "WEIGHT_TOL",
    "check_instance",
    "coupling_between",
    "discretize_spectrum",
    "dump_instance",
    "grid_sigma_norm",
    "grid_sigma_values",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "sigma_from_dict",
    "sigma_to_dict",
    "validate_marginal",
]
