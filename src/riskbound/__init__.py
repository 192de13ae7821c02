"""riskbound: worst-case spectral risk measures over couplings of fixed
finite marginals, with LP duality certificates, stability sweeps, and
sampling-error asymptotics."""

from .core import (
    Coupling,
    LossMatrix,
    ProbabilityVector,
    RiskBoundError,
    SpectralFunction,
    SpectralGrid,
    discretize_spectrum,
    load_instance,
    validate_marginal,
)
from .bounds import (
    DualCertificate,
    MesSolution,
    MspSolution,
    brute_force_mes,
    solve_mes,
    solve_msp,
    solve_transport,
    verify_duality,
)
from .lpsolver import LinearProgram, LpModel, LpSolution, solve_lp
from .riskmeasures import (
    DiscreteLaw,
    es_dual_density,
    es_rockafellar_uryasev,
    es_tail_average,
    spectral_risk,
    var,
)

__version__ = "0.1.0"
