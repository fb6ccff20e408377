"""Front propagation in bounded-velocity kinetic reaction-transport models.

The package computes the spectral objects governing pulled fronts of

    dt f + v . grad_x f = M(v) rho - f + r rho (M - f),   v in V bounded,

namely the Hamiltonian H(p) of the velocity operator (with its singular
set and Dirac-carrying eigenprofiles), the speed curves c(lambda, e) and
minimal speeds c*(e), the Hopf-Lax solution of the limiting
Hamilton-Jacobi equation with its spreading radii, and a direct 1-D
finite-difference simulation of the kinetic equation for
cross-validation of the predicted speeds.
"""

from .errors import (
    CFLViolation,
    DomainError,
    FrontLeftDomain,
    KinfrontError,
    QuadratureNotConverged,
    ValidationError,
)
from .models import (
    Ball,
    DensityFamily,
    DiscreteSet,
    Interval,
    PRESET_NAMES,
    VelocityModel,
    direction,
    j_integral,
    l_integral,
    preset,
)
from .dispersion import (
    DERIV_TOL,
    DispersionResult,
    SpeedCurve,
    WaveProfile,
    case_from_square_criterion,
    hamiltonian,
    hamiltonian_value,
    in_singular_set,
    lambda_tilde,
    minimal_speed,
    singular_boundary_radius,
    speed,
    speed_derivative_left,
    wave_profile,
)
from .propagation import (
    HJSolution,
    freidlin_gartner_speed,
    hj_solution,
    hopf_lax_phi,
    lagrangian,
    nullset_radius,
    planar_conjugate,
)
from .sim import (
    FrontTrace,
    KineticState,
    SimConfig,
    behind_front_profile,
    initial_front_state,
    run_front_experiment,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CFLViolation",
    "DERIV_TOL",
    "DensityFamily",
    "DiscreteSet",
    "DispersionResult",
    "DomainError",
    "FrontLeftDomain",
    "FrontTrace",
    "HJSolution",
    "Interval",
    "KineticState",
    "KinfrontError",
    "PRESET_NAMES",
    "QuadratureNotConverged",
    "SimConfig",
    "SpeedCurve",
    "ValidationError",
    "VelocityModel",
    "WaveProfile",
    "behind_front_profile",
    "case_from_square_criterion",
    "direction",
    "freidlin_gartner_speed",
    "hamiltonian",
    "hamiltonian_value",
    "hj_solution",
    "hopf_lax_phi",
    "in_singular_set",
    "initial_front_state",
    "j_integral",
    "l_integral",
    "lagrangian",
    "lambda_tilde",
    "minimal_speed",
    "nullset_radius",
    "planar_conjugate",
    "preset",
    "run_front_experiment",
    "singular_boundary_radius",
    "speed",
    "speed_derivative_left",
    "step",
    "wave_profile",
]
