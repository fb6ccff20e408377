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
    DomainError,
    FrontLeftDomain,
    KinfrontError,
    QuadratureNotConverged,
    SolverNotConverged,
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
    minimal_speeds,
    singular_boundary_radius,
    speed,
    speed_derivative_left,
    wave_profile,
)
from .propagation import (
    freidlin_gartner_speed,
    hopf_lax_phi,
    lagrangian,
    nullset_radius,
    planar_conjugate,
)
from .sim import (
    FrontTrace,
    KineticState,
    SimConfig,
    initial_front_state,
    run_front_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "DERIV_TOL",
    "DensityFamily",
    "DiscreteSet",
    "DispersionResult",
    "DomainError",
    "FrontLeftDomain",
    "FrontTrace",
    "Interval",
    "KineticState",
    "KinfrontError",
    "PRESET_NAMES",
    "QuadratureNotConverged",
    "SimConfig",
    "SolverNotConverged",
    "SpeedCurve",
    "ValidationError",
    "VelocityModel",
    "WaveProfile",
    "case_from_square_criterion",
    "direction",
    "freidlin_gartner_speed",
    "hamiltonian",
    "hamiltonian_value",
    "hopf_lax_phi",
    "in_singular_set",
    "initial_front_state",
    "j_integral",
    "l_integral",
    "lagrangian",
    "lambda_tilde",
    "minimal_speed",
    "minimal_speeds",
    "nullset_radius",
    "planar_conjugate",
    "preset",
    "run_front_experiment",
    "singular_boundary_radius",
    "speed",
    "speed_derivative_left",
    "wave_profile",
]
