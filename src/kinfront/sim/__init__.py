from .engine import (  # noqa: F401
    FrontTrace,
    KineticState,
    SimConfig,
    initial_front_state,
    run_front_experiment,
)
