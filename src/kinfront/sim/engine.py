"""Direct simulation of the kinetic reaction-transport equation in
planar-front form.

The unknown is stored as g = f / M on a uniform moving window, so the
saturated state is exactly g = 1 and the per-node masses (quadrature
weight times local equilibrium density, renormalized to sum to one) make
it an exact discrete steady state. Velocity sets in two or three
dimensions are reduced to the 1-D slice along the front direction: the
transport speeds are v.e and the masses come from the slice marginal of
M, which closes the planar dynamics exactly.

Stepping is Strang-split (half upwind transport, full Heun reaction,
half transport) through the numpy kernel re-exported by kernels.py.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import FrontLeftDomain, ValidationError
from ..models import _atom_dots, _positive, _unit
from ..quadrature import panel_nodes
from . import kernels

# density levels whose crossings are tracked besides config.threshold
_THRESHOLDS = (0.1, 0.5, 0.9)
# time between recorded front positions
_RECORD_INTERVAL = 0.05
# cells at either window edge that a tracked crossing must stay clear of
_BOUNDARY_MARGIN = 8
# the window recentres once the front has moved this many cells past the middle
_RECENTER_CELLS = 16


@dataclass
class SimConfig:
    """Knobs for run_front_experiment. Lengths/times in model units."""

    dx: float = 0.005
    t_end: float = 60.0
    length: float = 40.0
    cfl: float = 0.9
    nv: int = 48
    threshold: float = 0.5
    fit_fraction: float = 0.5
    gamma: float = 1.0

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.dx, self.t_end, self.length)):
            raise ValidationError("dx, t_end and length must be finite and positive")
        if not self.length / self.dx < np.inf:
            raise ValidationError("length / dx overflows: too many cells")
        if not (isinstance(self.nv, (int, np.integer)) and self.nv >= 4):
            raise ValidationError("nv must be an integer of at least 4")
        if self.nv % 2:
            raise ValidationError("nv must be even: sim_nodes puts nv / 2 nodes on each side of v.e = 0")
        if not 0 < self.cfl <= 1.0:
            raise ValidationError("cfl must lie in (0, 1]")
        if not 0 < self.gamma <= 1.0:
            raise ValidationError("gamma must lie in (0, 1]")
        if not 0 < self.fit_fraction < 1:
            raise ValidationError("fit_fraction must lie in (0, 1)")
        if not 0 < self.threshold < 1:
            raise ValidationError("threshold must lie in (0, 1)")


class KineticState:
    """Discretized planar state: g = f/M on (v-node, x) arrays.

    Attributes
    ----------
    x0 : coordinate of the leftmost cell; x_grid is x0 + dx*arange(nx).
    v_nodes : transport speeds v.e per node.
    v_weights : node masses (sum exactly 1); rho = v_weights @ g.
    m_vals : equilibrium value per node (slice marginal, or atom weight
        for discrete sets); f = g * m_vals[:, None].
    """

    def __init__(self, model, r, e, x0, dx, v_nodes, v_weights, m_vals, g, time=0.0):
        self.model = model
        self.r = float(r)
        self.e = e
        self.x0 = float(x0)
        self.dx = float(dx)
        self.v_nodes = v_nodes
        self.v_weights = v_weights
        self.m_vals = m_vals
        self.g = g
        self.time = float(time)

    @property
    def nx(self):
        return self.g.shape[1]

    @property
    def x_grid(self):
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def rho(self):
        return self.v_weights @ self.g

    @property
    def f(self):
        return self.g * self.m_vals[:, None]


def sim_nodes(model, e, nv):
    """Velocity nodes for the planar sim: speeds v.e, masses, equilibria.

    DiscreteSet models use their atoms exactly; continuum models, whose
    speeds v.e fill [-R, R] with R = v_max, get a two-panel
    Gauss-Legendre rule (split at v.e = 0) weighted by the slice
    marginal of M, with masses renormalized to sum to one. Nodes
    come in ascending order of v.e (atoms are sorted, with their masses
    and equilibrium values permuted alike), which the numpy stepping
    kernel relies on.
    """
    e = _unit(model, e)
    if model.is_discrete:
        s = _atom_dots(model.support.points, e)
        order = np.argsort(s, kind="stable")
        masses = model.support.weights[order].astype(float)
        return s[order], masses / masses.sum(), masses
    R = model.support_max(e)
    neg, pos = panel_nodes(-R, 0.0, nv // 2), panel_nodes(0.0, R, nv // 2)
    t = np.concatenate([neg[0], pos[0]])
    w = np.concatenate([neg[1], pos[1]])
    m_vals = model.slice_marginal(e, t)
    masses = w * m_vals
    total = masses.sum()
    if total <= 0:
        raise ValidationError("slice marginal has zero mass along this direction")
    return t, masses / total, m_vals


def initial_front_state(model, r, e=None, config=None):
    """Front-like data g = gamma for x <= 0, 0 ahead, on a centered window."""
    _positive(r, "growth rate r")
    config = config or SimConfig()
    e = _unit(model, np.eye(model.dim)[0] if e is None else e)
    s, masses, m_vals = sim_nodes(model, e, config.nv)
    nx = int(round(config.length / config.dx)) + 1
    x0 = -0.5 * config.length
    g = np.zeros((s.size, nx))
    x = x0 + config.dx * np.arange(nx)
    g[:, x <= 0.0] = config.gamma
    return KineticState(model, r, e, x0, config.dx, s, masses, m_vals, g)


@dataclass
class FrontTrace:
    """Front-position history and the fitted asymptotic speed.

    steps and dt are the run's step count and step size; clamp_scans counts
    the steps that ran the kernel's clamp scan (see sim._kernels_py).
    """

    times: np.ndarray
    front_positions: np.ndarray
    fitted_speed: float
    fit_window: tuple
    residual: float
    threshold_speeds: dict = field(default_factory=dict)
    clamp_max: float = 0.0
    clamp_count: int = 0
    steps: int = 0
    dt: float = 0.0
    clamp_scans: int = 0
    final_state: Optional[KineticState] = None


def _front_crossing(rho, x0, dx, level):
    """Interpolated leftmost x where rho drops below level; None if absent."""
    below = rho < level
    if below[0]:
        return None, 0
    if not below.any():
        return None, rho.size - 1
    i = int(np.argmax(below))
    frac = (rho[i - 1] - level) / max(rho[i - 1] - rho[i], 1e-300)
    return x0 + (i - 1 + frac) * dx, i


def run_front_experiment(model, r, config=None, e=None):
    """Evolve front-like data and fit the asymptotic front speed.

    Returns a FrontTrace; raises FrontLeftDomain if the tracked front
    reaches the window edge (the moving window recenters as the front
    advances, so this indicates a window shorter than the front).
    """
    config = config or SimConfig()
    if not config.t_end / config.dx / config.cfl * model.v_max < np.inf:
        raise ValidationError("t_end v_max / (cfl dx) overflows: too many steps")
    state = initial_front_state(model, r, e, config)
    g = state.g
    nv, nx = g.shape
    vmax = float(np.max(np.abs(state.v_nodes)))
    if vmax <= 0:
        raise ValidationError("no transport: all node speeds vanish")
    dt_max = config.cfl * config.dx / vmax
    n_steps = max(1, int(np.ceil(config.t_end / dt_max - 1e-12)))
    dt = config.t_end / n_steps
    record_every = max(1, int(round(_RECORD_INTERVAL / dt)))

    masses = state.v_weights
    plan = kernels.StepPlan(state.v_nodes * (0.5 * dt / config.dx), masses,
                            state.r, dt, nx)
    levels = sorted(set(_THRESHOLDS) | {config.threshold})
    times = []
    positions = {lev: [] for lev in levels}
    clamp_max = 0.0
    clamp_count = 0
    center = nx // 2

    for k in range(1, n_steps + 1):
        excess, ncl = kernels.strang_step(g, plan)
        if excess > clamp_max:
            clamp_max = excess
        clamp_count += ncl
        if k % record_every and k != n_steps:
            continue
        state.time = k * dt
        dens = masses @ g
        idx_main = None
        for lev in levels:
            xc, idx = _front_crossing(dens, state.x0, config.dx, lev)
            if xc is None:
                raise FrontLeftDomain(
                    "no rho = %g crossing inside the window at t = %.3f" % (lev, state.time)
                )
            if idx < _BOUNDARY_MARGIN or idx > nx - _BOUNDARY_MARGIN:
                raise FrontLeftDomain(
                    "front at cell %d is inside the %d-cell boundary margin"
                    % (idx, _BOUNDARY_MARGIN)
                )
            positions[lev].append(xc)
            if lev == config.threshold:
                idx_main = idx
        times.append(state.time)
        shift = idx_main - center
        # the recentring keeps g in [0, 1], as the step plan requires
        if shift >= _RECENTER_CELLS:
            g[:, : nx - shift] = g[:, shift:]
            g[:, nx - shift:] = 0.0
            state.x0 += shift * config.dx

    times = np.asarray(times)
    t_start = config.t_end * (1.0 - config.fit_fraction)
    mask = times >= t_start
    if mask.sum() < 2:
        raise FrontLeftDomain("fit window contains fewer than two records")
    coefs = {lev: np.polyfit(times[mask], np.asarray(positions[lev])[mask], 1) for lev in levels}
    main = np.asarray(positions[config.threshold])
    coef = coefs[config.threshold]
    resid = float(np.max(np.abs(np.polyval(coef, times[mask]) - main[mask])))
    return FrontTrace(
        times=times,
        front_positions=main,
        fitted_speed=float(coef[0]),
        fit_window=(float(t_start), float(config.t_end)),
        residual=resid,
        threshold_speeds={lev: float(c[0]) for lev, c in coefs.items()},
        clamp_max=clamp_max,
        clamp_count=clamp_count,
        steps=plan.steps,
        dt=plan.dt,
        clamp_scans=plan.clamp_scans,
        final_state=state,
    )
