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

from ..errors import CFLViolation, FrontLeftDomain, ValidationError
from ..models import direction
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
        if self.dx <= 0 or self.t_end <= 0 or self.length <= 0:
            raise ValidationError("dx, t_end and length must be positive")
        if not 0 < self.cfl <= 1.0:
            raise ValidationError("cfl must lie in (0, 1]")
        if not 0 < self.gamma <= 1.0:
            raise ValidationError("gamma must lie in (0, 1]")
        if not 0 < self.fit_fraction < 1:
            raise ValidationError("fit_fraction must lie in (0, 1)")


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

    def copy(self):
        return KineticState(
            self.model, self.r, self.e, self.x0, self.dx,
            self.v_nodes, self.v_weights, self.m_vals, self.g.copy(), self.time,
        )


def sim_nodes(model, e, nv):
    """Velocity nodes for the planar sim: speeds v.e, masses, equilibria.

    DiscreteSet models use their atoms exactly; continuum models get a
    two-panel Gauss-Legendre rule (split at v.e = 0) weighted by the
    slice marginal of M, with masses renormalized to sum to one. Nodes
    come in ascending order of v.e (atoms are sorted, with their masses
    and equilibrium values permuted alike), which the numpy stepping
    kernel relies on.
    """
    e = direction(e)
    if model.is_discrete:
        s = model.support.points @ e
        order = np.argsort(s, kind="stable")
        masses = model.support.weights[order].astype(float)
        return s[order], masses / masses.sum(), masses
    t_hi = model.support_max(e)
    t_lo = -model.support_max(-e)
    half = max(2, nv // 2)
    segs = [(t_lo, 0.0), (0.0, t_hi)] if t_lo < 0.0 < t_hi else [(t_lo, t_hi)]
    xs, ws = [], []
    for a, b in segs:
        x, w = panel_nodes(a, b, half)
        xs.append(x)
        ws.append(w)
    t = np.concatenate(xs)
    w = np.concatenate(ws)
    m_vals = model.slice_marginal(e, t)
    masses = w * m_vals
    total = masses.sum()
    if total <= 0:
        raise ValidationError("slice marginal has zero mass along this direction")
    return t, masses / total, m_vals


def initial_front_state(model, r, e=None, config=None):
    """Front-like data g = gamma for x <= 0, 0 ahead, on a centered window."""
    config = config or SimConfig()
    if e is None:
        e = np.zeros(model.dim)
        e[0] = 1.0
    e = direction(e)
    s, masses, m_vals = sim_nodes(model, e, config.nv)
    nx = int(round(config.length / config.dx)) + 1
    x0 = -0.5 * config.length
    g = np.zeros((s.size, nx))
    x = x0 + config.dx * np.arange(nx)
    g[:, x <= 0.0] = config.gamma
    return KineticState(model, r, e, x0, config.dx, s, masses, m_vals, g)


def _scratch_for(g):
    return np.empty_like(g), np.empty(g.shape[1]), np.empty(g.shape[1])


def step(state, dt, cfl=0.9):
    """One Strang-split step; returns a new KineticState.

    Raises CFLViolation when dt exceeds cfl * dx / max |v.e|.
    """
    vmax = float(np.max(np.abs(state.v_nodes)))
    if vmax > 0 and dt > cfl * state.dx / vmax * (1.0 + 1e-12):
        raise CFLViolation(
            "dt = %g exceeds %g * dx / vmax = %g" % (dt, cfl, cfl * state.dx / vmax)
        )
    out = state.copy()
    g1, rho, rho1 = _scratch_for(out.g)
    nu_half = out.v_nodes * (0.5 * dt / out.dx)
    kernels.strang_step(out.g, g1, rho, rho1, nu_half, out.v_weights, out.r, dt, 1.0, 0.0)
    out.time += dt
    return out


@dataclass
class FrontTrace:
    """Front-position history and the fitted asymptotic speed."""

    times: np.ndarray
    front_positions: np.ndarray
    fitted_speed: float
    fit_window: tuple
    residual: float
    threshold_speeds: dict = field(default_factory=dict)
    clamp_max: float = 0.0
    clamp_count: int = 0
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

    g1, rho, rho1 = _scratch_for(g)
    nu_half = state.v_nodes * (0.5 * dt / config.dx)
    masses = state.v_weights
    levels = sorted(set(_THRESHOLDS) | {config.threshold})
    times = []
    positions = {lev: [] for lev in levels}
    clamp_max = 0.0
    clamp_count = 0
    center = nx // 2

    for k in range(1, n_steps + 1):
        excess, ncl = kernels.strang_step(
            g, g1, rho, rho1, nu_half, masses, state.r, dt, 1.0, 0.0
        )
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
        if shift >= _RECENTER_CELLS:
            g[:, : nx - shift] = g[:, shift:]
            g[:, nx - shift:] = 0.0
            state.x0 += shift * config.dx

    times = np.asarray(times)
    t_start = config.t_end * (1.0 - config.fit_fraction)
    mask = times >= t_start
    if mask.sum() < 2:
        raise FrontLeftDomain("fit window contains fewer than two records")
    speeds = {}
    for lev in levels:
        pos = np.asarray(positions[lev])
        coef = np.polyfit(times[mask], pos[mask], 1)
        speeds[lev] = float(coef[0])
    main = np.asarray(positions[config.threshold])
    coef = np.polyfit(times[mask], main[mask], 1)
    resid = float(np.max(np.abs(np.polyval(coef, times[mask]) - main[mask])))
    return FrontTrace(
        times=times,
        front_positions=main,
        fitted_speed=float(coef[0]),
        fit_window=(float(t_start), float(config.t_end)),
        residual=resid,
        threshold_speeds=speeds,
        clamp_max=clamp_max,
        clamp_count=clamp_count,
        final_state=state,
    )


def behind_front_profile(state, x_probe):
    """Deviation from equilibrium at x_probe: (max_v |f - M|, |rho - 1|)."""
    i = int(round((x_probe - state.x0) / state.dx))
    if not 0 <= i < state.nx:
        raise ValidationError("x_probe = %g is outside the current window" % x_probe)
    col = state.g[:, i]
    f_dev = float(np.max(state.m_vals * np.abs(col - 1.0)))
    rho_dev = float(abs(state.v_weights @ col - 1.0))
    return f_dev, rho_dev
