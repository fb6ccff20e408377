from functools import lru_cache

import numpy as np
import pytest

import kinfront as kf
from kinfront.errors import CFLViolation, FrontLeftDomain
from kinfront.sim.engine import sim_nodes

model = lru_cache(maxsize=None)(kf.preset)


def test_sim_nodes_discrete_uses_atoms():
    s, masses, m_vals = sim_nodes(model("two-speed"), np.array([1.0]), 48)
    np.testing.assert_allclose(np.sort(s), [-1.0, 1.0])
    np.testing.assert_allclose(masses, [0.5, 0.5])
    # atoms come back in ascending order of v.e, each with its own weight
    unsorted = kf.VelocityModel(
        kf.DiscreteSet([(1.0,), (0.0,), (-0.5,), (-1.0,)], [0.4, 0.05, 0.3, 0.25])
    )
    s, masses, m_vals = sim_nodes(unsorted, np.array([1.0]), 48)
    np.testing.assert_array_equal(s, [-1.0, -0.5, 0.0, 1.0])
    np.testing.assert_allclose(m_vals, [0.25, 0.3, 0.05, 0.4], rtol=1e-15)
    np.testing.assert_allclose(masses, m_vals / m_vals.sum(), rtol=1e-15)


def test_sim_nodes_continuum_masses():
    s, masses, m_vals = sim_nodes(model("quadratic-1d"), np.array([1.0]), 32)
    assert s.size == 32
    assert np.all(np.abs(s) < 1.0)
    np.testing.assert_allclose(masses.sum(), 1.0, rtol=1e-14)
    assert np.all(masses > 0.0)
    # first moment of the quadratic marginal vanishes
    np.testing.assert_allclose(masses @ s, 0.0, atol=1e-12)


def test_initial_front_state_layout():
    config = kf.SimConfig(dx=0.1, length=10.0, nv=8)
    state = kf.initial_front_state(model("uniform-1d"), 1.0, config=config)
    assert state.nx == 101
    assert state.x0 == -5.0
    rho = state.rho
    x = state.x_grid
    np.testing.assert_allclose(rho[x <= 0.0], 1.0, atol=1e-15)
    np.testing.assert_allclose(rho[x > 0.0], 0.0, atol=1e-15)


def test_step_enforces_cfl():
    config = kf.SimConfig(dx=0.01, length=2.0, nv=8)
    state = kf.initial_front_state(model("uniform-1d"), 1.0, config=config)
    with pytest.raises(CFLViolation):
        kf.step(state, dt=0.05, cfl=0.9)
    out = kf.step(state, dt=0.005, cfl=0.9)
    assert out.time == pytest.approx(0.005)
    # input state untouched
    assert state.time == 0.0


def test_saturated_region_remains_saturated():
    config = kf.SimConfig(dx=0.02, length=4.0, nv=12)
    state = kf.initial_front_state(model("uniform-1d"), 1.0, config=config)
    for _ in range(40):
        state = kf.step(state, dt=0.01)
    rho = state.rho
    # deep behind the front the state still sits at the stable equilibrium
    behind = state.x_grid < -1.0
    np.testing.assert_allclose(rho[behind], 1.0, atol=1e-12)
    assert np.all(rho <= 1.0 + 1e-12) and np.all(rho >= -1e-15)


def test_front_advances_monotonically():
    config = kf.SimConfig(dx=0.02, t_end=8.0, length=16.0, nv=16)
    trace = kf.run_front_experiment(model("uniform-1d"), 1.0, config)
    assert np.all(np.diff(trace.front_positions) > -1e-9)
    assert trace.times[-1] == pytest.approx(8.0, abs=0.05)
    assert trace.clamp_max < 1e-12


def test_fitted_speed_close_to_dispersion_prediction():
    # coarse, fast run: a loose 5% agreement is all we ask here; the
    # acceptance battery does the production-resolution comparison
    config = kf.SimConfig(dx=0.02, t_end=30.0, length=30.0, nv=24)
    trace = kf.run_front_experiment(model("uniform-1d"), 1.0, config)
    c_star = kf.minimal_speed(model("uniform-1d"), 1.0, 1.0,
                              sample=False).c_star
    assert abs(trace.fitted_speed - c_star) / c_star < 0.05
    assert trace.residual < 0.05
    lo, hi = trace.fit_window
    assert lo >= 15.0 - 1e-9 and hi <= 30.0 + 1e-9
    # all three tracked level sets move at about the same speed
    for v in trace.threshold_speeds.values():
        assert abs(v - trace.fitted_speed) / trace.fitted_speed < 0.05


def test_window_too_small_raises():
    # 21 cells minus two 8-cell margins leave no room for the widening
    # front band, and recentering needs a 16-cell excursion it can't make
    config = kf.SimConfig(dx=0.05, t_end=30.0, length=1.0, nv=8)
    with pytest.raises(FrontLeftDomain):
        kf.run_front_experiment(model("uniform-1d"), 1.0, config)


def test_recentering_keeps_front_inside_window():
    # front travels ~ c * t = 0.77 * 20 = 15 in a 10-wide box: only the
    # moving window makes that possible
    config = kf.SimConfig(dx=0.05, t_end=20.0, length=10.0, nv=12)
    trace = kf.run_front_experiment(model("uniform-1d"), 1.0, config)
    assert trace.front_positions[-1] > 10.0
    assert trace.final_state.x0 > 0.0


def test_behind_front_profile_matches_equilibrium():
    config = kf.SimConfig(dx=0.02, t_end=10.0, length=20.0, nv=16)
    trace = kf.run_front_experiment(model("uniform-1d"), 1.0, config)
    state = trace.final_state
    x_back = trace.front_positions[-1] - 6.0
    f_dev, rho_dev = kf.behind_front_profile(state, x_back)
    assert f_dev < 0.1
    assert rho_dev < 0.05
    with pytest.raises(kf.ValidationError):
        kf.behind_front_profile(state, state.x0 - 1.0)
