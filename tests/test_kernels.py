"""The stepping kernel against a per-row loop over the same scheme (agreement
to roundoff), plus its ordering check, clamp reports and fixed points."""

import numpy as np
import pytest

from kinfront.sim import _kernels_py, kernels


def _random_state(rng, nv=6, nx=40):
    g = rng.random((nv, nx))
    masses = rng.random(nv) + 0.1
    masses /= masses.sum()
    speeds = np.linspace(-1.0, 1.0, nv)
    return g, masses, speeds


def _run(g0, masses, speeds, r, dt, steps, left=1.0, right=0.0):
    g = g0.copy()
    g1 = np.empty_like(g)
    rho = np.empty(g.shape[1])
    rho1 = np.empty(g.shape[1])
    nu_half = speeds * (0.5 * dt / 0.01)
    worst, count = 0.0, 0
    for _ in range(steps):
        excess, n = kernels.strang_step(g, g1, rho, rho1, nu_half, masses, r,
                                        dt, left, right)
        worst = max(worst, excess)
        count += n
    return g, worst, count


def _row_loop_step(g, nu_half, masses, r, dt, left_val, right_val):
    """One step of the scheme, row by row: the reference the vectorised
    kernel must match."""
    nv, nx = g.shape

    def transport():
        for j in range(nv):
            nu = nu_half[j]
            if nu > 0.0:
                for i in range(nx - 1, 0, -1):
                    g[j, i] -= nu * (g[j, i] - g[j, i - 1])
                g[j, 0] -= nu * (g[j, 0] - left_val)
            elif nu < 0.0:
                for i in range(nx - 1):
                    g[j, i] -= nu * (g[j, i + 1] - g[j, i])
                g[j, nx - 1] -= nu * (right_val - g[j, nx - 1])

    transport()
    rho = masses @ g
    g1 = g + dt * ((1.0 + r) * rho - g * (1.0 + r * rho))
    rho1 = masses @ g1
    g[:] = 0.5 * (g + g1) + 0.5 * dt * ((1.0 + r) * rho1 - g1 * (1.0 + r * rho1))
    transport()
    excess, n_clamped = 0.0, 0
    for j in range(nv):
        for i in range(nx):
            val = g[j, i]
            if val > 1.0:
                excess = max(excess, val - 1.0)
                g[j, i] = 1.0
                n_clamped += 1
            elif val < 0.0:
                excess = max(excess, -val)
                g[j, i] = 0.0
                n_clamped += 1
    return excess, n_clamped


@pytest.mark.parametrize("left, right", [(1.0, 0.0), (0.0, 1.0)])
def test_python_lane_matches_row_loop(left, right):
    rng = np.random.default_rng(19)
    g0, masses, _ = _random_state(rng, nv=7)
    speeds = np.array([-1.0, -0.6, -0.2, 0.0, 0.0, 0.5, 1.0])
    g0[1, 3] = 1.2  # one clamp in the first step
    gp, worst, count = _run(g0, masses, speeds, 1.0, 0.004, 25, left, right)
    g = g0.copy()
    nu_half = speeds * (0.5 * 0.004 / 0.01)
    ref_worst, ref_count = 0.0, 0
    for _ in range(25):
        excess, n = _row_loop_step(g, nu_half, masses, 1.0, 0.004, left, right)
        ref_worst = max(ref_worst, excess)
        ref_count += n
    np.testing.assert_allclose(gp, g, atol=1e-13)
    assert count == ref_count > 0
    np.testing.assert_allclose(worst, ref_worst, rtol=1e-12)


def test_python_lane_rejects_unsorted_speeds():
    rng = np.random.default_rng(5)
    g0, masses, speeds = _random_state(rng)
    with pytest.raises(ValueError, match="ascending"):
        _run(g0, masses, speeds[::-1].copy(), 1.0, 0.004, 1)


def test_kernels_reexport_the_numpy_lane():
    assert kernels.BACKEND == "python"
    assert kernels.strang_step is _kernels_py.strang_step


def test_clamp_silent_inside_unit_band():
    rng = np.random.default_rng(3)
    g0, masses, speeds = _random_state(rng)
    _, excess, count = _run(g0, masses, speeds, 1.0, 0.004, 10)
    assert excess < 1e-12
    assert count == 0


def test_saturated_state_is_steady():
    # g = 1 with saturated ghosts on both sides is an exact fixed point
    masses = np.array([0.5, 0.5])
    speeds = np.array([-1.0, 1.0])
    g0 = np.ones((2, 30))
    g, excess, count = _run(g0, masses, speeds, 1.0, 0.005, 50,
                            left=1.0, right=1.0)
    np.testing.assert_allclose(g, 1.0, atol=1e-14)
    assert count == 0


def test_vacuum_state_is_steady():
    masses = np.array([0.5, 0.5])
    speeds = np.array([-1.0, 1.0])
    g0 = np.zeros((2, 30))
    g, excess, count = _run(g0, masses, speeds, 1.0, 0.005, 50,
                            left=0.0, right=0.0)
    # with empty ghosts nothing may be created from the zero state
    np.testing.assert_allclose(g, 0.0, atol=0.0)
    assert excess == 0.0
