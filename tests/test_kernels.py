"""The stepping kernel against a per-row loop over the same scheme (agreement
to roundoff), plus its ordering check, clamp reports, skipped clamp scans
and fixed points."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kinfront.sim import _kernels_py, kernels


def _random_state(rng, nv=6, nx=40):
    g = rng.random((nv, nx))
    masses = rng.random(nv) + 0.1
    masses /= masses.sum()
    speeds = np.linspace(-1.0, 1.0, nv)
    return g, masses, speeds


def _run(g0, masses, speeds, r, dt, steps):
    g = g0.copy()
    plan = kernels.StepPlan(speeds * (0.5 * dt / 0.01), masses, r, dt, g.shape[1])
    worst, count = 0.0, 0
    for _ in range(steps):
        excess, n = kernels.strang_step(g, plan)
        worst = max(worst, excess)
        count += n
    return g, worst, count


def _row_loop_step(g, nu_half, masses, r, dt):
    """One step of the scheme, row by row, with ghost values 1 on the left
    and 0 on the right: the reference the vectorised kernel must match."""
    nv, nx = g.shape

    def transport():
        for j in range(nv):
            nu = nu_half[j]
            if nu > 0.0:
                for i in range(nx - 1, 0, -1):
                    g[j, i] -= nu * (g[j, i] - g[j, i - 1])
                g[j, 0] -= nu * (g[j, 0] - 1.0)
            elif nu < 0.0:
                for i in range(nx - 1):
                    g[j, i] -= nu * (g[j, i + 1] - g[j, i])
                g[j, nx - 1] -= nu * (0.0 - g[j, nx - 1])

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


def _check_against_row_loop(nx, steps):
    rng = np.random.default_rng(19)
    g0, masses, _ = _random_state(rng, nv=7, nx=nx)
    speeds = np.array([-1.0, -0.6, -0.2, 0.0, 0.0, 0.5, 1.0])
    g0[1, 3] = 1.2  # one clamp in the first step
    gp, worst, count = _run(g0, masses, speeds, 1.0, 0.004, steps)
    g = g0.copy()
    nu_half = speeds * (0.5 * 0.004 / 0.01)
    ref_worst, ref_count = 0.0, 0
    for _ in range(steps):
        excess, n = _row_loop_step(g, nu_half, masses, 1.0, 0.004)
        ref_worst = max(ref_worst, excess)
        ref_count += n
    np.testing.assert_allclose(gp, g, atol=1e-13)
    assert count == ref_count > 0
    np.testing.assert_allclose(worst, ref_worst, rtol=1e-12)


def test_python_lane_matches_row_loop():
    _check_against_row_loop(40, 25)


def test_python_lane_matches_row_loop_across_chunks():
    # 30,000 columns make chunks of two rows, so the negative and positive
    # blocks each span two chunks and the flat shifted difference crosses
    # row and chunk boundaries
    assert _kernels_py._CHUNK_CELLS // 30_000 == 2
    _check_against_row_loop(30_000, 2)


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
    # g = 1 is an exact fixed point: the empty right ghost reaches at most
    # two cells further left per step (one per transport half step), and
    # every column left of that stays exactly 1
    masses = np.array([0.5, 0.5])
    speeds = np.array([-1.0, 1.0])
    g0 = np.ones((2, 130))
    g, excess, count = _run(g0, masses, speeds, 1.0, 0.005, 50)
    np.testing.assert_array_equal(g[:, :30], 1.0)
    assert g[0, -1] < 1.0
    assert count == 0


def test_vacuum_state_is_steady():
    # nothing may be created from the zero state: the saturated left ghost
    # reaches at most two cells further right per step, and every column
    # right of that stays exactly 0
    masses = np.array([0.5, 0.5])
    speeds = np.array([-1.0, 1.0])
    g0 = np.zeros((2, 130))
    g, excess, count = _run(g0, masses, speeds, 1.0, 0.005, 50)
    np.testing.assert_array_equal(g[:, 100:], 0.0)
    assert g[1, 0] > 0.0
    assert excess == 0.0 and count == 0


# entries in [0, 1], with the edges 0, 1 and 1 - 2**-53 drawn often
_unit_entries = st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53]),
                          st.floats(0.0, 1.0))


@st.composite
def _unit_band_steps(draw):
    nv = draw(st.integers(2, 6))
    nx = draw(st.integers(2, 30))
    g = draw(arrays(float, (nv, nx), elements=_unit_entries))
    nu_half = np.sort(draw(arrays(float, nv, elements=st.one_of(
        st.sampled_from([-0.5, 0.0, 0.5]), st.floats(-0.5, 0.5)))))
    # dyadic cuts of [0, 1]: the masses sum to 1 exactly in any order
    cuts = draw(st.lists(st.integers(1, 1023), min_size=nv - 1, max_size=nv - 1,
                         unique=True))
    masses = np.diff(np.concatenate([[0], np.sort(cuts), [1024]])) / 1024.0
    r = draw(st.floats(0.01, 5.0))
    dt = draw(st.floats(1e-4, 0.05))
    return g, nu_half, masses, r, dt


@settings(max_examples=200, deadline=None)
@given(_unit_band_steps())
def test_skipped_clamp_scan_matches_a_scanned_step(case):
    # a plan's second step may skip the clamp scan; it must leave g and
    # report exactly what a fresh plan's first step, which scans, does
    g, nu_half, masses, r, dt = case
    plan = kernels.StepPlan(nu_half, masses, r, dt, g.shape[1])
    kernels.strang_step(g.copy(), plan)
    fresh = kernels.StepPlan(nu_half, masses, r, dt, g.shape[1])
    g_plan, g_fresh = g.copy(), g.copy()
    got = kernels.strang_step(g_plan, plan)
    want = kernels.strang_step(g_fresh, fresh)
    assert fresh.clamp_scans == 1
    assert got == want
    np.testing.assert_array_equal(g_plan, g_fresh)
    if plan.clamp_scans == 1:  # the second step was proven to stay in [0, 1]
        assert got == (0.0, 0)


def test_first_step_of_a_plan_clamps_entries_outside_unit_band():
    # the speeds and reaction coefficients all pass the [0, 1]
    # proof, but a plan cannot know how g entered its first step
    nu_half = np.array([-0.25, 0.0, 0.25])
    masses = np.array([0.25, 0.5, 0.25])
    g = np.full((3, 12), 0.5)
    g[1, 4] = 1.2  # a zero-speed row, so the entry stays above 1
    plan = kernels.StepPlan(nu_half, masses, 1.0, 0.01, 12)
    excess, count = kernels.strang_step(g, plan)
    assert count == 1 and 0.15 < excess < 0.2
    assert g.max() == 1.0
    assert (plan.steps, plan.clamp_scans) == (1, 1)


@pytest.mark.parametrize("masses, nu, back", [
    ([0.5, 0.51], 0.25, 1.0),  # masses above 1: fl(keep + hP) > 1
    ([0.5, 0.5], 1.5, 1.0),  # a Courant number above 1/2 (and 1)
])
def test_later_steps_scan_when_a_step_can_leave_unit_band(masses, nu, back):
    # each step fails the [0, 1] proof, so each one scans and clamps
    plan = kernels.StepPlan(np.array([-nu, nu]), np.array(masses), 1.0, 0.01, 8)
    g = np.zeros((2, 8))
    g[0, :4], g[1, :4] = back, 1.0
    for _ in range(3):
        excess, count = kernels.strang_step(g, plan)
        assert count > 0 and excess > 0.0
    assert 0.0 <= g.min() and g.max() <= 1.0
    assert plan.clamp_scans == 3
