import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import roots_legendre

from kinfront.quadrature import GradedGrid, gl_rule, panel_nodes


def test_gl_rule_polynomial_exactness():
    # order-n Gauss is exact through degree 2n-1 on [0, 1]
    for order in (1, 2, 4, 8, 16, 24, 96):
        x, w = gl_rule(order)
        for k in range(2 * order):
            np.testing.assert_allclose(np.sum(w * x**k), 1.0 / (k + 1),
                                       rtol=1e-13)


@pytest.mark.parametrize("order", [16, 24, 96])
def test_gl_rule_matches_scipy(order):
    x, w = gl_rule(order)
    xs, ws = roots_legendre(order)
    np.testing.assert_allclose(x, 0.5 * (xs + 1.0), rtol=0, atol=2e-16)
    np.testing.assert_allclose(w, 0.5 * ws, rtol=1e-12, atol=0)


def test_panel_nodes_shift_and_scale():
    x, w = panel_nodes(2.0, 5.0, 12)
    assert np.all((x > 2.0) & (x < 5.0))
    np.testing.assert_allclose(w.sum(), 3.0, rtol=1e-14)
    np.testing.assert_allclose(np.sum(w * np.exp(x)),
                               math.exp(5.0) - math.exp(2.0), rtol=1e-13)


def _unit_grid():
    # flat marginal on [0, 1], edge at s = 0
    return GradedGrid([0.0, 1.0], lambda s: np.ones_like(s), vbar=1.0)


def test_graded_grid_log_kernel():
    g = _unit_grid()
    d = 0.3
    exact = math.log((d + 1.0) / d)
    np.testing.assert_allclose(g.power_kernel(d, 1.0, 1), exact, rtol=1e-12)


def test_graded_grid_inverse_square_kernel():
    g = _unit_grid()
    d = 0.25
    exact = 1.0 / d - 1.0 / (d + 1.0)
    np.testing.assert_allclose(g.power_kernel(d, 1.0, 2), exact, rtol=1e-12)


def test_graded_grid_integrable_edge_singularity():
    g = _unit_grid()
    # 1/sqrt(s) integrates to 2 despite blowing up at the edge
    np.testing.assert_allclose(g.kernel_integral(lambda s: 1.0 / np.sqrt(s)), 2.0,
                               rtol=1e-10)


def test_graded_grid_divergent_kernels_report_inf():
    g = _unit_grid()
    assert g.power_kernel(0.0, 1.0, 1) == np.inf
    assert g.power_kernel(0.0, 1.0, 2) == np.inf


def test_vanishing_marginal_tames_the_edge():
    # marginal s against kernel 1/s leaves a plain unit integral
    g = GradedGrid([0.0, 1.0], lambda s: s, vbar=1.0)
    np.testing.assert_allclose(g.power_kernel(0.0, 1.0, 1), 1.0, rtol=1e-10)
    # and s / s^2 still diverges
    assert g.power_kernel(0.0, 1.0, 2) == np.inf


def test_grid_mass_and_breakpoints():
    g = GradedGrid([0.0, 0.5, 1.0], lambda s: np.ones_like(s), vbar=1.0)
    np.testing.assert_allclose(g.kernel_integral(lambda s: np.ones_like(s)),
                               1.0, rtol=1e-12)
    assert g.edge_tail == 0.25 * 2.0**-48


def test_grid_rejects_bad_edges():
    with pytest.raises(ValueError):
        GradedGrid([0.1, 1.0], lambda s: np.ones_like(s), vbar=1.0)
    with pytest.raises(ValueError):
        GradedGrid([0.0, 1.0, 0.5], lambda s: np.ones_like(s), vbar=1.0)


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.1, max_value=5.0))
def test_log_kernel_matches_closed_form(d, beta):
    g = _unit_grid()
    exact = math.log((d + beta) / d) / beta
    np.testing.assert_allclose(g.power_kernel(d, beta, 1), exact, rtol=1e-11)


def _loop_kernel_integral(grid, kernel):
    """The per-ladder loop that GradedGrid.kernel_integral replaces, as an oracle."""
    from kinfront.errors import QuadratureNotConverged
    from kinfront.quadrature import (DIVERGENCE_CAP, DIVERGENCE_RATIO,
                                     LADDER_LEVELS, LADDER_ORDER,
                                     RATIO_SCATTER_TOL, _TAIL_RATIO_FLOOR)

    def ladder_total(increments, singular):
        totals = np.cumsum(increments)
        if totals[-1] > DIVERGENCE_CAP:
            return np.inf
        last = increments[-7:]
        scale = totals[-1]
        if scale <= 0.0:
            return 0.0
        if last.max() <= 1e-15 * scale:
            return totals[-1]
        ratios = last[1:] / np.maximum(last[:-1], 1e-300)
        rbar = ratios.mean()
        if singular and rbar >= DIVERGENCE_RATIO:
            return np.inf
        if np.abs(ratios - rbar).max() > RATIO_SCATTER_TOL * max(rbar, _TAIL_RATIO_FLOOR):
            raise QuadratureNotConverged(
                "graded-panel increments are not settling into a geometric tail")
        if rbar >= DIVERGENCE_RATIO:
            raise QuadratureNotConverged("unexpected slow decay at a regular endpoint")
        tail = increments[-1] * rbar / (1.0 - rbar) if rbar > _TAIL_RATIO_FLOOR else 0.0
        return totals[-1] + tail

    y = kernel(grid.s) * grid.w
    n = LADDER_LEVELS * LADDER_ORDER
    total = 0.0
    for k, lad in enumerate(grid.ladders):
        inc = y[k * n:(k + 1) * n].reshape(LADDER_LEVELS, LADDER_ORDER).sum(axis=1)
        part = ladder_total(inc, singular=(lad.s0 == 0.0))
        if np.isinf(part):
            return np.inf
        total += part
    return total


def _outcome(fn):
    from kinfront.errors import QuadratureNotConverged

    try:
        return fn()
    except QuadratureNotConverged as exc:
        return "raised: %s" % exc


def _grids_and_kernels():
    """Grids and kernels that reach every outcome of the ladder classification."""
    grids = [
        _unit_grid(),
        GradedGrid([0.0, 0.5, 1.0], lambda s: np.ones_like(s), vbar=1.0),
        GradedGrid([0.0, 0.3, 1.2, 2.0], lambda s: s * (2.0 - s) ** 2, vbar=1.0),
    ]
    kernels = [
        lambda s: np.ones_like(s),  # negligible tails
        lambda s: np.zeros_like(s),  # zero ladders
        lambda s: 1.0 / (0.3 + 2.0 * s),  # geometric tails, extrapolated
        lambda s: 1.0 / s,  # divergent at the singular end
        lambda s: 1.0 / s**2,  # overflows the divergence cap
        lambda s: s**-0.5,  # integrable edge singularity
        lambda s: np.sin(np.log(s)) ** 2,  # increments that never settle
        lambda s: 1.0 / np.abs(s - 1.0),  # fat tail at a regular endpoint
    ]
    rng = np.random.default_rng(7)
    for _ in range(40):
        d, beta = 10.0 ** rng.uniform(-12, 1), 10.0 ** rng.uniform(-2, 2)
        power = rng.uniform(0.5, 3)
        kernels.append(lambda s, d=d, beta=beta, power=power: (d + beta * s) ** -power)
    return grids, kernels


def test_kernel_integral_matches_the_per_ladder_loop():
    grids, kernels = _grids_and_kernels()
    seen = set()
    for g in grids:
        for kernel in kernels:
            want = _outcome(lambda: _loop_kernel_integral(g, kernel))
            got = _outcome(lambda: g.kernel_integral(kernel))
            assert got == want or (np.isnan(got) and np.isnan(want))
            seen.add(want if isinstance(want, str) else ("inf" if np.isinf(want) else "finite"))
    # every outcome of the classification occurs among the cases
    assert len(seen) == 4, seen


def test_row_integrals_classify_each_row_as_kernel_integral_does():
    from kinfront.quadrature import FAILURES

    grids, kernels = _grids_and_kernels()
    for g in grids:
        with np.errstate(all="ignore"):
            Y = np.array([k(g.s) * g.w for k in kernels])
        total, fail = g.integrals(Y)
        got = [("raised: %s" % FAILURES[f]) if f else t for t, f in zip(total, fail)]
        want = [_outcome(lambda: g.kernel_integral(k)) for k in kernels]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b or (np.isnan(a) and np.isnan(b))
        # a row gives the same on its own and in any order of the batch
        order = np.random.default_rng(0).permutation(len(Y))
        t2, f2 = g.integrals(Y[order])
        np.testing.assert_array_equal(t2, total[order])
        np.testing.assert_array_equal(f2, fail[order])


def test_mixed_batch_rows_match_the_per_ladder_loop():
    # one integrals call per grid whose rows reach every outcome of the
    # classification side by side, each row against the loop oracle
    from kinfront.quadrature import FAILURES

    grids, kernels = _grids_and_kernels()
    seen = set()
    for g in grids:
        with np.errstate(all="ignore"):
            Y = np.array([k(g.s) * g.w for k in kernels])
        total, fail = g.integrals(Y)
        outcomes = set()
        for kernel, t, f in zip(kernels, total, fail):
            got = ("raised: %s" % FAILURES[f]) if f else t
            want = _outcome(lambda: _loop_kernel_integral(g, kernel))
            assert got == want or (np.isnan(got) and np.isnan(want))
            outcomes.add(want if isinstance(want, str) else ("inf" if np.isinf(want) else "finite"))
        assert len(outcomes) >= 3, outcomes
        seen |= outcomes
    assert len(seen) == 4, seen
