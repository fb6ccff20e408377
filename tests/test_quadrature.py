import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kinfront.quadrature import GradedGrid, gl_rule, panel_nodes


def test_gl_rule_polynomial_exactness():
    # order-n Gauss is exact through degree 2n-1 on [0, 1]
    for order in (4, 8, 16):
        x, w = gl_rule(order)
        for k in range(2 * order):
            np.testing.assert_allclose(np.sum(w * x**k), 1.0 / (k + 1),
                                       rtol=1e-13)


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
    np.testing.assert_allclose(g.power_kernel(0.0, 1.0, 0.5), 2.0, rtol=1e-10)


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
