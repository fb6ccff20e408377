"""Spectral-object tests against closed forms.

uniform-1d admits H(p) = p coth(p) - 1 and, at r = 1, the explicit speed
curve c(lambda) = coth(lambda/2) - 1/lambda.  two-speed gives
H(p) = (-1 + sqrt(1 + 4 p^2)) / 2.  The quadratic model's singular branch
is exercised through lambda_tilde = (1+r) l with l = 3(2 ln 2 - 1).
"""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinfront as kf
from kinfront.errors import DomainError, ValidationError

model = lru_cache(maxsize=None)(kf.preset)

L_QUAD = 3.0 * (2.0 * math.log(2.0) - 1.0)


def coth(x):
    return math.cosh(x) / math.sinh(x)


def test_uniform_hamiltonian_closed_form():
    m = model("uniform-1d")
    for p in (-4.0, -1.3, -0.2, 0.7, 2.0, 5.0):
        np.testing.assert_allclose(kf.hamiltonian_value(m, p),
                                   p * coth(p) - 1.0, atol=1e-11)


def test_two_speed_hamiltonian_closed_form():
    m = model("two-speed")
    for p in (-3.0, -0.5, 0.1, 1.0, 8.0):
        np.testing.assert_allclose(kf.hamiltonian_value(m, p),
                                   0.5 * (math.sqrt(1.0 + 4.0 * p * p) - 1.0),
                                   rtol=1e-13)


def test_hamiltonian_at_zero():
    for name in kf.PRESET_NAMES:
        m = model(name)
        res = kf.hamiltonian(m, np.zeros(m.dim))
        assert res.H == 0.0
        assert res.regular
        assert res.dirac_weight == 0.0


def test_hamiltonian_values_batch_matches_scalar():
    for name in ("uniform-1d", "two-speed"):
        m = model(name)
        P = np.linspace(-3.0, 3.0, 11).reshape(-1, 1)
        batch = kf.dispersion.hamiltonian_values(m, P)
        scalars = [kf.hamiltonian_value(m, row) for row in P]
        np.testing.assert_allclose(batch, scalars, atol=1e-13)


def test_singular_branch_quadratic():
    m = model("quadratic-1d")
    res = kf.hamiltonian(m, 2.0)
    assert not res.regular
    np.testing.assert_allclose(res.H, 1.0, atol=1e-12)  # mu - 1 = 2*1 - 1
    np.testing.assert_allclose(res.dirac_weight, 1.0 - L_QUAD / 2.0,
                               atol=1e-9)
    np.testing.assert_allclose(res.dirac_location, [1.0], atol=1e-12)
    # continuity across the boundary: both branches meet at |p| = l
    lo = kf.hamiltonian_value(m, L_QUAD * (1.0 - 1e-9))
    hi = kf.hamiltonian_value(m, L_QUAD * (1.0 + 1e-9))
    np.testing.assert_allclose(lo, hi, atol=1e-7)


def test_singular_set_membership():
    quad_m = model("quadratic-1d")
    assert not kf.in_singular_set(quad_m, 1.0)
    assert kf.in_singular_set(quad_m, 1.2)
    assert not kf.in_singular_set(quad_m, 0.0)
    assert not kf.in_singular_set(model("uniform-1d"), 50.0)
    ball = model("uniform-ball:2")
    assert not kf.in_singular_set(ball, (1.9, 0.0))
    assert kf.in_singular_set(ball, (0.0, 2.1))


def test_singular_boundary_radius_matches_l():
    m = model("quadratic-1d")
    np.testing.assert_allclose(kf.singular_boundary_radius(m, 1.0), L_QUAD,
                               atol=1e-8)
    assert kf.singular_boundary_radius(model("uniform-1d"), 1.0) == np.inf


def test_uniform_speed_curve_closed_form():
    m = model("uniform-1d")
    for lam in (0.5, 1.0, 2.9828671, 7.0):
        np.testing.assert_allclose(kf.speed(m, 1.0, 1.0, lam),
                                   coth(0.5 * lam) - 1.0 / lam, atol=1e-11)


def test_singular_branch_speed_is_exact():
    # past lambda_tilde the curve is vbar - 1/lambda with no quadrature
    m = model("quadratic-1d")
    lt = kf.lambda_tilde(m, 1.0, 1.0)
    np.testing.assert_allclose(lt, 2.0 * L_QUAD, atol=1e-10)
    for lam in (lt, 1.1 * lt, 3.0 * lt):
        np.testing.assert_allclose(kf.speed(m, 1.0, 1.0, lam),
                                   1.0 - 1.0 / lam, atol=1e-11)


def test_speed_curve_minimum_uniform_r1():
    sc = kf.minimal_speed(model("uniform-1d"), 1.0, 1.0)
    assert sc.case_label == "Case1"
    # interior minimum of coth(lam/2) - 1/lam
    np.testing.assert_allclose(sc.c_star, 0.7714509264153063, atol=1e-9)
    np.testing.assert_allclose(sc.lambda_star, 2.9828671401169988, atol=1e-6)
    assert np.isinf(sc.lambda_tilde)
    # the sampled curve sits at or above the minimum
    assert np.all(sc.c_values >= sc.c_star - 1e-12)


def test_speed_curve_kink_minimum_quadratic_r1():
    sc = kf.minimal_speed(model("quadratic-1d"), 1.0, 1.0)
    assert sc.case_label == "Case4"
    assert sc.lambda_star == sc.lambda_tilde
    np.testing.assert_allclose(sc.c_star, 1.0 - 0.5 / L_QUAD, atol=1e-10)
    np.testing.assert_allclose(sc.left_derivative_at_tilde,
                               -0.08542525610138132, atol=1e-7)


def test_speed_derivative_sign_change_across_r():
    # below the critical rate the minimum detaches from the kink
    m = model("quadratic-1d")
    r_crit = 6.0 * (1.0 - math.log(2.0)) / L_QUAD**2 - 1.0
    assert kf.minimal_speed(m, 0.9 * r_crit, 1.0).case_label == "Case2"
    assert kf.minimal_speed(m, 1.2 * r_crit, 1.0).case_label == "Case4"


def test_ballistic_two_speed_curves():
    m = model("two-speed")
    # subcritical reaction: interior minimum 2 sqrt(r)/(1+r)
    sc = kf.minimal_speed(m, 0.25, 1.0)
    np.testing.assert_allclose(sc.c_star, 2.0 * 0.5 / 1.25, rtol=1e-9)
    # r >= 1 pushes the minimum to lambda = inf, c* = vbar
    sc = kf.minimal_speed(m, 1.0, 1.0)
    assert sc.case_label == "Case1"
    assert np.isinf(sc.lambda_star)
    assert sc.c_star == 1.0


def test_case_classifier_examples():
    assert kf.case_from_square_criterion(model("uniform-1d"), 1.0, 1.0) == "Case1"
    assert kf.case_from_square_criterion(model("two-speed"), 0.3, 1.0) == "Case1"
    assert kf.case_from_square_criterion(model("uniform-ball:2"), 1.0,
                                         (1.0, 0.0)) == "Case2"
    assert kf.case_from_square_criterion(model("quadratic-1d"), 1.0,
                                         1.0) == "Case4"


def test_square_criterion_case3_on_its_boundary():
    # r = j / l^2 - 1 puts c'(lambda_tilde-) at 0: both routes say Case3
    m = model("quadratic-1d")
    r = kf.j_integral(m, 1.0) / kf.l_integral(m, 1.0) ** 2 - 1.0
    assert kf.case_from_square_criterion(m, r, 1.0) == "Case3"
    assert kf.minimal_speed(m, r, 1.0, sample=False).case_label == "Case3"


def test_continuum_profile_densities():
    m = model("quadratic-1d")
    v = np.linspace(-0.95, 0.95, 7)
    res = kf.hamiltonian(m, 0.5)
    assert res.regular
    np.testing.assert_allclose(res.profile_density(v), m.density(v) / (1.0 + res.H - 0.5 * v),
                               rtol=1e-15)
    r, lam = 1.0, 0.8
    prof = kf.wave_profile(m, r, 1.0, lam)
    np.testing.assert_allclose(prof.density(v), (1.0 + r) * m.density(v) / (1.0 + lam * (prof.c - v)),
                               rtol=1e-15)
    ball = model("uniform-ball:2")
    e = np.array([0.6, 0.8])
    prof = kf.wave_profile(ball, r, e, lam)
    V = np.array([[0.1, -0.3], [0.5, 0.5], [-0.2, 0.9]])
    np.testing.assert_allclose(prof.density(V), (1.0 + r) * ball.density(V) / (1.0 + lam * (prof.c - V @ e)),
                               rtol=1e-15)


def test_wave_profile_mass_and_domain():
    m = model("quadratic-1d")
    lt = kf.lambda_tilde(m, 1.0, 1.0)
    for lam in (0.5, 0.9 * lt, lt):
        prof = kf.wave_profile(m, 1.0, 1.0, lam)
        np.testing.assert_allclose(prof.mass, 1.0, atol=1e-8)
        assert prof.c == pytest.approx(kf.speed(m, 1.0, 1.0, lam))
    with pytest.raises(DomainError):
        kf.wave_profile(m, 1.0, 1.0, 1.01 * lt)


def test_wave_profile_discrete_atoms():
    m = model("two-speed")
    r, lam = 0.5, 1.0
    prof = kf.wave_profile(m, r, 1.0, lam)
    vals = prof.density(m.support.points)
    np.testing.assert_allclose(vals.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(prof.mass, 1.0, rtol=1e-12)
    # on an atom: (1+r) w / (1 + lam (c - v)); off the atoms: 0
    want = (1.0 + r) * 0.5 / (1.0 + lam * (prof.c - m.support.points[:, 0]))
    assert list(vals) == list(want)
    assert list(prof.density([[0.0], [1.0 + 1e-8], [2.0]])) == [0.0, 0.0, 0.0]
    # a mixed batch gives each point what it gives alone, within 1e-9 of an atom too
    pts = [[-1.0], [0.3], [1.0], [1.0 + 1e-10], [-5.0], [1.0]]
    batch = prof.density(pts)
    assert list(batch) == [prof.density([v])[0] for v in pts]
    assert list(batch) == [want[0], 0.0, want[1], want[1], 0.0, want[1]]
    # the eigenprofile of a 2-D set, whose rows may also come flattened
    diamond = kf.VelocityModel(kf.DiscreteSet([(1, 0), (-1, 0), (0, 1), (0, -1)], [0.25] * 4))
    res = kf.hamiltonian(diamond, (0.7, 0.2))
    atoms = diamond.support.points
    masses = 0.25 / (1.0 + res.H - atoms @ res.p)
    mixed = np.array([atoms[2], (0.5, 0.5), atoms[0], (0.0, 1.0 + 1e-12)])
    assert list(res.profile_density(mixed)) == [masses[2], 0.0, masses[0], masses[2]]
    assert list(res.profile_density(mixed.ravel())) == list(res.profile_density(mixed))


def test_argument_validation():
    m = model("uniform-1d")
    with pytest.raises(ValidationError):
        kf.minimal_speed(m, -1.0, 1.0)
    with pytest.raises(ValidationError):
        kf.speed(m, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        kf.speed(m, 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        kf.wave_profile(m, 1.0, 1.0, -2.0)
    with pytest.raises(ValidationError):
        kf.hamiltonian_value(m, (1.0, 2.0))
    with pytest.raises(ValidationError):
        kf.lambda_tilde(m, -0.5, 1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_growth_rate_must_be_finite_and_positive(r):
    m = model("uniform-1d")
    calls = [
        lambda: kf.lambda_tilde(m, r, 1.0),
        lambda: kf.speed(m, r, 1.0, 1.0),
        lambda: kf.minimal_speed(m, r, 1.0),
        lambda: kf.case_from_square_criterion(m, r, 1.0),
        lambda: kf.wave_profile(m, r, 1.0, 1.0),
        lambda: kf.lagrangian(m, r, 0.1),
        lambda: kf.planar_conjugate(m, r, 1.0, 0.1),
        lambda: kf.freidlin_gartner_speed(m, r, 1.0),
        lambda: kf.run_front_experiment(m, r, kf.SimConfig(t_end=1.0, length=4.0)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="growth rate r must be positive"):
            call()


@pytest.mark.parametrize("name", ["quadratic-1d", "uniform-ball:2"])
def test_hamiltonian_and_membership_agree_at_the_singular_boundary(name):
    m = model(name)
    e = np.eye(m.dim)[0]
    lval = kf.models.l_integral(m, e)
    for scale, singular in ((1.0 - 5e-13, True), (1.0 + 5e-13, True), (1.0 - 1e-9, False)):
        p = lval * scale * e
        assert kf.in_singular_set(m, p) is singular
        assert kf.hamiltonian(m, p).regular is not singular


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_uniform_h_convex_and_bounded(p1, p2):
    m = model("uniform-1d")
    h1 = kf.hamiltonian_value(m, p1)
    h2 = kf.hamiltonian_value(m, p2)
    hm = kf.hamiltonian_value(m, 0.5 * (p1 + p2))
    assert hm <= 0.5 * (h1 + h2) + 1e-10
    assert h1 >= max(0.0, abs(p1) - 1.0) - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.1, max_value=12.0))
def test_speed_exceeds_minimum_everywhere(r, lam):
    m = model("quadratic-1d")
    c_star = kf.minimal_speed(m, r, 1.0, sample=False).c_star
    assert kf.speed(m, r, 1.0, lam) >= c_star - 1e-9


@st.composite
def _atom_sets(draw):
    """Random atom sets with positive weights and zero mean, plus frequencies."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    pts = rng.uniform(-1.0, 1.0, (n, dim))
    pts -= w @ pts
    # a wide spread of |p|, so rows take different numbers of Newton steps
    P = rng.standard_normal((draw(st.integers(2, 40)), dim)) * 10.0 ** rng.uniform(-3, 2)
    return w, pts @ P.T


@settings(max_examples=60, deadline=None)
@given(_atom_sets())
def test_discrete_h_rows_do_not_depend_on_the_batch(case):
    w, dots = case
    D = dots.T
    batch = kf.dispersion._discrete_h(w, D)
    for i, row in enumerate(D):
        assert batch[i] == kf.dispersion._discrete_h(w, row[None, :])[0]


def _brent_h(m, p):
    """The scalar Brent solve that the batched H solver replaces, as an oracle."""
    from scipy.optimize import brentq

    from kinfront.models import edge_kernel_integral, l_integral

    p = np.atleast_1d(np.asarray(p, dtype=float))
    nrm = float(np.linalg.norm(p))
    if nrm == 0.0:
        return 0.0
    e = p / nrm
    mu = nrm * m.support_max(e)
    if l_integral(m, e) <= nrm * (1.0 + 1e-12):
        return mu - 1.0

    def f(xi):
        return min(edge_kernel_integral(m, e, 1.0 + xi - mu, nrm, 1), 1e6) - 1.0

    eps = 1e-3 * (1.0 + nrm)
    eps_min = nrm * m.grid.edge_tail * 2.0**13
    while f(mu - 1.0 + eps) <= 0.0:
        if eps <= eps_min:
            return mu - 1.0 + eps
        eps = max(eps * 0.1, eps_min)
    hi, step = mu, max(1.0, abs(mu))
    while f(hi) > 0.0:
        hi, step = hi + step, 2.0 * step
    return brentq(f, mu - 1.0 + eps, hi, xtol=1e-12, rtol=4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("name", ["uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3"])
def test_batched_h_matches_the_brent_solve(name):
    m = model(name)
    mags = np.geomspace(1e-3, 50.0, 60)
    if name == "quadratic-1d":
        # both sides of the singular boundary |p| = l
        mags = np.concatenate([mags, L_QUAD * (1.0 + np.array([-1e-3, -1e-9, 1e-9, 1e-3]))])
    rng = np.random.default_rng(3)
    E = rng.standard_normal((mags.size, m.dim))
    P = mags[:, None] * E / np.linalg.norm(E, axis=1, keepdims=True)
    got = kf.dispersion.hamiltonian_values(m, P)
    want = np.array([_brent_h(m, p) for p in P])
    # brentq's own guarantee: |x - root| <= xtol + rtol |root|
    np.testing.assert_allclose(got, want, rtol=4.0 * np.finfo(float).eps, atol=1e-12)
    if name == "uniform-1d":
        # |p| = 50 sits on the eps_min floor: its root is below quadrature resolution
        eps_min = 50.0 * m.grid.edge_tail * 2.0**13
        assert abs(P[-1, 0]) == 50.0 and got[-1] == 49.0 + eps_min


@st.composite
def _continuum_rows(draw):
    """A continuum preset and frequencies of widely spread size and sign."""
    name = draw(st.sampled_from(["uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = model(name)
    P = rng.standard_normal((draw(st.integers(2, 12)), m.dim))
    return m, P * 10.0 ** rng.uniform(-3.0, 1.7, (len(P), 1))


@settings(max_examples=25, deadline=None)
@given(_continuum_rows())
def test_continuum_h_rows_do_not_depend_on_the_batch(case):
    m, P = case
    batch = kf.dispersion.hamiltonian_values(m, P)
    for i, row in enumerate(P):
        assert batch[i] == kf.dispersion.hamiltonian_values(m, row[None, :])[0]
    assert list(kf.dispersion.hamiltonian_values(m, P[::-1])) == list(batch[::-1])


def _min_speed_rows_match(m, r, E):
    """_min_speeds on E, checked row by row against one-row calls and minimal_speed."""
    batch = kf.dispersion._min_speeds(m, r, E)
    for i, e in enumerate(E):
        assert np.array_equal(kf.direction(e), e)  # minimal_speed sees the same row
        one = [a[0] for a in kf.dispersion._min_speeds(m, r, E[i:i + 1])]
        sc = kf.minimal_speed(m, r, e, sample=False)
        dleft = np.nan if sc.left_derivative_at_tilde is None else sc.left_derivative_at_tilde
        curve = [sc.c_star, sc.lambda_star, sc.lambda_tilde, dleft, sc.case_label]
        row = [a[i] for a in batch]
        for got in (one, curve):
            np.testing.assert_array_equal(np.array(got[:4], dtype=float), np.array(row[:4], dtype=float))
            assert got[4] == row[4]
    return set(batch[4])


def test_continuum_min_speed_rows_do_not_depend_on_the_batch():
    lval = kf.models.l_integral(model("quadratic-1d"), np.ones(1))
    jval = kf.models.j_integral(model("quadratic-1d"), np.ones(1))
    pm = np.array([[1.0], [-1.0]])
    cases = _min_speed_rows_match(model("uniform-1d"), 1.0, pm)
    # Case2, Case3 on the square-criterion boundary r = j / l^2 - 1, Case4
    for r in (0.1, jval / lval**2 - 1.0, 1.0):
        cases |= _min_speed_rows_match(model("quadratic-1d"), r, pm)
    plane = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0], [-0.8, 0.6]])
    space = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.36, 0.48, 0.8], [0.8, -0.36, 0.48]])
    for r in (0.3, 2.0):
        cases |= _min_speed_rows_match(model("uniform-ball:2"), r, plane)
        cases |= _min_speed_rows_match(model("uniform-ball:3"), r, space)
    assert cases == {"Case1", "Case2", "Case3", "Case4"}


@pytest.mark.parametrize("r", [0.5, 0.85, 0.97])
def test_two_speed_lambda_star_closed_form(r):
    # c'(lambda) = 0 is solved as a root, to well inside the 1e-9 a zoom over
    # decay rates reached only at r = 0.5
    sc = kf.minimal_speed(model("two-speed"), r, 1.0, sample=False)
    lam = (1.0 + r) * math.sqrt(r) / (1.0 - r)
    assert abs(sc.lambda_star - lam) <= 1e-9 * lam
    np.testing.assert_allclose(sc.c_star, 2.0 * math.sqrt(r) / (1.0 + r), rtol=1e-14)


def test_disk_lambda_star_closed_form():
    # H = |p|^2 / 4 on the unit disk: c(lambda) = lambda / (4 (1+r)) + r / lambda
    sc = kf.minimal_speed(model("uniform-ball:2"), 1.0, (1.0, 0.0), sample=False)
    assert sc.case_label == "Case2"
    assert abs(sc.lambda_star - 2.0 * math.sqrt(2.0)) <= 1e-9 * 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize("name,r", [
    ("two-speed", 0.5), ("two-speed", 0.97), ("uniform-1d", 0.11), ("uniform-1d", 3.0),
    ("quadratic-1d", 0.055), ("quadratic-1d", 0.31), ("uniform-ball:2", 0.11),
    ("uniform-ball:2", 3.0), ("uniform-ball:3", 0.11), ("uniform-ball:3", 3.0),
])
def test_lambda_star_is_a_first_order_point(name, r):
    # an interior minimum: c'(lambda*) = 0, as the derivative of the
    # dispersion relation gives it, apart from the root solve
    m = model(name)
    e = np.eye(m.dim)[0]
    sc = kf.minimal_speed(m, r, e, sample=False)
    assert sc.case_label in ("Case1", "Case2") and np.isfinite(sc.lambda_star)
    lam = sc.lambda_star
    assert abs(kf.speed_derivative_left(m, r, e, lam)) <= 1e-8 / lam**2


def test_bracket_roots_rows_do_not_depend_on_the_batch():
    # x^3 + x - k on [-3, 5]: smooth rows, a root at an integer, and a row
    # whose root sits close to the bracket's end
    ks = np.array([0.5, 2.0, -7.0, 129.9, 10.0, 1e-9])
    f = lambda x, rows: (x**3 + x - ks[rows], 2.0 * x)
    lo, hi = np.full(ks.size, -3.0), np.full(ks.size, 5.0)
    x, data = kf.dispersion._bracket_roots(f, lo, hi, f(lo, np.arange(ks.size))[0], f(hi, np.arange(ks.size))[0])
    np.testing.assert_allclose(x**3 + x, ks, rtol=1e-11, atol=1e-11)
    np.testing.assert_array_equal(data, 2.0 * x)
    assert x[1] == 1.0
    for i in range(ks.size):
        one = kf.dispersion._bracket_roots(lambda y, _: f(y, np.array([i])), lo[:1], hi[:1],
                                           f(lo[:1], [i])[0], f(hi[:1], [i])[0])
        assert (one[0][0], one[1][0]) == (x[i], data[i])


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
def test_bracket_roots_tolerance_keeps_rows_independent(tol):
    # the absolute term of the stopping rule is an argument; each row stops
    # within 4 eps |x| + tol of its sign change whatever the batch. The last
    # row's function jumps to +inf past x = 1 and its root sits at 0.75: the
    # steps bisect off the +inf values instead of interpolating through them
    ks = np.array([0.5, 2.0, -7.0, 129.9, 1e-9])
    roots = np.cbrt(ks)

    def f(x, rows):
        cubic = x**3 - ks[np.minimum(rows, ks.size - 1)]
        jump = np.where(x > 1.0, np.inf, x - 0.75)
        return np.where(rows == ks.size, jump, cubic), x

    rows = np.arange(ks.size + 1)
    lo, hi = np.full(rows.size, -3.0), np.full(rows.size, 6.0)
    x, _ = kf.dispersion._bracket_roots(f, lo, hi, f(lo, rows)[0], f(hi, rows)[0], tol=tol)
    band = 4.0 * np.finfo(float).eps * np.abs(x) + tol
    assert np.all(np.abs(x - np.append(roots, 0.75)) <= band)
    for i in rows:
        one = kf.dispersion._bracket_roots(lambda y, _: f(y, np.array([i])), lo[:1], hi[:1],
                                           f(lo[:1], np.array([i]))[0], f(hi[:1], np.array([i]))[0],
                                           tol=tol)
        assert one[0][0] == x[i]


@pytest.mark.parametrize("r", [1e-9, 1e-7])
def test_minimum_below_the_first_bracket_end(r):
    # lambda* = sqrt(r) (1+r)/(1-r) and 2 sqrt(r (1+r)) lie below 1e-3: the
    # bracket's lower end steps down until c' < 0 there
    sc = kf.minimal_speed(model("two-speed"), r, 1.0, sample=False)
    np.testing.assert_allclose(sc.c_star, 2.0 * math.sqrt(r) / (1.0 + r), rtol=1e-6)
    np.testing.assert_allclose(sc.lambda_star, (1.0 + r) * math.sqrt(r) / (1.0 - r), rtol=1e-6)
    sc = kf.minimal_speed(model("uniform-ball:2"), r, (1.0, 0.0), sample=False)
    np.testing.assert_allclose(sc.c_star, math.sqrt(r / (1.0 + r)), rtol=1e-6)
    np.testing.assert_allclose(sc.lambda_star, 2.0 * math.sqrt(r * (1.0 + r)), rtol=1e-6)


def test_min_speed_rows_with_their_own_r_do_not_depend_on_the_batch():
    # one growth rate per row, as a sweep solves them, in a shuffled order:
    # Case1, Case2, Case3 on the slab's square-criterion boundary, Case4,
    # the ballistic two-speed row at r = 2, and r = 1e-9 rows whose
    # bracket's lower end steps down
    lval = kf.models.l_integral(model("quadratic-1d"), np.ones(1))
    jval = kf.models.j_integral(model("quadratic-1d"), np.ones(1))
    rng = np.random.default_rng(17)
    cases, ballistic = set(), 0
    for name in ("uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3", "two-speed"):
        m = model(name)
        rs = np.array([1e-9, 0.1, 0.3, jval / lval**2 - 1.0, 1.0, 2.0, 1e-9, 2.0])
        rs = rs[rng.permutation(rs.size)]
        E = rng.standard_normal((rs.size, m.dim))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        batch = kf.dispersion._min_speeds(m, rs, E)
        for i in range(rs.size):
            for r in (rs[i:i + 1], rs[i]):
                one = kf.dispersion._min_speeds(m, r, E[i:i + 1])
                for got, want in zip(one, batch):
                    np.testing.assert_array_equal(got, want[i:i + 1])
        cases |= set(batch[4])
        ballistic += int(np.isinf(batch[1]).sum())
    assert cases == {"Case1", "Case2", "Case3", "Case4"}
    assert ballistic > 0


@pytest.mark.parametrize("name,ps,passes", [
    # |p| on both sides of 1 / vbar = 1, the regular rows of each preset up
    # to close below l, and on the slab rows whose root lies below the
    # eps_min floor (|p| = 15 and 50)
    ("uniform-1d", (0.1, 0.5, 0.9, 1.1, 2.0, 5.0, 15.0, 50.0), 37),
    ("quadratic-1d", (0.1, 0.5, 0.9, 1.1, 1.15), 19),
    ("uniform-ball:2", (0.1, 0.5, 0.9, 1.1, 1.9, 1.999), 31),
    ("uniform-ball:3", (0.1, 0.5, 0.9, 1.1, 1.45, 1.4999), 28),
])
def test_edge_root_newton_passes(name, ps, passes):
    # each row starts from the moment bound a0 - |p| vbar: one integrals
    # pass per Newton step, counted on a fresh model's grid
    grid = kf.preset(name).grid
    integrals = grid.integrals
    seen = []

    def counted(y):
        seen.append(len(y))
        return integrals(y)

    grid.integrals = counted
    for p in ps:
        t = kf.dispersion._edge_roots(grid, np.array([p]))
        assert t[0] > 0.0
    assert len(seen) == passes


@pytest.mark.parametrize("name,ps", [
    ("uniform-1d", (0.01, 0.3, 0.99, 1.0, 1.01, 3.0)),
    ("uniform-ball:2", (0.01, 0.3, 0.99, 1.0, 1.01, 1.9)),
])
def test_edge_root_start_lies_left_of_the_root(name, ps):
    # pairing v.p with -v.p bounds 1 + H below by the root a0 of
    # a^3 - a^2 - sigma^2 |p|^2: the H solve returns at least a0 - 1
    m = kf.preset(name)
    for p in ps:
        c = m.grid.m2 * p * p
        a0 = np.roots([1.0, -1.0, 0.0, -c])
        a0 = a0[np.abs(a0.imag) < 1e-12].real.max()
        H = kf.hamiltonian_value(m, p * np.eye(m.dim)[0])
        assert 1.0 + H >= a0 * (1.0 - 1e-14)


# |p| below l on every preset, and on the slab past 1/vbar = 1 up to rows
# whose root lies below the eps_min floor (|p| = 20)
START_BETAS = {
    "uniform-1d": (1e-3, 0.05, 0.4, 0.9, 1.3, 2.5, 6.0, 20.0),
    "quadratic-1d": (1e-3, 0.05, 0.4, 0.9, 1.15),
    "uniform-ball:2": (1e-3, 0.05, 0.4, 0.9, 1.3, 1.9),
    "uniform-ball:3": (1e-3, 0.05, 0.4, 0.9, 1.3, 1.45),
}


def _starts(grid, beta, cold):
    """Starts left of each root, right of it, below the floor, non-positive and nan."""
    floor = beta * grid.edge_tail * 2.0**13
    return [0.3 * cold, cold * (1.0 - 1e-6), 3.0 * cold + 0.2, cold * (1.0 + 1e-6),
            0.5 * floor, np.zeros_like(cold), -cold, np.full_like(cold, np.nan),
            np.full_like(cold, np.inf)]


@pytest.mark.parametrize("name", sorted(START_BETAS))
def test_edge_roots_from_any_start_end_on_the_cold_root(name):
    # a start left of the root rises by Newton, one right of it (or below the
    # floor, raised to it) steps down, and a start that is not positive and
    # finite is the moment bound: every row ends within the Newton stop of
    # the cold root, and in any batch with the same bits
    grid = model(name).grid
    beta = np.array(START_BETAS[name])
    cold = kf.dispersion._edge_roots(grid, beta)
    for start in _starts(grid, beta, cold):
        t = kf.dispersion._edge_roots(grid, beta, start)
        assert np.all(np.abs(t - cold) <= 4e-16 * (1.0 + cold))
        for i in range(beta.size):
            one = kf.dispersion._edge_roots(grid, beta[i:i + 1], start[i:i + 1])
            assert one[0] == t[i]
    for start in _starts(grid, beta, cold)[5:]:
        np.testing.assert_array_equal(kf.dispersion._edge_roots(grid, beta, start), cold)


@pytest.mark.parametrize("name", sorted(START_BETAS))
def test_h_rays_from_any_start_agree_with_the_cold_rays(name):
    # one ray per kind of start, on a few directions: H, dH/dbeta and t
    # agree with the cold solve to within its Newton stop, and a ray's bits
    # do not depend on the other rays
    m = model(name)
    beta = np.array(START_BETAS[name])
    cold = kf.dispersion._edge_roots(m.grid, beta)
    starts = np.array(_starts(m.grid, beta, cold))
    scales = np.tile(beta, (len(starts), 1))
    E = np.tile(np.eye(m.dim)[-1], (len(starts), 1))
    H0, dH0, t0 = kf.dispersion._h_rays(m, scales, E)
    H, dH, t = kf.dispersion._h_rays(m, scales, E, starts)
    assert np.all(np.abs(t - t0) <= 4e-16 * (1.0 + t0))
    np.testing.assert_allclose(H, H0, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(dH, dH0, rtol=1e-12, atol=1e-14)
    for i in range(len(starts)):
        one = kf.dispersion._h_rays(m, scales[i:i + 1], E[i:i + 1], starts[i:i + 1])
        for got, want in zip(one, (H, dH, t)):
            np.testing.assert_array_equal(got[0], want[i])


def test_atom_set_h_rays_do_not_read_the_start():
    # an atom-set row keeps its tie-weight start, whatever the caller holds
    m = model("two-speed")
    scales = np.array([[0.1, 0.9, 3.0], [0.5, 2.0, 9.0]])
    E = np.array([[1.0], [-1.0]])
    H0, dH0, t0 = kf.dispersion._h_rays(m, scales, E)
    H, dH, t = kf.dispersion._h_rays(m, scales, E, np.full(scales.shape, 0.37))
    assert t0 is None and t is None
    np.testing.assert_array_equal(H, H0)
    np.testing.assert_array_equal(dH, dH0)


def test_h_is_finite_at_huge_frequencies():
    # the moment start overflows past |p| ~ 1e77; the rows start from
    # 1e-3 (1 + |p|) and end on the eps_min floor, H = |p| (1 + 1.5e-11)
    ps = np.array([[1e77], [1e78], [1e100], [1e150], [1.3e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = kf.dispersion.hamiltonian_values(model("uniform-1d"), ps)
    assert np.all(np.isfinite(H))
    np.testing.assert_allclose(H, ps[:, 0] - 1.0, rtol=1e-10)


def test_two_speed_minimum_past_the_first_window():
    # at r = 0.9995, lambda* = (1+r) sqrt(r) / (1-r) is about 4e3, past
    # LAMBDA_CAP: the window grows to it, and c* is not the ballistic 1
    r = 0.9995
    sc = kf.minimal_speed(model("two-speed"), r, 1.0, sample=False)
    assert np.isfinite(sc.lambda_star)
    np.testing.assert_allclose(sc.lambda_star, (1.0 + r) * math.sqrt(r) / (1.0 - r), rtol=1e-9)
    assert abs(sc.c_star - 2.0 * math.sqrt(r) / (1.0 + r)) <= 1e-10
    curve = kf.minimal_speed(model("two-speed"), r, 1.0)
    assert curve.lambda_grid[-1] >= 10.0 * sc.lambda_star * (1.0 - 1e-12)
    assert np.all(curve.c_values >= sc.c_star * (1.0 - 1e-12))
