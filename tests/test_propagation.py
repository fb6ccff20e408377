import math
import warnings
from functools import lru_cache

import numpy as np
import pytest

import kinfront as kf
from kinfront import propagation as P
from kinfront.errors import ValidationError

model = lru_cache(maxsize=None)(kf.preset)


def diamond():
    pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    return kf.VelocityModel(kf.DiscreteSet(pts, [0.25] * 4), name="diamond")


def octahedron():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    return kf.VelocityModel(kf.DiscreteSet(pts, [1.0 / 6.0] * 6), name="octahedron")


def test_lagrangian_at_rest_and_at_cstar():
    m = model("uniform-1d")
    r = 1.0
    np.testing.assert_allclose(kf.lagrangian(m, r, np.zeros(1)), -r,
                               atol=1e-9)
    c_star = kf.minimal_speed(m, r, 1.0, sample=False).c_star
    # the conjugate vanishes exactly at the spreading speed
    assert abs(kf.lagrangian(m, r, np.array([c_star]))) < 1e-7
    assert kf.lagrangian(m, r, np.array([1.5])) == np.inf


def test_lagrangian_even_for_symmetric_models():
    m = model("quadratic-1d")
    for q in (0.2, 0.55, 0.9):
        a = kf.lagrangian(m, 0.8, np.array([q]))
        b = kf.lagrangian(m, 0.8, np.array([-q]))
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)


def test_planar_conjugate_sign_structure():
    m = model("uniform-1d")
    r = 1.0
    c_star = kf.minimal_speed(m, r, 1.0, sample=False).c_star
    assert abs(kf.planar_conjugate(m, r, 1.0, c_star)) < 1e-7
    assert kf.planar_conjugate(m, r, 1.0, 0.5 * c_star) < 0.0
    assert kf.planar_conjugate(m, r, 1.0, 0.5 * (c_star + 1.0)) > 0.0


def test_hopf_lax_phase_values():
    m = model("uniform-1d")
    r = 1.0
    c_star = kf.minimal_speed(m, r, 1.0, sample=False).c_star
    t = 2.0
    # zero inside the spreading cone, positive ahead, +inf outside the
    # velocity hull
    assert kf.hopf_lax_phi(m, r, t, np.array([0.9 * c_star * t])) == 0.0
    ahead = kf.hopf_lax_phi(m, r, t, np.array([1.1 * c_star * t]))
    assert 0.0 < ahead < np.inf
    assert kf.hopf_lax_phi(m, r, t, np.array([1.5 * t])) == np.inf
    planar = kf.hopf_lax_phi(m, r, t, np.array([1.1 * c_star * t]),
                             init="planar", e0=1.0)
    np.testing.assert_allclose(planar, ahead, rtol=1e-7)
    with pytest.raises(ValidationError):
        kf.hopf_lax_phi(m, r, -1.0, np.array([0.0]))
    with pytest.raises(ValidationError):
        kf.hopf_lax_phi(m, r, 1.0, np.array([0.0]), init="planar")


def test_nullset_radius_linear_in_time():
    m = model("uniform-1d")
    r1 = kf.nullset_radius(m, 1.0, 1.0, 1.0)
    r4 = kf.nullset_radius(m, 1.0, 1.0, 4.0)
    np.testing.assert_allclose(r4, 4.0 * r1, rtol=1e-12)


def test_nullset_radius_matches_minimal_speed():
    m = model("quadratic-1d")
    r = 1.0
    c_star = kf.minimal_speed(m, r, 1.0, sample=False).c_star
    rad = kf.nullset_radius(m, r, 1.0, 3.0, init="planar")
    np.testing.assert_allclose(rad / 3.0, c_star, atol=1e-6)


def test_point_spreading_equals_planar_in_1d():
    m = model("uniform-1d")
    w = kf.freidlin_gartner_speed(m, 1.0, 1.0)
    c = kf.minimal_speed(m, 1.0, 1.0, sample=False).c_star
    np.testing.assert_allclose(w, c, rtol=1e-10)


def test_radial_model_spreads_isotropically():
    m = model("uniform-ball:2")
    e = kf.direction((1.0, 1.0))
    w = kf.freidlin_gartner_speed(m, 1.0, e)
    c = kf.minimal_speed(m, 1.0, (1.0, 0.0), sample=False).c_star
    np.testing.assert_allclose(w, c, rtol=1e-10)
    rad = kf.nullset_radius(m, 1.0, e, 2.0, init="point")
    np.testing.assert_allclose(rad, 2.0 * w, atol=1e-6)


def test_ballistic_front_hits_hull_speed():
    # two-speed at r >= 1 spreads at the maximal velocity
    m = model("two-speed")
    rad = kf.nullset_radius(m, 1.0, 1.0, 5.0)
    np.testing.assert_allclose(rad, 5.0, rtol=1e-12)


def test_diamond_anisotropy():
    m = diamond()
    r = 1.0
    c_axis = kf.minimal_speed(m, r, (1.0, 0.0), sample=False).c_star
    c_diag = kf.minimal_speed(m, r, kf.direction((1.0, 1.0)),
                              sample=False).c_star
    # along the diagonal the support function drops to 1/sqrt(2)
    assert c_diag < c_axis < 1.0
    # the direction scan bottoms out at e0 itself
    w = kf.freidlin_gartner_speed(m, r, (1.0, 0.0))
    np.testing.assert_allclose(w, c_axis, atol=1e-8)


def test_diamond_spreading_at_ballistic_corner():
    # at r = 1.1 c* turns ballistic near the diagonal and w*(e0) is the hull
    # radius along e0, attained at the hull's edge normal (1, 1)/sqrt(2)
    theta = 0.46
    e0 = (math.cos(theta), math.sin(theta))
    w = kf.freidlin_gartner_speed(diamond(), 1.1, e0)
    hull = 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))
    np.testing.assert_allclose(w, hull, rtol=1e-12)


def test_point_radius_at_ballistic_corner_stops_at_the_hull(monkeypatch):
    # L <= 0 up to the hull along e0: the radius is the hull's extent, found
    # without root-finding onto the jump of L to +inf past the hull
    calls = []
    lagrangian = P.lagrangian

    def counted(*args, **kwargs):
        calls.append(args)
        return lagrangian(*args, **kwargs)

    monkeypatch.setattr(P, "lagrangian", counted)
    theta = 0.46
    e0 = (math.cos(theta), math.sin(theta))
    rad = kf.nullset_radius(diamond(), 1.1, e0, 2.0)
    hull = 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))
    np.testing.assert_allclose(rad, 2.0 * hull, rtol=1e-12)
    assert len(calls) <= 2


def test_lagrangian_is_infinite_past_the_hull_without_solving(monkeypatch):
    # the root solve for point radii tries points past the hull; there L is
    # +inf from the hull's facets alone, with no direction scan
    tri = kf.VelocityModel(kf.DiscreteSet([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)],
                                          [1.0 / 3.0] * 3))
    mid = np.array([-0.5, 0.0])  # on the edge from (0, 1) to (-1, -1)
    normal = np.array([-2.0, 1.0]) / math.sqrt(5.0)
    inside = kf.lagrangian(tri, 0.8, mid - 1e-6 * normal)
    assert np.isfinite(inside)

    def no_solve(*args):
        raise AssertionError("direction scan run past the hull")

    monkeypatch.setattr(P, "_ray_sups", no_solve)
    for q in (1e-6, 0.3):
        assert kf.lagrangian(tri, 0.8, mid + q * normal) == np.inf
    assert kf.lagrangian(octahedron(), 0.8, np.array([0.5, 0.5, 0.1])) == np.inf


def test_octahedron_spreads_along_its_axis_at_cstar():
    m = octahedron()
    r = 0.8
    e1 = np.array([1.0, 0.0, 0.0])
    c = kf.minimal_speed(m, r, e1, sample=False).c_star
    w = kf.freidlin_gartner_speed(m, r, e1)
    np.testing.assert_allclose(w, c, rtol=1e-8)
    rad = kf.nullset_radius(m, r, e1, 2.0, init="planar")
    np.testing.assert_allclose(rad / 2.0, c, rtol=1e-8)
    # the 3-D conjugate: -r at rest, zero at the spreading speed, +inf past
    # the hull
    np.testing.assert_allclose(kf.lagrangian(m, r, np.zeros(3)), -r, rtol=1e-12)
    assert abs(kf.lagrangian(m, r, w * e1)) < 1e-9
    assert kf.lagrangian(m, r, np.array([0.5, 0.5, 0.1])) == np.inf
    # off the axes the point front is slower than the planar one
    e = kf.direction((1.0, 2.0, 2.0))
    assert kf.freidlin_gartner_speed(m, r, e) < kf.minimal_speed(m, r, e, sample=False).c_star
    # at r = 3 c* is ballistic along the facet normal (1, 1, 1)/sqrt(3), and
    # w* is the hull's extent 1/|e|_1 along e, attained at that normal
    np.testing.assert_allclose(kf.freidlin_gartner_speed(m, 3.0, e), 0.6, rtol=1e-12)


@pytest.mark.parametrize("rays_per_chunk", [None, 3])
def test_batched_scans_equal_one_ray_at_a_time(monkeypatch, rays_per_chunk):
    m = octahedron()
    if rays_per_chunk:
        # split the batches into several _discrete_h calls
        monkeypatch.setattr(kf.dispersion, "_H_CHUNK", 65 * 6 * rays_per_chunk)
    # generic directions, and two where atoms tie for the largest projection
    dirs = np.vstack([P._fibonacci_sphere(40), kf.direction((1.0, 1.0, 0.0)),
                      kf.direction((1.0, 1.0, 1.0))])
    # rays inside the cone, on its edge and past it (+inf)
    a = dirs @ np.array([0.9, -0.5, 0.4])
    sups = P._ray_sups(m, 0.8, dirs, a)
    assert np.isinf(sups).any() and np.isfinite(sups).any()
    for i in range(len(dirs)):
        assert P._ray_sups(m, 0.8, dirs[i:i + 1], a[i:i + 1])[0] == sups[i]
    # at r = 3 the tie directions are ballistic (lambda* = inf), the others not
    for r in (0.8, 3.0):
        c, lam = kf.dispersion._atom_min_speeds(m, r, dirs)
        if r == 3.0:
            assert np.isinf(lam).any() and np.isfinite(lam).any()
        for i in range(len(dirs)):
            c1, lam1 = kf.dispersion._atom_min_speeds(m, r, dirs[i:i + 1])
            assert (c1[0], lam1[0]) == (c[i], lam[i])


def test_collinear_atoms_spread_like_their_line():
    # atoms on the first axis have no 2-D hull; c*(e) = |e_1| c*_line, so
    # every direction of the scan gives the ratio c*_line
    flat = kf.VelocityModel(kf.DiscreteSet([(1.0, 0.0), (-1.0, 0.0)], [0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # flat ratio: any minimizer
        w = kf.freidlin_gartner_speed(flat, 0.5, (1.0, 0.0))
    c_line = kf.minimal_speed(model("two-speed"), 0.5, 1.0, sample=False).c_star
    np.testing.assert_allclose(w, c_line, rtol=1e-8)


def test_flat_atom_set_spreads_only_in_its_plane():
    # +-e1, +-e2 in 3-D: c*(e3) = vbar(e3) = 0 with e3.e0 = 2/3 > 0, and no
    # point off the plane is reachable
    flat = kf.VelocityModel(kf.DiscreteSet([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
                                           [0.25] * 4))
    e0 = np.array([1.0, 2.0, 2.0]) / 3.0
    assert kf.freidlin_gartner_speed(flat, 1.0, e0) == 0.0
    assert kf.nullset_radius(flat, 1.0, e0, 2.0, init="point") == 0.0
    for q in np.concatenate([[1e-9, 1e-6], np.linspace(5e-4, 0.01, 20)]):
        assert kf.lagrangian(flat, 1.0, q * e0) == np.inf
    # in the plane the conjugate stays finite
    assert np.isfinite(kf.lagrangian(flat, 1.0, np.array([0.2, 0.1, 0.0])))


def test_collinear_atoms_do_not_spread_across_their_line():
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    e0 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    c = kf.minimal_speed(line, 0.5, e0, sample=False).c_star
    assert c == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # flat ratio: any minimizer
        assert kf.freidlin_gartner_speed(line, 0.5, e0) <= c


def test_3d_direction_refinement_converges():
    # the sup over directions, refined down to 1e-7 rad; an independent
    # Nelder-Mead search over the sphere's angles gives -0.598949919266
    L = kf.lagrangian(octahedron(), 0.8, np.array([0.31, 0.17, 0.12]))
    np.testing.assert_allclose(L, -0.598949919266, rtol=1e-8)


@pytest.mark.parametrize("make", [diamond, lambda: kf.preset("uniform-ball:2")])
def test_spreading_calls_leave_the_model_as_built(make):
    # a model keeps no state between calls beyond the grids it built
    m = make()
    before = dict(vars(m))
    e0 = np.array([math.cos(0.46), math.sin(0.46)])
    kf.freidlin_gartner_speed(m, 0.8, e0)
    kf.nullset_radius(m, 0.8, e0, 1.0, init="point")
    assert vars(m).keys() == before.keys()
    assert all(vars(m)[k] is v for k, v in before.items())
    assert not any(isinstance(v, dict) for v in vars(m).values())


def test_hj_solution_bundle():
    m = model("uniform-1d")
    sol = kf.hj_solution(m, 1.0, n_samples=21)
    assert sol.lagrangian_samples.shape == (21, 2)
    qs, ls = sol.lagrangian_samples.T
    assert qs[0] == -1.0 and qs[-1] == 1.0
    # conjugate is -r at rest and grows toward the hull edge
    k = np.argmin(np.abs(qs))
    np.testing.assert_allclose(ls[k], -1.0, atol=1e-9)
    rad = sol.nullset_radius(2.0)
    assert sol.phi(2.0, np.array([rad * 0.99])) == 0.0
    assert sol.phi(2.0, np.array([rad * 1.01])) > 0.0


def test_lagrangian_rejects_bad_rate():
    with pytest.raises(ValidationError):
        kf.lagrangian(model("uniform-1d"), 0.0, np.zeros(1))
    with pytest.raises(ValidationError):
        kf.freidlin_gartner_speed(model("uniform-1d"), -2.0, 1.0)
