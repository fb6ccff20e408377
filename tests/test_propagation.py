import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial import ConvexHull

import kinfront as kf
from kinfront import models as M
from kinfront import propagation as P
from kinfront.errors import ValidationError

model = lru_cache(maxsize=None)(kf.preset)

L_QUAD = 3.0 * (2.0 * math.log(2.0) - 1.0)


def diamond():
    pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    return kf.VelocityModel(kf.DiscreteSet(pts, [0.25] * 4), name="diamond")


def octahedron():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    return kf.VelocityModel(kf.DiscreteSet(pts, [1.0 / 6.0] * 6), name="octahedron")


def _circle(thetas):
    """Directions at the angles thetas in the plane."""
    return np.column_stack([np.cos(thetas), np.sin(thetas)])


def _spiral(n):
    """n directions on a Fibonacci spiral over the sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


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
    # c* = vbar(e0), there and on the diamond at r = 3: the bracket about c*
    # ends at vbar, where the conjugate is not positive, so the planar
    # radius is vbar, given c* or not
    for m, r, e0 in ((m, 1.0, (1.0,)), (diamond(), 3.0, GENERIC)):
        vb = m.support_max(M._unit(m, e0))
        assert kf.minimal_speed(m, r, e0, sample=False).c_star == vb
        assert kf.nullset_radius(m, r, e0, 1.0, init="planar") == vb
        assert kf.nullset_radius(m, r, e0, 1.0, init="planar", speed=vb) == vb


def test_diamond_anisotropy():
    m = diamond()
    r = 1.0
    c_axis = kf.minimal_speed(m, r, (1.0, 0.0), sample=False).c_star
    c_diag = kf.minimal_speed(m, r, kf.direction((1.0, 1.0)),
                              sample=False).c_star
    # along the diagonal the support function drops to 1/sqrt(2)
    assert c_diag < c_axis < 1.0
    # the ratio is least at e0 itself
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


def _count_lagrangian_calls(monkeypatch):
    # every value of L, from lagrangian or from a point-radius root solve
    calls = []
    lagrangian = P._lagrangian

    def counted(*args):
        calls.append(args)
        return lagrangian(*args)

    monkeypatch.setattr(P, "_lagrangian", counted)
    return calls


def test_point_radius_at_ballistic_corner_stops_at_the_hull(monkeypatch):
    # L <= 0 up to the hull along e0: the radius is the hull's extent, found
    # from one L at the hull, with no root solve
    calls = _count_lagrangian_calls(monkeypatch)
    theta = 0.46
    e0 = (math.cos(theta), math.sin(theta))
    rad = kf.nullset_radius(diamond(), 1.1, e0, 2.0)
    hull = 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))
    np.testing.assert_allclose(rad, 2.0 * hull, rtol=1e-12)
    assert len(calls) <= 2
    # w* is that hull extent; the point root takes no speed, and refuses
    # one before it evaluates any L
    w = kf.freidlin_gartner_speed(diamond(), 1.1, e0)
    del calls[:]
    with pytest.raises(ValidationError):
        kf.nullset_radius(diamond(), 1.1, e0, 2.0, speed=w)
    assert calls == []


GENERIC = (math.cos(0.46), math.sin(0.46))


@lru_cache(maxsize=None)
def _generic_point_radius():
    """w* and the point radius without a speed, diamond at angle 0.46, r = 0.8."""
    w = kf.freidlin_gartner_speed(diamond(), 0.8, GENERIC)
    return w, kf.nullset_radius(diamond(), 0.8, GENERIC, 1.0)


def test_seeded_point_radius_is_few_lagrangian_calls(monkeypatch):
    # a point root on an atom set starts each L from the last one's
    # maximiser, so a narrowing that failed would change the radius: the
    # speed is refused, in 2-D and 3-D, before any L is evaluated
    w, plain = _generic_point_radius()
    calls = _count_lagrangian_calls(monkeypatch)
    for m, e0, speed in ((diamond(), GENERIC, w), (octahedron(), (1.0, 2.0, 2.0), 0.59)):
        with pytest.raises(ValidationError):
            kf.nullset_radius(m, 0.8, e0, 1.0, speed=speed)
    assert calls == []
    assert kf.nullset_radius(diamond(), 0.8, GENERIC, 1.0) == plain


def test_point_radius_does_not_follow_the_speed():
    w, plain = _generic_point_radius()
    # a speed whose bracket misses the root, or holds it: both are refused
    for speed in (0.5 * w, w * (1.0 + 1e-7)):
        with pytest.raises(ValidationError):
            kf.nullset_radius(diamond(), 0.8, GENERIC, 1.0, speed=speed)
    # point data on 1-D and continuum models runs the planar root, which
    # keeps its speed: one off by 1e-7 still gives the root of phi
    for name in ("quadratic-1d", "uniform-ball:2"):
        m = model(name)
        e0 = np.eye(m.dim)[0]
        c = kf.minimal_speed(m, 0.8, e0, sample=False).c_star
        unseeded = kf.nullset_radius(m, 0.8, e0, 1.0)
        off = kf.nullset_radius(m, 0.8, e0, 1.0, speed=c * (1.0 + 1e-7))
        assert abs(off - unseeded) <= 2e-9
        assert abs(off - c * (1.0 + 1e-7)) > 2e-8


def test_point_root_lagrangians_start_from_the_last_maximiser(monkeypatch):
    # diamond at 0.46 rad, r = 0.8: each L after the first interior one
    # starts its damped Newton from that L's q. One-row H solves (Newton
    # iterates and damped trials) of the point root: 147 from q = 0, 96
    # with the L at the hull solved, and 54 by a root that used the values
    # of L but not their slopes q*.e0
    calls = _count_lagrangian_calls(monkeypatch)
    solves = []
    discrete_h = P._discrete_h

    def counted(*args):
        solves.append(1)
        return discrete_h(*args)

    monkeypatch.setattr(P, "_discrete_h", counted)
    radius = kf.nullset_radius(diamond(), 0.8, GENERIC, 1.0)
    assert len(solves) == 28
    # the L at the hull is certified positive by the weight 1/2 of its
    # facet, 1 - 1.8/2 > 0, and not solved; every L after the first, an
    # interior sup, starts from a maximiser
    top = P._hull_extent(diamond(), kf.direction(GENERIC))
    assert all(args[3] < top for args in calls)
    starts = [args[4] for args in calls]
    assert starts[0] is None
    assert all(q is not None for q in starts[1:])
    w = kf.freidlin_gartner_speed(diamond(), 0.8, GENERIC)
    assert abs(radius - w) <= 2e-12


# planar radii at Case1, Case2 and Case4 speeds, on every preset and on the
# diamond along an axis and off it
PLANAR_CASES = [(name, None) for name in kf.PRESET_NAMES] + [("diamond", (1.0, 0.0)),
                                                            ("diamond", GENERIC)]


def _planar_model(name, e0):
    m = diamond() if name == "diamond" else model(name)
    return m, np.eye(m.dim)[0] if e0 is None else np.array(e0)


@pytest.mark.parametrize("name,e0", PLANAR_CASES)
def test_planar_radius_seeded_by_the_rate_agrees_with_the_plain_one(name, e0):
    # the radius seeded by lambda* is a root of the plain planar conjugate,
    # within the root's tolerance; a call without a speed solves c* and
    # lambda* itself and gives it bit for bit
    m, e0 = _planar_model(name, e0)
    top = m.support_max(M._unit(m, e0))
    for r in (0.3, 0.8):
        sc = kf.minimal_speed(m, r, e0, sample=False)
        seeded = kf.nullset_radius(m, r, e0, 1.0, init="planar", speed=sc.c_star,
                                   rate=sc.lambda_star)
        assert _certified(lambda q: kf.planar_conjugate(m, r, e0, q), seeded, top)
        assert kf.nullset_radius(m, r, e0, 1.0, init="planar") == seeded
        # a rate whose window holds no argmax only costs its check
        unrated = kf.nullset_radius(m, r, e0, 1.0, init="planar", speed=sc.c_star)
        for wrong in (10.0 * sc.lambda_star, 0.1 * sc.lambda_star):
            assert kf.nullset_radius(m, r, e0, 1.0, init="planar", speed=sc.c_star,
                                     rate=wrong) == unrated


def test_rate_needs_planar_data_and_a_speed():
    m, e0 = diamond(), GENERIC
    with pytest.raises(ValidationError):
        kf.nullset_radius(m, 0.8, e0, 1.0, init="point", speed=0.7, rate=8.0)
    with pytest.raises(ValidationError):
        kf.nullset_radius(m, 0.8, e0, 1.0, init="planar", rate=8.0)


@pytest.mark.parametrize("seeded", [False, True])
def test_every_planar_step_solves_the_one_e0(monkeypatch, seeded):
    # (2, 1) normalised twice is not (2, 1) normalised once: every ray of the
    # radius must be the row the call normalised, bit for bit
    rows = []
    sups = P._ray_sups

    def spied(model, r, E, a, window=None):
        rows.extend(np.atleast_2d(E))
        return sups(model, r, E, a, window)

    monkeypatch.setattr(P, "_ray_sups", spied)
    for m, e0 in ((diamond(), (2.0, 1.0)), (model("uniform-ball:2"), (3.0, 1.7))):
        sc = kf.minimal_speed(m, 0.8, e0, sample=False)
        kw = {"speed": sc.c_star, "rate": sc.lambda_star} if seeded else {}
        rows.clear()
        kf.nullset_radius(m, 0.8, e0, 1.0, init="planar", **kw)
        # the seeded pair, about the speed the call was given or solved: on
        # the disk its lines and chord end the root, and the diamond's root
        # evaluates the speed after it
        assert len(rows) >= (3 if m.is_discrete else 2)
        assert all((row == rows[0]).all() for row in rows)


def _bracket_steps(monkeypatch, module):
    """(solver, steps) of each _bracket_roots call that module makes, in
    call order; the solver is the function whose root is sought."""
    steps = []
    solve = module._bracket_roots

    def counted(f, *args, **kwargs):
        steps.append([f.__qualname__.split(".")[0], 0])

        def step(x, rows):
            steps[-1][1] += 1
            return f(x, rows)

        return solve(step, *args, **kwargs)

    monkeypatch.setattr(module, "_bracket_roots", counted)
    return steps


@pytest.mark.parametrize("name", ["uniform-ball:2", "uniform-ball:3", "diamond"])
def test_seeded_planar_ray_sups_take_few_steps(monkeypatch, name):
    # the pair of end rays starts from lambda* and every later step from the
    # pair's argmax rates; unseeded, each sup took 10-13 steps. On the balls
    # the pair's lines and chord already end the root; on the diamond at
    # 0.46 rad one later ray sup, at the speed, follows the pair
    m, e0 = (diamond(), kf.direction(GENERIC)) if name == "diamond" else _planar_model(name, None)
    sc = kf.minimal_speed(m, 0.8, e0, sample=False)
    steps = _bracket_steps(monkeypatch, P)
    kf.nullset_radius(m, 0.8, e0, 1.0, init="planar", speed=sc.c_star, rate=sc.lambda_star)
    sups = [n for solver, n in steps if solver == "_ray_sups"]
    assert len(sups) == (2 if name == "diamond" else 1) and max(sups) <= 4


def test_lagrangian_is_infinite_past_the_hull_without_solving(monkeypatch):
    # the root solve for point radii tries points past the hull; there L is
    # +inf from the hull's facets alone, with no H solve
    tri = kf.VelocityModel(kf.DiscreteSet([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)],
                                          [1.0 / 3.0] * 3))
    mid = np.array([-0.5, 0.0])  # on the edge from (0, 1) to (-1, -1)
    normal = np.array([-2.0, 1.0]) / math.sqrt(5.0)
    inside = kf.lagrangian(tri, 0.8, mid - 1e-6 * normal)
    assert np.isfinite(inside)

    def no_solve(*args):
        raise AssertionError("H solved past the hull")

    monkeypatch.setattr(P, "_discrete_h", no_solve)
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
    dirs = np.vstack([_spiral(40), kf.direction((1.0, 1.0, 0.0)),
                      kf.direction((1.0, 1.0, 1.0))])
    # rays inside the cone, on its edge and past it (+inf)
    a = dirs @ np.array([0.9, -0.5, 0.4])
    sups = P._ray_sups(m, 0.8, dirs, a)[0]
    assert np.isinf(sups).any() and np.isfinite(sups).any()
    for i in range(len(dirs)):
        assert P._ray_sups(m, 0.8, dirs[i:i + 1], a[i:i + 1])[0][0] == sups[i]
    # at r = 3 the tie directions are ballistic (lambda* = inf), the others not
    for r in (0.8, 3.0):
        c, lam = kf.dispersion._min_speeds(m, r, dirs)[:2]
        if r == 3.0:
            assert np.isinf(lam).any() and np.isfinite(lam).any()
        for i in range(len(dirs)):
            c1, lam1 = kf.dispersion._min_speeds(m, r, dirs[i:i + 1])[:2]
            assert (c1[0], lam1[0]) == (c[i], lam[i])


def test_collinear_atoms_spread_like_their_line():
    # atoms on the first axis have no 2-D hull; c*(e) = |e_1| c*_line, so
    # every direction of the half plane gives the ratio c*_line
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
    # in the plane the conjugate stays finite inside the atoms' hull, and
    # is +inf past it: no first-order point exists there
    assert np.isfinite(kf.lagrangian(flat, 1.0, np.array([0.2, 0.1, 0.0])))
    assert kf.lagrangian(flat, 1.0, np.array([0.7, 0.5, 0.0])) == np.inf
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    assert np.isfinite(kf.lagrangian(line, 0.5, np.array([0.5, 0.5])))
    assert kf.lagrangian(line, 0.5, np.array([2.0, 2.0])) == np.inf


@pytest.mark.parametrize("r", [1.0, 3.0, 10.0])
def test_flat_atom_set_spreads_in_its_plane_like_the_planar_set(r):
    # the cross +-e1, +-e2 in 3-D, in its plane, is the 2-D diamond; at
    # r = 3 and 10 the front is ballistic and the radius is the distance
    # sqrt(1.25)/1.5 to the facet x + y = 1, short of vbar(e0) = 2/sqrt(5)
    e0 = np.array([1.0, 0.5]) / math.sqrt(1.25)
    flat, e0_3 = _flat_cross(), np.append(e0, 0.0)
    want = kf.nullset_radius(diamond(), r, e0, 1.0, init="point")
    np.testing.assert_allclose(kf.nullset_radius(flat, r, e0_3, 1.0, init="point"), want,
                               rtol=1e-12)
    np.testing.assert_allclose(kf.freidlin_gartner_speed(flat, r, e0_3),
                               kf.freidlin_gartner_speed(diamond(), r, e0), rtol=1e-12)
    if r > 1.0:
        np.testing.assert_allclose(want, math.sqrt(1.25) / 1.5, rtol=1e-12)


def test_collinear_atoms_spread_along_an_oblique_line_like_the_line():
    # +-(1, 1): every direction of the half plane about the line gives the
    # ratio c*_line; the span's normals lie within roundoff of e.e0 = 0
    # and are no candidates
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    e0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c = kf.minimal_speed(line, 0.5, e0, sample=False).c_star
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # flat ratio: any minimizer
        np.testing.assert_allclose(kf.freidlin_gartner_speed(line, 0.5, e0), c, rtol=1e-8)
    np.testing.assert_allclose(kf.nullset_radius(line, 0.5, e0, 1.0, init="point"), c, rtol=1e-8)


def test_collinear_atoms_do_not_spread_across_their_line():
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    e0 = np.array([1.0, -1.0]) / math.sqrt(2.0)
    c = kf.minimal_speed(line, 0.5, e0, sample=False).c_star
    assert c == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # flat ratio: any minimizer
        assert kf.freidlin_gartner_speed(line, 0.5, e0) <= c


def test_3d_direction_refinement_converges():
    # the Newton solve in q; an independent Nelder-Mead search for the
    # largest ray sup over the sphere's angles gives -0.598949919266
    L = kf.lagrangian(octahedron(), 0.8, np.array([0.31, 0.17, 0.12]))
    np.testing.assert_allclose(L, -0.598949919266, rtol=1e-8)


def _flat_cross():
    return kf.VelocityModel(kf.DiscreteSet([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
                                           [0.25] * 4))


def _triangle():
    return kf.VelocityModel(kf.DiscreteSet([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)],
                                           [1.0 / 3.0] * 3))


S2, S3, S5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)
# L at x - delta n for delta = 1e-2, 1e-5, 1e-9 and 0: x on a facet with
# outward unit normal n, or x a vertex with n = x. These are the values of
# the direction search over ray sups that the Newton solve replaced (128
# rays and an angle zoom in 2-D; a spiral and cap grids in 3-D, where the
# facet point lies on the pole's ray, which that search scanned exactly)
NEAR_HULL = [
    (diamond, (0.7, 0.3), (1.0 / S2, 1.0 / S2),
     (-0.009764147075728369, 0.1328829924656929, 0.1375213324638025, 0.13756815232336517)),
    (diamond, (1.0, 0.0), (1.0, 0.0),
     (0.40112580736617587, 0.5454928198880509, 0.5499549992811807, 0.5499999698251485)),
    (_triangle, (-0.6, -0.2), (-2.0 / S5, 1.0 / S5),
     (-0.3279357939891201, -0.1924821146665352, -0.18792363482934893, -0.18787757046520714)),
    (_triangle, (0.0, 1.0), (0.0, 1.0),
     (0.2578985879869433, 0.39561423414594965, 0.39995618179746084, 0.3999999694526195)),
    (octahedron, (1.0 / 3.0,) * 3, (1.0 / S3,) * 3,
     (-0.06678196270165393, 0.09470292721563278, 0.09994702904368746, 0.09999995753169055)),
    (octahedron, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0),
     (0.562652243537898, 0.6959644298692467, 0.6999597497117065, 0.6999999739229679)),
    (_flat_cross, (0.7, 0.3, 0.0), (1.0 / S2, 1.0 / S2, 0.0),
     (-0.009764147075728369, 0.13288299246563606, 0.1375213324601645, 0.1375681290403008)),
    (_flat_cross, (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
     (0.40112580736617587, 0.5454928198880793, 0.5499549992848187, 0.5499999698251485)),
]


@pytest.mark.parametrize("make,x,n,want", NEAR_HULL, ids=[
    "diamond facet", "diamond vertex", "triangle facet", "triangle vertex",
    "octahedron facet", "octahedron vertex", "flat facet", "flat vertex"])
def test_newton_lagrangian_near_the_hull(make, x, n, want):
    # inside, the sup is a first-order point: both solves agree to roundoff
    # of F, which grows with |q| (about 2e4 at 1e-9 inside); on the hull
    # both are sups at infinity, cut off at |q| = _LAM_CEIL, where F is
    # within about 1e-7 of the sup
    m = make()
    got = [kf.lagrangian(m, 0.8, np.array(x) - d * np.array(n)) for d in (1e-2, 1e-5, 1e-9, 0.0)]
    np.testing.assert_allclose(got[:3], want[:3], rtol=0.0, atol=1e-11)
    assert abs(got[3] - want[3]) < 1e-7
    assert got[0] < got[1] < got[2] < got[3]


def test_newton_lagrangian_finds_the_sup_the_direction_search_missed():
    # off the octahedron facet's centre the sup over directions has a narrow
    # peak near the facet normal, which the 3-D direction search fell short
    # of, giving 0.124420271863 at 1e-5 and 0.125805305690 at 1e-9 inside;
    # an independent Nelder-Mead search for the largest ray sup over the
    # sphere's angles, from the facet normal, gives the values below
    n = np.full(3, 1.0 / S3)
    for d, want in ((1e-5, 0.12570993262197017), (1e-9, 0.13086290184874083)):
        got = kf.lagrangian(octahedron(), 0.8, np.array([0.5, 0.3, 0.2]) - d * n)
        assert abs(got - want) < 1e-11


def test_newton_lagrangian_iteration_bound_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(P, "_NEWTON_ITERS", 1)
    with pytest.raises(kf.SolverNotConverged):
        kf.lagrangian(diamond(), 0.8, np.array([0.3, 0.2]))


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


def test_hopf_lax_along_the_first_axis():
    m = model("uniform-1d")
    e0 = np.ones(1)
    qs = np.linspace(-1.0, 1.0, 21)
    ls = np.array([kf.lagrangian(m, 1.0, q * e0) for q in qs])
    # conjugate is -r at rest and grows toward the hull edge
    np.testing.assert_allclose(ls[10], -1.0, atol=1e-9)
    assert np.all(np.diff(ls[10:]) > 0.0)
    rad = kf.nullset_radius(m, 1.0, e0, 2.0)
    assert kf.hopf_lax_phi(m, 1.0, 2.0, rad * 0.99 * e0) == 0.0
    assert kf.hopf_lax_phi(m, 1.0, 2.0, rad * 1.01 * e0) > 0.0


@pytest.mark.parametrize("call", [
    lambda: kf.lagrangian(model("two-speed"), 0.8, [math.nan]),
    lambda: kf.lagrangian(diamond(), 0.8, [math.nan, 0.0]),
    lambda: kf.planar_conjugate(model("two-speed"), 0.5, 1.0, math.nan),
    lambda: kf.hopf_lax_phi(model("two-speed"), 0.5, math.nan, [0.1]),
    lambda: kf.hopf_lax_phi(model("two-speed"), 0.5, math.inf, [0.1]),
    lambda: kf.nullset_radius(model("two-speed"), 0.5, 1.0, math.nan),
    lambda: kf.nullset_radius(model("two-speed"), 0.5, 1.0, math.inf),
])
def test_hopf_lax_layer_rejects_non_finite_inputs(call):
    with pytest.raises(ValidationError):
        call()


def test_3d_freidlin_gartner_solves_e0_in_full_once(monkeypatch):
    # c*(e0) bounds the point-radius bracket and is a candidate of w*; the
    # candidate call leaves e0 out, so it is solved exactly once, on an
    # axis (where e* = q*/|q*| is e0 itself) and off the axes
    cstars = P._cstars
    for e0 in ((1.0, 2.0, 2.0), (1.0, 0.0, 0.0)):
        unit = kf.direction(e0)
        seen = []

        def counted(model, r, E):
            seen.append(int(np.all(np.atleast_2d(E) == unit, axis=1).sum()))
            return cstars(model, r, E)

        monkeypatch.setattr(P, "_cstars", counted)
        kf.freidlin_gartner_speed(octahedron(), 0.8, e0)
        assert sum(seen) == 1 and seen[0] == 1


def _hull_radius(m, r, e0):
    """The point radius per unit time on [0, hull extent], a bracket that
    c*(e0) does not cap (c0 = inf), so that it checks w* against a root
    that knows nothing of c*; nullset_radius and _point_speeds share the
    bracket [0, min(c*(e0), hull extent)], which a c*(e0) solved too low
    would make their common radius."""
    return P._point_root(m, r, kf.direction(e0), math.inf, 1e-13)[0]


@pytest.mark.parametrize("e0", [(0.2, 0.75, 0.65), (1.0, 4.0, 3.5)])
def test_octahedron_wstar_is_the_point_radius(e0):
    # w* is the point radius per unit time, a root of the Lagrangian on
    # [0, hull extent] that knows nothing of c* (_hull_radius). At r = 1.1
    # the minimizer lies off the axes and off the facet normals
    m, r = octahedron(), 1.1
    radius = _hull_radius(m, r, e0)
    np.testing.assert_allclose(kf.freidlin_gartner_speed(m, r, e0), radius, rtol=1e-12)


@pytest.mark.parametrize("dim,n_dense,atol", [(2, 100_000, 1e-8), (3, 50_000, 5e-3)])
def test_freidlin_gartner_speed_matches_a_dense_scan(dim, n_dense, atol):
    # c*(e)/(e.e0) on a fine circle or spiral over the half sphere about e0,
    # in one batch, at an interior minimum (r = 0.8) and at a ballistic
    # corner (r = 1.1); w* is the minimum, so no scanned ratio lies below it
    m, e0 = (diamond(), np.array(GENERIC)) if dim == 2 else (octahedron(), kf.direction((1.0, 2.0, 2.0)))
    D = _circle(2.0 * math.pi * np.arange(n_dense) / n_dense) if dim == 2 else _spiral(n_dense)
    D = D[D @ e0 > 0.0]
    for r in (0.8, 1.1):
        dense = float(np.min(P._cstars(m, r, D)[0] / (D @ e0)))
        assert dense - atol <= kf.freidlin_gartner_speed(m, r, e0) <= dense + 1e-12


@pytest.mark.parametrize("make,e0", [(diamond, GENERIC), (octahedron, (1.0, 2.0, 2.0)),
                                     (_flat_cross, (1.0, 0.5, 0.0))])
def test_point_root_maximiser_gives_the_minimising_direction(make, e0):
    # at the root L(w e0) = 0 the maximiser q* of L gives e* = q*/|q*|,
    # where c*(e*)/(e*.e0) = w and lambda*(e*) = |q*|; on the flat cross q*
    # is lifted from the plane of its atoms
    m, e0 = make(), kf.direction(e0)
    radius, q = P._point_root(m, 0.8, e0, P._hull_extent(m, e0), 1e-12)
    e = q / np.linalg.norm(q)
    c, lam = P._cstars(m, 0.8, e)
    np.testing.assert_allclose(c[0] / (e @ e0), radius, rtol=1e-10)
    np.testing.assert_allclose(lam[0], np.linalg.norm(q), rtol=1e-5)
    if make is _flat_cross:
        assert q[2] == 0.0


@lru_cache(maxsize=None)
def _random_battery():
    """(dim, model, r, e0) of 25 random atom sets per dimension, 2 then 3,
    each at r = 0.3, 1 and 3 with a random e0 per rate."""
    rng = np.random.default_rng(1)
    cases = []
    for dim in (2, 3):
        for _ in range(25):
            k = int(rng.integers(dim + 2, 12))
            pts = rng.normal(size=(k, dim))
            w = rng.uniform(0.2, 1.0, k)
            w /= w.sum()
            m = kf.VelocityModel(kf.DiscreteSet(pts - w @ pts, w))
            for r in (0.3, 1.0, 3.0):
                e0 = rng.normal(size=dim)
                cases.append((dim, m, r, e0 / np.linalg.norm(e0)))
    return tuple(cases)


def test_wstar_is_the_point_radius_on_random_3d_atom_sets():
    # a direction search over c*(e)/(e.e0) stopped 2.0e-6 to 2.9e-4 above
    # the minimum in 4 of these 75 cases, with no warning
    cases = [case for case in _random_battery() if case[0] == 3]
    assert len(cases) == 75
    for _, m, r, e0 in cases:
        radius = _hull_radius(m, r, e0)
        assert abs(kf.freidlin_gartner_speed(m, r, e0) - radius) <= 1e-9 * radius


def test_wstar_is_the_point_radius_on_random_2d_atom_sets():
    # the 2-D half of the battery: in 2 of these 75 cases (r = 0.3) the
    # point radius was 1.0555 and 0.8182 where w* is 0.6750 and 0.6251, as
    # the L at the hull, flagged interior at |q| ~ 1.6e7, started the next
    # L's Newton solve
    cases = [case for case in _random_battery() if case[0] == 2]
    assert len(cases) == 75
    for _, m, r, e0 in cases:
        radius = _hull_radius(m, r, e0)
        assert abs(kf.freidlin_gartner_speed(m, r, e0) - radius) <= 1e-9 * radius


def test_hull_lagrangian_starts_no_later_lagrangian(monkeypatch):
    # the first of those 2 cases, with every facet given the weight 1, so
    # that no facet bound is positive and L is solved at the hull: its
    # Newton solve ends on its decrement test at |q| ~ 1.6e7, and no later
    # L of the root may start from that q
    dim, m, r, e0 = _random_battery()[18]
    assert dim == 2 and r == 0.3
    monkeypatch.setattr(m.support, "facet_weights", np.ones(len(m.support.facets)))
    ends = []
    lagrangian = P._lagrangian

    def spied(*args):
        out = lagrangian(*args)
        ends.append((args[3], args[4], out[1], out[2]))
        return out

    monkeypatch.setattr(P, "_lagrangian", spied)
    # c0 = inf: the bracket's top is the hull's extent, not c*(e0)
    radius, _ = P._point_root(m, r, M._unit(m, e0), math.inf, 1e-13)
    x, _, q, interior = ends[0]
    assert x == P._hull_extent(m, kf.direction(e0)) and interior and np.linalg.norm(q) > 1e7
    assert len(ends) > 1 and all(start is not q for _, start, _, _ in ends[1:])
    monkeypatch.undo()
    assert abs(kf.freidlin_gartner_speed(m, r, e0) - radius) <= 1e-9 * radius


def _through(m, e0, x):
    """The rows of the facets of m's hull through x e0."""
    facets = m.support.facets
    gap = P._dots(facets[:, :-1], x * e0) + facets[:, -1]
    return np.abs(gap) <= 1e-12 * (1.0 + np.abs(facets[:, -1]))


def test_hull_lagrangian_is_at_least_its_facet_bound():
    # along q = lam n, n the normal of a facet of weight W through p, F
    # rises to 1 - (1+r) W, so L(p) is at least that. The Newton solve
    # stops once |q| passes _LAM_CEIL, where F still lies below its limit
    # by O((1+r)^2 / |q|): 6.1e-9 at most here
    for dim, m, r, e0 in _random_battery():
        top = P._hull_extent(m, e0)
        through = _through(m, e0, top)
        assert through.any()
        bound = 1.0 - (1.0 + r) * m.support.facet_weights[through]
        assert kf.lagrangian(m, r, top * e0) >= bound.max() - 1e-7 * (1.0 + r)


@pytest.mark.parametrize("make,r,e0,skipped", [
    (diamond, 0.8, GENERIC, True),  # edge weight 1/2: 1 - 1.8/2 > 0
    (octahedron, 0.8, (1.0, 2.0, 2.0), True),  # face weight 1/2
    (diamond, 1.1, GENERIC, False),  # ballistic corner: 1 - 2.1/2 < 0
    (_flat_cross, 0.8, (math.cos(0.46), math.sin(0.46), 0.0), True),  # its edge, in the plane
    (_flat_cross, 0.8, (1.0, 0.5, 0.3), False),  # off the plane: only the span normals, weight 1
], ids=["diamond", "octahedron", "diamond ballistic corner", "flat diamond in its plane",
        "flat diamond span normals"])
def test_hull_lagrangian_is_skipped_where_its_facet_bound_is_positive(monkeypatch, make, r, e0, skipped):
    m, unit = make(), kf.direction(e0)
    top = P._hull_extent(m, unit)
    calls = _count_lagrangian_calls(monkeypatch)
    radius = kf.nullset_radius(m, r, e0, 1.0, init="point")
    assert any(args[3] == top for args in calls) != skipped
    bounds = 1.0 - (1.0 + r) * m.support.facet_weights[_through(m, unit, top)]
    assert (bounds.max() > 0.0) == skipped
    if skipped:
        assert radius < top
    if make is _flat_cross:
        # its span normals carry every atom, and pass through every point
        # of its plane
        normals = m.support.facets[:, 2] != 0.0
        assert (m.support.facet_weights[normals] == 1.0).all()


def test_axis_diamond_point_root_is_one_lagrangian_at_cstar(monkeypatch):
    # along an axis w* = c*(e0), so the root runs on [0, c*] and L(c* e0)
    # is 0 up to roundoff; at r = 0.2, 0.6, 0.8 and 1.0 it comes out
    # positive by 1.4e-16 to 4.4e-16. The slope q*.e0 of that one L and the
    # chord from L(0) = -r meet within the tolerance, so no other L is
    # solved (a root on values alone solved 4 and returned c* - 5.0e-13)
    calls = _count_lagrangian_calls(monkeypatch)
    e0 = np.array([1.0, 0.0])
    for r in np.round(np.arange(0.2, 1.05, 0.1), 1):
        c = float(P._cstars(diamond(), r, e0)[0][0])
        calls.clear()
        radius, _ = P._point_root(diamond(), r, e0, c, 1e-12)
        assert len(calls) == 1
        assert abs(radius - c) <= 1e-15 * c


def _certified(f, x, top, tol=P._ROOT_TOL):
    """f changes sign within tol of the radius x, or x is the bracket's
    top and f is not positive there."""
    if x == top and f(top) <= 0.0:
        return True
    return f(x - tol) <= 0.0 <= f(x + tol)


@pytest.mark.parametrize("r", [0.3, 0.8, 1.1, 3.0])
def test_planar_radii_certify_their_bracket(r):
    # whatever steps the root took, a plain planar conjugate brackets the
    # radius within the root's tolerance, with c* and lambda* given or
    # solved by the call, on every preset and on the diamond along an axis
    # and off it
    for name, e0 in PLANAR_CASES:
        m, e0 = _planar_model(name, e0)
        sc = kf.minimal_speed(m, r, e0, sample=False)
        top = m.support_max(M._unit(m, e0))

        def f(q):
            return kf.planar_conjugate(m, r, e0, q)

        for kw in ({}, {"speed": sc.c_star, "rate": sc.lambda_star}):
            x = kf.nullset_radius(m, r, e0, 1.0, init="planar", **kw)
            assert _certified(f, x, top), (name, e0, kw)
        if P._point_is_planar(m):
            assert _certified(f, kf.nullset_radius(m, r, e0, 1.0), top)


@pytest.mark.parametrize("name", ["uniform-ball:2", "quadratic-1d", "diamond"])
def test_planar_root_runs_only_about_its_speed(monkeypatch, name):
    # the planar root runs on the bracket 1e-6 wide about its speed, and
    # nowhere else: a speed whose bracket shows no sign change of the
    # conjugate raises after that one pair of ray sups, while one off by
    # 1e-7 still holds the root, and gives the root of phi, not the speed
    m, e0 = (diamond(), kf.direction(GENERIC)) if name == "diamond" else _planar_model(name, None)
    c = kf.minimal_speed(m, 0.8, e0, sample=False).c_star
    top = m.support_max(M._unit(m, e0))
    qs = []
    sups = P._ray_sups

    def spied(model, r, E, a, window=None):
        qs.extend(a)
        return sups(model, r, E, a, window)

    monkeypatch.setattr(P, "_ray_sups", spied)
    # point data on the diamond takes no speed; elsewhere it is the planar root
    for init in ("planar",) if m.is_discrete else ("planar", "point"):
        for speed in (0.5 * c, 1.01 * c):
            qs.clear()
            with pytest.raises(kf.SolverNotConverged, match="is not c\\*"):
                kf.nullset_radius(m, 0.8, e0, 1.0, init=init, speed=speed)
            assert qs == [speed * (1.0 - P._SEED_REL), speed * (1.0 + P._SEED_REL)]
        # a speed past vbar(e0) / (1 - 1e-6) leaves an empty bracket, and
        # raises before any ray sup
        qs.clear()
        with pytest.raises(kf.SolverNotConverged, match="is not c\\*"):
            kf.nullset_radius(m, 0.8, e0, 1.0, init=init, speed=1.01 * top)
        assert qs == []
        off = c * (1.0 + 1e-7)
        radius = kf.nullset_radius(m, 0.8, e0, 1.0, init=init, speed=off)
        assert _certified(lambda q: kf.planar_conjugate(m, 0.8, e0, q), radius, top)
        assert abs(radius - off) > 2e-8


def _point_cases():
    """(model, r, e0): the diamond along an axis and at 0.3 and 0.46 rad,
    the octahedron in three directions, and the random battery."""
    cases = [(diamond(), r, (math.cos(a), math.sin(a)))
             for r in (0.3, 0.8, 1.1, 3.0) for a in (0.0, 0.3, 0.46)]
    cases += [(octahedron(), r, e0) for r in (0.5, 0.8, 1.1)
              for e0 in ((1.0, 2.0, 2.0), (0.9, 0.3, 0.1), (0.2, 0.75, 0.65))]
    return cases + [(m, r, e0) for _, m, r, e0 in _random_battery()]


def test_point_radii_certify_their_bracket():
    # the point radius of nullset_radius is the spreading command's, on
    # [0, min(c*(e0), hull extent)], bit for bit: a plain Lagrangian
    # brackets it within the root's tolerance, or the radius is the top of
    # its bracket and L is not positive there
    cases = _point_cases()
    assert len(cases) == 12 + 9 + 150
    for m, r, e0 in cases:
        # the unit vector the radii solve on, bit for bit
        unit = M._unit(m, e0)

        def f(x):
            return kf.lagrangian(m, r, x * unit)

        c0 = float(P._cstars(m, r, unit)[0][0])
        radius = kf.nullset_radius(m, r, e0, 1.0)
        assert radius == P._point_speeds(m, r, e0, c0)[1]
        assert _certified(f, radius, min(c0, P._hull_extent(m, unit)))


def test_lagrangian_ends_at_its_sup_where_the_gain_is_roundoff(monkeypatch):
    # in one battery case the Newton solve of L reaches a decrement of 1.9
    # ulps of F, and the full step then fails the Armijo test on roundoff:
    # 30 halvings, 37 H solves in all, and the end flagged off the sup,
    # with F unchanged. The solve now ends there, at an interior sup
    dim, m, r, e0 = _random_battery()[147]
    solves = []
    discrete_h = P._discrete_h

    def counted(*args):
        solves.append(1)
        return discrete_h(*args)

    monkeypatch.setattr(P, "_discrete_h", counted)
    f, q, interior = P._atom_lagrangian(m, r, 0.2465606730069706 * M._unit(m, e0))
    assert interior and len(solves) <= 8
    assert f == -0.12618435351341
    # and no L of a point root inside the hull ends off its sup
    ends = []
    lagrangian = P._lagrangian

    def spied(*args):
        out = lagrangian(*args)
        ends.append((args[3], out[2]))
        return out

    monkeypatch.setattr(P, "_lagrangian", spied)
    for _, m, r, e0 in _random_battery():
        ends.clear()
        kf.nullset_radius(m, r, e0, 1.0)
        top = P._hull_extent(m, M._unit(m, e0))
        assert all(interior for x, interior in ends if x < top)


def test_an_uncertified_wstar_is_a_typed_error(monkeypatch, tmp_path, capsys):
    # inflate the least ratio of the candidate directions: the next one is
    # not the point radius, and w* must fail loudly, not report it
    from kinfront.cli import main

    e0, cstars = kf.direction(GENERIC), P._cstars

    def inflated(model, r, E):
        c, lam = cstars(model, r, E)
        if len(E) > 1 or not (E == e0).all():
            c = c.copy()
            c[np.argmin(c / (E @ e0))] *= 1.01
        return c, lam

    monkeypatch.setattr(P, "_cstars", inflated)
    with pytest.raises(kf.SolverNotConverged, match="not certified"):
        kf.freidlin_gartner_speed(diamond(), 0.8, GENERIC)
    path = tmp_path / "diamond.model"
    path.write_text("support = discrete\npoint = 1,0 : 0.25\npoint = -1,0 : 0.25\n"
                    "point = 0,1 : 0.25\npoint = 0,-1 : 0.25\n")
    assert main(["spreading", "--model-file", str(path), "--r", "0.8", "--e", "%r,%r" % GENERIC]) == 3
    assert "not certified" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["uniform-ball:2", "uniform-ball:3", "quadratic-1d"])
def test_point_radius_is_the_planar_radius_where_point_data_is_planar(name):
    # L(q e0) is the planar conjugate along e0: both radii are one root on
    # the e0 the call normalised, bit for bit, in any direction
    m = model(name)
    rng = np.random.default_rng(4)
    dirs = [(1.0,), (-1.0,)] if m.dim == 1 else rng.normal(size=(6, m.dim))
    for e0 in dirs:
        for t in (1.0, 2.5):
            assert (kf.nullset_radius(m, 0.8, e0, t, init="point")
                    == kf.nullset_radius(m, 0.8, e0, t, init="planar"))


@pytest.mark.parametrize("dim", [2, 3])
def test_freidlin_gartner_flags_a_minimizer_at_the_equator(dim):
    # on the line of atoms +-(1, 1), c*(e) = 0 at the line's normals, which
    # lie just inside the equator of an e0 just off the line (in 3-D the
    # normal in the plane of the line and e0)
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0, 0.0)[:dim], (-1.0, -1.0, 0.0)[:dim]],
                                           [0.5, 0.5]))
    theta = 0.25 * math.pi + 0.01
    with pytest.warns(RuntimeWarning, match="equator.*nullset_radius"):
        kf.freidlin_gartner_speed(line, 0.5, [math.cos(theta), math.sin(theta), 0.0][:dim])


def test_lagrangian_rejects_bad_rate():
    with pytest.raises(ValidationError):
        kf.lagrangian(model("uniform-1d"), 0.0, np.zeros(1))
    with pytest.raises(ValidationError):
        kf.freidlin_gartner_speed(model("uniform-1d"), -2.0, 1.0)


@pytest.mark.parametrize("make,dirs", [
    (diamond, _circle(np.linspace(0.1, 6.0, 9))),
    (lambda: model("uniform-ball:2"), _circle(np.linspace(0.1, 6.0, 5))),
    (lambda: model("quadratic-1d"), np.array([[1.0], [-1.0], [1.0], [1.0], [-1.0]])),
])
def test_ray_sups_rows_do_not_depend_on_the_batch(make, dirs):
    # sups inside the window, at the floor (a <= 0), at lambda_tilde, and +inf
    m = make()
    a = np.linspace(-0.3, 1.2, len(dirs))
    sups = P._ray_sups(m, 0.8, dirs, a)[0]
    assert np.isinf(sups).any() and np.isfinite(sups).any()
    for i in range(len(dirs)):
        assert P._ray_sups(m, 0.8, dirs[i:i + 1], a[i:i + 1])[0][0] == sups[i]


def _ray_g(m, r, e, a, lam):
    H = kf.dispersion._h_rays(m, np.array([[lam / (1.0 + r)]]), np.atleast_2d(e))[0]
    return lam * a - (1.0 + r) * H[0, 0] - r


@pytest.mark.parametrize("make,e", [(diamond, (0.6, 0.8)), (lambda: model("quadratic-1d"), (1.0,)),
                                    (lambda: model("uniform-ball:2"), (0.0, 1.0))])
def test_ray_sup_at_the_floor_when_a_is_not_positive(make, e):
    # g' = a - dH/dbeta <= 0 from the start: g falls from -r, and its sup
    # is g at the floor of the window
    m = make()
    for a in (0.0, -0.4):
        got = P._ray_sups(m, 0.8, np.atleast_2d(e), [a])[0][0]
        assert got == _ray_g(m, 0.8, e, a, P._LAM_FLOOR)
        assert abs(got + 0.8) < 1e-8


def test_ray_sup_at_lambda_tilde():
    # the quadratic slab has a finite j, so g'(lambda_tilde-) = a - 1 + l/j
    # is positive for a > 1 - l/j (about 0.37): the sup sits at the kink,
    # where g = lambda_tilde (a - 1) + 1 on the singular branch
    m, r = model("quadratic-1d"), 0.8
    lam_t = (1.0 + r) * L_QUAD
    l_over_j = L_QUAD / (6.0 * (1.0 - math.log(2.0)))
    for a in (0.5, 0.9, 1.0):
        assert a - 1.0 + l_over_j > 0.0
        got = P._ray_sups(m, r, np.ones((1, 1)), [a])[0][0]
        np.testing.assert_allclose(got, lam_t * (a - 1.0) + 1.0, rtol=1e-12)
        # and nothing below the kink is higher
        lams = np.geomspace(1e-3, lam_t, 200)[:-1]
        assert max(_ray_g(m, r, (1.0,), a, lam) for lam in lams) < got
    # below the threshold the sup is interior, a root of g', and bounded
    # Brent on g finds the same value
    got = P._ray_sups(m, r, np.ones((1, 1)), [0.3])[0][0]
    res = minimize_scalar(lambda lam: -_ray_g(m, r, (1.0,), 0.3, lam), bounds=(1e-3, lam_t),
                          method="bounded", options={"xatol": 1e-10})
    assert res.x < lam_t * (1.0 - 1e-3)
    assert -res.fun - 1e-14 <= got <= -res.fun + 1e-12


def test_diamond_wstar_where_lambda_star_passes_the_first_window():
    # near the diagonal at r = 1.0517..., c*(e) has lambda* past LAMBDA_CAP
    # = 1e3; a window fixed there reported the ballistic vbar(e) and put w*
    # 6.3e-8 above the point radius
    r, theta = 1.051749152672088, 0.476002222947521
    e0 = (math.cos(theta), math.sin(theta))
    radius = _hull_radius(diamond(), r, e0)
    assert abs(kf.freidlin_gartner_speed(diamond(), r, e0) - radius) <= 1e-8


def _same_planes(got, want):
    # equal as sets of rows (n, c), up to row order and duplicate rows
    close = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2) <= 1e-12
    return close.any(axis=1).all() and close.any(axis=0).all()


def _atoms(pts):
    pts = np.asarray(pts, dtype=float)
    return kf.VelocityModel(kf.DiscreteSet(pts - pts.mean(axis=0), [1.0 / len(pts)] * len(pts)))


def _random_2d_with_an_edge_point():
    pts = np.random.default_rng(3).standard_normal((12, 2))
    a, b = ConvexHull(pts).vertices[:2]
    return np.vstack([pts, 0.5 * (pts[a] + pts[b])])  # on the hull's edge a-b


@pytest.mark.parametrize("make", [
    diamond,
    lambda: _atoms(_random_2d_with_an_edge_point()),
    octahedron,
    lambda: _atoms([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
    lambda: _atoms(np.random.default_rng(5).standard_normal((kf.models.MAX_ATOMS_3D, 3))),
], ids=["diamond", "random 2-D with an edge point", "octahedron", "cube", "random 3-D"])
def test_hull_facets_match_qhull(make):
    m = make()
    got = m.support.facets
    assert _same_planes(got, ConvexHull(m.support.points).equations)
    # one row per plane, unit normals, every atom inside
    assert len(np.unique(np.round(got, 9), axis=0)) == len(got)
    np.testing.assert_allclose(np.linalg.norm(got[:, :-1], axis=1), 1.0, rtol=1e-15)
    assert np.all(m.support.points @ got[:, :-1].T + got[:, -1] <= 1e-12)


def test_hull_facets_of_flat_sets_are_lifted():
    # the cross in the plane z = 0: its square's edges, and the plane's normals
    square = ConvexHull(_flat_cross().support.points[:, :2]).equations
    want = np.vstack([np.insert(square, 2, 0.0, axis=1),
                      [(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, -1.0, 0.0)]])
    assert _same_planes(_flat_cross().support.facets, want)
    # the segment between +-(1, 1): its two ends, and the line's normals
    line = kf.VelocityModel(kf.DiscreteSet([(1.0, 1.0), (-1.0, -1.0)], [0.5, 0.5]))
    want = np.array([(1.0, 1.0, -2.0), (-1.0, -1.0, -2.0), (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0)])
    assert _same_planes(line.support.facets, want / np.array([S2, S2, S2]))


def test_a_3d_atom_set_past_the_facet_bound_fails_at_construction(capsys, tmp_path):
    from kinfront.cli import main

    pts = np.random.default_rng(7).standard_normal((kf.models.MAX_ATOMS_3D + 1, 3))
    pts -= pts.mean(axis=0)
    w = [1.0 / len(pts)] * len(pts)
    with pytest.raises(ValidationError, match="at most %d" % kf.models.MAX_ATOMS_3D):
        kf.DiscreteSet(pts, w)
    # zero weights do not count, and 2-D sets have no bound
    n = kf.models.MAX_ATOMS_3D
    kf.DiscreteSet(np.vstack([pts[:-1] - pts[:-1].mean(axis=0), pts[-1]]), [1.0 / n] * n + [0.0])
    kf.DiscreteSet(pts[:, :2] - pts[:, :2].mean(axis=0), w)
    path = tmp_path / "big.model"
    path.write_text("support = discrete\n" + "".join(
        "point = %r,%r,%r : %r\n" % (*map(float, p), wi) for p, wi in zip(pts, w)))
    assert main(["spreading", "--model-file", str(path), "--r", "1"]) == 2
    assert "at most" in capsys.readouterr().err


def test_an_atom_set_builds_its_span_and_hull_once(monkeypatch, tmp_path, capsys):
    # one spreading call parses the diamond, builds its geometry there, and
    # then only reads it
    from kinfront.cli import main

    calls = []

    def spy(name, module):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or orig(*a))

    spy("_hull_planes", M)
    spy("_span", M)
    path = tmp_path / "diamond.model"
    path.write_text("support = discrete\npoint = 1,0 : 0.25\npoint = -1,0 : 0.25\n"
                    "point = 0,1 : 0.25\npoint = 0,-1 : 0.25\n")
    argv = ["spreading", "--model-file", str(path), "--r", "0.8", "--e", "%r,%r" % GENERIC]
    assert main(argv + ["--t", "1,2"]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["_hull_planes", "_span"]
    m = diamond()
    calls.clear()
    kf.lagrangian(m, 0.8, np.array([0.3, 0.2]))
    kf.lagrangian(m, 0.8, np.array([0.9, 0.9]))
    kf.nullset_radius(m, 0.8, GENERIC, 1.0, init="point")
    kf.freidlin_gartner_speed(m, 0.8, GENERIC)
    assert calls == []


def test_atom_sets_with_fewer_atoms_than_dimensions():
    # the full SVD gives the complement rows that the reduced one lacks
    origin = kf.DiscreteSet([[0.0, 0.0]], [1.0])
    assert origin.span.shape == (0, 2) and origin.facets.shape == (4, 3)
    seg = kf.DiscreteSet([(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)], [0.5, 0.5])
    assert seg.span.shape == (1, 3) and seg.facets.shape == (6, 4)
    np.testing.assert_allclose(np.abs(seg.span), 1.0 / S3, rtol=1e-15)
    m = kf.VelocityModel(seg)
    on = np.array([0.3, 0.3, 0.3])
    assert np.isfinite(kf.lagrangian(m, 0.8, on))
    assert kf.lagrangian(m, 0.8, on + [0.0, 0.0, 1e-6]) == np.inf
    assert kf.lagrangian(m, 0.8, 1.1 * np.ones(3)) == np.inf


def test_a_large_2d_atom_set_allocates_no_square_factor():
    # 2-D sets have no atom bound: an (m, m) SVD factor of the atoms would
    # take 72 MB at m = 3,000
    pts = np.random.default_rng(11).standard_normal((3000, 2))
    tracemalloc.start()
    try:
        m = _atoms(pts)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        L = kf.lagrangian(m, 0.8, np.array([0.3, -0.2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(L)
    assert built < 8e6 and peak < 8e6


def test_origin_atom_set_has_the_lagrangian_of_h_zero():
    # every atom at 0: H = 0, so L = -r on the hull {0} (within its
    # roundoff band) and +inf past it
    m = kf.VelocityModel(kf.DiscreteSet([[0.0, 0.0]], [1.0]))
    assert kf.lagrangian(m, 0.8, np.zeros(2)) == -0.8
    assert kf.lagrangian(m, 0.8, np.array([1e-13, 0.0])) == -0.8
    assert kf.lagrangian(m, 0.8, np.array([1e-3, 0.0])) == np.inf


def test_ballistic_planar_radius_is_c_star_bit_for_bit():
    # at r = 50 c*(e) is the ballistic vbar(e) on random 2-D atom sets; the
    # planar radius at t = 1 is vbar(e0) from the same coordinate sums
    rng = np.random.default_rng(0)
    ballistic = 0
    for _ in range(20):
        k = int(rng.integers(3, 10))
        pts = rng.normal(size=(k, 2))
        w = rng.random(k) + 0.1
        w /= w.sum()
        m = kf.VelocityModel(kf.DiscreteSet(pts - w @ pts, w))
        for th in rng.uniform(0.0, 2.0 * math.pi, 20):
            e = np.array([math.cos(th), math.sin(th)])
            sc = kf.minimal_speed(m, 50.0, e, sample=False)
            if np.isinf(sc.lambda_star):
                ballistic += 1
                assert kf.nullset_radius(m, 50.0, e, 1.0, init="planar", speed=sc.c_star) == sc.c_star
    assert ballistic > 300


def _asymmetric_line():
    # atoms -2, 1 and 3 with weights 0.4, 0.5 and 0.1: mean 0, not even
    return kf.VelocityModel(kf.DiscreteSet([[-2.0], [1.0], [3.0]], [0.4, 0.5, 0.1]))


@pytest.mark.parametrize("make", [_asymmetric_line, lambda: model("two-speed"),
                                  lambda: model("quadratic-1d")])
def test_1d_lagrangian_is_the_planar_conjugate_along_p(make):
    # the ray opposite p has its sup below -r, the value of g at 0 on p's own
    m, r = make(), 0.8
    vb = {1.0: m.support_max(1.0), -1.0: m.support_max(-1.0)}
    for q in (-2.5, -0.9, -0.4, -1e-3, 1e-3, 0.3, 0.7, 1.5):
        sign = math.copysign(1.0, q)
        L = kf.lagrangian(m, r, np.array([q]))
        assert L == kf.planar_conjugate(m, r, sign, abs(q))
        other = P._ray_sups(m, r, np.array([[-sign]]), [-abs(q)])[0][0]
        assert other < -r <= L or (L == np.inf and abs(q) > vb[sign])
    assert P._point_is_planar(m)
    assert kf.freidlin_gartner_speed(m, r, 1.0) == kf.minimal_speed(m, r, 1.0, sample=False).c_star


def test_continuum_rays_depend_on_the_scale_alone():
    # H on a ball depends on |p| alone, and the ray solves read the scale:
    # every direction gives the same bits
    for name, dirs in (("uniform-ball:2", _circle(np.linspace(0.0, 6.0, 13))),
                       ("uniform-ball:3", _spiral(13))):
        m = model(name)
        scales = np.tile([0.05, 0.4, 0.9, 1.7, 3.0], (len(dirs), 1))
        H, dH, _ = kf.dispersion._h_rays(m, scales, dirs)
        assert (H == H[0]).all() and (dH == dH[0]).all()
        sups = P._ray_sups(m, 0.8, dirs, np.full(len(dirs), 0.6))[0]
        assert (sups == sups[0]).all()
        cs = P._cstars(m, 0.8, dirs)[0]
        assert (cs == cs[0]).all()
