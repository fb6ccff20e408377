import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

import kinfront as kf
from kinfront import models
from kinfront.cli import parse_model_file
from kinfront.errors import ValidationError
from kinfront.models import DensityFamily, edge_kernel_integral, j_integral, l_integral

model = lru_cache(maxsize=None)(kf.preset)


def _moment_1d(m, k):
    """Integral of v^k M(v) over [-1, 1] by QUADPACK, split at the kink v = 0."""
    def f(v):
        return v**k * m.density(np.array([v]))[0]

    return sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-13)[0]
               for a, b in ((-1.0, 0.0), (0.0, 1.0)))


def test_direction_normalizes():
    e = kf.direction((3.0, 4.0))
    np.testing.assert_allclose(e, [0.6, 0.8], rtol=1e-15)
    np.testing.assert_allclose(kf.direction(-2.0), [-1.0])
    with pytest.raises(ValidationError):
        kf.direction((0.0, 0.0))


def test_support_validation():
    with pytest.raises(ValidationError):
        kf.Interval(1.0, 1.0)
    with pytest.raises(ValidationError):
        kf.Ball(-1.0)
    with pytest.raises(ValidationError):
        kf.Ball(1.0, dim=4)
    with pytest.raises(ValidationError):
        kf.DiscreteSet([(1.0,), (-1.0,)], [0.7, 0.7])  # mass 1.4
    with pytest.raises(ValidationError):
        kf.DiscreteSet([(1.0,), (0.5,)], [0.5, 0.5])  # mean 0.75
    with pytest.raises(ValidationError):
        kf.DiscreteSet([(1.0,), (-1.0,)], [1.5, -0.5])
    # non-finite values fail where they are given, not later as a NaN mass
    # or c* = inf; a zero weight does not hide a non-finite point
    nan, inf = float("nan"), float("inf")
    for bad in (
        lambda: kf.DiscreteSet([(1.0,), (-1.0,)], [nan, 0.5]),
        lambda: kf.DiscreteSet([(1.0,), (-1.0,)], [inf, 0.5]),
        lambda: kf.DiscreteSet([(inf,), (-1.0,)], [0.5, 0.5]),
        lambda: kf.DiscreteSet([(1.0,), (-1.0,), (-inf,)], [0.5, 0.5, 0.0]),
        lambda: kf.DiscreteSet([(1.0,), (-1.0,), (nan,)], [0.5, 0.5, 0.0]),
        lambda: kf.Ball(inf),
        lambda: kf.Ball(nan),
        lambda: kf.Ball(1.0, dim=2.5),
        # a float dim built a model whose minimal_speed raised a bare TypeError
        lambda: kf.Ball(1.0, 2.0),
        lambda: kf.Interval(-inf, 1.0),
        lambda: kf.Interval(-1.0, inf),
        lambda: kf.Interval(nan, 1.0),
        lambda: kf.DiscreteSet(np.zeros((2, 2, 2)), [0.5, 0.5]),  # a 3-D array
        lambda: kf.DiscreteSet([(1.0, 0, 0, 0), (-1.0, 0, 0, 0)], [0.5, 0.5]),  # 4 components
        lambda: kf.DiscreteSet([(1.0,), (-1.0,)], [0.5, 0.25, 0.25]),  # a weight too many
        lambda: kf.DiscreteSet([(1.0,), (-1.0,)], [0.0, 0.0]),  # no weighted point
        lambda: kf.VelocityModel(kf.DiscreteSet([(1.0,), (-1.0,)], [0.5, 0.5]),
                                 DensityFamily("uniform")),
        lambda: kf.VelocityModel(kf.Ball(1.0, 2)),  # a continuum support needs a density
        lambda: kf.VelocityModel(kf.Interval(-1.0, 2.0), DensityFamily("uniform")),
        lambda: model("two-speed").density(np.zeros(1)),
        lambda: model("two-speed").slice_marginal(1.0, np.zeros(1)),
    ):
        with pytest.raises(ValidationError):
            bad()


def test_discrete_set_drops_zero_weight_points():
    s = kf.DiscreteSet([(1.0,), (-1.0,), (5.0,)], [0.5, 0.5, 0.0])
    assert s.points.shape == (2, 1)
    assert s.v_max == 1.0


def test_preset_names_all_build():
    for name in kf.PRESET_NAMES:
        m = kf.preset(name)
        assert m.dim in (1, 2, 3)
    with pytest.raises(ValidationError):
        kf.preset("no-such-model")


def test_uniform_1d_basics():
    m = model("uniform-1d")
    assert m.support_max(1.0) == 1.0
    assert m.support_max(-1.0) == 1.0
    np.testing.assert_allclose(m.density(np.array([0.3])), [0.5])
    # mass and mean of the equilibrium
    np.testing.assert_allclose(_moment_1d(m, 0), 1.0, atol=1e-12)
    np.testing.assert_allclose(_moment_1d(m, 1), 0.0, atol=1e-12)


def test_quadratic_density_profile():
    m = model("quadratic-1d")
    v = np.array([-0.5, 0.0, 0.25, 0.999])
    np.testing.assert_allclose(m.density(v), 1.5 * (1.0 - np.abs(v)) ** 2,
                               rtol=1e-14)
    np.testing.assert_allclose(_moment_1d(m, 0), 1.0, atol=1e-12)
    # second moment of (3/2)(1-|v|)^2 on [-1, 1]
    np.testing.assert_allclose(_moment_1d(m, 2), 0.1, rtol=1e-10)


def test_quadratic_edge_integrals_closed_form():
    m = model("quadratic-1d")
    np.testing.assert_allclose(kf.l_integral(m, 1.0),
                               3.0 * (2.0 * math.log(2.0) - 1.0), atol=1e-10)
    np.testing.assert_allclose(kf.j_integral(m, 1.0),
                               6.0 * (1.0 - math.log(2.0)), atol=1e-10)


def test_uniform_edge_integrals_diverge():
    m = model("uniform-1d")
    assert kf.l_integral(m, 1.0) == np.inf
    assert kf.j_integral(m, -1.0) == np.inf


def test_ball_edge_integrals():
    np.testing.assert_allclose(kf.l_integral(model("uniform-ball:2"),
                                             (1.0, 0.0)), 2.0, atol=1e-8)
    np.testing.assert_allclose(kf.l_integral(model("uniform-ball:3"),
                                             (0.0, 0.0, 1.0)), 1.5,
                               atol=1e-8)
    assert kf.j_integral(model("uniform-ball:2"), (1.0, 0.0)) == np.inf
    assert kf.j_integral(model("uniform-ball:3"), (1.0, 0.0, 0.0)) == np.inf


def test_ball2_slice_marginal_is_semicircle():
    m = model("uniform-ball:2")
    e = np.array([1.0, 0.0])
    t = np.array([-0.9, -0.3, 0.0, 0.5])
    np.testing.assert_allclose(m.slice_marginal(e, t),
                               (2.0 / math.pi) * np.sqrt(1.0 - t**2),
                               rtol=5e-9)


def test_ball3_slice_marginal_is_parabolic():
    m = model("uniform-ball:3")
    e = np.array([0.0, 1.0, 0.0])
    t = np.array([-0.8, 0.0, 0.4])
    np.testing.assert_allclose(m.slice_marginal(e, t), 0.75 * (1.0 - t**2),
                               rtol=1e-10)


@pytest.mark.parametrize("source", ["uniform-ball:2", "uniform-ball:3",
                                    "support = ball\nradius = 1.5\ndim = 2\ndensity = power\nk = 1.5\n"])
def test_blocked_ball_marginal_gives_the_unblocked_grid_weights(source, tmp_path, monkeypatch):
    # the grid's four ladders share their offsets o from their ends, so
    # |t| = |R - s| is R - o on the outer two and o on the inner two: a
    # build evaluates the marginal once per distinct |t|, 1,536 of the
    # 3,072 nodes, and gives each value to a mirrored pair of ladders
    sizes = []
    radial = models.VelocityModel._radial_marginal

    def counted(self, a):
        sizes.append(np.size(a))
        return radial(self, a)

    monkeypatch.setattr(models.VelocityModel, "_radial_marginal", counted)
    if source.startswith("support"):
        path = tmp_path / "ball.model"
        path.write_text(source)
        m = parse_model_file(str(path))
    else:
        m = kf.preset(source)
    monkeypatch.undo()
    assert sizes == [1536]
    grid, R = m.grid, m.v_max
    o = grid.ladders[0].s
    for lad, s in zip(grid.ladders, (o, R - o, R + o, 2.0 * R - o)):
        np.testing.assert_array_equal(lad.s, s)
    # the marginal runs on blocks of _MARGINAL_BLOCK nodes; one (nodes, rule)
    # array over the distinct |t| gives the same bits, so the grid weights
    # are the ladder weights times the unblocked marginal there
    unblocked = m._ball2_marginal if m.dim == 2 else m._ball3_marginal
    const = m._norm_const
    m._norm_const = 1.0  # the grid is built at norm constant 1, then rescaled
    try:
        outer, inner = unblocked(R - o), unblocked(o)
    finally:
        m._norm_const = const
    weights = np.concatenate([lad.w for lad in grid.ladders])
    np.testing.assert_array_equal(weights * np.concatenate([outer, inner, inner, outer]) * const, grid.w)
    # mirrored ladders hold identical values
    w = grid.w.reshape(4, -1)
    np.testing.assert_array_equal(w[0], w[3])
    np.testing.assert_array_equal(w[1], w[2])
    # arbitrary s keeps its marginal at |t| = |R - s|: sizes about one
    # block, and a velocity grid of the planar simulation
    for n in (1, models._MARGINAL_BLOCK - 1, models._MARGINAL_BLOCK, models._MARGINAL_BLOCK + 1, 301):
        s = np.linspace(0.0, 2.0 * R, n)
        np.testing.assert_array_equal(m._edge_marginal(s), unblocked(np.abs(R - s)))


def test_quadratic_marginal_equals_density_in_1d():
    m = model("quadratic-1d")
    t = np.array([-0.7, 0.1, 0.6])
    np.testing.assert_allclose(m.slice_marginal(np.array([1.0]), t),
                               m.density(t), rtol=1e-14)


def test_two_speed_is_symmetric_pair():
    m = model("two-speed")
    assert m.is_discrete
    np.testing.assert_allclose(np.sort(m.support.points[:, 0]), [-1.0, 1.0])
    np.testing.assert_allclose(m.support.weights, [0.5, 0.5])
    assert kf.l_integral(m, 1.0) == np.inf


def test_edge_kernel_integral_discrete_exact():
    m = model("two-speed")
    # atoms at v.e = 1 and -1: d + beta*(1 - v.e) hits d and d + 2 beta
    val = edge_kernel_integral(m, np.array([1.0]), 0.5, 2.0, 1)
    np.testing.assert_allclose(val, 0.5 / 0.5 + 0.5 / 4.5, rtol=1e-15)
    assert edge_kernel_integral(m, np.array([1.0]), 0.0, 1.0, 1) == np.inf


def test_custom_power_model_matches_quadratic_preset():
    m = kf.VelocityModel(kf.Interval(-1.0, 1.0), DensityFamily("power", 2.0))
    q = model("quadratic-1d")
    v = np.linspace(-0.95, 0.95, 7)
    np.testing.assert_allclose(m.density(v), q.density(v), rtol=1e-12)
    np.testing.assert_allclose(kf.l_integral(m, 1.0),
                               kf.l_integral(q, 1.0), rtol=1e-12)


def test_cosine_model_normalizes():
    m = kf.VelocityModel(kf.Ball(1.0, dim=2), DensityFamily("cosine"))
    # radial density: mass = 2 pi int_0^1 rho M(rho) drho
    mass, _ = quad(lambda rho: rho * m.density(np.array([[rho, 0.0]]))[0],
                   0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    np.testing.assert_allclose(2.0 * math.pi * mass, 1.0, atol=1e-10)
    assert m.support_max((0.0, 1.0)) == 1.0


def test_density_family_validation():
    with pytest.raises(ValidationError):
        DensityFamily("gaussian")
    with pytest.raises(ValidationError):
        DensityFamily("power", -1.0)
    with pytest.raises(ValidationError):
        DensityFamily("power", float("nan"))


def test_continuum_model_has_one_grid_for_every_direction():
    # the grid built at construction serves every direction: l and j are
    # its values along any e, -e included; an atom set has no grid
    assert model("two-speed").grid is None
    rng = np.random.default_rng(3)
    for name in ("uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3"):
        m = model(name)
        grid = m.grid
        assert grid.vbar == m.v_max
        for d in rng.normal(size=(5, m.dim)):
            for e in (d, -d):
                assert l_integral(m, e) == grid.l and j_integral(m, e) == grid.j
                assert m.grid is grid


def test_arg_mu_extremal_velocities():
    m = model("uniform-ball:2")
    hits = m.arg_mu(np.array([0.0, 2.0]))
    np.testing.assert_allclose(hits[0], [0.0, 1.0], atol=1e-12)
    m1 = model("uniform-1d")
    np.testing.assert_allclose(m1.arg_mu(np.array([-3.0]))[0], [-1.0])


def test_continuum_model_builds_its_grid_once(monkeypatch):
    # the raw mass is taken on the one grid, whose weights are then scaled:
    # l and j keep the values of a grid built at the normalized M
    from kinfront.models import MASS_TOL
    from kinfront.quadrature import GradedGrid

    builds = []
    init = GradedGrid.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedGrid, "__init__", counted)
    want = {
        "uniform-1d": (math.inf, math.inf),
        "quadratic-1d": (1.1588830833596722, 1.841116916640328),
        "uniform-ball:2": (1.9999999998983238, math.inf),
        "uniform-ball:3": (1.5, math.inf),
    }
    for name, (lval, jval) in want.items():
        builds.clear()
        m = kf.preset(name)
        assert len(builds) == 1
        assert abs(m.grid.kernel_integral(np.ones_like) - 1.0) <= MASS_TOL
        for got, ref in ((m.grid.l, lval), (m.grid.j, jval)):
            assert got == ref if math.isinf(ref) else abs(got - ref) <= 1e-14 * ref
