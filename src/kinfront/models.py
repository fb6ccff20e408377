"""Velocity sets and equilibrium densities.

A `VelocityModel` bundles the velocity support (interval, ball, or a
finite set of velocities with weights), the equilibrium density M, and
the quadrature machinery for its directional integrals. Densities
come from small parametric families (uniform, power, cosine), defined as
probability densities on their support; the normalization constant is
part of the family definition. Structural requirements (unit mass, zero
mean, bounded support) are verified at construction and violations raise
``ValidationError``.

Directional integrals against the slice marginal of M (the near-singular
l and j integrals and the dispersion-relation kernels) run on a
`GradedGrid`; see the `quadrature` module. M is radial on a ball or a
symmetric interval, so its slice marginal is the same along every
direction: a continuum model builds that one grid at construction and
keeps nothing else between calls. An atom set builds, once, the span,
the convex-hull facets of its atoms and the weight on each facet, which
L, the point radii and w* read.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import GradedGrid, _Ladder, gl_rule

MASS_TOL = 1e-8
MEAN_TOL = 1e-8
# the most atoms of a 3-D DiscreteSet: at construction the facets of their
# hull are searched among the C(m, 3) planes through triples of atoms, each
# tested against every atom, m^4 / 6 products (3-6 ms at m = 32, 2-vCPU x86-64)
MAX_ATOMS_3D = 32
_MARGINAL_LEVELS = 16
_MARGINAL_ORDER = 12
# unit graded ladder on (0, 1] toward 0 for the 2-ball marginal, level-major
_MARGINAL_LADDER = _Ladder(0.0, 1.0, "down", _MARGINAL_LEVELS, _MARGINAL_ORDER)
# nodes per block of a ball's slice marginal: its (nodes, rule) temporaries
# then take about 200 kB each, where one array over a 3,072-node grid takes
# 4.7 MB each
_MARGINAL_BLOCK = 128


def direction(x):
    """Return x normalized to a unit vector (1-d float array).

    Scalars are accepted for one-dimensional models. Raises
    ValidationError on a zero vector.
    """
    e = np.atleast_1d(np.asarray(x, dtype=float))
    nrm = float(np.linalg.norm(e))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValidationError("direction must be a nonzero finite vector")
    return e / nrm


def _unit(model, e):
    """direction(e), the gate of every direction argument: it must also
    have the model's dimension."""
    e = direction(e)
    if e.size != model.dim:
        raise ValidationError("e has %d components, model is %d-dimensional" % (e.size, model.dim))
    return e


def _positive(x, what):
    """Raise ValidationError unless x is finite and positive (NaN fails):
    the gate of every r, t and lambda argument, and of the tolerance and
    bound of a bisection or a root solve."""
    if not 0.0 < x < np.inf:
        raise ValidationError("%s must be positive" % what)


@dataclass(frozen=True)
class Interval:
    """1-D velocity support [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not -np.inf < self.a < self.b < np.inf:
            raise ValidationError("interval requires finite a < b")

    @property
    def dim(self):
        return 1

    @property
    def v_max(self):
        return max(abs(self.a), abs(self.b))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of given radius in n dimensions (n=1 is an interval)."""

    radius: float
    dim: int = 2

    def __post_init__(self):
        _positive(self.radius, "ball radius")
        # an integer type: a float such as 2.0 would pass the test below
        if not isinstance(self.dim, (int, np.integer)) or self.dim not in (1, 2, 3):
            raise ValidationError("ball dimension must be 1, 2 or 3")

    @property
    def v_max(self):
        return self.radius


class DiscreteSet:
    """Finite velocity set: points (m, n) with positive weights summing to 1.

    n is 1, 2 or 3; zero weights are dropped, then a 3-D set has at most
    MAX_ATOMS_3D points. Built once, at construction: span, orthonormal rows
    (k, n) spanning the points; facets, the rows (n, c) of their convex
    hull n.x + c <= 0 (see _hull_facets); and facet_weights, the weight of
    the atoms on each facet, those within 1e-12 |v|max of its plane. A flat
    set's span normals carry every atom, weight 1.

    The weight W of a facet bounds L at its points p from below. Along
    q = lam n, the atoms on the facet have the largest v.n = vbar(n) = n.p,
    and D_i = 1 + H - v_i.beta falls to W on them while it grows without
    bound on the others, so F(lam n) = 1 - (1+r) D rises to 1 - (1+r) W.
    W counts the atoms within the hull's own tolerance of the plane, where
    the tie weight of dispersion._min_speeds counts only those at the
    floating-point max: the two rules err on opposite sides. An atom on a
    facet that rounds just inside it, left out of W, would raise the
    bound by (1+r) times its weight and could skip an L <= 0 at a
    ballistic corner; an atom just below the max, counted in that tie,
    would make a row ballistic unchecked.
    """

    def __init__(self, points, weights):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValidationError("points must be an (m, n) array")
        if pts.shape[1] not in (1, 2, 3):
            raise ValidationError("velocity points must have 1, 2 or 3 components")
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValidationError("one weight per velocity point required")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ValidationError("velocity points and weights must be finite")
        keep = w != 0.0
        pts, w = pts[keep], w[keep]
        if pts.shape[0] == 0:
            raise ValidationError("discrete set needs at least one weighted point")
        if pts.shape[1] == 3 and pts.shape[0] > MAX_ATOMS_3D:
            raise ValidationError(
                "a 3-D discrete set has at most %d weighted points, got %d"
                % (MAX_ATOMS_3D, pts.shape[0])
            )
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise ValidationError(
                "discrete weights must sum to 1 (got %.12g); normalize before building"
                % w.sum()
            )
        mean = w @ pts
        if np.any(np.abs(mean) > MEAN_TOL):
            raise ValidationError(
                "discrete set has nonzero mean velocity %s" % np.array2string(mean)
            )
        self.points = pts
        self.weights = w
        self.span, normals = _span(pts)
        self.facets = _hull_facets(pts, self.span, normals)
        on = _atom_dots(pts, self.facets[:, :-1]) + self.facets[:, -1:] >= -1e-12 * self.v_max
        self.facet_weights = (on * w).sum(axis=1)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def v_max(self):
        return float(np.max(np.linalg.norm(self.points, axis=1)))


# -- atom-set geometry, built once per DiscreteSet ---------------------


def _atom_dots(points, E):
    """Projections v . e of the atoms on the rows of E, shape (k, atoms), or
    (atoms,) on one direction E: every v . e of an atom set is read here.

    Summed coordinate by coordinate rather than through a BLAS product,
    whose rounding can depend on the shape of the batch; a row's
    projections are then the same in any batch and on every path.
    """
    dots = E[..., :1] * points[:, 0]
    for j in range(1, points.shape[1]):
        dots = dots + E[..., j : j + 1] * points[:, j]
    return dots


def _span(points):
    """Orthonormal rows spanning the m points and rows spanning its orthogonal
    complement, from one SVD: the full one, with an (m, m) factor, only for
    m below the dimension, where the reduced one lacks complement rows."""
    _, sv, vt = np.linalg.svd(points, full_matrices=len(points) < points.shape[1])
    k = np.count_nonzero(sv > 1e-12 * sv[0])
    return vt[:k], vt[k:]


def _hull_facets(pts, span, normals):
    """Facets n.x + c <= 0 of the points' convex hull as rows (n, c), n unit,
    one row per plane; span and normals are the rows of _span. When the
    points are flat (their rank is below the dimension) the rows
    are the facets of their hull inside their span, lifted back (the two
    ends of a segment), and (n, 0) for the +- unit normals n of the
    orthogonal complement of the span, which passes through 0 as their
    mean is 0: every x off the span, or in it but past the points' hull,
    is then past a facet.
    """
    if len(span) == pts.shape[1]:
        return _hull_planes(pts)
    inner = _hull_planes(_atom_dots(span, pts)) if len(span) else np.empty((0, 1))
    off = np.vstack([normals, -normals])
    return np.vstack([
        np.column_stack([inner[:, :-1] @ span, inner[:, -1]]),
        np.column_stack([off, np.zeros(len(off))]),
    ])


def _hull_planes(pts):
    """Facets (n, c) of the hull of full-dimensional points in 1-3 dimensions.

    1-D: the two ends. 2-D: the edges of Andrew's monotone chain. 3-D:
    the planes through triples of points that have every point on one
    side; a face with more than three points gives one plane per triple,
    kept once (two facets of a convex hull never share an outward
    normal). A point within 1e-12 |v|max of a facet counts as on it, and
    c = -max n.v over the points.
    """
    dim = pts.shape[1]
    if dim == 1:
        return np.array([[1.0, -pts.max()], [-1.0, pts.min()]])
    vmax = float(np.max(np.linalg.norm(pts, axis=1)))
    tol = 1e-12 * vmax
    if dim == 2:
        hull = _chain(pts, tol)
        edge = np.roll(hull, -1, axis=0) - hull
        N = np.column_stack([edge[:, 1], -edge[:, 0]])
        N = N / np.linalg.norm(N, axis=1, keepdims=True)
    else:
        # at most C(32, 3) x 32 = 158,720 side entries, about 1.3 MB
        k = np.arange(len(pts))
        tri = np.column_stack(np.nonzero((k[:, None, None] < k[:, None]) & (k[:, None] < k)))
        a = pts[tri[:, 0]]
        N = np.cross(pts[tri[:, 1]] - a, pts[tri[:, 2]] - a)
        size = np.linalg.norm(N, axis=1)
        plane = size > tol * vmax  # a collinear triple spans no plane
        N, a, size = N[plane], a[plane], size[plane]
        side = _atom_dots(pts, N) - (N * a).sum(axis=1)[:, None]
        N = np.vstack([N[side.max(axis=1) <= tol * size], -N[side.min(axis=1) >= -tol * size]])
        N = N / np.linalg.norm(N, axis=1, keepdims=True)
        kept = []
        while len(N):
            kept.append(N[0])
            N = N[np.abs(N - N[0]).max(axis=1) > 1e-9]
        N = np.array(kept)
    return np.column_stack([N, -_atom_dots(pts, N).max(axis=1)])


def _chain(pts, tol):
    """Vertices of the hull of 2-D points, counter-clockwise, by Andrew's
    monotone chain; a point within tol of the chord of its neighbours is
    not a vertex."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    hull = []
    for seq in (order, order[::-1]):
        half = []
        for i in seq:
            p = pts[i]
            while len(half) >= 2:
                o, q = half[-2], half[-1]
                cross = (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
                if cross > tol * math.hypot(p[0] - o[0], p[1] - o[1]):
                    break
                half.pop()
            half.append(p)
        hull += half[:-1]
    return np.array(hull)


class DensityFamily:
    """Radial density family on a symmetric support.

    name is one of 'uniform', 'power', 'cosine'; the profile is a
    function of rho = |v| / R and the normalization constant is fixed by
    the support at model construction.
    """

    NAMES = ("uniform", "power", "cosine")

    def __init__(self, name, k=0.0):
        if name not in self.NAMES:
            raise ValidationError("unknown density family %r" % (name,))
        if name == "power" and not k >= 0:
            raise ValidationError("power exponent must be nonnegative")
        self.name = name
        self.k = float(k)

    def profile(self, rho):
        # rho = |v|/R in [0, 1]
        rho = np.asarray(rho, dtype=float)
        if self.name == "uniform":
            return np.ones_like(rho)
        if self.name == "power":
            return np.maximum(1.0 - rho, 0.0) ** self.k
        return np.cos(0.5 * np.pi * np.clip(rho, 0.0, 1.0))

    def __repr__(self):
        if self.name == "power":
            return "DensityFamily('power', k=%g)" % self.k
        return "DensityFamily(%r)" % self.name


class VelocityModel:
    """The pair (V, M) plus quadrature.

    Parameters
    ----------
    support : Interval, Ball or DiscreteSet
    density : DensityFamily, required for continuum supports, ignored
        (must be None) for DiscreteSet.
    name : optional label used by the CLI.

    grid is the GradedGrid over s = vbar(e) - v.e of a continuum model,
    built once at construction, at norm constant 1 for the raw mass, and
    then rescaled to the normalized M; it is the same for every direction
    e. M is radial, so its slice marginal is even in t = R - s, and the
    build evaluates it once per distinct |t| of the grid's nodes, half of
    them (_radial_marginal). None on a DiscreteSet.
    """

    def __init__(self, support, density=None, name=None):
        self.support = support
        self.name = name

        if isinstance(support, DiscreteSet):
            if density is not None:
                raise ValidationError("DiscreteSet carries weights; no density allowed")
            self.density_family = None
            self._norm_const = None
            self.grid = None
        else:
            if density is None:
                raise ValidationError("continuum support requires a density family")
            if isinstance(support, Interval) and abs(support.a + support.b) > 1e-14:
                raise ValidationError(
                    "radial density families need a symmetric interval (a = -b)"
                )
            self.density_family = density
            # family normalization constant, via the graded edge grid
            # (robust to root-type endpoint behavior of non-integer exponents)
            self._norm_const = 1.0
            R = self.v_max

            def marginal(s):
                # the grid's four ladders over s in [0, R, 2R] share one set
                # of offsets o, the first ladder's nodes, so |t| = |R - s| is
                # R - o on the outer two and o on the inner two: the marginal
                # is even in t, so each distinct |t| is evaluated once and
                # serves a mirrored pair of ladders
                o = s[: s.size // 4]
                outer, inner = np.split(self._radial_marginal(np.concatenate([R - o, o])), 2)
                return np.concatenate([outer, inner, inner, outer])

            grid = GradedGrid(np.array([0.0, R, 2.0 * R]), marginal, R)
            raw_mass = grid.kernel_integral(np.ones_like)
            if not np.isfinite(raw_mass) or raw_mass <= 0:
                raise ValidationError("density has non-finite or zero mass")
            self._norm_const = 1.0 / raw_mass
            # a radial M on a ball or a symmetric interval has the same slice
            # marginal along every e, so one grid serves every direction: the
            # raw grid, its weights scaled by the constant (the marginal is
            # linear in M, so this is the normalized grid up to rounding)
            grid.w = grid.w * self._norm_const
            self.grid = grid
            self._validate_moments()

    # -- basic geometry ------------------------------------------------

    @property
    def dim(self):
        return self.support.dim

    @property
    def v_max(self):
        return self.support.v_max

    @property
    def is_discrete(self):
        return isinstance(self.support, DiscreteSet)

    def density(self, v):
        """Normalized density M at velocity array v ((N,) in 1-D, (N, n) else)."""
        if self.is_discrete:
            raise ValidationError("DiscreteSet has weights, not a pointwise density")
        v = np.asarray(v, dtype=float)
        return self._density_of_speed(np.abs(v) if v.ndim == 1 else np.linalg.norm(v, axis=-1))

    def _density_of_speed(self, rho):
        return self._norm_const * self.density_family.profile(
            np.asarray(rho, dtype=float) / self.v_max
        )

    def support_max(self, e):
        """Support function vbar(e) = max of v.e over V."""
        e = _unit(self, e)
        if self.is_discrete:
            return float(_atom_dots(self.support.points, e).max())
        return float(self.v_max)

    def arg_mu(self, p, tol=1e-12):
        """Maximizers of v.p over V, as a list of velocity arrays.

        p takes the gate of every direction. For continuum supports the
        maximizer is unique; for DiscreteSet all points within tol of the
        maximum are returned, sorted lexicographically."""
        e = _unit(self, p)
        if not self.is_discrete:
            return [self.v_max * e]
        vals = _atom_dots(self.support.points, e)
        m = vals.max()
        hits = self.support.points[vals >= m - tol]
        order = np.lexsort(hits.T[::-1])
        return [hits[i].copy() for i in order]

    def _validate_moments(self):
        """Check unit mass and zero mean (continuum; DiscreteSet checks its own).

        Uses the graded edge grid with nonnegative kernels: the mean
        along e is vbar - integral of s, avoiding signed kernels.
        """
        mass = self.grid.kernel_integral(np.ones_like)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValidationError("density mass is %.12g, not 1" % mass)
        mean_e = self.grid.vbar * mass - self.grid.kernel_integral(lambda s: s)
        if abs(mean_e) > MEAN_TOL:
            raise ValidationError("mean velocity along the first axis is %.3g, not 0" % mean_e)

    # -- directional machinery ------------------------------------------

    def _edge_marginal(self, s):
        """Slice marginal at t = R - s, R = v_max: the same along every direction.

        It is _radial_marginal at |t| = |R - s|, for any s.
        """
        return self._radial_marginal(np.abs(self.v_max - np.asarray(s, dtype=float)))

    def _radial_marginal(self, a):
        """Slice marginal at |t| = a >= 0: M is radial, so the marginal is even in t.

        A ball's marginal is a quadrature per node, summed along each node's
        row of a (nodes, rule) array: it runs on blocks of _MARGINAL_BLOCK
        nodes, which gives the same bits as one array, as every row is
        reduced alone.
        """
        if self.dim == 1:
            return self._density_of_speed(a)
        marginal = self._ball2_marginal if self.dim == 2 else self._ball3_marginal
        a = np.asarray(a, dtype=float)
        flat = a.ravel()
        blocks = [marginal(flat[i : i + _MARGINAL_BLOCK]) for i in range(0, flat.size, _MARGINAL_BLOCK)]
        return np.concatenate(blocks or [np.empty(0)]).reshape(a.shape)

    def slice_marginal(self, e, t):
        """Density of the projected speed v.e at value t (continuum only).

        This is the 1-D pushforward of M along e; the planar simulation
        closes on it exactly.
        """
        if self.is_discrete:
            raise ValidationError("DiscreteSet has atoms, not a slice density")
        _unit(self, e)
        t = np.asarray(t, dtype=float)
        # in 1-D the marginal is M itself, read at t and not at R - (R - t),
        # which rounds
        return self.density(t) if self.dim == 1 else self._edge_marginal(self.v_max - t)

    def _ball3_marginal(self, t):
        """Slice marginal for the 3-ball at |t| = t: 2*pi*int_|t|^R m(rho) rho drho."""
        R = self.v_max
        x, w = gl_rule(8 * _MARGINAL_ORDER)
        rho = t[:, None] + (R - t)[:, None] * x[None, :]
        wgt = (R - t)[:, None] * w[None, :]
        vals = self._density_of_speed(rho) * rho
        return 2.0 * np.pi * np.sum(wgt * vals, axis=1)

    def _ball2_marginal(self, t):
        """Slice marginal for the 2-ball at |t| = t.

        mbar(t) = 2 int_|t|^R m(rho) rho / sqrt(rho^2 - t^2) drho; the
        substitution rho = |t| + xi^2 removes the inverse-square-root
        endpoint, and a short graded ladder toward xi = 0 controls the
        near-origin scale sqrt(2|t|) when |t| is small.
        """
        R = self.v_max
        xi_max = np.sqrt(np.maximum(R - t, 0.0))
        x, w = _MARGINAL_LADDER.s, _MARGINAL_LADDER.w
        xi = xi_max[:, None] * x[None, :]
        wgt = xi_max[:, None] * w[None, :]
        rho = t[:, None] + xi**2
        y = 4.0 * self._density_of_speed(rho) * rho / np.sqrt(t[:, None] + rho)
        inc = (wgt * y).reshape(t.size, _MARGINAL_LEVELS, _MARGINAL_ORDER).sum(axis=2)
        # integrand is smooth at xi = 0: geometric tail with ratio 1/2
        return inc.sum(axis=1) + inc[:, -1]


# -- edge-kernel integrals (shared by l, j and the dispersion relation) --


def edge_kernel_integral(model, e, d, beta, power):
    """Integral over V of M(v) / (d + beta*(vbar(e) - v.e))^power.

    d >= 0, beta > 0, and power is 1 or 2. Returns +inf when divergent.
    This single entry point serves l (d=0, power=1), j (d=0, power=2),
    the derivative integral of the dispersion relation and the
    wave-profile mass.
    """
    e = _unit(model, e)
    if not model.is_discrete:
        return model.grid.power_kernel(d, beta, power)
    svals = model.support_max(e) - _atom_dots(model.support.points, e)
    den = (d + beta * svals) ** power
    if np.any(den == 0.0):
        return np.inf
    return float(np.sum(model.support.weights / den))


def l_integral(model, e):
    """l(e): integral of M / (vbar(e) - v.e); +inf when divergent, as on every atom set."""
    _unit(model, e)
    return np.inf if model.grid is None else model.grid.l


def j_integral(model, e):
    """Integral of M / (vbar(e) - v.e)^2; +inf when divergent, as on every atom set."""
    _unit(model, e)
    return np.inf if model.grid is None else model.grid.j


# -- presets ----------------------------------------------------------


def preset(name):
    """Build a named preset model.

    Known names: uniform-1d, quadratic-1d, uniform-ball:<n>, two-speed.
    """
    if name == "uniform-1d":
        return VelocityModel(Interval(-1.0, 1.0), DensityFamily("uniform"), name=name)
    if name == "quadratic-1d":
        return VelocityModel(Interval(-1.0, 1.0), DensityFamily("power", k=2.0), name=name)
    if name.startswith("uniform-ball:"):
        n = int(name.split(":", 1)[1])
        return VelocityModel(Ball(1.0, n), DensityFamily("uniform"), name=name)
    if name == "two-speed":
        return VelocityModel(DiscreteSet([[-1.0], [1.0]], [0.5, 0.5]), None, name=name)
    raise ValidationError("unknown preset %r" % (name,))


PRESET_NAMES = ("uniform-1d", "quadratic-1d", "uniform-ball:2", "uniform-ball:3", "two-speed")
