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
`GradedGrid`; see the `quadrature` module. A continuum model builds every
grid it uses at construction, one per half-line in 1-D and one for a ball,
and keeps nothing else between calls.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import GradedGrid, _Ladder, gl_rule

MASS_TOL = 1e-8
MEAN_TOL = 1e-8
_MARGINAL_LEVELS = 16
_MARGINAL_ORDER = 12
# unit graded ladder on (0, 1] toward 0 for the 2-ball marginal, level-major
_MARGINAL_LADDER = _Ladder(0.0, 1.0, "down", _MARGINAL_LEVELS, _MARGINAL_ORDER)


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


@dataclass(frozen=True)
class Interval:
    """1-D velocity support [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError("interval requires a < b")

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
        if self.radius <= 0:
            raise ValidationError("ball radius must be positive")
        if self.dim < 1 or self.dim > 3:
            raise ValidationError("ball dimension must be 1, 2 or 3")

    @property
    def v_max(self):
        return self.radius


class DiscreteSet:
    """Finite velocity set: points (m, n) with positive weights summing to 1."""

    def __init__(self, points, weights):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValidationError("points must be an (m, n) array")
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValidationError("one weight per velocity point required")
        keep = w != 0.0
        pts, w = pts[keep], w[keep]
        if pts.shape[0] == 0:
            raise ValidationError("discrete set needs at least one weighted point")
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

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def v_max(self):
        return float(np.max(np.linalg.norm(self.points, axis=1)))


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
        if name == "power" and k < 0:
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
    """

    def __init__(self, support, density=None, name=None):
        self.support = support
        self.name = name

        if isinstance(support, DiscreteSet):
            if density is not None:
                raise ValidationError("DiscreteSet carries weights; no density allowed")
            self.density_family = None
            self._norm_const = None
        else:
            if density is None:
                raise ValidationError("continuum support requires a density family")
            if isinstance(support, Interval) and abs(support.a + support.b) > 1e-14:
                raise ValidationError(
                    "radial density families need a symmetric interval (a = -b)"
                )
            self.density_family = density
            # family normalization constant, via the graded directional grid
            # (robust to root-type endpoint behavior of non-integer exponents)
            self._norm_const = 1.0
            e0 = np.zeros(self.dim)
            e0[0] = 1.0
            raw_mass = self._build_grid(e0).kernel_integral(np.ones_like)
            if not np.isfinite(raw_mass) or raw_mass <= 0:
                raise ValidationError("density has non-finite or zero mass")
            self._norm_const = 1.0 / raw_mass
            # the grids of every direction: one per half-line in 1-D, and
            # one for a ball, whose slice marginal is the same along every e
            self._grids = tuple(
                self._build_grid(sgn * e0) for sgn in ((1.0, -1.0) if self.dim == 1 else (1.0,))
            )
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

    @property
    def radius(self):
        if isinstance(self.support, Interval):
            return self.support.b
        if isinstance(self.support, Ball):
            return self.support.radius
        return self.support.v_max

    def density(self, v):
        """Normalized density M at velocity array v ((N,) in 1-D, (N, n) else)."""
        if self.is_discrete:
            raise ValidationError("DiscreteSet has weights, not a pointwise density")
        v = np.asarray(v, dtype=float)
        rho = np.abs(v) if v.ndim == 1 else np.linalg.norm(v, axis=-1)
        return self._norm_const * self.density_family.profile(rho / self.radius)

    def _density_of_speed(self, rho):
        return self._norm_const * self.density_family.profile(
            np.asarray(rho, dtype=float) / self.radius
        )

    def support_max(self, e):
        """Support function vbar(e) = max of v.e over V."""
        e = direction(e)
        if isinstance(self.support, Interval):
            return float(max(self.support.a * e[0], self.support.b * e[0]))
        if isinstance(self.support, Ball):
            return float(self.support.radius)
        return float(np.max(self.support.points @ e))

    def mu(self, p):
        """mu(p) = |p| vbar(p/|p|); 0 at p = 0."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        nrm = float(np.linalg.norm(p))
        if nrm == 0.0:
            return 0.0
        return nrm * self.support_max(p / nrm)

    def arg_mu(self, p, tol=1e-12):
        """Maximizers of v.p over V, as a list of velocity arrays.

        For continuum supports the maximizer is unique; for DiscreteSet
        all points within tol of the maximum are returned, sorted
        lexicographically."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        nrm = float(np.linalg.norm(p))
        if nrm == 0.0:
            raise ValidationError("arg_mu undefined at p = 0")
        e = p / nrm
        if isinstance(self.support, Interval):
            v = self.support.b if e[0] > 0 else self.support.a
            return [np.array([v])]
        if isinstance(self.support, Ball):
            return [self.support.radius * e]
        vals = self.support.points @ e
        m = vals.max()
        hits = self.support.points[vals >= m - tol]
        order = np.lexsort(hits.T[::-1])
        return [hits[i].copy() for i in order]

    def _validate_moments(self):
        """Check unit mass and zero mean (continuum; DiscreteSet checks its own).

        Uses the graded directional grid with nonnegative kernels: the
        mean along e is vbar - integral of s, avoiding signed kernels.
        """
        for grid in self._grids:
            mass = grid.kernel_integral(np.ones_like)
            if abs(mass - 1.0) > MASS_TOL:
                raise ValidationError("density mass is %.12g, not 1" % mass)
            mean_e = grid.vbar * mass - grid.kernel_integral(lambda s: s)
            if abs(mean_e) > MEAN_TOL:
                raise ValidationError(
                    "mean velocity along the first axis is %.3g, not 0" % mean_e
                )

    # -- directional machinery ------------------------------------------

    def directional_grid(self, e):
        """GradedGrid over s = vbar(e) - v.e for continuum supports (None for discrete).

        One of the grids built at construction: the half-line's grid in
        1-D, the ball's one grid otherwise.
        """
        e = direction(e)
        if self.is_discrete:
            return None
        return self._grids[1 if self.dim == 1 and e[0] < 0.0 else 0]

    def _build_grid(self, e):
        vbar = self.support_max(e)
        if isinstance(self.support, Interval) or self.support.dim == 1:
            a, b = (
                (self.support.a, self.support.b)
                if isinstance(self.support, Interval)
                else (-self.support.radius, self.support.radius)
            )
            sgn = 1.0 if e[0] > 0 else -1.0
            t_min = min(a * sgn, b * sgn)
            # split at the |v| kink (t = 0) when it is interior
            cuts = {0.0, vbar - t_min}
            if t_min < 0.0 < vbar:
                cuts.add(vbar)
            s_break = np.array(sorted(cuts))

            def marginal(s):
                return self.density((vbar - s) * sgn)

            return GradedGrid(s_break, marginal, vbar)
        # ball in 2 or 3 dimensions: radial density, marginal even in t
        R = self.support.radius
        s_break = np.array([0.0, R, 2.0 * R])
        if self.support.dim == 3:
            marginal = self._ball3_marginal
        else:
            marginal = self._ball2_marginal
        return GradedGrid(s_break, marginal, vbar)

    def slice_marginal(self, e, t):
        """Density of the projected speed v.e at value t (continuum only).

        This is the 1-D pushforward of M along e; the planar simulation
        closes on it exactly.
        """
        if self.is_discrete:
            raise ValidationError("DiscreteSet has atoms, not a slice density")
        e = direction(e)
        t = np.asarray(t, dtype=float)
        if isinstance(self.support, Interval) or self.support.dim == 1:
            sgn = 1.0 if e[0] > 0 else -1.0
            return self.density(t * sgn)
        R = self.support.radius
        if self.support.dim == 3:
            return self._ball3_marginal(R - t)
        return self._ball2_marginal(R - t)

    def _ball3_marginal(self, s):
        """Slice marginal for the 3-ball: 2*pi*int_|t|^R m(rho) rho drho."""
        R = self.support.radius
        t = np.abs(R - np.asarray(s, dtype=float))  # |t| for t = vbar - s, vbar = R
        x, w = gl_rule(8 * _MARGINAL_ORDER)
        rho = t[:, None] + (R - t)[:, None] * x[None, :]
        wgt = (R - t)[:, None] * w[None, :]
        vals = self._density_of_speed(rho) * rho
        return 2.0 * np.pi * np.sum(wgt * vals, axis=1)

    def _ball2_marginal(self, s):
        """Slice marginal for the 2-ball.

        mbar(t) = 2 int_|t|^R m(rho) rho / sqrt(rho^2 - t^2) drho; the
        substitution rho = |t| + xi^2 removes the inverse-square-root
        endpoint, and a short graded ladder toward xi = 0 controls the
        near-origin scale sqrt(2|t|) when |t| is small.
        """
        R = self.support.radius
        t = np.abs(R - np.asarray(s, dtype=float))
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

    d >= 0, beta > 0. Returns +inf when divergent. This single entry
    point serves l (d=0, power=1), j (d=0, power=2), the derivative
    integral of the dispersion relation and the wave-profile mass.
    """
    if model.is_discrete:
        e = direction(e)
        svals = model.support_max(e) - model.support.points @ e
        den = (d + beta * svals) ** power
        if np.any(den == 0.0):
            return np.inf
        return float(np.sum(model.support.weights / den))
    grid = model.directional_grid(e)
    return grid.power_kernel(d, beta, power)


def l_integral(model, e):
    """l(e): integral of M / (vbar(e) - v.e); +inf when divergent, as on every atom set."""
    grid = model.directional_grid(e)
    return np.inf if grid is None else grid.l


def j_integral(model, e):
    """Integral of M / (vbar(e) - v.e)^2; +inf when divergent, as on every atom set."""
    grid = model.directional_grid(e)
    return np.inf if grid is None else grid.j


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
