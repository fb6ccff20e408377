"""Macroscopic spreading predictions built on the Hamiltonian.

The Lagrangian is the convex conjugate

    L(p) = sup_q [ p.q - (1+r) H(q/(1+r)) - r ],

evaluated by reparameterizing q = lam*e/(1+r) and maximizing

    g(lam) = lam (p.e) - (1+r) H(lam e/(1+r)) - r

over decay rates lam >= 0 (g is concave in lam below the critical decay,
with boundary value -r as lam -> 0) and directions e. Hopf-Lax then
gives the limiting phase phi(t, x) in closed form for the two supported
initial conditions, planar fronts and compactly supported (point) data,
whose null sets propagate at the minimal speed c*(e0) and at the
directional spreading speed w*(e0) respectively. Those radii are
recovered here by root-finding on phi, not by quoting the speeds, so the
two routes cross-check each other.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError

from .dispersion import (
    _atom_dots,
    _atom_min_speeds,
    _h_on_rays,
    _zoom_min,
    hamiltonian_values,
    lambda_tilde,
    minimal_speed,
)
from .errors import ValidationError
from .models import Ball, direction

ANGLES_LAGRANGIAN = 128
ANGLES_FG = 256
_LAM_FLOOR = 1e-8
_LAM_CEIL = 2.0**24


def _is_radial(model):
    # slice marginal, hence H, depends only on |p| for these
    return isinstance(model.support, Ball) and model.support.dim >= 2


def _ray_sups(model, r, E, a):
    """sup over lam >= 0 of g(lam) = lam*a - (1+r)H(lam*e/(1+r)) - r, on k rays.

    The rays are the pairs (E[i], a[i]). +inf where a[i] > vbar(E[i]):
    past the reachable cone the singular branch grows without bound.
    Otherwise g is concave, and its sup lies in (0, lambda_tilde(e)]
    when that is finite (beyond it the branch is linear with slope
    a - vbar <= 0); else the window [0, hi] grows from hi = 64 by
    factors of 4 while g still rises at hi. _zoom_min then pins the
    maximum to ~1e-9 of the window. Each step is one batched H solve
    over all rays, and a ray's value does not depend on the other rays.
    """
    E = np.atleast_2d(E)
    a = np.asarray(a, dtype=float)
    if model.is_discrete:
        dots = _atom_dots(model.support.points, E)
        vbar = dots.max(axis=1)
    else:
        vbar = np.array([model.support_max(e) for e in E])
    out = np.full(a.shape, np.inf)
    rows = np.flatnonzero(~(a > vbar + 1e-12 * (1.0 + np.abs(vbar))))
    if rows.size == 0:
        return out
    E, a = E[rows], a[rows]
    scale = 1.0 / (1.0 + r)

    def g(lams, sel=slice(None)):
        if model.is_discrete:
            H = _h_on_rays(model.support.weights, lams * scale, dots[rows[sel]])
        else:
            Q = (lams * scale)[:, :, None] * E[sel, None, :]
            H = hamiltonian_values(model, Q.reshape(-1, model.dim)).reshape(lams.shape)
        return lams * a[sel, None] - (1.0 + r) * H - r

    hi = np.array([np.inf if model.is_discrete else lambda_tilde(model, r, e) for e in E])
    grow = np.flatnonzero(np.isinf(hi))
    hi[grow] = 64.0
    if grow.size:
        pair = g(np.column_stack([0.5 * hi[grow], hi[grow]]), grow)
        grow = grow[pair[:, 1] > pair[:, 0]]
    while grow.size:
        hi[grow] *= 4.0
        pair = g(np.column_stack([0.25 * hi[grow], hi[grow]]), grow)
        grow = grow[(pair[:, 1] > pair[:, 0]) & (hi[grow] < _LAM_CEIL)]
    lo = np.full(rows.size, _LAM_FLOOR)
    rounds, n = (6, 65) if model.is_discrete else (10, 17)
    _, neg = _zoom_min(lambda lams: -g(lams), lo, hi, rounds, n)
    out[rows] = -neg
    return out


def _circle_dirs(thetas):
    return np.column_stack([np.cos(thetas), np.sin(thetas)])


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _cap_dirs(center, rad):
    """Unit directions on a 5 x 5 tangent-plane grid of half-width rad about center."""
    u = np.cross(center, np.eye(3)[int(np.argmin(np.abs(center)))])
    u /= np.linalg.norm(u)
    w = np.cross(center, u)
    g = np.linspace(-rad, rad, 5)
    D = (center + g[:, None, None] * u + g[None, :, None] * w).reshape(-1, 3)
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _cap_search(f, center, best, rad, keep=None):
    """Minimize f over the directions near center, by shrinking cap grids.

    Each round evaluates f on a 5 x 5 _cap_dirs grid of half-width rad
    about the best direction so far, in one batch (keep drops unwanted
    directions), then narrows the grid by 4, until its half-width is at
    most 1e-7 rad. Returns the smallest value, best on entry included.
    """
    while True:
        D = _cap_dirs(center, rad)
        if keep is not None:
            D = D[keep(D)]
        vals = f(D)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, center = float(vals[k]), D[k]
        if rad <= 1e-7:
            return best
        rad *= 0.25


def lagrangian(model, r, p, n_angles=ANGLES_LAGRANGIAN):
    """Convex conjugate L(p); +inf outside the closed velocity hull.

    The directional sup uses every grid direction plus a local
    refinement around the best one, each step one batched _ray_sups
    call: _zoom_min over the angle in 2-D, shrinking 5 x 5 direction
    grids about the best direction in 3-D (_cap_search), where p's own
    direction is also a candidate. Past a facet of the atoms' hull, or
    off the span of a flat set, L is +inf without a scan.
    Rotation-invariant models collapse to the aligned direction
    e = p/|p| exactly (the per-direction value is nondecreasing in p.e
    and the radial H does not depend on e). The direction scans only
    ever see atom sets (balls are radial, intervals 1-D).
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.size != model.dim:
        raise ValidationError(
            "p has %d components, model is %d-dimensional" % (p.size, model.dim)
        )
    nrm = float(np.linalg.norm(p))
    if model.dim == 1:
        E = np.array([[1.0], [-1.0]])
        return float(np.max(_ray_sups(model, r, E, E[:, 0] * p[0])))
    if _is_radial(model) or nrm == 0.0:
        e = p / nrm if nrm > 0 else np.eye(model.dim)[0]
        return float(_ray_sups(model, r, e, [nrm])[0])
    # past a facet of the hull the ray along its normal already gives
    # +inf, which the direction grid below may step over
    facets = _hull_facets(model)
    if np.any(facets[:, :-1] @ p + facets[:, -1] > 1e-12 * (1.0 + np.abs(facets[:, -1]))):
        return np.inf
    if model.dim == 2:
        thetas = 2.0 * math.pi * np.arange(n_angles) / n_angles
        E = _circle_dirs(thetas)
        vals = _ray_sups(model, r, E, E @ p)
        k = int(np.argmax(vals))
        if np.isinf(vals[k]):
            return np.inf
        span = 2.0 * math.pi / n_angles

        def neg(ts):
            E = _circle_dirs(ts[0])
            return -_ray_sups(model, r, E, E @ p)[None, :]

        _, negv = _zoom_min(neg, thetas[k : k + 1] - span, thetas[k : k + 1] + span, 10, 17)
        return max(float(vals[k]), -float(negv[0]))
    # dim == 3: spiral scan, with p's own direction, then the cap grids
    dirs = np.vstack([p / nrm, _fibonacci_sphere(2 * n_angles)])
    vals = _ray_sups(model, r, dirs, dirs @ p)
    k = int(np.argmax(vals))
    if np.isinf(vals[k]):
        return np.inf
    rad = math.sqrt(4.0 * math.pi / (2 * n_angles))
    return -_cap_search(lambda D: -_ray_sups(model, r, D, D @ p), dirs[k], -float(vals[k]), rad)


def planar_conjugate(model, r, e0, q):
    """One-dimensional conjugate along e0: sup_lam [lam q - (1+r)H - r]."""
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e0 = direction(e0)
    return float(_ray_sups(model, r, e0, [float(q)])[0])


def hopf_lax_phi(model, r, t, x, init="point", e0=None):
    """Hopf-Lax value of the limiting phase at (t, x).

    Planar data with front normal e0: phi = max(t * Lbar((x.e0)/t), 0)
    with Lbar the conjugate along e0. Point data: phi = max(t*L(x/t), 0).
    phi = +inf outside the reachable cone.
    """
    if t <= 0:
        raise ValidationError("time t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if init == "planar":
        if e0 is None:
            raise ValidationError("planar initial data needs the front normal e0")
        q = float(x @ direction(e0)) / t
        val = t * planar_conjugate(model, r, e0, q)
    elif init == "point":
        val = t * lagrangian(model, r, x / t)
    else:
        raise ValidationError("init must be 'planar' or 'point'")
    return max(val, 0.0)


def _cstars(model, r, E):
    """Minimal speeds c*(e) on the rows of E, solved on every call.

    An atom set solves all rows in one _atom_min_speeds call, where a
    row's c* does not depend on the other rows. Continuum models reach
    here only for 1-D and radial models, one direction at a time.
    """
    E = np.atleast_2d(E)
    E = E / np.linalg.norm(E, axis=1, keepdims=True)
    if model.is_discrete:
        return _atom_min_speeds(model, r, E)[0]
    return np.array([minimal_speed(model, r, e, sample=False).c_star for e in E])


def _hull_facets(model):
    """Facets n.x + c <= 0 of the atoms' convex hull as rows (n, c), n unit.

    No rows for continuum models and 1-D sets. When the atoms are flat
    (Qhull cannot build a full-dimensional hull) the rows are (n, 0) for
    the +- unit normals n of the orthogonal complement of their span,
    which passes through 0 as their mean is 0: every x off the span is
    then past a facet.
    """
    if not model.is_discrete or model.dim == 1:
        return np.empty((0, model.dim + 1))
    pts = model.support.points
    try:
        return ConvexHull(pts).equations
    except QhullError:
        _, sv, vt = np.linalg.svd(pts)
        normals = vt[np.count_nonzero(sv > 1e-12 * sv[0]) :]
        normals = np.vstack([normals, -normals])
        return np.column_stack([normals, np.zeros(len(normals))])


def freidlin_gartner_speed(model, r, e0, n_angles=ANGLES_FG):
    """Spreading speed of point data: min of c*(e)/(e.e0) over e.e0 > 0.

    In 1-D (and for rotation-invariant models, where the minimizing
    direction is e0 itself) this is just c*(e0). Otherwise the open
    hemisphere is scanned on a grid, in one batched c* solve, and the
    best bracket refined, each step one batched c* solve: by _zoom_min
    over the angle in 2-D, a minimizer hugging the equator being
    flagged, since there c*/(e.e0) blows up and attainment relies on
    interior angles; by shrinking 5 x 5 direction grids in 3-D
    (_cap_search). e0 itself is a candidate too. For a velocity set of
    atoms the ratio is also taken at the outward facet normals of their
    convex hull (for a flat set, the normals of its span): once c*
    turns ballistic near such a normal the minimum can sit at that
    corner of the ratio, which neither refinement is guaranteed to find.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e0 = direction(e0)
    if model.dim == 1 or _is_radial(model):
        return float(_cstars(model, r, e0)[0])
    if model.dim == 2:
        theta0 = math.atan2(e0[1], e0[0])
        half = 0.5 * math.pi
        offs = -half + math.pi * (np.arange(n_angles) + 0.5) / n_angles
        vals = _cstars(model, r, _circle_dirs(theta0 + offs)) / np.cos(offs)
        k = int(np.argmin(vals))
        span = math.pi / n_angles
        lo = max(offs[k] - span, -half + 1e-9)
        hi = min(offs[k] + span, half - 1e-9)

        def ratios(phis):
            return (_cstars(model, r, _circle_dirs(theta0 + phis[0])) / np.cos(phis[0]))[None, :]

        phi_star, best = _zoom_min(ratios, np.array([lo]), np.array([hi]), 10, 17)
        if abs(phi_star[0]) > half - 2.0 * span:
            warnings.warn(
                "Freidlin-Gartner minimizer lies near the equator e.e0 = 0; "
                "increase n_angles if the minimum looks truncated",
                RuntimeWarning,
            )
        best = min(float(np.min(vals)), float(best[0]))
    else:
        dirs = _fibonacci_sphere(2 * n_angles)
        dirs = np.vstack([e0, dirs[dirs @ e0 > 1e-6]])
        vals = _cstars(model, r, dirs) / (dirs @ e0)
        k = int(np.argmin(vals))
        rad = math.sqrt(4.0 * math.pi / (2 * n_angles))
        ratios = lambda D: _cstars(model, r, D) / (D @ e0)
        best = _cap_search(ratios, dirs[k], float(vals[k]), rad, keep=lambda D: D @ e0 > 1e-6)
    normals = _hull_facets(model)[:, :-1]
    normals = np.vstack([e0, normals[normals @ e0 > 0.0]])
    return min(best, float(np.min(_cstars(model, r, normals) / (normals @ e0))))


def _hull_extent(model, e0):
    """Largest q with q e0 in the atoms' hull, from its facets; else vbar(e0)."""
    vb = model.support_max(e0)
    facets = _hull_facets(model)
    up = facets[:, :-1] @ e0 > 0.0
    if not up.any():
        return vb
    # at least 0, which the hull holds (the atoms' mean is 0)
    return max(0.0, min(vb, float(np.min(-facets[up, -1] / (facets[up, :-1] @ e0)))))


def nullset_radius(model, r, e0, t, init="point", tol=1e-9):
    """Extent of the null set of phi(t, .) along e0, by root-finding.

    Planar data: the largest x.e0 with phi = 0, equal to c*(e0) t.
    Point data: the largest |x| along e0 with phi = 0, equal to w*(e0) t.
    Both come out of a bracketed root solve on the conjugate along the
    ray (phi is t times a function of x/t, so the radius is exactly
    linear in t). When the conjugate never turns positive inside the
    velocity hull the front is ballistic and the radius is the hull's
    extent along e0 times t: vbar(e0) t for planar data, and for point
    data on a full-dimensional hull of atoms the distance to its
    boundary, found from the hull's facets, where L jumps to +inf.

    Every call solves its root: a caller that wants the radii at several
    times can solve once at t = 1 and scale. Within the call each
    conjugate value is computed once, as the ballistic test and brentq
    both take f(vbar).
    """
    if t <= 0:
        raise ValidationError("time t must be positive")
    e0 = direction(e0)
    vb = model.support_max(e0)

    @functools.lru_cache(maxsize=None)
    def f(q):
        if init == "planar":
            return planar_conjugate(model, r, e0, q)
        return lagrangian(model, r, q * e0)

    if init == "point":
        # L jumps to +inf past the hull, which can end before vbar(e0):
        # when L <= 0 up to the hull the radius is the hull's extent, where
        # Brent on [0, vbar] would bisect onto the jump (41 Lagrangian calls
        # at one diamond corner). Otherwise the bracket stays [0, vbar]:
        # its points past the hull cost nothing, L being +inf there from
        # the facets alone, and the radii repeat those of that solve bit
        # for bit, where Brent on [0, extent] moves them within its xtol
        # (by 1e-10 relative at one diamond direction)
        top = _hull_extent(model, e0)
        if top < vb * (1.0 - 1e-12) and f(top) <= 0.0:
            return t * top
    if f(vb) <= 0.0:
        return t * vb
    q_star = brentq(f, 0.0, vb, xtol=tol, rtol=4.0 * np.finfo(float).eps)
    return t * float(q_star)


@dataclass
class HJSolution:
    """Bundle of the macroscopic predictions for one model and rate.

    lagrangian_samples holds (q, L(q e0)) pairs along the reference
    direction; phi and nullset_radius are closures over the model.
    """

    model_ref: object
    r: float
    e0: np.ndarray
    lagrangian_samples: np.ndarray
    phi: Callable
    nullset_radius: Callable


def hj_solution(model, r, e0=None, n_samples=41):
    """Assemble an HJSolution along the direction e0 (first axis default)."""
    if e0 is None:
        e0 = np.eye(model.dim)[0]
    e0 = direction(e0)
    fwd = model.support_max(e0)
    back = model.support_max(-e0)
    qs = np.linspace(-back, fwd, n_samples)
    lvals = np.array([lagrangian(model, r, q * e0) for q in qs])
    samples = np.column_stack([qs, lvals])

    def phi(t, x, init="point"):
        return hopf_lax_phi(model, r, t, x, init=init, e0=e0)

    def radius(t, init="point"):
        return nullset_radius(model, r, e0, t, init=init)

    return HJSolution(
        model_ref=model,
        r=float(r),
        e0=e0,
        lagrangian_samples=samples,
        phi=phi,
        nullset_radius=radius,
    )
