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
two routes cross-check each other. A caller that knows the speed may
pass it to nullset_radius: it only narrows the bracket, and the root is
still certified by a sign change of the conjugate, so a wrong speed
falls back to the full bracket instead of becoming the radius.

L and w* are searches over directions, as the minimum over e need not
be set by a first-order condition: a scan, then a refinement about the
scan's best row. The scan only picks where the refinement works, so its
rows are ranked with _RANK_ROUNDS-round solves, which see a subset of
the full solve's points; the chosen row, the refinement and the extra
candidates are solved in full. An output then differs from that of a
scan solved in full only where the cheap ranking picks another row.
"""

import functools
import math
import warnings

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError

from .dispersion import (
    _atom_dots,
    _h_rays,
    _min_speeds,
    _ray_edges,
    _rows,
    _zoom_min,
    _zoom_shape,
)
from .errors import ValidationError
from .models import _positive, _unit

ANGLES_LAGRANGIAN = 128
ANGLES_FG = 256
_LAM_FLOOR = 1e-8
_LAM_CEIL = 2.0**24
# relative half-width of the bracket about a known speed in nullset_radius
_SEED_REL = 1e-6
# zoom rounds of the solves that only rank the rows of a direction scan
_RANK_ROUNDS = 2


def _is_radial(model):
    # a continuum model in 2-D or 3-D is a ball with a radial M: its slice
    # marginal, hence H, depends only on |p|
    return not model.is_discrete and model.dim >= 2


def _ray_sups(model, r, E, a, rounds=None):
    """sup over lam >= 0 of g(lam) = lam*a - (1+r)H(lam*e/(1+r)) - r, on k rays.

    The rays are the pairs (E[i], a[i]). +inf where a[i] > vbar(E[i]):
    past the reachable cone the singular branch grows without bound.
    Otherwise g is concave, and its sup lies in (0, lambda_tilde(e)]
    when that is finite (beyond it the branch is linear with slope
    a - vbar <= 0); else the window [0, hi] grows from hi = 64 by
    factors of 4 while g still rises at hi. _zoom_min, shaped by
    _zoom_shape as for the minimal speeds, then pins the maximum to
    ~1e-9 of the window, or in rounds rounds when given (_zoom_shape),
    which gives a sup never above the full one. Each step is one batched
    _h_rays solve over all rays, for any velocity set, and a ray's value
    does not depend on the other rays.
    """
    E = np.atleast_2d(E)
    a = np.asarray(a, dtype=float)
    vbar, lval = _ray_edges(model, E)
    out = np.full(a.shape, np.inf)
    rows = np.flatnonzero(~(a > vbar + 1e-12 * (1.0 + np.abs(vbar))))
    if rows.size == 0:
        return out
    E, a = E[rows], a[rows]
    scale = 1.0 / (1.0 + r)

    def g(lams, sel=slice(None)):
        return lams * a[sel, None] - (1.0 + r) * _h_rays(model, lams * scale, E[sel]) - r

    hi = (1.0 + r) * lval[rows]
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
    _, neg = _zoom_min(lambda lams, sel: -g(lams, sel), lo, hi, *_zoom_shape(model, rounds))
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
    """Unit directions on a 5 x 5 tangent-plane grid of half-width rad about
    center, without the centre itself: the search has solved it already."""
    u = np.cross(center, np.eye(3)[int(np.argmin(np.abs(center)))])
    u /= np.linalg.norm(u)
    w = np.cross(center, u)
    g = np.linspace(-rad, rad, 5)
    D = (center + g[:, None, None] * u + g[None, :, None] * w).reshape(-1, 3)
    D = np.delete(D, 12, axis=0)  # the centre, g = 0 on both axes
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _dots(D, pole):
    """D @ pole without a BLAS product, whose rounding can depend on the
    shape of the batch (see dispersion._atom_dots)."""
    return _atom_dots(pole[None, :], D)[:, 0]


def _direction_min(f, pole, n, half=False, extra=None):
    """Smallest value of f over the unit directions, or with half over
    the open hemisphere about the pole: the one direction search.

    f(D, dots, rounds=None) maps unit rows D and their dot products
    with the pole to values; each step below is one call. The dots are
    summed coordinate by coordinate (_dots), so a row's dot is the same
    in any batch. pole is nonzero, and unit with half, where dots is
    cos(offset) on the half circle.
    2-D: n angles (2 pi k / n, or with half the cell midpoints of the
    offsets from the pole in (-pi/2, pi/2)), then ten _zoom_min rounds
    about the best one; with half the bracket stops 1e-9 short of the
    equator, and a minimizer near it is flagged, as a ratio over e.e0
    blows up there and attainment relies on interior angles. 3-D: the
    pole's direction and a Fibonacci spiral of 2n directions (with half,
    those with dots > 1e-6), then 5 x 5 cap grids about the best
    direction, from the spiral spacing down to 1e-7 rad by factors of 4;
    each grid leaves out its centre, the best direction so far.
    The scan is the one call with rounds=_RANK_ROUNDS, whose cheaper
    values must never be below f's: they only pick the best row, which
    f then solves alone, with its dots from the scan, to seed the
    smallest value. A scan whose best value is -inf returns it at once.
    The rows of extra are candidates too, taken last, except one that
    repeats the scan's best row.
    """
    if pole.size == 2:
        if half:
            base, span = math.atan2(pole[1], pole[0]), math.pi / n
            scan = -0.5 * math.pi + math.pi * (np.arange(n) + 0.5) / n
        else:
            base, span = 0.0, 2.0 * math.pi / n
            scan = 2.0 * math.pi * np.arange(n) / n

        def g(ts):
            D = _circle_dirs(base + ts)
            return D, (np.cos(ts) if half else _dots(D, pole))

    else:
        scan = np.vstack([pole if half else pole / np.linalg.norm(pole), _fibonacci_sphere(2 * n)])

        def g(D):
            dots = _dots(D, pole)
            if half:
                D, dots = D[dots > 1e-6], dots[dots > 1e-6]
            return D, dots

    D, dots = g(scan)
    vals = f(D, dots, _RANK_ROUNDS)
    k = int(np.argmin(vals))
    best, center = float(vals[k]), D[k]
    if best == -np.inf:
        return best
    best = float(f(D[k : k + 1], dots[k : k + 1])[0])
    if pole.size == 2:
        lo, hi = scan[k] - span, scan[k] + span
        if half:
            lo, hi = max(lo, -0.5 * math.pi + 1e-9), min(hi, 0.5 * math.pi - 1e-9)
        zoom = lambda ts, _: f(*g(ts[0]))[None, :]
        t_star, zoomed = _zoom_min(zoom, np.array([lo]), np.array([hi]), 10, 17)
        if half and abs(t_star[0]) > 0.5 * math.pi - 2.0 * span:
            warnings.warn(
                "Freidlin-Gartner minimizer lies near the equator e.e0 = 0; "
                "increase ANGLES_FG if the minimum looks truncated",
                RuntimeWarning,
            )
        best = min(best, float(zoomed[0]))
    else:
        rad, cap = math.sqrt(4.0 * math.pi / (2 * n)), center
        while True:
            D, dots = g(_cap_dirs(cap, rad))
            vals = f(D, dots)
            j = int(np.argmin(vals))
            if vals[j] < best:
                best, cap = float(vals[j]), D[j]
            if rad <= 1e-7:
                break
            rad *= 0.25
    if extra is not None:
        extra = extra[np.any(extra != center, axis=1)]
        if len(extra):
            best = min(best, float(np.min(f(extra, _dots(extra, pole)))))
    return best


def lagrangian(model, r, p):
    """Convex conjugate L(p); +inf outside the closed velocity hull.

    The sup over directions e of the ray conjugates at p.e (_ray_sups) is
    one _direction_min about p's direction, with ANGLES_LAGRANGIAN
    angles: the scan ranks its rays with _RANK_ROUNDS-round sups, and
    the chosen ray, the angle zoom and the cap grids solve them in full.
    p.e is the search's dots with the pole p, so a ray's p.e does not
    depend on the batch that holds it. Past a facet of the atoms' hull,
    or off the span of a flat set, L is +inf without a search.
    Rotation-invariant models collapse to the aligned direction
    e = p/|p| exactly (the per-direction value is nondecreasing in p.e
    and the radial H does not depend on e). The direction search only
    ever sees atom sets (balls are radial, intervals 1-D).
    """
    _positive(r, "growth rate r")
    P, _ = _rows(model, np.ravel(p))
    p = P[0]
    nrm = float(np.linalg.norm(p))
    if model.dim == 1:
        E = np.array([[1.0], [-1.0]])
        return float(np.max(_ray_sups(model, r, E, E[:, 0] * p[0])))
    if _is_radial(model) or nrm == 0.0:
        e = p / nrm if nrm > 0 else np.eye(model.dim)[0]
        return float(_ray_sups(model, r, e, [nrm])[0])
    # past a facet of the hull the ray along its normal already gives
    # +inf, which the direction search may step over
    facets = _hull_facets(model)
    if np.any(facets[:, :-1] @ p + facets[:, -1] > 1e-12 * (1.0 + np.abs(facets[:, -1]))):
        return np.inf
    # the pole p makes each batch's dots the rays' p.e
    neg = lambda D, a, rounds=None: -_ray_sups(model, r, D, a, rounds)
    return -_direction_min(neg, p, ANGLES_LAGRANGIAN)


def planar_conjugate(model, r, e0, q):
    """One-dimensional conjugate along e0: sup_lam [lam q - (1+r)H - r]."""
    _positive(r, "growth rate r")
    e0 = _unit(model, e0)
    q = float(q)
    if not np.isfinite(q):
        raise ValidationError("q must be finite")
    return float(_ray_sups(model, r, e0, [q])[0])


def hopf_lax_phi(model, r, t, x, init="point", e0=None):
    """Hopf-Lax value of the limiting phase at (t, x).

    Planar data with front normal e0: phi = max(t * Lbar((x.e0)/t), 0)
    with Lbar the conjugate along e0. Point data: phi = max(t*L(x/t), 0).
    phi = +inf outside the reachable cone.
    """
    _positive(t, "time t")
    x = _rows(model, np.ravel(x))[0][0]
    if init == "planar":
        if e0 is None:
            raise ValidationError("planar initial data needs the front normal e0")
        q = float(x @ _unit(model, e0)) / t
        val = t * planar_conjugate(model, r, e0, q)
    elif init == "point":
        val = t * lagrangian(model, r, x / t)
    else:
        raise ValidationError("init must be 'planar' or 'point'")
    return max(val, 0.0)


def _cstars(model, r, E, rounds=None):
    """Minimal speeds c*(e) on the rows of E, solved on every call.

    One _min_speeds call on the normalised rows, for any velocity set,
    its zoom cut to rounds rounds when given; a row's c* does not depend
    on the other rows.
    """
    E = np.atleast_2d(E)
    return _min_speeds(model, r, E / np.linalg.norm(E, axis=1, keepdims=True), rounds)[0]


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


def freidlin_gartner_speed(model, r, e0):
    """Spreading speed of point data: min of c*(e)/(e.e0) over e.e0 > 0.

    In 1-D (and for rotation-invariant models, where the minimizing
    direction is e0 itself) this is just c*(e0). Otherwise it is one
    _direction_min over the open hemisphere about e0, with ANGLES_FG
    angles: the scan ranks its directions with _RANK_ROUNDS-round minimal
    speeds, and the chosen one, the zoom and the cap grids solve them in
    full. e0 itself is a candidate, and for a velocity set of atoms so
    are the outward facet normals of their convex hull that face e0 (for
    a flat set, the normals of its span): once c* turns ballistic near
    such a normal the minimum can sit at that corner of the ratio, which
    the search is not guaranteed to find. Each candidate is solved in
    full once: in 3-D, e0 is also the scan's pole, and when the scan
    picks it the candidate is not solved again.
    """
    _positive(r, "growth rate r")
    e0 = _unit(model, e0)
    if model.dim == 1 or _is_radial(model):
        return float(_cstars(model, r, e0)[0])
    normals = _hull_facets(model)[:, :-1]
    normals = np.vstack([e0, normals[normals @ e0 > 0.0]])
    ratios = lambda D, cos, rounds=None: _cstars(model, r, D, rounds) / cos
    return _direction_min(ratios, e0, ANGLES_FG, half=True, extra=normals)


def _hull_extent(model, e0):
    """Largest q with q e0 in the atoms' hull, from its facets; else vbar(e0)."""
    vb = model.support_max(e0)
    facets = _hull_facets(model)
    up = facets[:, :-1] @ e0 > 0.0
    if not up.any():
        return vb
    # at least 0, which the hull holds (the atoms' mean is 0)
    return max(0.0, min(vb, float(np.min(-facets[up, -1] / (facets[up, :-1] @ e0)))))


def nullset_radius(model, r, e0, t, init="point", tol=1e-9, speed=None):
    """Extent of the null set of phi(t, .) along e0, by root-finding.

    Planar data: the largest x.e0 with phi = 0, equal to c*(e0) t.
    Point data: the largest |x| along e0 with phi = 0, equal to w*(e0) t.
    Both come out of a bracketed root solve on the conjugate along the
    ray (phi is t times a function of x/t, so the radius is exactly
    linear in t). When the conjugate never turns positive inside the
    velocity hull the front is ballistic and the radius is the hull's
    extent along e0 times t: vbar(e0) t for planar data, and for point
    data on a full-dimensional hull of atoms the distance to its
    boundary, found from the hull's facets, where L jumps to +inf. tol,
    the root's absolute tolerance in x/t, must be positive.

    speed, when given, is the expected radius per unit time (c*(e0) for
    planar data, w*(e0) for point data). It only narrows the bracket to
    speed (1 -+ 1e-6), and only when that bracket lies inside the hull
    and the conjugate changes sign across it. The conjugate is convex
    and nondecreasing along e0 for q >= 0 and negative at 0, so such a
    sign change holds its one positive root, which brentq then finds to
    the same tol. Otherwise the full bracket runs as without a speed:
    a speed whose bracket misses the root gives the unseeded radius bit
    for bit, and one that holds it still gives the root of phi, not the
    speed.

    Every call solves its root: a caller that wants the radii at several
    times can solve once at t = 1 and scale. Within the call each
    conjugate value is computed once, as the ballistic test and brentq
    both take f(vbar).
    """
    if init not in ("planar", "point"):
        raise ValidationError("init must be 'planar' or 'point'")
    _positive(t, "time t")
    _positive(tol, "tol")
    e0 = _unit(model, e0)
    vb = model.support_max(e0)
    top = _hull_extent(model, e0) if init == "point" else vb

    @functools.lru_cache(maxsize=None)
    def f(q):
        if init == "planar":
            return planar_conjugate(model, r, e0, q)
        return lagrangian(model, r, q * e0)

    rtol = 4.0 * np.finfo(float).eps
    if speed is not None:
        a, b = speed * (1.0 - _SEED_REL), speed * (1.0 + _SEED_REL)
        if 0.0 < a < b < top and f(a) < 0.0 < f(b):
            return t * float(brentq(f, a, b, xtol=tol, rtol=rtol))
    if init == "point":
        # L jumps to +inf past the hull, which can end before vbar(e0):
        # when L <= 0 up to the hull the radius is the hull's extent, where
        # Brent on [0, vbar] would bisect onto the jump (41 Lagrangian calls
        # at one diamond corner). Otherwise the bracket stays [0, vbar]:
        # its points past the hull cost nothing, L being +inf there from
        # the facets alone, and the radii repeat those of that solve bit
        # for bit, where Brent on [0, extent] moves them within its xtol
        # (by 1e-10 relative at one diamond direction)
        if top < vb * (1.0 - 1e-12) and f(top) <= 0.0:
            return t * top
    if f(vb) <= 0.0:
        return t * vb
    q_star = brentq(f, 0.0, vb, xtol=tol, rtol=rtol)
    return t * float(q_star)

