"""Macroscopic spreading predictions built on the Hamiltonian.

The Lagrangian is the convex conjugate

    L(p) = sup_q [ p.q - (1+r) H(q/(1+r)) - r ],

On 1-D and continuum models it is evaluated along the ray e = p/|p|,
by reparameterizing q = lam*e and maximizing

    g(lam) = lam (p.e) - (1+r) H(lam e/(1+r)) - r

over decay rates lam >= 0 (g is concave in lam below the critical decay,
with boundary value -r as lam -> 0); the same ray sup along e0 is the
conjugate of planar data. On atom sets it is solved in q. Hopf-Lax then
gives the limiting phase phi(t, x) in closed form for the two supported
initial conditions, planar fronts and compactly supported (point) data,
whose null sets propagate at the minimal speed c*(e0) and at the
directional spreading speed w*(e0) respectively. Those radii are
recovered here by root-finding on phi, not by quoting the speeds, so the
two routes cross-check each other. A caller that knows the speed may
pass it to nullset_radius: it only narrows the bracket, and the root is
still certified by a sign change of the conjugate, so a wrong speed
falls back to the full bracket instead of becoming the radius. Ray sups
and c* start in the same way from rates the same call already holds
(dispersion._start_brackets); nothing is kept between calls.

Along one direction both optima over decay rates are first-order
points: below the critical decay H is convex, so g' and c' change sign
once, and each ray's sup and each direction's c* is one bracketed root
(dispersion._bracket_roots), unless it sits at an end of its bracket.
On an atom set H is regular everywhere, smooth and strictly convex, so
L(p) is a smooth concave sup over q with one first-order point inside
the hull: one damped Newton solve in q, with no search over directions.
The minimum of c*(e)/(e.e0) that gives w* need not be set by a
first-order condition (it can sit at the kink of c*, or at a corner of
the ratio), so w* is a search over directions: a scan, then shrinking
tangent grids about the best direction so far (one tangent axis in 2-D,
two in 3-D), every row solved in full, from the best row's rate.
"""

import math
import warnings

import numpy as np

from .dispersion import (
    _LAM_CEIL,
    _bracket_roots,
    _discrete_h,
    _h_rays,
    _min_speeds,
    _ray_edges,
    _rows,
    _start_brackets,
)
from .errors import SolverNotConverged, ValidationError
from .models import _atom_dots, _positive, _span, _unit

ANGLES_FG = 256
# the refinement of _direction_min: points per tangent axis of a grid, by
# dimension, and the half-width in rad below which it stops
_GRID_POINTS = {2: 9, 3: 5}
_GRID_STOP = 1e-7
# half-width, in log rate per rad of a level's half-width, of the window of
# decay rates that a refinement level of _direction_min starts from
_RATE_SPREAD = 16.0
_LAM_FLOOR = 1e-8
# damped Newton of an atom-set Lagrangian: iteration bound, Armijo share of
# the decrement, and the smallest damping before a step counts as flat
_NEWTON_ITERS = 100
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
# relative half-width of the bracket about a known speed in nullset_radius,
# and the half-width in log rate of the window about a known rate
_SEED_REL = 1e-6
_RATE_REL = 1e-4


def _point_is_planar(model):
    """L(q e0) is the planar conjugate along e0, so w*(e0) = c*(e0): on
    continuum models, where H depends on |p| alone, and in 1-D, where
    the ray opposite p has sup below -r, g(0), as H >= 0 at mean 0."""
    return model.dim == 1 or not model.is_discrete


def _ray_sups(model, r, E, a, window=None):
    """sup over lam >= 0 of g(lam) = lam*a - (1+r)H(lam*e/(1+r)) - r, on k rays.

    The rays are the pairs (E[i], a[i]). Returns the sups and their
    rates lam. +inf where a[i] > vbar(E[i]):
    past the reachable cone the singular branch grows without bound.
    Otherwise g is concave, and its sup lies in (0, lambda_tilde(e)]
    when that is finite (beyond it the branch is linear with slope
    a - vbar <= 0); else in the window [0, hi], which grows from hi = 64
    by factors of 4, up to _LAM_CEIL, while g still rises at hi. The
    sup is the root of g' = a - dH/dbeta (from _h_rays) on
    [_LAM_FLOOR, hi], by _bracket_roots in log lam, unless g' <= 0 at
    the floor (the sup is g there) or g' >= 0 at hi (the sup is g(hi)).
    At lambda_tilde g' is taken from the left, a - vbar + l/j: the mean
    of s that dH/dbeta subtracts from vbar tends to l/j as D -> beta s.
    window, broadcast to (k, 2), is a first bracket per ray that replaces
    the one above where it certifies the root of g' (_start_brackets);
    it must end below lambda_tilde, where g' is one-sided.
    Each step is one batched _h_rays solve over the rays it concerns, for
    any velocity set, and a ray's value does not depend on the other
    rays.
    """
    E = np.atleast_2d(E)
    a = np.asarray(a, dtype=float)
    vbar, lval = _ray_edges(model, E)
    out, rates = np.full(a.shape, np.inf), np.full(a.shape, np.inf)
    rows = np.flatnonzero(~(a > vbar + 1e-12 * (1.0 + np.abs(vbar))))
    if rows.size == 0:
        return out, rates
    E, a, vbar, lval = E[rows], a[rows], vbar[rows], lval[rows]
    scale = 1.0 / (1.0 + r)

    def g(lams, sel):
        # g and g' at the rates lams, shaped like lams
        H, dH = _h_rays(model, lams * scale, E[sel])
        return lams * a[sel, None] - (1.0 + r) * H - r, a[sel, None] - dH

    lam_tilde = (1.0 + r) * lval
    kinked = np.isfinite(lam_tilde)
    lo, hi = np.full(rows.size, _LAM_FLOOR), np.where(kinked, lam_tilde, 64.0)
    win = None if window is None else np.broadcast_to(window, (len(out), 2))[rows]
    val, slope, rest = _start_brackets(g, lo, hi, win, _LAM_FLOOR, lam_tilde, -1.0)
    kink = rest[kinked[rest]]
    if kink.size:
        slope[kink, 1] = a[kink] - vbar[kink] + lval[kink] / model.grid.j
    grow = rest[~kinked[rest] & (slope[rest, 1] > 0.0)]
    while grow.size:
        hi[grow] *= 4.0
        val[grow, 1:], slope[grow, 1:] = g(hi[grow, None], grow)
        grow = grow[(slope[grow, 1] > 0.0) & (hi[grow] < _LAM_CEIL)]
    floor = slope[:, 0] <= 0.0
    sups, at = np.where(floor, val[:, 0], val[:, 1]), np.where(floor, lo, hi)
    mid = np.flatnonzero((slope[:, 0] > 0.0) & (slope[:, 1] < 0.0))
    if mid.size:

        def root(x, i):
            val, slope = g(np.exp(x)[:, None], mid[i])
            return slope[:, 0], val[:, 0]

        x, sups[mid] = _bracket_roots(root, np.log(lo[mid]), np.log(hi[mid]), slope[mid, 0], slope[mid, 1])
        at[mid] = np.exp(x)
    out[rows], rates[rows] = sups, at
    return out, rates


def _circle_dirs(thetas):
    return np.column_stack([np.cos(thetas), np.sin(thetas)])


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _cap_dirs(center, T, x, rad, m):
    """One level of the tangent-grid refinement of _direction_min, in 2-D
    and 3-D.

    The orthonormal rows T span the tangent space of the unit center, and
    x is a point of that chart. The grid puts m points on each tangent
    axis, at x + linspace(-rad, rad, m), and leaves out x itself, whose
    value the search holds. Returns the grid's chart points X and the
    unit directions along center + X T.
    """
    g = np.linspace(-rad, rad, m)
    X = x + np.stack(np.meshgrid(*[g] * len(T), indexing="ij"), axis=-1).reshape(-1, len(T))
    X = np.delete(X, len(X) // 2, axis=0)  # the centre, g = 0 on every axis
    D = center + X @ T
    return X, D / np.linalg.norm(D, axis=1, keepdims=True)


def _dots(D, pole):
    """D @ pole without a BLAS product, whose rounding can depend on the
    shape of the batch (see models._atom_dots): the one projection rule
    of directions and hull-facet normals."""
    return _atom_dots(pole[None, :], D)[:, 0]


def _direction_min(f, pole, n, extra=None):
    """Smallest value of f over the open hemisphere about the unit pole:
    the direction search of freidlin_gartner_speed.

    f(D, dots, window) maps unit rows D and their dot products with the
    pole to values and the decay rates they were solved at, starting from
    the window of rates (None, or one for every row). Each step below is
    one call, on its rows with dots > 1e-6; the dots are summed
    coordinate by coordinate (_dots), so a row's dot is the same in any
    batch.

    The scan takes the cell midpoints of n angles about the pole in 2-D,
    and the pole and a Fibonacci spiral of 2n directions in 3-D. A scan
    whose best value is -inf returns it at once. The refinement then
    solves tangent grids (_cap_dirs) in the chart center + x T about the
    scan's best direction, m = _GRID_POINTS points per tangent axis about
    the best chart point so far. The first half-width is tan of the
    scan's spacing. Each level multiplies it by 2/(m - 1), which makes it
    the spacing of the level before: a level covers the bracket that the
    one before left. Its window is the best row's rate so far, times
    exp(-+_RATE_SPREAD half-width): the rate moves smoothly with e.
    The refinement stops once the half-width is at most _GRID_STOP. Over
    directions the minimum need not be a first-order point (it can sit
    at the kink of c* or at a corner of the ratio), so the grids compare
    values.

    A minimizer within two scan spacings of the equator is flagged, as a
    ratio over e.e0 blows up there and attainment relies on interior
    directions. The rows of extra are candidates too, taken last, except
    those the scan already holds.
    """
    if pole.size == 2:
        base, spacing = math.atan2(pole[1], pole[0]), math.pi / n
        scan = _circle_dirs(base + (-0.5 * math.pi + math.pi * (np.arange(n) + 0.5) / n))
    else:
        spacing = math.sqrt(4.0 * math.pi / (2 * n))
        scan = np.vstack([pole, _fibonacci_sphere(2 * n)])

    def solve(D, window=None):
        dots = _dots(D, pole)
        rows = np.flatnonzero(dots > 1e-6)
        vals, rates = f(D[rows], dots[rows], window)
        return rows, dots[rows], vals, rates

    rows, dots, vals, rates = solve(scan)
    k = int(np.argmin(vals))
    best, best_dot, rate = float(vals[k]), dots[k], rates[k]
    if best == -np.inf:
        return best
    scanned, center = scan[rows], scan[rows[k]]
    T = _span(center[None, :])[1]
    x, m, rad = np.zeros(len(T)), _GRID_POINTS[pole.size], math.tan(spacing)
    while rad > _GRID_STOP:
        X, D = _cap_dirs(center, T, x, rad, m)
        rows, dots, vals, rates = solve(D, rate * np.exp(_RATE_SPREAD * rad * np.array([-1.0, 1.0])))
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, best_dot, rate, x = float(vals[j]), dots[j], rates[j], X[rows[j]]
        rad *= 2.0 / (m - 1)
    if best_dot < math.sin(2.0 * spacing):
        warnings.warn(
            "Freidlin-Gartner minimizer lies near the equator e.e0 = 0, where "
            "the ratio c*(e)/(e.e0) can hide a smaller value; check w* against "
            "the point-data radius of nullset_radius (init='point'; the 'point' "
            "radii of the spreading command), which searches no directions",
            RuntimeWarning,
        )
    if extra is not None:
        extra = extra[~(extra[:, None, :] == scanned[None, :, :]).all(axis=2).any(axis=1)]
        if len(extra):
            best = min(best, float(np.min(f(extra, _dots(extra, pole), None)[0])))
    return best


def lagrangian(model, r, p):
    """Convex conjugate L(p); +inf outside the closed velocity hull.

    Where _point_is_planar holds, and at p = 0, L(p) is the planar
    conjugate along e = p/|p| at |p|, one ray sup (_ray_sups). On an atom
    set of dimension 2 or 3 L is +inf past a facet of the atoms' hull
    (for a flat set, off its span or past its hull in the span), without
    a solve; inside, _atom_lagrangian solves for the sup's one
    first-order point in q.
    """
    _positive(r, "growth rate r")
    P, nrm = _rows(model, np.ravel(p))
    p, nrm = P[0], float(nrm[0])
    if _point_is_planar(model) or nrm == 0.0:
        e = p / nrm if nrm > 0 else np.eye(model.dim)[0]
        return float(_ray_sups(model, r, e, [nrm])[0][0])
    facets = model.support.facets
    if np.any(_dots(facets[:, :-1], p) + facets[:, -1] > 1e-12 * (1.0 + np.abs(facets[:, -1]))):
        return np.inf
    return _atom_lagrangian(model, r, p)


def _atom_lagrangian(model, r, p):
    """sup over q of F(q) = p.q - (1+r) H(q/(1+r)) - r on an atom set, p in its hull.

    Damped Newton from q = 0. At beta = q/(1+r), with D_i = 1 + H - v_i.beta
    and u_i = w_i/D_i^2 (differentiating sum w_i/D_i = 1),

        grad H = sum u_i v_i / sum u_i,
        hess H = 2 sum (w_i/D_i^3) (v_i - grad H)(v_i - grad H)^T / sum u_i,

    so grad F = p - grad H and hess F = -hess H/(1+r); each iterate is one
    one-row _discrete_h solve. The Newton step solves with the SVD of a
    square root Y of hess H = Y^T Y, so that near the hull it keeps the
    curvature across a facet. The step is halved until it gains an
    Armijo share of the Newton decrement. On a flat set q lives in the
    span of the atoms (hess H is singular across it), so the solve runs
    in its coordinates. The solve stops when the decrement, twice the
    gain Newton predicts, is below the roundoff of F. On the hull's boundary
    the sup lies at infinity: the solve returns the last F once |q| passes
    _LAM_CEIL, the cap of the ray windows, or when a step is singular or
    no longer increases F. Running past _NEWTON_ITERS iterations raises
    SolverNotConverged.
    """
    pts, w = model.support.points, model.support.weights
    span = model.support.span
    if not len(span):
        return -float(r)  # every atom sits at 0: H = 0, so F = -r
    if len(span) < model.dim:
        pts, p = _atom_dots(span, pts), _dots(span, p)
    scale = 1.0 + r

    def value(q):
        dots = _atom_dots(pts, q[None, :] / scale)
        H = float(_discrete_h(w, dots)[0])
        return float(p @ q) - scale * H - r, H, dots[0]

    q = np.zeros(p.size)
    f, H, dots = value(q)
    for _ in range(_NEWTON_ITERS):
        D = 1.0 + H - dots
        u = w / (D * D)
        dh = u @ pts / u.sum()
        grad = p - dh
        # hess H = Y^T Y with rows Y_i = sqrt(2 w_i / (D_i^3 sum u)) (v_i -
        # grad H). Its eigenvalue across a facet falls like |q|^-3 and is
        # lost to roundoff in hess H once |q| passes about 1e5; the singular
        # values of Y, its square roots, last past _LAM_CEIL
        Y = np.sqrt(2.0 * w / (D**3 * u.sum()))[:, None] * (pts - dh)
        _, sv, vt = np.linalg.svd(Y, full_matrices=False)
        if not sv[-1] > 0.0:
            return f
        z = (vt @ grad) / sv
        step = scale * (vt.T @ (z / sv))
        dec = scale * float(z @ z)
        if not dec > np.finfo(float).eps * (abs(float(p @ q)) + scale * abs(H) + r):
            return f
        t = 1.0
        while True:
            trial = q + t * step
            f_new, H_new, dots_new = value(trial)
            if f_new >= f + _ARMIJO * t * dec:
                break
            t *= 0.5
            if t < _MIN_STEP:
                return f
        if not f_new > f:
            return f
        q, f, H, dots = trial, f_new, H_new, dots_new
        if np.linalg.norm(q) > _LAM_CEIL:
            return f
    raise SolverNotConverged(
        "Lagrangian Newton solve did not converge in %d iterations" % _NEWTON_ITERS
    )


def planar_conjugate(model, r, e0, q):
    """One-dimensional conjugate along e0: sup_lam [lam q - (1+r)H - r]."""
    _positive(r, "growth rate r")
    e0 = _unit(model, e0)
    q = float(q)
    if not np.isfinite(q):
        raise ValidationError("q must be finite")
    return float(_ray_sups(model, r, e0, [q])[0][0])


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


def _cstars(model, r, E, window=None):
    """Minimal speeds c*(e) and their rates lambda*(e) on the rows of E,
    solved on every call.

    One _min_speeds call on the normalised rows, for any velocity set,
    from the window of rates; a row's c* does not depend on the other rows.
    """
    E = np.atleast_2d(E)
    return _min_speeds(model, r, E / np.linalg.norm(E, axis=1, keepdims=True), window)[:2]


def freidlin_gartner_speed(model, r, e0):
    """Spreading speed of point data: min of c*(e)/(e.e0) over e.e0 > 0.

    Where _point_is_planar holds (1-D and continuum models) this is
    just c*(e0). Otherwise it is one
    _direction_min over the open hemisphere about e0, with ANGLES_FG
    angles. e0 itself is a candidate, and for a velocity set of atoms so
    are the outward facet normals of their convex hull that face e0 (for
    a flat set, those in its span and the normals of that span): once c*
    turns ballistic near such a normal the minimum can sit at that corner
    of the ratio, which the search is not guaranteed to find. A normal
    within roundoff of the equator e.e0 = 0 is left out: its ratio is
    roundoff over roundoff. Each candidate is solved once:
    in 3-D, e0 is also the scan's pole, so the candidate is not solved
    again.
    """
    _positive(r, "growth rate r")
    e0 = _unit(model, e0)
    if _point_is_planar(model):
        return float(_cstars(model, r, e0)[0][0])
    normals = model.support.facets[:, :-1]
    normals = np.vstack([e0, normals[_dots(normals, e0) > 1e-12]])

    def ratios(D, cos, window):
        c, lam = _cstars(model, r, D, window)
        return c / cos, lam

    return _direction_min(ratios, e0, ANGLES_FG, extra=normals)


def _hull_extent(model, e0):
    """Largest q with q e0 in the atoms' hull, from their facets; at most vbar(e0)."""
    vb = model.support_max(e0)
    facets = model.support.facets
    # a normal within roundoff of e0's orthogonal complement, as those of
    # a flat set's span are for e0 in it, does not bound the ray
    cos = _dots(facets[:, :-1], e0)
    up = cos > 1e-12
    # at least 0, which the hull holds (the atoms' mean is 0)
    return max(0.0, min(vb, float(np.min(-facets[up, -1] / cos[up])))) if up.any() else vb


def nullset_radius(model, r, e0, t, init="point", tol=1e-9, speed=None, rate=None):
    """Extent of the null set of phi(t, .) along e0, by root-finding.

    Planar data: the largest x.e0 with phi = 0, equal to c*(e0) t.
    Point data: the largest |x| along e0 with phi = 0, equal to w*(e0) t.
    Both come out of a bracketed root solve on the conjugate along the
    ray (phi is t times a function of x/t, so the radius is exactly
    linear in t): dispersion._bracket_roots on one row, with an absolute
    term of min(tol, 1e-12), which costs no more steps than a looser one
    as the steps converge superlinearly. When the conjugate never turns
    positive inside the velocity hull the front is ballistic and the
    radius is the hull's extent along e0 times t: vbar(e0) t for planar
    data, and for point data on a full-dimensional hull of atoms the
    distance to its boundary, found from the hull's facets, where L
    jumps to +inf. tol, the root's absolute tolerance in x/t, must be
    positive.

    speed, when given, is the expected radius per unit time (c*(e0) for
    planar data, w*(e0) for point data). It only narrows the bracket to
    speed (1 -+ 1e-6), and only when that bracket lies inside the hull
    and the conjugate changes sign across it. The conjugate is convex
    and nondecreasing along e0 for q >= 0 and negative at 0, so such a
    sign change holds its one positive root, which the same solve then
    finds to the same tolerance. Planar data takes the conjugate at both
    ends in one 2-ray _ray_sups call. Otherwise the full bracket [0,
    vbar(e0)] runs as without a speed: a speed whose bracket misses the
    root gives the unseeded radius bit for bit, and one that holds it
    still gives the root of phi, not the speed.

    rate, planar data only and beside a speed, is lambda*(e0). It only
    narrows the window of the two end sups to rate exp(-+_RATE_REL), where
    _ray_sups certifies it; else they run as without a rate, bit for bit.
    g is concave, so its argmax grows with q: the ends' argmax rates
    bracket that of every later ray sup of the solve, which starts there.

    Every call solves its root, on the one unit e0 it was given: a caller
    that wants the radii at several times can solve once at t = 1 and
    scale. Within the call each conjugate value is computed once, and
    only values of the same call narrow a bracket.
    """
    if init not in ("planar", "point"):
        raise ValidationError("init must be 'planar' or 'point'")
    if rate is not None and (init != "planar" or speed is None):
        raise ValidationError("rate narrows planar ray sups about a speed: it needs both")
    _positive(r, "growth rate r")
    _positive(t, "time t")
    _positive(tol, "tol")
    e0 = _unit(model, e0)
    vb = model.support_max(e0)
    top = _hull_extent(model, e0) if init == "point" and model.is_discrete else vb

    def f(q, window=None):
        if init == "planar":
            return float(_ray_sups(model, r, e0[None, :], [q], window)[0][0])
        return lagrangian(model, r, q * e0)

    def radius(a, b, fa, fb, window=None):
        # t times the sign change of f in [a, b], fa < 0 < fb
        def step(x, rows):
            fx = np.array([f(float(x[0]), window)])
            return fx, fx

        ends = [np.array([v]) for v in (a, b, fa, fb)]
        return t * float(_bracket_roots(step, *ends, tol=min(tol, 1e-12))[0][0])

    if speed is not None:
        a, b = speed * (1.0 - _SEED_REL), speed * (1.0 + _SEED_REL)
        if 0.0 < a < b < top:
            lams = None
            if init == "planar":
                start = None if rate is None else rate * np.exp(_RATE_REL * np.array([-1.0, 1.0]))
                (fa, fb), lams = _ray_sups(model, r, np.vstack([e0, e0]), [a, b], start)
            else:
                fa = f(a)
                fb = f(b) if fa < 0.0 else fa  # no sign change: skip the call
            if fa < 0.0 < fb:
                return radius(a, b, fa, fb, lams)
    if init == "point":
        # L jumps to +inf past the hull, which can end before vbar(e0):
        # when L <= 0 up to the hull the radius is the hull's extent, where
        # a root solve on [0, vbar] would bisect onto the jump. Otherwise
        # the bracket stays [0, vbar]: its points past the hull cost
        # nothing, L being +inf there from the facets alone, and the step
        # bisects off them
        if top < vb * (1.0 - 1e-12) and f(top) <= 0.0:
            return t * top
    f_vb = f(vb)
    if f_vb <= 0.0:
        return t * vb
    return radius(0.0, vb, f(0.0), f_vb)
