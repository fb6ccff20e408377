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
two routes cross-check each other. Both roots start from c*(e0), which
the caller passes to nullset_radius or the call solves. The planar root
runs on a bracket 1e-6 wide about it and is certified by a sign change
of the conjugate, so a wrong speed raises SolverNotConverged instead of
becoming the radius; c*(e0) caps the bracket of the point root. The ray
sups of a planar radius start in the same way from lambda*(e0), where
_ray_sups certifies it. Inside one solve, values it already
holds also start the next step: a continuum H row starts from the
tangent at the last rate the ray sup solved on it, and each Lagrangian
of an atom set's point root starts its Newton solve from the maximiser
of the last one that ended inside the hull. Nothing is kept between
calls. A point root needs only the sign of L at the hull, where its sup
lies at infinity, and a facet's weight often gives it without a solve
(_point_root).

Both radii are roots of a conjugate that is convex and nondecreasing
along e0, and every value of it comes with a line below it: the ray sup
g at its rate lam gives y -> g + lam (y - q), and the Newton solve of L
at its last q gives y -> F + (q.e0)(y - x), converged or not. So one
root serves both (_convex_root): the lines bound the radius from above,
the chord between the newest values of either sign bounds it from below,
and each step uses the newest slope.

Along one direction both optima over decay rates are first-order
points: below the critical decay H is convex, so g' and c' change sign
once, and each ray's sup and each direction's c* is one bracketed root
(dispersion._bracket_roots), unless it sits at an end of its bracket.
On an atom set H is regular everywhere, smooth and strictly convex, so
L(p) is a smooth concave sup over q with one first-order point inside
the hull: one damped Newton solve in q, with no search over directions.

The paper's point is that w*(e0), the minimum of c*(e)/(e.e0) over
e.e0 > 0, need not be set by a first-order condition. On an atom set c*
is smooth wherever lambda*(e) is finite, so a minimum that is not a
first-order point sits where c* turns ballistic, at a kink of vbar(e):
on a facet normal of the atoms' hull. w* therefore needs no search over
directions. The point radius w at t = 1 solves L(w e0) = 0, and the q*
that maximises that L gives the minimising direction e* = q*/|q*|, with
lambda*(e*) = |q*|. Weak duality (q = lambda e in the sup) gives
w <= c*(e)/(e.e0) for every e with e.e0 > 0. So w* is the smallest
ratio over e0, e* and the facet normals that face e0, and a ratio that
equals the radius certifies both values at once; a gap beyond the
root's tolerance raises SolverNotConverged.
"""

import math
import warnings

import numpy as np

from .dispersion import (
    _LAM_CEIL,
    _RowStarts,
    _bracket_roots,
    _discrete_h,
    _h_rays,
    _min_speeds,
    _ray_edges,
    _rows,
)
from .errors import SolverNotConverged, ValidationError
from .models import _atom_dots, _positive, _unit

_LAM_FLOOR = 1e-8
# damped Newton of an atom-set Lagrangian: iteration bound, Armijo share of
# the decrement, and the smallest damping before a step counts as flat
_NEWTON_ITERS = 100
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
# a decrement within this many ulps of F whose full step fails the Armijo
# test, or gains nothing, ends the solve at an interior sup
_ROUNDOFF_DEC = 16.0
# relative half-width of the planar root's bracket about c*(e0), and the
# half-width in log rate of the ray sups' window about lambda*(e0)
_SEED_REL = 1e-6
_RATE_REL = 1e-4
# the cosine e.e0 below which a minimiser of c*(e)/(e.e0) is flagged as
# near the equator, and the gap between w* and the point radius, relative
# to 1 + radius, past which the duality certificate fails
_EQUATOR = math.sin(2.0 * math.pi / 256)
_GAP = 1e-9
# the smallest absolute tolerance of a null-set root, in x/t
_ROOT_TOL = 1e-12


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
    the one above where g' falls from + to - across it, which certifies
    the root inside it; it must end below lambda_tilde, where g' is
    one-sided.
    Each step is one batched _h_rays solve over the rays it concerns, for
    any velocity set. On a continuum model each step after a ray's first
    starts the ray's H solve from the tangent at the last rate this call
    solved on it (dispersion._RowStarts). A ray's value does not depend
    on the other rays or on earlier calls.
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

    held = _RowStarts(model, rows.size)

    def g(lams, sel):
        # g and g' at the rates lams, shaped like lams; a continuum ray
        # starts its H solve from the last one it held
        beta = lams * scale
        H, dH, t = _h_rays(model, beta, E[sel], held.start(sel, beta))
        held.keep(sel, beta, t, dH)
        return lams * a[sel, None] - (1.0 + r) * H - r, a[sel, None] - dH

    lam_tilde = (1.0 + r) * lval
    kinked = np.isfinite(lam_tilde)
    lo, hi = np.full(rows.size, _LAM_FLOOR), np.where(kinked, lam_tilde, 64.0)
    val, slope = np.empty((rows.size, 2)), np.empty((rows.size, 2))
    rest = np.arange(rows.size)
    if window is not None:
        win = np.broadcast_to(window, (len(out), 2))[rows]
        seed = np.flatnonzero((_LAM_FLOOR <= win[:, 0]) & (win[:, 0] < win[:, 1]) & (win[:, 1] < lam_tilde))
        if seed.size:
            val[seed], slope[seed] = g(win[seed], seed)
            fits = (slope[seed, 0] > 0.0) & (slope[seed, 1] < 0.0)
            # a window that does not fit leaves no start behind: its ray
            # runs as without a window, bit for bit
            held.drop(seed[~fits])
            seed = seed[fits]
            lo[seed], hi[seed] = win[seed, 0], win[seed, 1]
            rest = np.setdiff1d(rest, seed)
    if rest.size:
        val[rest], slope[rest] = g(np.column_stack([lo[rest], hi[rest]]), rest)
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


def _dots(D, pole):
    """D @ pole without a BLAS product, whose rounding can depend on the
    shape of the batch (see models._atom_dots): the one projection rule
    of directions and hull-facet normals."""
    return _atom_dots(pole[None, :], D)[:, 0]


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
    return _lagrangian(model, r, P[0], float(nrm[0]))[0]


def _lagrangian(model, r, p, nrm, start=None):
    """L(p) at p of norm nrm, the q at which _atom_lagrangian ended (None
    where no Newton solve ran), and whether it ended on a decrement test,
    at an interior sup; start is the q that solve starts from (None: 0)."""
    if _point_is_planar(model) or nrm == 0.0:
        e = p / nrm if nrm > 0 else np.eye(model.dim)[0]
        return float(_ray_sups(model, r, e, [nrm])[0][0]), None, False
    facets = model.support.facets
    if np.any(_dots(facets[:, :-1], p) + facets[:, -1] > 1e-12 * (1.0 + np.abs(facets[:, -1]))):
        return np.inf, None, False
    return _atom_lagrangian(model, r, p, start)


def _atom_lagrangian(model, r, p, start=None):
    """sup over q of F(q) = p.q - (1+r) H(q/(1+r)) - r on an atom set, p in its hull.

    Damped Newton from q = start, in the model's coordinates, or from
    q = 0 when start is None. F is concave, so the damped steps reach its
    one first-order point from any start. At beta = q/(1+r), with D_i = 1 + H - v_i.beta
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
    gain Newton predicts, is below the roundoff of F, or when the full
    step fails the Armijo test or gains nothing with a decrement within
    _ROUNDOFF_DEC times that roundoff, a gain F cannot resolve. On the
    hull's boundary the sup lies at infinity: the solve returns the last
    F once |q| passes _LAM_CEIL, the cap of the ray windows, or when a
    step is singular or no longer increases F; a decrement test may also
    end it there, at a |q| just short of _LAM_CEIL. Returns F there, the
    last iterate q, in the model's coordinates, and whether the solve
    ended on one of the two decrement tests, which marks an interior sup
    only for p inside the hull. Running past _NEWTON_ITERS iterations
    raises SolverNotConverged.
    """
    pts, w = model.support.points, model.support.weights
    span = model.support.span
    if not len(span):
        return -float(r), None, False  # every atom sits at 0: H = 0, so F = -r
    lift = np.eye(model.dim)
    if len(span) < model.dim:
        pts, p, lift = _atom_dots(span, pts), _dots(span, p), span
        start = None if start is None else _dots(span, start)
    q = np.zeros(p.size) if start is None else start
    scale = 1.0 + r

    def value(q):
        dots = _atom_dots(pts, q[None, :] / scale)
        H = float(_discrete_h(w, dots)[0])
        return float(p @ q) - scale * H - r, H, dots[0]

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
            return f, q @ lift, False
        z = (vt @ grad) / sv
        step = scale * (vt.T @ (z / sv))
        dec = scale * float(z @ z)
        ulp = np.finfo(float).eps * (abs(float(p @ q)) + scale * abs(H) + r)
        if not dec > ulp:
            return f, q @ lift, True
        # a full step whose gain F cannot resolve ends the solve at the sup
        roundoff = dec <= _ROUNDOFF_DEC * ulp
        t = 1.0
        while True:
            trial = q + t * step
            f_new, H_new, dots_new = value(trial)
            if f_new >= f + _ARMIJO * t * dec:
                break
            if roundoff:
                return f, q @ lift, True
            t *= 0.5
            if t < _MIN_STEP:
                return f, q @ lift, False
        if not f_new > f:
            return f, q @ lift, roundoff
        q, f, H, dots = trial, f_new, H_new, dots_new
        if np.linalg.norm(q) > _LAM_CEIL:
            return f, q @ lift, False
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


def _cstars(model, r, E):
    """Minimal speeds c*(e) and their rates lambda*(e) on the unit rows
    of E, solved on every call.

    One _min_speeds call, for any velocity set; a row's c* does not
    depend on the other rows.
    """
    return _min_speeds(model, r, np.atleast_2d(E))[:2]


def freidlin_gartner_speed(model, r, e0):
    """Spreading speed of point data: min of c*(e)/(e.e0) over e.e0 > 0.

    Where _point_is_planar holds (1-D and continuum models) this is
    just c*(e0). On a 2-D or 3-D atom set it comes from the point radius,
    as _point_speeds describes: no search over directions runs, and the
    value is certified by its agreement with that radius.
    """
    _positive(r, "growth rate r")
    c0 = float(_cstars(model, r, _unit(model, e0))[0][0])
    return c0 if _point_is_planar(model) else _point_speeds(model, r, e0, c0)[0]


def _point_speeds(model, r, e0, c0):
    """w*(e0) and the point radius per unit time on a 2-D or 3-D atom
    set, from one root solve; c0 is c*(e0) on the unit e0.

    The radius is the root of L(q e0) on [0, min(c0, hull extent)]
    (_point_root): c0 bounds it, e0 being one of the directions of the
    minimum. Where the bracket ends at the hull, a facet of weight W
    through its end may certify L > 0 there without a solve: L is at
    least 1 - (1+r) W on it. The root's last Newton iterate q gives the
    direction e* = q/|q| where c*(e)/(e.e0) is least when that minimum
    is a first-order point. Where it is not, c* turns ballistic at a kink
    of vbar(e), and q runs off along a facet normal of the atoms' hull.
    So one _cstars
    call solves c* on e* and on the facet normals that face e0 (for a
    flat set, those in its span and the normals of that span), leaving
    out e0, whose c0 the caller holds, and rows within roundoff of the
    equator e.e0 = 0, whose ratio is roundoff over roundoff. w* is the
    smallest ratio, c0 included. By weak duality no ratio lies below the
    radius, so w* above the radius by more than _GAP (1 + radius) means
    that no candidate reached the minimum, and raises
    SolverNotConverged. A minimiser with e.e0 below _EQUATOR is flagged.
    """
    e0 = _unit(model, e0)
    radius, q = _point_root(model, r, e0, c0, _ROOT_TOL)
    E = model.support.facets[:, :-1]
    if q is not None:
        E = np.vstack([E, q / np.linalg.norm(q)])
    cos = _dots(E, e0)
    keep = (cos > 1e-12) & ~(E == e0).all(axis=1)
    E, cos = E[keep], np.concatenate([[1.0], cos[keep]])
    ratios = np.concatenate([[c0], _cstars(model, r, E)[0]]) / cos
    k = int(np.argmin(ratios))
    w = float(ratios[k])
    if not abs(w - radius) <= _GAP * (1.0 + radius):
        raise SolverNotConverged(
            "w* = %r is not certified by the point radius %r: no candidate direction "
            "reached the minimum of c*(e)/(e.e0)" % (w, radius)
        )
    if cos[k] < _EQUATOR:
        warnings.warn(
            "Freidlin-Gartner minimizer lies near the equator e.e0 = 0, where the "
            "ratio c*(e)/(e.e0) divides by a small cosine; w* holds as far as it "
            "agrees with the point-data radius of nullset_radius (init='point')",
            RuntimeWarning,
        )
    return w, radius


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


def nullset_radius(model, r, e0, t, init="point", tol=_ROOT_TOL, speed=None, rate=None):
    """Extent of the null set of phi(t, .) along e0, by root-finding.

    Planar data: the largest x.e0 with phi = 0, equal to c*(e0) t.
    Point data: the largest |x| along e0 with phi = 0, equal to w*(e0) t.
    Where _point_is_planar holds the two are one root, the planar one.
    Each comes out of one root solve on the conjugate along the ray (phi
    is t times a function of x/t, so the radius is exactly linear in t):
    _convex_root, with an absolute term of min(tol, _ROOT_TOL). The
    conjugate is convex, and each of its values comes with the slope of a
    line below it, the rate of its ray sup or q*.e0 of its Newton solve;
    so the steps converge quadratically, and the tight tolerance costs few
    more solves than a loose one. tol, the root's absolute tolerance in
    x/t, must be positive.

    Both roots start from c*(e0) and lambda*(e0): speed and rate, where
    the caller holds them (the spreading command does), else one _cstars
    row solved here. speed must be finite and not negative, and rate
    positive: c* is 0 where vbar(e0) is, and lambda* is +inf where c* is
    ballistic. A rate needs a speed, and planar data.

    The planar root runs on [speed (1 - 1e-6), min(speed (1 + 1e-6),
    vbar(e0))], with the conjugate at both ends, and their slopes, from
    one 2-ray _ray_sups call whose sups start from the window rate
    exp(-+_RATE_REL), where _ray_sups certifies it. g is concave, so its
    argmax grows with q: the ends' argmax rates bracket that of every
    later ray sup of the solve, which starts there. Where the bracket ends
    at vbar(e0) and the conjugate is not positive there, the front is
    ballistic and the radius is vbar(e0) t. Else the conjugate, convex and
    nondecreasing along e0 for q >= 0 and negative at 0, must change sign
    across the bracket, which then holds its one positive root; where it
    does not, the speed is not c*(e0) of this phi, and SolverNotConverged
    is raised, as it is for a speed so far above vbar(e0) that the
    bracket is empty. No radius comes from any other bracket. Where the ends'
    lines and chord meet within the tolerance, the root needs no other
    value; else its first step evaluates the speed itself.

    Point data on a 2-D or 3-D atom set runs _point_root on [0,
    min(c*(e0), hull extent)], the bracket of _point_speeds, so its radius
    is the spreading command's bit for bit. It takes no speed
    (ValidationError): its top would stand as the radius wherever L is not
    positive there, which no sign change certifies.

    Every call solves its root, on the one unit e0 it was given: a caller
    that wants the radii at several times can solve once at t = 1 and
    scale. Within the call each conjugate value is computed once, and
    only values of the same call narrow a bracket or start a solve: the
    H rows of one ray sup, and the Lagrangians of one point root.
    """
    if init not in ("planar", "point"):
        raise ValidationError("init must be 'planar' or 'point'")
    if rate is not None and (init != "planar" or speed is None):
        raise ValidationError("rate narrows planar ray sups about a speed: it needs both")
    point = init == "point" and not _point_is_planar(model)
    if point and speed is not None:
        raise ValidationError("speed narrows a planar root: point data on a 2-D or 3-D atom set "
                              "takes none")
    _positive(r, "growth rate r")
    _positive(t, "time t")
    _positive(tol, "tol")
    if speed is not None and not 0.0 <= speed < np.inf:
        raise ValidationError("speed must be finite and not negative")
    if rate is not None and not 0.0 < rate <= np.inf:
        raise ValidationError("rate must be positive")
    e0 = _unit(model, e0)
    tol = min(tol, _ROOT_TOL)
    if speed is None:
        c, lam = _cstars(model, r, e0)
        speed, rate = float(c[0]), float(lam[0])
    if point:
        return t * _point_root(model, r, e0, speed, tol)[0]
    vb = model.support_max(e0)
    a, b = speed * (1.0 - _SEED_REL), min(speed * (1.0 + _SEED_REL), vb)
    if a > b:
        raise SolverNotConverged("the speed %r lies above vbar(e0) = %r: it is not c*(e0)"
                                 % (speed, vb))
    window = None if rate is None else rate * np.exp(_RATE_REL * np.array([-1.0, 1.0]))
    (fa, fb), lams = _ray_sups(model, r, np.vstack([e0, e0]), [a, b], window)
    if b == vb and fb <= 0.0:
        return t * vb
    if not fa < 0.0 < fb:
        raise SolverNotConverged(
            "the planar conjugate along e0 does not change sign across [%r, %r]: the speed %r "
            "is not c*(e0)" % (a, b, speed)
        )

    def slope(lam):
        # a sup that ran off to the window's cap lies at infinity
        return float(lam) if lam < _LAM_CEIL else math.nan

    def f(q):
        (val,), (lam,) = _ray_sups(model, r, e0[None, :], [q], lams)
        return float(val), slope(lam)

    return t * _convex_root(f, a, b, float(fa), float(fb), slope(lams[0]), slope(lams[1]), tol,
                            guess=speed)


def _convex_root(f, lo, hi, flo, fhi, slo, shi, tol, guess=None):
    """The root of a convex, nondecreasing f on [lo, hi], flo < 0 < fhi.

    f(x) returns the value of f at x and the slope s of a line through
    it that lies below f, y -> f(x) + s (y - x); (flo, slo) and (fhi, shi)
    are those of the ends. A slope of nan marks a value good only for its
    sign, a lower estimate of f: it gives no line and no chord bound.
    Two bounds hold for any such lines, converged or not. A line with
    s > 0 has its root at or above the root of f; and by convexity f lies
    below its chord between the newest point where f < 0 and the newest
    where f > 0, whose root is at or below the root of f.

    The next point is guess, when given, on the first step. Otherwise it
    is the root of the quadratic that takes the value and slope of f at
    the newest point and the value at the newest point on the other side
    of the root; by convexity it lies between the chord's root and the
    line's. Where the newest point has no slope, the chord's root is the
    next point. A step bisects the bracket instead when the two steps
    before it did not halve it, or when a bisection would end the solve.
    The solve stops at a zero value, or once the bracket is within
    4 eps |x| + tol (the band of dispersion._bracket_roots). It then
    returns its upper end, the least line root, which lies within that
    band above the root.
    """
    neg, pos = (lo, flo, slo), (hi, fhi, shi)
    # the newest point is the one the step starts from
    newest_neg = math.isnan(shi)
    lower, upper, widths = lo, hi, []
    for x, fx, s in (neg, pos):
        if s > 0.0:
            upper = min(upper, x - fx / s)
    for _ in range(100):
        (xn, fn, sn), (xp, fp, sp) = neg, pos
        chord = xn - fn * (xp - xn) / (fp - fn)
        if not (math.isnan(sn) or math.isnan(sp)):
            lower = max(lower, chord)
        widths.append(upper - lower)
        band = 4.0 * np.finfo(float).eps * abs(upper) + tol
        if upper - lower <= band:
            return upper
        (x0, f0, s0), (x1, f1, _) = (neg, pos) if newest_neg else (pos, neg)
        if guess is not None:
            x, guess = guess, None
        elif upper - lower <= 2.0 * band or len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            x = 0.5 * (lower + upper)
        elif math.isnan(s0):
            x = chord
        else:
            # f0 + s0 d + c d^2 = 0 on the side of x1, in the form that
            # keeps its digits as c -> 0 (the line's root)
            c = max((f1 - f0 - s0 * (x1 - x0)) / (x1 - x0) ** 2, 0.0)
            x = x0 - 2.0 * f0 / (s0 + math.sqrt(max(s0 * s0 - 4.0 * c * f0, 0.0)))
        x = min(max(x, lower), upper)
        if x in (xn, xp):
            x = 0.5 * (lower + upper)
        fx, s = f(x)
        if fx == 0.0:
            return x
        newest_neg = fx < 0.0
        if newest_neg:
            neg, lower = (x, fx, s), max(lower, x)
        else:
            pos, upper = (x, fx, s), min(upper, x)
        if s > 0.0:
            upper = min(upper, x - fx / s)
    return upper


def _point_root(model, r, e0, c0, tol):
    """Point radius per unit time along the unit e0 on a 2-D or 3-D atom
    set, and the last q at which a Newton solve of L ended (None if none
    ran). c0 is c*(e0), which bounds the radius, e0 being one of the
    directions of w*; so is the hull's extent along e0 (_hull_extent).
    The bracket's top is the smaller of the two, computed here for every
    caller. The radius is top when L(top e0) <= 0, else the root of L(q e0)
    on [0, top], where L(0) = -r, by _convex_root. L(q e0) is convex in
    q and least at 0, and each L comes with a line below it for free: at
    the q* where its Newton solve ended, y -> F(q*) + (q*.e0)(y - x) is F
    at that same q* for p = y e0, at most L(y e0). A solve that did not
    end at an interior sup gives its value but no slope: on the hull's
    boundary |q*| runs off toward _LAM_CEIL, and a step along that line
    would crawl.

    Where top e0 lies on facets of the hull, the sup of L there lies at
    infinity, and its sign alone is used: L(top e0) >= 1 - (1+r) W on
    each such facet of weight W (models.DiscreteSet). When that bound is
    positive on one of them, L(top e0) is not solved. The bound then
    stands in for it, without a slope: it picks the root's first point,
    but never bounds the root. A flat set's span normals carry every
    atom, and a ballistic corner has every bound <= 0, so L is solved.

    Each L after the first starts its Newton solve from the q of the last
    L of this root solve that ended at an interior sup: the maximiser
    moves little between the root's steps. An L on the hull's boundary
    starts nothing, as its q runs off toward infinity, nor does a q that
    ran off past _LAM_CEIL."""
    top = min(c0, _hull_extent(model, e0))
    facets, weights = model.support.facets, model.support.facet_weights
    gap = _dots(facets[:, :-1], top * e0) + facets[:, -1]
    through = np.abs(gap) <= 1e-12 * (1.0 + np.abs(facets[:, -1]))
    last = start = None

    def f(x, seeds=True):
        nonlocal last, start
        val, q, interior = _lagrangian(model, r, x * e0, x, start)
        if q is not None:
            last = q
        if interior and seeds:
            start = q
        return val, float(q @ e0) if interior else math.nan

    bound = 1.0 - (1.0 + r) * weights[through].min() if through.any() else 0.0
    if bound > 0.0:
        f_top, s_top = bound, math.nan
    else:
        f_top, s_top = f(top, seeds=not through.any())
    if f_top <= 0.0:
        return top, last
    return _convex_root(f, 0.0, top, -float(r), f_top, 0.0, s_top, tol), last
