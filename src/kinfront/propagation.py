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

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, QhullError

from .dispersion import (
    _discrete_h,
    _golden_min,
    hamiltonian_value,
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


def _ray_value(model, r, e, a, lam):
    return lam * a - (1.0 + r) * hamiltonian_value(model, (lam / (1.0 + r)) * e) - r


def _ray_sup_discrete(model, r, e, a):
    """Discrete-model lane of _ray_sup: batched grid-and-zoom.

    g is concave, so six rounds of evaluate-65-points-keep-the-winning
    bracket pin the maximum to ~1e-9 of the initial window, and every
    round is one vectorized Newton solve instead of 65 scalar ones.
    """
    dots = model.support.points @ e
    w = model.support.weights
    scale = 1.0 / (1.0 + r)

    def g_batch(lams):
        H = _discrete_h(w, np.multiply.outer(lams * scale, dots))
        return lams * a - (1.0 + r) * H - r

    hi = 64.0
    pair = g_batch(np.array([0.5 * hi, hi]))
    while pair[1] > pair[0] and hi < _LAM_CEIL:
        hi *= 4.0
        pair = g_batch(np.array([0.25 * hi, hi]))
    lo = _LAM_FLOOR
    best = -np.inf
    for _ in range(6):
        lams = np.linspace(lo, hi, 65)
        vals = g_batch(lams)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo = lams[max(k - 1, 0)]
        hi = lams[min(k + 1, 64)]
    return best


def _ray_sup(model, r, e, a):
    """sup over lam >= 0 of g(lam) = lam*a - (1+r)H(lam*e/(1+r)) - r.

    Returns +inf for a > vbar(e): past the reachable cone the singular
    branch grows without bound. For a <= vbar the sup lies in
    (0, lambda_tilde(e)] (beyond it the branch is linear with slope
    a - vbar <= 0), or is approached through a growing window when
    lambda_tilde = +inf.
    """
    vbar = model.support_max(e)
    if a > vbar + 1e-12 * (1.0 + abs(vbar)):
        return np.inf
    if model.is_discrete:
        return _ray_sup_discrete(model, r, e, a)
    lt = lambda_tilde(model, r, e)
    if np.isfinite(lt):
        hi = lt
    else:
        hi = 64.0
        g_prev = _ray_value(model, r, e, a, 0.5 * hi)
        while hi < _LAM_CEIL:
            g_hi = _ray_value(model, r, e, a, hi)
            if g_hi <= g_prev:
                break
            g_prev = g_hi
            hi *= 2.0
    neg = lambda lam: -_ray_value(model, r, e, a, lam)
    _, negv = _golden_min(neg, _LAM_FLOOR, hi, rtol=1e-9)
    best = -negv
    for lam in (_LAM_FLOOR, hi):
        val = _ray_value(model, r, e, a, lam)
        if val > best:
            best = val
    return best


def _angle_dir(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def lagrangian(model, r, p, n_angles=ANGLES_LAGRANGIAN):
    """Convex conjugate L(p); +inf outside the closed velocity hull.

    The directional sup uses every grid direction plus one golden-section
    refinement around the best one. Rotation-invariant models collapse to
    the aligned direction e = p/|p| exactly (the per-direction value is
    nondecreasing in p.e and the radial H does not depend on e).
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
        vals = []
        for s in (1.0, -1.0):
            e = np.array([s])
            vals.append(_ray_sup(model, r, e, s * float(p[0])))
        return max(vals)
    if _is_radial(model):
        e = p / nrm if nrm > 0 else np.eye(model.dim)[0]
        return _ray_sup(model, r, e, nrm)
    if nrm == 0.0:
        e0 = np.eye(model.dim)[0]
        return _ray_sup(model, r, e0, 0.0)
    if model.dim == 2:
        thetas = 2.0 * math.pi * np.arange(n_angles) / n_angles
        vals = np.array(
            [_ray_sup(model, r, _angle_dir(t), float(p @ _angle_dir(t))) for t in thetas]
        )
        k = int(np.argmax(vals))
        if np.isinf(vals[k]):
            return np.inf
        span = 2.0 * math.pi / n_angles
        neg = lambda t: -_ray_sup(model, r, _angle_dir(t), float(p @ _angle_dir(t)))
        _, negv = _golden_min(neg, thetas[k] - span, thetas[k] + span, rtol=1e-9)
        return max(float(vals[k]), -negv)
    # dim == 3: spiral scan plus two shrinking local refinements
    dirs = _fibonacci_sphere(2 * n_angles)
    vals = np.array([_ray_sup(model, r, d, float(p @ d)) for d in dirs])
    k = int(np.argmax(vals))
    if np.isinf(vals[k]):
        return np.inf
    best_dir, best = dirs[k], float(vals[k])
    rad = math.sqrt(4.0 * math.pi / (2 * n_angles))
    for _ in range(2):
        u = np.cross(best_dir, np.eye(3)[int(np.argmin(np.abs(best_dir)))])
        u /= np.linalg.norm(u)
        w = np.cross(best_dir, u)
        g = np.linspace(-rad, rad, 5)
        for alpha in g:
            for beta in g:
                d = best_dir + alpha * u + beta * w
                d /= np.linalg.norm(d)
                val = _ray_sup(model, r, d, float(p @ d))
                if val > best:
                    best, best_dir = val, d
        rad *= 0.25
    return best


def planar_conjugate(model, r, e0, q):
    """One-dimensional conjugate along e0: sup_lam [lam q - (1+r)H - r]."""
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e0 = direction(e0)
    return _ray_sup(model, r, e0, float(q))


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


def _cstar(model, r, e):
    """Cached minimal speed for direction scans."""
    e = direction(e)
    key = ("cstar", model._dir_key(e), float(r))
    val = model._scalar_cache.get(key)
    if val is None:
        val = minimal_speed(model, r, e, sample=False).c_star
        with model._cache_lock:
            model._scalar_cache[key] = val
    return val


def _hull_normals(model):
    """Outward unit edge normals of the atoms' convex hull (none if flat)."""
    try:
        return ConvexHull(model.support.points).equations[:, :-1]
    except QhullError:
        return np.empty((0, model.dim))


def freidlin_gartner_speed(model, r, e0, n_angles=ANGLES_FG):
    """Spreading speed of point data: min of c*(e)/(e.e0) over e.e0 > 0.

    In 1-D (and for rotation-invariant models, where the minimizing
    direction is e0 itself) this is just c*(e0). Otherwise the open
    hemisphere is scanned on a grid and the best bracket refined by
    golden section; a minimizer hugging the equator is flagged, since
    there c*/(e.e0) blows up and attainment relies on interior angles.
    For a 2-D velocity set of atoms the ratio is also taken at the
    outward edge normals of their convex hull: once c* turns ballistic
    near such a normal the minimum can sit at that corner of the ratio,
    which the golden section is not guaranteed to find.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e0 = direction(e0)
    if model.dim == 1 or _is_radial(model):
        return _cstar(model, r, e0)
    if model.dim == 2:
        theta0 = math.atan2(e0[1], e0[0])
        half = 0.5 * math.pi
        offs = -half + math.pi * (np.arange(n_angles) + 0.5) / n_angles

        def ratio(phi):
            e = _angle_dir(theta0 + phi)
            return _cstar(model, r, e) / math.cos(phi)

        vals = np.array([ratio(o) for o in offs])
        k = int(np.argmin(vals))
        span = math.pi / n_angles
        lo = max(offs[k] - span, -half + 1e-9)
        hi = min(offs[k] + span, half - 1e-9)
        phi_star, best = _golden_min(ratio, lo, hi, rtol=1e-10)
        if abs(phi_star) > half - 2.0 * span:
            warnings.warn(
                "Freidlin-Gartner minimizer lies near the equator e.e0 = 0; "
                "increase n_angles if the minimum looks truncated",
                RuntimeWarning,
            )
        best = min(float(np.min(vals)), best)
        for n in _hull_normals(model):
            if n @ e0 > 0.0:
                best = min(best, _cstar(model, r, n) / float(n @ e0))
        return best
    # dim == 3
    dirs = _fibonacci_sphere(2 * n_angles)
    dirs = dirs[dirs @ e0 > 1e-6]

    def ratio3(d):
        return _cstar(model, r, d) / float(d @ e0)

    vals = np.array([ratio3(d) for d in dirs])
    k = int(np.argmin(vals))
    best_dir, best = dirs[k], float(vals[k])
    rad = math.sqrt(4.0 * math.pi / (2 * n_angles))
    for _ in range(2):
        u = np.cross(best_dir, np.eye(3)[int(np.argmin(np.abs(best_dir)))])
        u /= np.linalg.norm(u)
        w = np.cross(best_dir, u)
        g = np.linspace(-rad, rad, 5)
        for alpha in g:
            for beta in g:
                d = best_dir + alpha * u + beta * w
                d /= np.linalg.norm(d)
                if d @ e0 <= 1e-6:
                    continue
                val = ratio3(d)
                if val < best:
                    best, best_dir = val, d
        rad *= 0.25
    return best


def nullset_radius(model, r, e0, t, init="point", tol=1e-9):
    """Extent of the null set of phi(t, .) along e0, by root-finding.

    Planar data: the largest x.e0 with phi = 0, equal to c*(e0) t.
    Point data: the largest |x| along e0 with phi = 0, equal to w*(e0) t.
    Both come out of a bracketed root solve on the conjugate along the
    ray (phi is t times a function of x/t, so the radius is exactly
    linear in t). When the conjugate never turns positive inside the
    velocity hull the front is ballistic and the radius is vbar(e0) t.
    """
    if t <= 0:
        raise ValidationError("time t must be positive")
    e0 = direction(e0)
    vb = model.support_max(e0)
    cache = model._scalar_cache
    dkey = model._dir_key(e0)

    def f(q):
        key = ("nullray", init, dkey, float(r), round(q, 14))
        val = cache.get(key)
        if val is None:
            if init == "planar":
                val = planar_conjugate(model, r, e0, q)
            else:
                val = lagrangian(model, r, q * e0)
            with model._cache_lock:
                cache[key] = val
        return val

    f_hull = f(vb)
    if f_hull <= 0.0:
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
