"""Reference values computed apart from kinfront.

Closed forms and scipy root finders on the defining identities. Nothing
here imports the package: each Hamiltonian is the root of its own
dispersion relation int M / (1 + H - v.p) dv = 1, written out for the
model, and each minimal speed is the minimum over decay rates of

    c(lam) = ((1 + r) H(lam / (1 + r)) + r) / lam,

taken by a log-spaced scan and a bounded Brent refinement. On the
singular branch lam >= lam_tilde = (1 + r) l the curve is the closed form
vbar - 1/lam, so the minimal speed of a model with a finite l is the
smaller of the interior minimum and the kink value 1 - 1/lam_tilde.
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

# edge integrals of the quadratic slab M(v) = (3/2)(1 - |v|)^2
L_QUAD = 3.0 * (2.0 * math.log(2.0) - 1.0)
J_QUAD = 6.0 * (1.0 - math.log(2.0))
R_CRIT_QUAD = J_QUAD / L_QUAD**2 - 1.0  # Case3: the kink meets the minimum
L_BALL3 = 1.5  # l(e) = n / (n - 1) for the uniform n-ball

_LAM_LO = 1e-3


# -------------------------------------------------------------- Hamiltonians


def slab_h(q):
    """Uniform slab on [-1, 1]: 1 + H = q coth q, i.e. q - 1 + 2q/(e^{2q} - 1)."""
    q = abs(q)
    if q == 0.0:
        return 0.0
    if q > 350.0:
        return q - 1.0  # 2q e^{-2q} is below the last bit of q - 1
    return q - 1.0 + 2.0 * q / math.expm1(2.0 * q)


def _quad_half(a, s):
    """int_0^1 (1 - v)^2 / (a - s v) dv for |s| < a."""
    x = s / a
    if abs(x) <= 0.5:
        # geometric expansion; int_0^1 v^n (1 - v)^2 dv = 2 / ((n+1)(n+2)(n+3))
        n = np.arange(60)
        return float(np.sum(x**n * 2.0 / ((n + 1) * (n + 2) * (n + 3)))) / a
    return (1.5 * s * s - a * s + (a - s) ** 2 * math.log(a / (a - s))) / s**3


def quad_relation(a, q):
    """int (3/2)(1 - |v|)^2 / (a - q v) dv over [-1, 1], a = 1 + H > |q|."""
    return 1.5 * (_quad_half(a, q) + _quad_half(a, -q))


def ball3_relation(a, q):
    """Uniform unit 3-ball: I(a) = 3/4 [2aq - (a^2 - q^2) ln((a+q)/(a-q))] / q^3."""
    x = q / a
    if x <= 0.5:
        k = np.arange(1, 40)
        return 3.0 / a * float(np.sum(x ** (2 * (k - 1)) / (4.0 * k * k - 1.0)))
    return 0.75 * (2.0 * a * q - (a * a - q * q) * math.log((a + q) / (a - q))) / q**3


def _continuum_h(relation, lval, q):
    """H(q) from relation(1 + H, q) = 1, or q - 1 on the singular set q >= l."""
    q = abs(q)
    if q == 0.0:
        return 0.0
    if q >= lval:
        return q - 1.0
    # relation tends to l/q > 1 as a -> q+ and is below 1/(a - q) <= 1 at a = q + 1
    lo = q * (1.0 + 1e-14) + 1e-300
    if relation(lo, q) <= 1.0:
        return lo - 1.0  # q within roundoff of l: H = q - 1 by continuity
    a = brentq(lambda a: relation(a, q) - 1.0, lo, q + 1.0, xtol=1e-15, rtol=8.9e-16)
    return a - 1.0


def quad_h(q):
    return _continuum_h(quad_relation, L_QUAD, q)


def ball3_h(q):
    return _continuum_h(ball3_relation, L_BALL3, q)


def discrete_h(weights, dots):
    """Root of sum w_i / (1 + H - a_i) = 1 for a finite velocity set."""
    a = np.asarray(dots, dtype=float)
    w = np.asarray(weights, dtype=float)
    top = float(a.max())
    # the sum is +inf-like just above the top projection and below 1 at top + 1
    lo = top + 1e-14 * max(1.0, abs(top))
    y = brentq(lambda y: float(np.sum(w / (y - a))) - 1.0,
               lo, top + 1.0, xtol=1e-15, rtol=8.9e-16)
    return y - 1.0


# ------------------------------------------------------------ minimal speeds


def _curve(h, r):
    return lambda lam: ((1.0 + r) * h(lam / (1.0 + r)) + r) / lam


def curve_minimum(c, lam_hi, n=160):
    """(lam*, c*) of c on [1e-3, lam_hi]; lam* = lam_hi when c still falls there.

    The scan brackets the minimum to one grid cell either side, which a
    bounded Brent search then refines; with the minimum in the last cell
    the bracket is that cell alone.
    """
    grid = np.geomspace(_LAM_LO, lam_hi, n)
    vals = [c(lam) for lam in grid]
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    res = minimize_scalar(c, bounds=(a, b), method="bounded",
                          options={"xatol": 1e-11 * b, "maxiter": 500})
    if res.fun < vals[k]:
        return float(res.x), float(res.fun)
    return float(grid[k]), float(vals[k])


def slab_cstar(r):
    """Uniform slab (Case1, no singular set)."""
    return curve_minimum(_curve(slab_h, r), 1e4)[1]


def disk_cstar(r):
    """Uniform disk: H = |p|^2/4 on |p| <= 2, so c* = sqrt(r/(1+r)), lam_tilde = 2(1+r)."""
    return math.sqrt(r / (1.0 + r))


def two_speed_cstar(r):
    """Velocities +-1: H = (sqrt(1 + 4q^2) - 1)/2 gives (c*, lam*).

    c* = 2 sqrt(r)/(1+r) at lam* = (1+r) sqrt(r)/(1-r) for r < 1, else
    c* = 1 approached as lam -> infinity.
    """
    if r >= 1.0:
        return 1.0, math.inf
    return 2.0 * math.sqrt(r) / (1.0 + r), (1.0 + r) * math.sqrt(r) / (1.0 - r)


def _kinked_cstar(h, lval, r):
    lam_tilde = (1.0 + r) * lval
    interior = curve_minimum(_curve(h, r), lam_tilde)[1]
    return min(interior, 1.0 - 1.0 / lam_tilde)


def quad_cstar(r):
    """Quadratic slab: 1 - 1/((1+r) l) at the kink for r >= R_CRIT_QUAD, interior below."""
    if r >= R_CRIT_QUAD:
        return 1.0 - 1.0 / ((1.0 + r) * L_QUAD)
    return _kinked_cstar(quad_h, L_QUAD, r)


def ball3_cstar(r):
    return _kinked_cstar(ball3_h, L_BALL3, r)


DIAMOND_POINTS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
DIAMOND_WEIGHTS = np.full(4, 0.25)


def diamond_cstar(theta, r):
    """Minimal speed of the four-point diamond along (cos theta, sin theta)."""
    e = np.array([math.cos(theta), math.sin(theta)])
    dots = DIAMOND_POINTS @ e
    lam, c = curve_minimum(_curve(lambda q: discrete_h(DIAMOND_WEIGHTS, q * dots), r), 1e4)
    if lam >= 1e4:
        return float(dots.max())  # ballistic: c decreases to vbar(e)
    return c


def diamond_wstar(theta0, r, n=48):
    """Freidlin-Gartner speed min over e.e0 > 0 of c*(e) / (e.e0), by scan and Brent.

    c*(e) has a corner on each diagonal, where the atom of largest
    projection changes, so the minimum may sit on a diagonal: those
    directions are candidates of their own, and the Brent bracket is
    split there so that each search sees a smooth function.
    """
    ratio = lambda phi: diamond_cstar(theta0 + phi, r) / math.cos(phi)
    half = 0.5 * math.pi
    offs = -half + math.pi * (np.arange(n) + 0.5) / n
    vals = [ratio(o) for o in offs]
    k = int(np.argmin(vals))
    span = math.pi / n
    lo, hi = offs[k] - span, offs[k] + span
    corners = [phi for phi in (math.pi / 4 + j * half - theta0 for j in range(-3, 4))
               if -half < phi < half]
    best = min([float(vals[k])] + [ratio(phi) for phi in corners])
    cuts = [lo] + sorted(phi for phi in corners if lo < phi < hi) + [hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        res = minimize_scalar(ratio, bounds=(a, b), method="bounded", options={"xatol": 1e-10})
        best = min(best, float(res.fun))
    return best
