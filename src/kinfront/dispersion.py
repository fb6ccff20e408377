"""Spectral objects of the kinetic transport operator.

The central quantity is the Hamiltonian H(p), defined implicitly by

    I(H, p) = integral of M(v) / (1 + H - v.p) dv = 1

when a root exists in (mu(p) - 1, mu(p)], and H = mu(p) - 1 otherwise,
where mu(p) = |p| * vbar(p/|p|). The second regime is the singular set:
the eigenprofile picks up a Dirac mass at the velocity maximizing v.p.
Membership is decided by the marginal integral l(e): p is singular iff
l(p/|p|) <= |p|.

From H come the speed curves c(lambda, e), the critical decay
lambda_tilde(e) = (1+r) l(e) past which c(lambda, e) = vbar(e) - 1/lambda
exactly, the minimal speed c_star(e), and a four-way shape classification
of the curve (see minimal_speed).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, QuadratureNotConverged, ValidationError
from .models import direction, edge_kernel_integral, j_integral, l_integral
from .quadrature import FAILURES

# classification threshold on c'(lambda_tilde-); the zero-derivative case
# sits on a measure-zero boundary in r, the tolerance makes it observable
DERIV_TOL = 1e-6
LAMBDA_CAP = 1e3
_I_CAP = 1e6


@dataclass
class DispersionResult:
    """Eigenvalue H(p) with its (possibly singular) eigenprofile.

    profile_density is the absolutely continuous part of the profile,
    v -> M(v) / (1 + H - v.p); for finite velocity sets it returns the
    per-atom masses instead (the profile relative to counting measure).
    dirac_weight is the mass at dirac_location, nonzero only on the
    singular set.
    """

    p: np.ndarray
    H: float
    regular: bool
    profile_density: Callable
    dirac_weight: float = 0.0
    dirac_location: Optional[np.ndarray] = None


@dataclass
class SpeedCurve:
    """Sampled speed curve c(., e) with its minimum and shape class.

    case_label is Case1 when lambda_tilde = +inf (no singular branch),
    Case2 when the minimum is interior, Case3 when it sits at
    lambda_tilde with |c'(lambda_tilde-)| <= DERIV_TOL, Case4 when the
    left derivative there is negative.
    """

    e: np.ndarray
    r: float
    lambda_grid: np.ndarray
    c_values: np.ndarray
    lambda_tilde: float
    lambda_star: float
    c_star: float
    case_label: str
    left_derivative_at_tilde: Optional[float] = None


def _rows(model, P):
    """P as rows of shape (m, dim), with their norms; checks size and finiteness."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[1] != model.dim:
        raise ValidationError(
            "p has %d components, model is %d-dimensional" % (P.shape[1], model.dim)
        )
    nrm = np.sqrt((P * P).sum(axis=1))
    if not np.all(np.isfinite(nrm)):
        raise ValidationError("p must be finite")
    return P, nrm


def in_singular_set(model, p):
    """True iff p lies in the singular set, i.e. l(p/|p|) <= |p|.

    The origin is never singular; models with l = +inf (positive density
    near the support edge, or any finite velocity set) have an empty
    singular set.
    """
    P, nrm = _rows(model, p)
    if nrm[0] == 0.0:
        return False
    return l_integral(model, P[0] / nrm[0]) <= nrm[0]


def singular_boundary_radius(model, e, tol=1e-9, r_max=1e9):
    """Radius where the ray t*e enters the singular set, by bisection.

    Returns +inf when the ray never enters (empty singular set in that
    direction). The radius equals l(e) by construction; this routine
    recovers it from in_singular_set alone.
    """
    e = direction(e)
    hi = 1.0
    while not in_singular_set(model, hi * e):
        hi *= 2.0
        if hi > r_max:
            return np.inf
    lo = 0.5 * hi if hi > 1.0 else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if in_singular_set(model, mid * e):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _atom_profile(points, num, den):
    """Profile v -> num[k] / den[k] on atom k (+inf where den[k] = 0), 0 off the atoms.

    v holds one velocity per row; a row sits on its nearest atom when
    their squared distance is below 1e-18. One argmin over the
    (rows, atoms) squared distances serves the whole batch.
    """
    with np.errstate(divide="ignore"):
        vals = np.where(den != 0.0, num / den, np.inf)

    def profile(v):
        v = np.atleast_2d(np.asarray(v, dtype=float))
        if v.shape[1] != points.shape[1]:
            v = v.reshape(-1, points.shape[1])
        d2 = ((v[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        k = np.argmin(d2, axis=1)
        return np.where(d2[np.arange(k.size), k] < 1e-18, vals[k], 0.0)

    return profile


def _profile_closure(model, p, H):
    if model.is_discrete:
        pts = model.support.points
        return _atom_profile(pts, model.support.weights, 1.0 + H - pts @ p)

    def profile(v):
        v = np.asarray(v, dtype=float)
        dot = v * p[0] if model.dim == 1 else v @ p
        with np.errstate(divide="ignore"):
            return model.density(v) / (1.0 + H - dot)

    return profile


def _newton_rows(t, evaluate, floor=None):
    """Roots of I(t) = 1 for a batch of rows, by Newton from the left.

    I is a positive sum (or integral) of w/(t + b) terms with b >= 0, so
    1/I is concave and increasing in t: from any t with I > 1, Newton on
    1/I - 1 rises monotonically to the root, with no bisection
    safeguard, in a few steps. evaluate(rows, t) returns I and -I' at t
    on those rows. A row stops once its own step is below roundoff, so
    its root does not depend on which other rows share the batch.

    With floor, a row whose I <= 1 at its start steps the start down by
    factors of 10, to no lower than its floor, and ends there when I is
    still <= 1.
    """
    search = np.full(t.size, floor is not None)
    live = np.arange(t.size)
    for _ in range(100):
        I, slope = evaluate(live, t[live])
        step = (I - 1.0) * I / slope
        newton = ~search[live] | (I > 1.0)
        search[live[newton]] = False
        t[live[newton]] += step[newton]
        done = newton & (np.abs(step) < 4e-16 * (1.0 + t[live]))
        low = live[~newton]
        if low.size:
            stop = t[low] <= floor[low]
            done[~newton] = stop
            low = low[~stop]
            t[low] = np.maximum(0.1 * t[low], floor[low])
        live = live[~done]
        if live.size == 0:
            break
    return t


def _discrete_h(weights, dots):
    """Root of sum w_i/(1+H-a_i) = 1 for a finite velocity set.

    Always regular (the maximizing atom carries positive weight, so the
    relation blows up at mu - 1). _newton_rows solves it in
    t = H - (mu - 1) from t = w_tie, the weight sitting at the maximal
    projection, where the sum is at least 1.

    dots may be a (k,) vector of atom projections v_i . p, or an (m, k)
    matrix of m such rows solved simultaneously (the direction scans and
    the speed-curve zooms batch their frequency grids here); solving the
    matrix gives bit for bit what solving each row alone gives.
    """
    dots = np.asarray(dots, dtype=float)
    scalar = dots.ndim == 1
    # row-major, so that every row is reduced in the same order
    d = np.ascontiguousarray(dots[None, :] if scalar else dots)
    w = np.asarray(weights, dtype=float)[None, :]
    mu = d.max(axis=1)
    b = mu[:, None] - d

    def evaluate(rows, t):
        rat = w / (t[:, None] + b[rows])
        return rat.sum(axis=1), (rat * rat / w).sum(axis=1)

    H = mu - 1.0 + _newton_rows((w * (b <= 0.0)).sum(axis=1), evaluate)
    return float(H[0]) if scalar else H


def _atom_dots(points, E):
    """Projections v . e of the atoms on the rows of E, shape (k, atoms).

    Summed coordinate by coordinate rather than through a BLAS product,
    whose rounding can depend on the shape of the batch; a row's
    projections are then the same in any batch.
    """
    dots = E[:, :1] * points[:, 0]
    for j in range(1, points.shape[1]):
        dots = dots + E[:, j : j + 1] * points[:, j]
    return dots


def _spaced(lo, hi, n):
    """Row-wise np.linspace(lo[i], hi[i], n), rounded exactly as it rounds."""
    pts = np.arange(n) * ((hi - lo) / (n - 1))[:, None] + lo[:, None]
    pts[:, -1] = hi
    return pts


# matrix entries per _discrete_h call in _h_on_rays: a few MB of temporaries
_H_CHUNK = 2**18


def _h_on_rays(weights, scales, dots):
    """H at the frequencies scales[i, j] * e_i of k rays of an atom set.

    dots (k, atoms) holds the projections of the atoms on the unit
    directions e_i and scales (k, n) the frequency magnitudes along
    each; returns H with the shape of scales. The (k n, atoms)
    projection matrix goes to _discrete_h in row chunks of about
    _H_CHUNK entries, so sets with many atoms keep their temporaries
    small; _discrete_h solves rows independently, so chunking does not
    change the result.
    """
    k, n = scales.shape
    atoms = dots.shape[1]
    out = np.empty((k, n))
    rays = max(1, _H_CHUNK // (n * atoms))
    for i in range(0, k, rays):
        X = scales[i : i + rays, :, None] * dots[i : i + rays, None, :]
        out[i : i + rays] = _discrete_h(weights, X.reshape(-1, atoms)).reshape(-1, n)
    return out


def _edge_roots(grid, beta):
    """Roots t = H - (mu - 1) of I(t) = 1 on one continuum grid, per |p| in beta.

    I(t) = integral of mbar(s) / (t + beta s) over s = vbar - v.e: the
    grid's nodes and weights are a weighted atom set in s, and I and I'
    come from one (rows, nodes) reciprocal array per pass. The graded
    grid cannot separate offsets t below a few powers of two above its
    innermost panel width, so _newton_rows starts each row at
    1e-3 (1 + beta) with the floor eps_min; a row with I <= 1 there has
    its root below quadrature resolution and returns the floor (the
    large-|p| regime where t decays like exp(-2|p|)). _I_CAP keeps the
    Newton step usable where the quadrature reports +inf.
    """
    s, w = grid.s, grid.w

    def evaluate(rows, t):
        rec = 1.0 / (t[:, None] + beta[rows, None] * s)
        y = rec * w
        I, fail = grid.integrals(y)
        if fail.any():
            raise QuadratureNotConverged(FAILURES[fail[fail > 0][0]])
        return np.minimum(I, _I_CAP), (y * rec).sum(axis=1)

    eps_min = beta * grid.edge_tail * 2.0**13
    return _newton_rows(1e-3 * (1.0 + beta), evaluate, eps_min)


def _h_value(model, P):
    """H at the rows of P (shape (m, dim)): the one H solver for every model.

    Returns the arrays (H, regular, lval, nrm) over the rows. Atom
    sets go to _discrete_h. On a continuum model the rows sharing a
    directional grid (each half-line in 1-D, every row of a ball) are
    solved together on that grid, which gives vbar(e) and l(e): a
    singular row, l(e) <= |p|, gets mu - 1, the others
    mu - 1 + _edge_roots. A row's H does not depend on the batch.
    """
    P, nrm = _rows(model, P)
    m = nrm.size
    regular = np.ones(m, dtype=bool)
    lval = np.full(m, np.inf)
    if model.is_discrete:
        dots = _atom_dots(model.support.points, P)
        H = np.where(nrm > 0.0, _discrete_h(model.support.weights, dots), 0.0)
        return H, regular, lval, nrm
    H = np.zeros(m)
    live = nrm > 0.0
    groups = (live & (P[:, 0] > 0.0), live & (P[:, 0] < 0.0)) if model.dim == 1 else (live,)
    for rows in map(np.flatnonzero, groups):
        if rows.size == 0:
            continue
        grid = model.directional_grid(P[rows[0]] / nrm[rows[0]])
        lval[rows] = grid.l
        # the relative slack absorbs roundoff when p sits exactly on the
        # singular boundary (both branches agree there by continuity)
        regular[rows] = lval[rows] > nrm[rows] * (1.0 + 1e-12)
        H[rows] = nrm[rows] * grid.vbar - 1.0  # mu - 1
        reg = rows[regular[rows]]
        if reg.size:
            H[reg] += _edge_roots(grid, nrm[reg])
    return H, regular, lval, nrm


def hamiltonian_values(model, P):
    """H along the rows of P (shape (m, dim)): the entry point of _h_value."""
    return _h_value(model, P)[0]


def hamiltonian_value(model, p):
    """H(p) alone, skipping eigenprofile construction (hot-loop path)."""
    return float(hamiltonian_values(model, p)[0])


def hamiltonian(model, p):
    """Solve the spectral problem at frequency p.

    Regular p: the root of the implicit relation above mu(p) - 1, from
    the batched solver _h_value with one row. Singular p: H = mu(p) - 1
    with Dirac weight 1 - l/|p| placed at the canonical maximizer of v.p.
    """
    H, regular, lval, nrm = (float(a[0]) for a in _h_value(model, p))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if nrm == 0.0:
        if model.is_discrete:
            prof = _profile_closure(model, p, 0.0)
        else:
            prof = lambda v: model.density(v)
        return DispersionResult(p, 0.0, True, prof, 0.0, None)
    if not regular:
        weight = max(1.0 - lval / nrm, 0.0)
        loc = model.arg_mu(p)[0]
        return DispersionResult(p, H, False, _profile_closure(model, p, H), weight, loc)
    return DispersionResult(p, H, True, _profile_closure(model, p, H))


def lambda_tilde(model, r, e):
    """Critical decay (1+r) l(e); +inf when l(e) diverges."""
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    return (1.0 + r) * l_integral(model, e)


def speed(model, r, e, lam):
    """Front speed c(lambda, e) = ((1+r) H(lambda e/(1+r)) + r) / lambda.

    On the singular branch lambda >= lambda_tilde(e) this reduces to
    vbar(e) - 1/lambda without any special-casing.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    if lam <= 0:
        raise ValidationError("decay rate lambda must be positive")
    e = direction(e)
    H = hamiltonian_value(model, (lam / (1.0 + r)) * e)
    return ((1.0 + r) * H + r) / lam


def speed_derivative_left(model, r, e, lam, c=None):
    """c'(lambda-, e) from the derivative of the dispersion relation.

    Uses c' = (1 - 1/((1+r) Jcal)) / lambda^2 with
    Jcal = integral of M / (1 + lambda(c - v.e))^2 dv, so no finite
    differences are involved. Valid for lambda <= lambda_tilde(e); at
    lambda_tilde this is the left derivative.
    """
    e = direction(e)
    if c is None:
        c = speed(model, r, e, lam)
    vbar = model.support_max(e)
    d = max(1.0 + lam * (c - vbar), 0.0)
    jcal = edge_kernel_integral(model, e, d, lam, 2)
    if np.isinf(jcal):
        return 1.0 / lam**2
    return (1.0 - 1.0 / ((1.0 + r) * jcal)) / lam**2


def _zoom_min(f, lo, hi, rounds=6, n=65):
    """Minimize k unimodal functions at once, on the brackets [lo, hi].

    f maps a (k, n) array of abscissae, row i in [lo[i], hi[i]], to the
    values of the k functions there. Each round evaluates n points per
    row and keeps the two intervals around the row's smallest value,
    shrinking the bracket by (n-1)/2. This is the package's one
    minimiser. The batched scans over many rays take 6 rounds of 65
    points; a refinement of a single bracket takes 10 rounds of 17,
    the same 1e9 shrink for 170 evaluations instead of 390 (a continuum
    minimal speed then takes about 40 ms instead of 80 to 130 on a
    2-core x86-64 host). Returns the arrays (x, f(x)) of the smallest
    values seen.
    """
    best_x, best_f = lo.copy(), np.full(lo.size, np.inf)
    idx = np.arange(lo.size)
    for _ in range(rounds):
        xs = _spaced(lo, hi, n)
        fs = f(xs)
        j = np.argmin(fs, axis=1)
        better = fs[idx, j] < best_f
        best_x = np.where(better, xs[idx, j], best_x)
        best_f = np.where(better, fs[idx, j], best_f)
        lo = xs[idx, np.maximum(j - 1, 0)]
        hi = xs[idx, np.minimum(j + 1, n - 1)]
    return best_x, best_f


def _atom_min_speeds(model, r, E, n_grid=64):
    """Minimal speeds c*(e) and their decay rates on the unit rows of E.

    For a finite velocity set, where l(e) = +inf and every curve is
    Case1. The steps of minimal_speed's Case1 path, each done for all k
    directions in one batched _discrete_h solve: a scan of n_grid
    log-spaced rates up to LAMBDA_CAP; where the scan bottoms out at the
    cap, the sign of c'(LAMBDA_CAP-) decides between the ballistic limit
    (c* = vbar(e), lambda* = inf) and a minimum near the cap; then
    _zoom_min refines the bracket around the scan's minimum. Returns the arrays (c_star, lambda_star); a row's values
    do not depend on the other rows.
    """
    w = model.support.weights
    dots = _atom_dots(model.support.points, E)
    vbar = dots.max(axis=1)
    k = dots.shape[0]

    def cvals(lams, rows):
        H = _h_on_rays(w, lams / (1.0 + r), dots[rows])
        return ((1.0 + r) * H + r) / lams

    grid = np.geomspace(1e-3, LAMBDA_CAP, n_grid)
    scan = cvals(np.broadcast_to(grid, (k, n_grid)), slice(None))
    kk = np.argmin(scan, axis=1)
    c_star = np.empty(k)
    lam_star = np.full(k, np.inf)
    # at the cap: c'(LAMBDA_CAP-) from the derivative integral, as in
    # speed_derivative_left (jcal = +inf, i.e. c' > 0, on a zero divisor)
    top = np.flatnonzero(kk == n_grid - 1)
    d = np.maximum(1.0 + LAMBDA_CAP * (scan[top, -1] - vbar[top]), 0.0)
    den = (d[:, None] + LAMBDA_CAP * (vbar[top, None] - dots[top])) ** 2
    with np.errstate(divide="ignore"):
        jcal = np.where((den == 0.0).any(axis=1), np.inf, (w / den).sum(axis=1))
    ballistic = top[1.0 - 1.0 / ((1.0 + r) * jcal) < 0.0]
    c_star[ballistic] = vbar[ballistic]

    rows = np.setdiff1d(np.arange(k), ballistic)
    if rows.size:
        m = kk[rows]
        lo = np.where(m > 0, grid[m - 1], 0.5 * grid[0])
        hi = np.where(m < n_grid - 1, grid[np.minimum(m + 1, n_grid - 1)], LAMBDA_CAP)
        lam_star[rows], c_star[rows] = _zoom_min(lambda lams: cvals(lams, rows), lo, hi)
    return c_star, lam_star


def _sample_grid(lo, hi, n, focus=None, extra=4):
    grid = np.geomspace(lo, hi, n)
    if focus is not None:
        k = int(np.clip(np.searchsorted(grid, focus), 1, n - 1))
        a = grid[max(k - 2, 0)]
        b = grid[min(k + 2, n - 1)]
        grid = np.union1d(grid, np.geomspace(a, b, 4 * extra + 1))
    return grid


def minimal_speed(model, r, e, deriv_tol=DERIV_TOL, n_grid=64, sample=True):
    """Minimize c(., e) over decay rates and classify the curve shape.

    A log-spaced scan brackets the minimum and _zoom_min refines it,
    each step one batched H solve; with a finite lambda_tilde the sign
    of the left derivative there decides between an interior minimum
    (Case2) and a minimum at the kink (Case3 if the derivative vanishes
    within deriv_tol, Case4 if negative). With lambda_tilde = +inf (Case1) the
    scan is capped at LAMBDA_CAP; a curve still decreasing at the cap is
    reported as the ballistic limit c_star = vbar(e), lambda_star = inf.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e = direction(e)
    vbar = model.support_max(e)
    lam_tilde = lambda_tilde(model, r, e)
    capped = not np.isfinite(lam_tilde)
    hi = LAMBDA_CAP if capped else lam_tilde

    def cvals_on(lams):
        H = hamiltonian_values(model, np.multiply.outer(lams / (1.0 + r), e))
        return ((1.0 + r) * H + r) / lams

    lam_star = None
    c_star = None
    dleft = None

    if model.is_discrete:
        # an atom set always has l = +inf (Case1); the direction scans
        # batch the same solver over many directions
        c_stars, lam_stars = _atom_min_speeds(model, r, e[None, :], n_grid)
        case, c_star, lam_star = "Case1", c_stars[0], lam_stars[0]
    else:
        if not capped:
            dleft = speed_derivative_left(model, r, e, lam_tilde)
            if dleft <= -deriv_tol:
                case, lam_star = "Case4", lam_tilde
            elif abs(dleft) <= deriv_tol:
                case, lam_star = "Case3", lam_tilde
            else:
                case = "Case2"
        else:
            case = "Case1"
        if lam_star is not None:
            c_star = speed(model, r, e, lam_star)
        else:
            grid = np.geomspace(1e-3, hi, n_grid)
            cvals = cvals_on(grid)
            k = int(np.argmin(cvals))
            # decide between a minimum hiding near the cap and a curve
            # that decreases toward its ballistic limit forever
            if capped and k == n_grid - 1 and (
                speed_derivative_left(model, r, e, hi, c=cvals[-1]) < 0.0
            ):
                lam_star, c_star = np.inf, vbar
            else:
                lo = np.array([grid[k - 1] if k > 0 else 0.5 * grid[0]])
                top = np.array([grid[min(k + 1, n_grid - 1)]])
                xs, cs = _zoom_min(lambda lams: cvals_on(lams[0])[None, :], lo, top, 10, 17)
                lam_star, c_star = xs[0], cs[0]

    if sample:
        focus = lam_star if np.isfinite(lam_star) else hi
        lambda_grid = _sample_grid(1e-3, hi, n_grid, focus=focus)
        c_values = cvals_on(lambda_grid)
    else:
        lambda_grid = np.empty(0)
        c_values = np.empty(0)
    return SpeedCurve(
        e=e,
        r=float(r),
        lambda_grid=lambda_grid,
        c_values=c_values,
        lambda_tilde=lam_tilde,
        lambda_star=float(lam_star),
        c_star=float(c_star),
        case_label=case,
        left_derivative_at_tilde=dleft,
    )


def case_from_square_criterion(model, r, e, deriv_tol=DERIV_TOL):
    """Classify the speed curve from the moment inequality alone.

    The minimum sits at lambda_tilde iff
    j(e) <= (1+r) l(e)^2, where j is the squared-edge integral; the
    borderline equality is Case3. This is an independent route to the
    label in SpeedCurve (which uses the sign of c'(lambda_tilde-)): the
    two are tied by c'(lambda_tilde-) = (1 - (1+r) l^2 / j) /
    lambda_tilde^2.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    e = direction(e)
    lval = l_integral(model, e)
    if np.isinf(lval):
        return "Case1"
    jval = j_integral(model, e)
    lam_tilde = (1.0 + r) * lval
    if np.isinf(jval):
        return "Case2"
    dleft = (1.0 - (1.0 + r) * lval**2 / jval) / lam_tilde**2
    if dleft <= -deriv_tol:
        return "Case4"
    if abs(dleft) <= deriv_tol:
        return "Case3"
    return "Case2"


@dataclass
class WaveProfile:
    """Travelling-wave velocity profile F at decay lambda in direction e.

    density(v) = (1+r) M(v) / (1 + lambda (c - v.e)); mass is its
    integral over the velocity set (1 up to quadrature error for every
    admissible lambda, including lambda_tilde itself).
    """

    lam: float
    e: np.ndarray
    r: float
    c: float
    density: Callable
    mass: float


def wave_profile(model, r, e, lam):
    """Profile of the linear wave with decay lam; DomainError past lambda_tilde.

    For lam <= lambda_tilde(e) the profile is integrable with unit mass;
    beyond lambda_tilde the dispersion relation no longer holds and no
    integrable profile exists.
    """
    if r <= 0:
        raise ValidationError("growth rate r must be positive")
    if lam <= 0:
        raise ValidationError("decay rate lambda must be positive")
    e = direction(e)
    lam_tilde = lambda_tilde(model, r, e)
    if lam > lam_tilde * (1.0 + 1e-12):
        raise DomainError(
            "lambda = %g exceeds lambda_tilde = %g; no integrable profile"
            % (lam, lam_tilde)
        )
    c = speed(model, r, e, lam)
    vbar = model.support_max(e)

    if model.is_discrete:
        pts = model.support.points
        num = (1.0 + r) * model.support.weights
        density = _atom_profile(pts, num, 1.0 + lam * (c - pts @ e))
    else:

        def density(v):
            v = np.asarray(v, dtype=float)
            dot = v * e[0] if model.dim == 1 else v @ e
            with np.errstate(divide="ignore"):
                return (1.0 + r) * model.density(v) / (1.0 + lam * (c - dot))

    d = max(1.0 + lam * (c - vbar), 0.0)
    mass = (1.0 + r) * edge_kernel_integral(model, e, d, lam, 1)
    return WaveProfile(lam=float(lam), e=e, r=float(r), c=float(c), density=density, mass=float(mass))
