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
from .models import _atom_dots, _positive, _unit, edge_kernel_integral, j_integral, l_integral
from .quadrature import FAILURES

# classification threshold on c'(lambda_tilde-); the zero-derivative case
# sits on a measure-zero boundary in r, the tolerance makes it observable
DERIV_TOL = 1e-6
# the first decay-rate window of a Case1 minimal speed, and the ceiling
# that it and the ray windows of propagation grow to by factors of 4
LAMBDA_CAP = 1e3
_LAM_CEIL = 2.0**24
# log-spaced decay rates of the curve that minimal_speed samples
N_SCAN = 64
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


def _singular(lval, nrm):
    """p is singular when l(p/|p|) <= |p|.

    The relative slack absorbs roundoff when p sits exactly on the
    singular boundary (both branches of H agree there by continuity).
    """
    return lval <= nrm * (1.0 + 1e-12)


def in_singular_set(model, p):
    """True iff p lies in the singular set, i.e. l(p/|p|) <= |p|.

    The test is _singular, slack included, as in hamiltonian, so the
    two agree at the boundary. The origin is never singular; models with
    l = +inf (positive density near the support edge, or any finite
    velocity set) have an empty singular set.
    """
    P, nrm = _rows(model, p)
    if nrm[0] == 0.0:
        return False
    return bool(_singular(l_integral(model, P[0] / nrm[0]), nrm[0]))


def singular_boundary_radius(model, e, tol=1e-9, r_max=1e9):
    """Radius where the ray t*e enters the singular set, by bisection.

    Returns +inf when the ray never enters (empty singular set in that
    direction). The radius equals l(e) by construction; this routine
    recovers it from in_singular_set alone.
    """
    e = _unit(model, e)
    _positive(tol, "tol")
    _positive(r_max, "r_max")
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
        v = np.asarray(v, dtype=float).reshape(-1, points.shape[1])
        d2 = ((v[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        k = np.argmin(d2, axis=1)
        return np.where(d2[np.arange(k.size), k] < 1e-18, vals[k], 0.0)

    return profile


def _profile_closure(model, p, H):
    if model.is_discrete:
        pts = model.support.points
        return _atom_profile(pts, model.support.weights, 1.0 + H - _atom_dots(pts, p))

    def profile(v):
        v = np.asarray(v, dtype=float)
        dot = v * p[0] if model.dim == 1 else v @ p
        with np.errstate(divide="ignore"):
            return model.density(v) / (1.0 + H - dot)

    return profile


def _newton_rows(t, evaluate, floor=None):
    """Roots of I(t) = 1 for a batch of rows, by Newton on 1/I - 1.

    I is a positive sum (or integral) of w/(t + b) terms with b >= 0, so
    1/I is concave and increasing in t: from any t with I > 1, Newton on
    1/I - 1 rises monotonically to the root, with no bisection
    safeguard, in a few steps. evaluate(rows, t) returns I and -I' at t
    on those rows. A row stops once its own step is below roundoff, so
    its root does not depend on which other rows share the batch.

    With floor, a row may start right of its root (I < 1), from the
    continuum start of _edge_roots or from one its caller predicted.
    There the Newton step in t lands left of the root, by concavity, but
    far left where I grows like log(1/t); the Newton step in log t is
    exact there. Such a row steps down by the larger of the two, by at
    most a factor 1000, and to no lower than its floor. A row on its
    floor with I <= 1 ends there: its root lies below the floor. Every
    row ends on the same stop rule from any start, so two starts give
    roots within that rule of each other.
    """
    live = np.arange(t.size)
    for _ in range(100):
        old = t[live]
        I, slope = evaluate(live, old)
        step = (I - 1.0) * I / slope
        if floor is None:
            new = old + step
            done = np.abs(step) < 4e-16 * (1.0 + new)
        else:
            right = I < 1.0
            down = old[right] * np.expm1((I[right] - 1.0) / (old[right] * slope[right]))
            step[right] = np.minimum(down, np.maximum(step[right], -0.999 * old[right]))
            new = np.maximum(old + step, floor[live])
            done = (np.abs(step) < 4e-16 * (1.0 + new)) | ((old <= floor[live]) & (I <= 1.0))
        t[live] = new
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

    dots is an (m, k) matrix: row i holds the projections v . p of the k
    atoms on the i-th frequency p, and the m rows are solved together (the
    direction scans batch the decay rates of all their rays here). Returns the m roots; solving the matrix gives bit for bit what
    solving each row alone gives.
    """
    # row-major, so that every row is reduced in the same order
    d = np.ascontiguousarray(dots, dtype=float)
    w = np.asarray(weights, dtype=float)[None, :]
    mu = d.max(axis=1)
    b = mu[:, None] - d

    def evaluate(rows, t):
        rat = w / (t[:, None] + b[rows])
        return rat.sum(axis=1), (rat * rat / w).sum(axis=1)

    return mu - 1.0 + _newton_rows((w * (b <= 0.0)).sum(axis=1), evaluate)


# matrix entries per _discrete_h call in _h_rays: a few MB of temporaries
_H_CHUNK = 2**18


def _h_rays(model, scales, E, start=None):
    """H, dH/dbeta and the offsets t at the frequencies scales[i, j] * E[i] on k rays.

    E holds the k unit directions and scales (k, n) the frequency
    magnitudes beta along each; both arrays are shaped like scales. On
    the regular branch dH/dbeta = vbar - <s>, the mean of
    s = vbar - v.e under q = M / D^2 with D = 1 + H - beta v.e, from
    differentiating the dispersion relation; on the singular branch
    H = beta vbar - 1 and dH/dbeta = vbar.

    On an atom set the (k n, atoms) matrix of scales times the atoms'
    projections on E goes to _discrete_h in row chunks of about _H_CHUNK
    entries, so sets with many atoms keep their temporaries small, and
    <s> is a sum over the atoms; start is not read and t is None. H on a
    continuum model depends on |p| alone, so its k n frequencies go along
    the first axis, where |p| is the scale bit for bit, to one _h_value
    call (E is not read), with <s> from _edge_mean. There start, shaped
    like scales or None, is a first offset per entry for _edge_roots,
    and t holds the offsets t = H - (mu - 1) solved (0 on singular
    entries). A ray's values do not depend on the other rays or the
    chunking.
    """
    k, n = scales.shape
    if not model.is_discrete:
        Q = np.column_stack([scales.ravel(), np.zeros((k * n, model.dim - 1))])
        H, regular, _, nrm, t = _h_value(model, Q, None if start is None else start.ravel())
        dH = np.full(H.size, model.grid.vbar)
        reg = np.flatnonzero(regular & (nrm > 0.0))
        if reg.size:
            dH[reg] -= _edge_mean(model.grid, t[reg], nrm[reg])
        return H.reshape(k, n), dH.reshape(k, n), t.reshape(k, n)
    dots = _atom_dots(model.support.points, E)
    vbar = dots.max(axis=1)
    s = vbar[:, None] - dots
    w = model.support.weights
    atoms = dots.shape[1]
    H, dH = np.empty((k, n)), np.empty((k, n))
    rays = max(1, _H_CHUNK // (n * atoms))
    for i in range(0, k, rays):
        X = scales[i : i + rays, :, None] * dots[i : i + rays, None, :]
        h = _discrete_h(w, X.reshape(-1, atoms)).reshape(-1, n)
        q = w / (1.0 + h[:, :, None] - X) ** 2
        H[i : i + rays] = h
        dH[i : i + rays] = vbar[i : i + rays, None] - (q * s[i : i + rays, None, :]).sum(axis=2) / q.sum(axis=2)
    return H, dH, None


class _RowStarts:
    """The last (beta, t, dt/dbeta) that one solve held on each of its k
    continuum rows, and the first-order start it predicts for the next
    frequency of the row.

    A closure that walks rows along a bracket (curve in _min_speeds, g in
    _ray_sups) builds one per call and passes start() to _h_rays, then
    keep() with what it solved. The prediction is
    t_prev + (beta - beta_prev) (dH_prev - vbar): t = H - (beta vbar - 1)
    is convex in beta on the regular branch, so the tangent lies left of
    the root, or within roundoff of it. It is nan on a row with nothing
    held and 0 after a singular entry (t = 0, dH = vbar), and _edge_roots
    starts such rows from its moment bound, as after drop(). Atom-set rows
    keep their tie-weight start, so on an atom set start() is None and
    keep() holds nothing. A row's starts come from its own values alone.
    """

    def __init__(self, model, k):
        self.held = None if model.is_discrete else np.full((3, k), np.nan)
        self.vbar = None if model.is_discrete else model.grid.vbar

    def start(self, rows, beta):
        if self.held is None:
            return None
        b, t, slope = self.held[:, rows, None]
        return t + (beta - b) * slope

    def keep(self, rows, beta, t, dH):
        # the last column is the newest frequency of the row
        if self.held is not None:
            self.held[:, rows] = beta[:, -1], t[:, -1], dH[:, -1] - self.vbar

    def drop(self, rows):
        if self.held is not None:
            self.held[:, rows] = np.nan


def _ray_edges(model, E):
    """The arrays vbar(e) and l(e) over the unit rows of E.

    An atom set takes vbar from one projection of its atoms on every
    row, the one _h_rays makes, and has l = +inf; a continuum model
    reads both from its one grid, the same for every row.
    """
    if model.is_discrete:
        return _atom_dots(model.support.points, E).max(axis=1), np.full(len(E), np.inf)
    return np.full(len(E), model.grid.vbar), np.full(len(E), model.grid.l)


def _edge_roots(grid, beta, start=None):
    """Roots t = H - (mu - 1) of I(t) = 1 on one continuum grid, per |p| in beta.

    I(t) = integral of mbar(s) / (t + beta s) over s = vbar - v.e: the
    grid's nodes and weights are a weighted atom set in s, and I and I'
    come from one (rows, nodes) reciprocal array per pass.

    start, None or one value per row, is a first offset that the caller
    predicts (see _RowStarts). A row with a positive finite start starts
    at the larger of it and eps_min (below). Every other row starts from a
    bound that depends only on |p|. The slice
    marginal is symmetric, so pairing v.p with -v.p gives
    I >= (1 + sigma^2 beta^2 / a^2) / a at a = 1 + H, with sigma^2 the
    grid's second moment m2. At the root I = 1, so 1 + H is at least the
    root a0 of a^3 - a^2 - sigma^2 beta^2 = 0, and
    t0 = a0 - beta vbar lies left of the root (close to it for small
    |p|). Where t0 is nan or below 1e-3 (1 + beta), the row starts there
    instead, possibly right of its root. A start right of the root is
    stepped down by _newton_rows, so every root ends on the same stop
    rule, whatever its start.

    The graded grid cannot separate offsets t below a few powers of two
    above its innermost panel width, so eps_min is the floor of
    _newton_rows: a row whose root lies below it (the large-|p| regime
    where t decays like exp(-2|p|)) reaches the floor in a few passes and
    returns it. _I_CAP keeps the Newton step usable where the quadrature
    reports +inf.
    """
    s, w = grid.s, grid.w

    def evaluate(rows, t):
        rec = 1.0 / (t[:, None] + beta[rows, None] * s)
        y = rec * w
        I, fail = grid.integrals(y)
        if fail.any():
            raise QuadratureNotConverged(FAILURES[fail[fail > 0][0]])
        return np.minimum(I, _I_CAP), (y * rec).sum(axis=1)

    # the real root of a^3 - a^2 - c = 0 by Cardano, a = 1/3 + x with
    # x^3 - x/3 = 2/27 + c; nan where c * c overflows, past |p| ~ 1e77
    with np.errstate(over="ignore", invalid="ignore"):
        c = grid.m2 * beta * beta
        half = 1.0 / 27.0 + 0.5 * c
        root = np.sqrt(c / 27.0 + 0.25 * c * c)
        a0 = 1.0 / 3.0 + np.cbrt(half + root) + np.cbrt(half - root)
    eps_min = beta * grid.edge_tail * 2.0**13
    t0 = np.fmax(a0 - beta * grid.vbar, 1e-3 * (1.0 + beta))
    if start is not None:
        warm = (start > 0.0) & (start < np.inf)
        t0[warm] = np.maximum(start[warm], eps_min[warm])
    return _newton_rows(t0, evaluate, eps_min)


def _edge_mean(grid, t, beta):
    """The mean of s under q = mbar(s) / (t + beta s)^2 on one continuum grid, per row.

    t holds the offsets that _edge_roots solves for, at the magnitudes
    beta, so t + beta s is the denominator D of the dispersion relation
    without the cancellation of forming it from H. Both moments of q come
    from one GradedGrid.integrals pass, tails included, as in
    speed_derivative_left; a divergent mass of q gives the mean 0.
    """
    rec = 1.0 / (t[:, None] + beta[:, None] * grid.s)
    q = rec * rec * grid.w
    total, fail = grid.integrals(np.vstack([q, q * grid.s]))
    if fail.any():
        raise QuadratureNotConverged(FAILURES[fail[fail > 0][0]])
    return total[t.size :] / total[: t.size]


def _h_value(model, P, start=None):
    """H at the rows of P (shape (m, dim)): the one H solver for every model.

    Returns the arrays (H, regular, lval, nrm, t) over the rows. Atom
    sets go to _discrete_h. On a continuum model every row p != 0 is
    solved on the model's one grid, which gives vbar(e) and l(e): a
    singular row, l(e) <= |p|, gets mu - 1, the others
    mu - 1 + t with t from _edge_roots, started from start (one value
    per row, or None) where it allows. t is 0 on the other rows and on
    atom sets. A row's H does not depend on the batch.
    """
    P, nrm = _rows(model, P)
    m = nrm.size
    regular = np.ones(m, dtype=bool)
    lval = np.full(m, np.inf)
    t = np.zeros(m)
    if model.is_discrete:
        dots = _atom_dots(model.support.points, P)
        H = np.where(nrm > 0.0, _discrete_h(model.support.weights, dots), 0.0)
        return H, regular, lval, nrm, t
    H = np.zeros(m)
    live = np.flatnonzero(nrm > 0.0)
    if live.size:
        grid = model.grid
        lval[live] = grid.l
        regular[live] = ~_singular(lval[live], nrm[live])
        H[live] = nrm[live] * grid.vbar - 1.0  # mu - 1
        reg = live[regular[live]]
        if reg.size:
            t[reg] = _edge_roots(grid, nrm[reg], None if start is None else start[reg])
            H[reg] += t[reg]
    return H, regular, lval, nrm, t


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
    H, regular, lval, nrm, _ = (float(a[0]) for a in _h_value(model, p))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not regular:
        weight = max(1.0 - lval / nrm, 0.0)
        loc = model.arg_mu(p)[0]
        return DispersionResult(p, H, False, _profile_closure(model, p, H), weight, loc)
    return DispersionResult(p, H, True, _profile_closure(model, p, H))


def lambda_tilde(model, r, e):
    """Critical decay (1+r) l(e); +inf when l(e) diverges."""
    _positive(r, "growth rate r")
    return (1.0 + r) * l_integral(model, e)


def speed(model, r, e, lam):
    """Front speed c(lambda, e) = ((1+r) H(lambda e/(1+r)) + r) / lambda.

    On the singular branch lambda >= lambda_tilde(e) this reduces to
    vbar(e) - 1/lambda without any special-casing.
    """
    _positive(r, "growth rate r")
    _positive(lam, "decay rate lambda")
    e = _unit(model, e)
    H = hamiltonian_value(model, (lam / (1.0 + r)) * e)
    return ((1.0 + r) * H + r) / lam


def speed_derivative_left(model, r, e, lam, c=None):
    """c'(lambda-, e) from the derivative of the dispersion relation.

    Uses c' = (1 - 1/((1+r) Jcal)) / lambda^2 with
    Jcal = integral of M / (1 + lambda(c - v.e))^2 dv, so no finite
    differences are involved. Valid for lambda <= lambda_tilde(e); at
    lambda_tilde this is the left derivative.
    """
    _positive(r, "growth rate r")
    _positive(lam, "decay rate lambda")
    e = _unit(model, e)
    if c is None:
        c = speed(model, r, e, lam)
    elif not np.isfinite(c):
        raise ValidationError("c must be finite")
    vbar = model.support_max(e)
    d = max(1.0 + lam * (c - vbar), 0.0)
    jcal = edge_kernel_integral(model, e, d, lam, 2)
    if np.isinf(jcal):
        return 1.0 / lam**2
    return (1.0 - 1.0 / ((1.0 + r) * jcal)) / lam**2


def _bracket_roots(f, lo, hi, flo, fhi, tol=1e-12):
    """Roots of k functions at once, by Chandrupatla's method.

    Row i's function takes the values flo[i] and fhi[i], of opposite
    signs, at the ends of its bracket [lo[i], hi[i]]. f(x, rows) maps
    abscissae x, x[i] inside the bracket of row rows[i], to the pair
    (values, data) of those rows' functions there. Each step interpolates
    inverse-quadratically through the row's last three points when their
    values allow it and bisects otherwise, keeping half the tolerance
    4 eps |x| + tol inside the bracket. A row stops at a zero value or
    once its bracket is narrower than the tolerance, so its root does not
    depend on the other rows. Returns each row's last abscissa, which is
    within the tolerance of the sign change, and the data f gave there.
    """
    x1, f1, x2, f2 = lo.copy(), flo.copy(), hi.copy(), fhi.copy()
    x3, f3 = x2.copy(), f2.copy()
    data = np.empty(lo.size)
    t = np.full(lo.size, 0.5)
    live = np.arange(lo.size)
    for _ in range(100):
        x = x1[live] + t[live] * (x2[live] - x1[live])
        fx, data[live] = f(x, live)
        # x1 is the newest point, and x2 keeps the sign opposite to it
        flip = live[np.sign(fx) != np.sign(f1[live])]
        x3[live], f3[live] = x1[live], f1[live]
        x3[flip], f3[flip] = x2[flip], f2[flip]
        x2[flip], f2[flip] = x1[flip], f1[flip]
        x1[live], f1[live] = x, fx
        width = np.abs(x2[live] - x1[live])
        band = 4.0 * np.finfo(float).eps * np.abs(x) + tol
        go = (fx != 0.0) & (width > band)
        live, width, band = live[go], width[go], band[go]
        if live.size == 0:
            break
        a1, a2, a3, b1, b2, b3 = x1[live], x2[live], x3[live], f1[live], f2[live], f3[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (a1 - a2) / (a3 - a2), (b1 - b2) / (b3 - b2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            step = b1 / (b1 - b2) * b3 / (b3 - b2) - (a3 - a1) / (a2 - a1) * b1 / (b3 - b1) * b2 / (b2 - b3)
        edge = 0.5 * band / width
        t[live] = np.clip(np.where(iqi, step, 0.5), edge, 1.0 - edge)
    return x1, data


def _min_speeds(model, r, E):
    """Minimal speeds c*(e) on the unit rows of E, for any velocity set.

    r is one growth rate for all rows, or one per row. Returns the arrays
    (c_star, lambda_star, lambda_tilde, dleft, case) over the rows, dleft
    being c'(lambda_tilde-) (nan where lambda_tilde is +inf) and case the
    shape label of SpeedCurve. Each step is one batched solve over the
    rows it concerns:
    - a row with finite lambda_tilde solves c(lambda_tilde) once and
      takes dleft from speed_derivative_left at that c; within DERIV_TOL
      of 0 (Case3) or below it (Case4) the minimum sits at the kink,
      c_star = c(lambda_tilde), lambda_star = lambda_tilde;
    - below the kink H is convex, so c' changes sign once, like
      lambda^2 c' = lambda (dH/dbeta - c) (_h_rays). The other rows take
      it at 1e-3 and at hi, LAMBDA_CAP where lambda_tilde is +inf
      (Case1), or lambda_tilde approached from the left, where dleft is
      known. A Case1 row still falling at hi grows hi by factors of 4, up
      to _LAM_CEIL; one still falling there is the ballistic limit
      c_star = vbar(e), lambda_star = +inf, and so is an atom-set row
      with (1+r) w_tie >= 1 at once, w_tie the weight at vbar(e), since
      c tends to vbar from above. A row already rising
      at 1e-3 moves that end down by factors of 1000 until c' < 0 there,
      or to 1e-12, where the minimum is taken;
    - _bracket_roots solves c' = 0 in log lambda on the remaining rows.
    Every step after a continuum row's first starts that row's H solve
    from the tangent at the last rate the call solved on it (_RowStarts),
    which the call holds and then drops. A row's values do not depend on
    the other rows or on earlier calls.
    """
    vbar, lval = _ray_edges(model, E)
    k = len(E)
    r = np.broadcast_to(r, (k,))
    lam_tilde = (1.0 + r) * lval
    c_star, lam_star, dleft = np.empty(k), np.full(k, np.inf), np.full(k, np.nan)
    case = np.where(np.isinf(lam_tilde), "Case1", "Case2")

    held = _RowStarts(model, k)

    def curve(lams, rows):
        # c and lambda^2 c' at the rates lams, shaped like lams; a continuum
        # row starts its H solve from the last one it held
        rr = r[rows, None]
        beta = lams / (1.0 + rr)
        H, dH, t = _h_rays(model, beta, E[rows], held.start(rows, beta))
        held.keep(rows, beta, t, dH)
        c = ((1.0 + rr) * H + rr) / lams
        return c, lams * (dH - c)

    kinked = np.flatnonzero(np.isfinite(lam_tilde))
    if kinked.size:
        c_star[kinked] = curve(lam_tilde[kinked, None], kinked)[0][:, 0]
        dleft[kinked] = [speed_derivative_left(model, r[i], E[i], lam_tilde[i], c=c_star[i]) for i in kinked]
    case[kinked[np.abs(dleft[kinked]) <= DERIV_TOL]] = "Case3"
    case[kinked[dleft[kinked] <= -DERIV_TOL]] = "Case4"
    kink = np.flatnonzero((case == "Case3") | (case == "Case4"))
    lam_star[kink] = lam_tilde[kink]

    rows = np.setdiff1d(np.arange(k), kink)
    if rows.size == 0:
        return c_star, lam_star, lam_tilde, dleft, case
    capped = np.isinf(lam_tilde[rows])
    lo, hi = np.full(rows.size, 1e-3), np.where(capped, LAMBDA_CAP, lam_tilde[rows])
    c, slope = curve(np.column_stack([lo, hi]), rows)
    slope[~capped, 1] = dleft[rows[~capped]] * hi[~capped] ** 2
    grow = np.flatnonzero(capped & (slope[:, 1] < 0.0))
    if model.is_discrete and grow.size:
        # c = vbar + ((1+r) t - 1) / lambda, t = H - (mu - 1) falling to the
        # weight w_tie at vbar(e) and staying above it: where (1+r) w_tie >= 1
        # c stays above vbar, so the row is ballistic with no wider window;
        # only exact ties count (models.DiscreteSet: why its facet weights
        # count within a tolerance instead)
        dots = _atom_dots(model.support.points, E[rows[grow]])
        tie = (model.support.weights * (dots >= dots.max(axis=1, keepdims=True))).sum(axis=1)
        grow = grow[(1.0 + r[rows[grow]]) * tie < 1.0]
    while grow.size:
        hi[grow] = np.minimum(4.0 * hi[grow], _LAM_CEIL)
        c[grow, 1:], slope[grow, 1:] = curve(hi[grow, None], rows[grow])
        grow = grow[(slope[grow, 1] < 0.0) & (hi[grow] < _LAM_CEIL)]
    down = slope[:, 1] < 0.0
    c_star[rows[down]] = vbar[rows[down]]
    # a curve already rising at 1e-3 (r below about 1e-6) has its minimum
    # lower down: the bracket's end steps down by factors of 1000
    low = np.flatnonzero(~down & (slope[:, 0] >= 0.0))
    while low.size:
        lo[low] *= 1e-3
        c[low, :1], slope[low, :1] = curve(lo[low, None], rows[low])
        low = low[(slope[low, 0] >= 0.0) & (lo[low] > 1e-12)]
    low = ~down & (slope[:, 0] >= 0.0)
    c_star[rows[low]], lam_star[rows[low]] = c[low, 0], lo[low]
    mid = ~down & ~low
    if mid.any():
        sel = rows[mid]

        def root(x, i):
            c, slope = curve(np.exp(x)[:, None], sel[i])
            return slope[:, 0], c[:, 0]

        x, c_star[sel] = _bracket_roots(root, np.log(lo[mid]), np.log(hi[mid]), slope[mid, 0], slope[mid, 1])
        lam_star[sel] = np.exp(x)
    return c_star, lam_star, lam_tilde, dleft, case


def _sample_grid(lo, hi, n, focus):
    """n log-spaced rates on [lo, hi], with 17 more on the four cells about focus."""
    grid = np.geomspace(lo, hi, n)
    k = int(np.clip(np.searchsorted(grid, focus), 1, n - 1))
    a = grid[max(k - 2, 0)]
    b = grid[min(k + 2, n - 1)]
    return np.union1d(grid, np.geomspace(a, b, 17))


def minimal_speeds(model, rs, e):
    """Minimal speeds along e at each growth rate in rs, as one batched solve.

    Every rate passes the r gate before any solve. _min_speeds then
    solves all of them at once, one row per rate, and a row's values do
    not depend on the other rows, so each returned SpeedCurve is the one
    minimal_speed gives with sample=False: no sampled curve, the minimum
    and its case label (see minimal_speed).
    """
    rs = np.asarray(rs, dtype=float).reshape(-1)
    for r in rs:
        _positive(r, "growth rate r")
    e = _unit(model, e)
    solved = _min_speeds(model, rs, np.tile(e, (rs.size, 1)))
    return [
        SpeedCurve(
            e=e,
            r=float(r),
            lambda_grid=np.empty(0),
            c_values=np.empty(0),
            lambda_tilde=float(lam_tilde),
            lambda_star=float(lam_star),
            c_star=float(c_star),
            case_label=str(case),
            left_derivative_at_tilde=None if np.isinf(lam_tilde) else float(dleft),
        )
        for r, c_star, lam_star, lam_tilde, dleft, case in zip(rs, *solved)
    ]


def minimal_speed(model, r, e, sample=True):
    """Minimize c(., e) over decay rates and classify the curve shape.

    The minimum and its label come from _min_speeds with one row, the
    minimal-speed solver of every velocity set: with a finite
    lambda_tilde the sign of the left derivative there decides between
    an interior minimum (Case2) and a minimum at the kink (Case3 if the
    derivative vanishes within DERIV_TOL, Case4 if negative). An
    interior minimum is the root of c' in log lambda, bracketed by
    [1e-3, lambda_tilde) or, with lambda_tilde = +inf (Case1), by
    [1e-3, hi], where hi grows from LAMBDA_CAP by factors of 4 up to
    _LAM_CEIL while the curve still decreases there; a Case1 curve still
    decreasing at the ceiling is reported as the ballistic limit
    c_star = vbar(e), lambda_star = inf. With sample, the curve is also
    sampled on N_SCAN log-spaced rates from 1e-3, or from
    lambda_star / 10 when lambda_star lies below 1e-3, up to
    lambda_tilde, or on Case1 up to LAMBDA_CAP or 10 lambda_star past
    it, refined about lambda_star.
    """
    curve = minimal_speeds(model, [r], e)[0]
    if sample:
        r, lam_star = curve.r, curve.lambda_star
        hi = curve.lambda_tilde
        if np.isinf(hi):
            hi = max(LAMBDA_CAP, 10.0 * lam_star) if np.isfinite(lam_star) else LAMBDA_CAP
        lo = 1e-3 if lam_star >= 1e-3 else lam_star / 10.0
        curve.lambda_grid = _sample_grid(lo, hi, N_SCAN, lam_star if np.isfinite(lam_star) else hi)
        H = hamiltonian_values(model, np.multiply.outer(curve.lambda_grid / (1.0 + r), curve.e))
        curve.c_values = ((1.0 + r) * H + r) / curve.lambda_grid
    return curve


def case_from_square_criterion(model, r, e):
    """Classify the speed curve from the moment inequality alone.

    The minimum sits at lambda_tilde iff
    j(e) <= (1+r) l(e)^2, where j is the squared-edge integral; the
    borderline equality is Case3. This is an independent route to the
    label in SpeedCurve (which uses the sign of c'(lambda_tilde-)): the
    two are tied by c'(lambda_tilde-) = (1 - (1+r) l^2 / j) /
    lambda_tilde^2.
    """
    _positive(r, "growth rate r")
    e = _unit(model, e)
    lval = l_integral(model, e)
    if np.isinf(lval):
        return "Case1"
    jval = j_integral(model, e)
    lam_tilde = (1.0 + r) * lval
    if np.isinf(jval):
        return "Case2"
    dleft = (1.0 - (1.0 + r) * lval**2 / jval) / lam_tilde**2
    if dleft <= -DERIV_TOL:
        return "Case4"
    if abs(dleft) <= DERIV_TOL:
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
    _positive(r, "growth rate r")
    _positive(lam, "decay rate lambda")
    e = _unit(model, e)
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
        density = _atom_profile(pts, (1.0 + r) * model.support.weights, 1.0 + lam * (c - _atom_dots(pts, e)))
    else:

        def density(v):
            v = np.asarray(v, dtype=float)
            dot = v * e[0] if model.dim == 1 else v @ e
            with np.errstate(divide="ignore"):
                return (1.0 + r) * model.density(v) / (1.0 + lam * (c - dot))

    d = max(1.0 + lam * (c - vbar), 0.0)
    mass = (1.0 + r) * edge_kernel_integral(model, e, d, lam, 1)
    return WaveProfile(lam=float(lam), e=e, r=float(r), c=float(c), density=density, mass=float(mass))
