"""Quadrature engines.

Every integral over a continuum velocity set is a directional integral
of the form

    integral of  mbar(t) * k(vbar - t) dt      over t = v . e

with a kernel k that may blow up at t = vbar (the support edge in the
direction e). `GradedGrid` handles them: geometrically graded panels
toward both ends of each smooth segment, with per-kernel tail
extrapolation and divergence classification on the panel increments.

A model builds its grids, nodes and weights, once, at construction, and
a grid computes its edge integrals l and j once, on first use. The
kernel values of many rows (the dispersion relation at every frequency of
a batched H solve) are integrated in one vectorized pass, `integrals`;
`kernel_integral` is its one-row case.
"""

from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureNotConverged

# graded-ladder defaults
LADDER_LEVELS = 48
LADDER_ORDER = 16
DIVERGENCE_CAP = 1e8
DIVERGENCE_RATIO = 0.85
RATIO_SCATTER_TOL = 0.25
_TAIL_RATIO_FLOOR = 1e-3


@lru_cache(maxsize=None)
def gl_rule(order):
    """Gauss-Legendre nodes/weights on [0, 1], computed once per order."""
    x, w = roots_legendre(order)
    return 0.5 * (x + 1.0), 0.5 * w


def panel_nodes(a, b, order):
    """GL nodes and weights on the panel [a, b]."""
    x, w = gl_rule(order)
    return a + (b - a) * x, (b - a) * w


class _Ladder:
    """One geometrically graded stack of GL panels.

    Nodes are stored level-major so per-level increments of any kernel are
    a reshape + row sum. `s0` is the distance of the ladder's own endpoint
    from the singular point s = 0; a ladder with s0 == 0 is the one whose
    increments decide convergence vs divergence of singular kernels.
    """

    def __init__(self, s_end, width, toward_end, levels, order):
        # panels cover distances d in (width*2^-levels, width] from s_end,
        # level k spanning d in [width*2^-(k+1), width*2^-k]
        x, w = gl_rule(order)
        ks = np.arange(levels)
        hi = width * np.exp2(-ks)
        lo = 0.5 * hi
        # offsets from the endpoint, shape (levels, order)
        offs = lo[:, None] + (hi - lo)[:, None] * x[None, :]
        wts = (hi - lo)[:, None] * w[None, :]
        if toward_end == "down":
            s = s_end + offs  # endpoint at small-s side
            self.s0 = s_end
        else:
            s = s_end - offs  # endpoint at large-s side
            self.s0 = None  # never the singular end
        self.s = s.ravel()
        self.w = wts.ravel()
        self.tail_width = width * 2.0 ** (-levels)


def _tail_stats(increments):
    """Tail statistics of every ladder of every row in one vectorised pass.

    increments has shape (rows, ladders, levels). Returns five
    (rows, ladders) arrays: the total of the increments, the largest of
    the last seven, the mean ratio rbar of successive ones among those,
    the largest deviation of such a ratio from rbar, and the geometric
    tail past the last level. Entries that the classification in
    GradedGrid.integrals never reaches (ratios of an overflowing ladder,
    say) may be inf or nan.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        totals = np.cumsum(increments, axis=2)[:, :, -1]
        last = increments[:, :, -7:]
        ratios = last[:, :, 1:] / np.maximum(last[:, :, :-1], 1e-300)
        rbar = ratios.sum(axis=2) / ratios.shape[2]
        scatter = np.abs(ratios - rbar[:, :, None]).max(axis=2)
        tail = increments[:, :, -1] * rbar / (1.0 - rbar)
    return totals, last.max(axis=2), rbar, scatter, tail


# why a row fails to converge, by its code from GradedGrid.integrals
FAILURES = (
    None,
    "graded-panel increments are not settling into a geometric tail",
    "unexpected slow decay at a regular endpoint",
)
_DIVERGENT = len(FAILURES)


class GradedGrid:
    """Quadrature grid for directional integrals against a slice marginal.

    Works in the distance variable s = vbar - t >= 0 so kernels singular
    at the support edge are evaluated without cancellation. The domain
    (s_min=0, s_max] is split at marginal breakpoints, and each segment
    carries two graded ladders meeting at its midpoint.

    Parameters
    ----------
    s_break : increasing array of segment edges in s, starting at 0.0
        (the singular end) and ending at s_max = vbar - t_min.
    marginal : vectorized callable s -> mbar(vbar - s) >= 0.
    vbar : support function value in the grid's direction.
    """

    def __init__(self, s_break, marginal, vbar, levels=LADDER_LEVELS, order=LADDER_ORDER):
        s_break = np.asarray(s_break, dtype=float)
        if s_break[0] != 0.0 or np.any(np.diff(s_break) <= 0):
            raise ValueError("segment edges must increase from 0")
        self.vbar = float(vbar)
        self.ladders = []
        for lo, hi in zip(s_break[:-1], s_break[1:]):
            half = 0.5 * (hi - lo)
            self.ladders.append(_Ladder(lo, half, "down", levels, order))
            self.ladders.append(_Ladder(hi, half, "up", levels, order))
        # innermost panel scale of the singular-end ladder; offsets below
        # ~2^7 of this are indistinguishable from 0 on the grid
        self.edge_tail = self.ladders[0].tail_width
        self.s = np.concatenate([lad.s for lad in self.ladders])
        m = np.asarray(marginal(self.s), dtype=float)
        if m.shape != self.s.shape:
            raise ValueError("marginal must map s-array to same-shape array")
        self.w = np.concatenate([lad.w for lad in self.ladders]) * m
        # every ladder has the same levels x order nodes, level-major
        self._shape = (len(self.ladders), levels, order)
        self._singular = np.array([lad.s0 == 0.0 for lad in self.ladders])

    def integrals(self, y):
        """Integrals of the rows of y, kernel values times the weights w.

        y has shape (rows, nodes). Each ladder's tail is classified, in
        ladder order, and the first ladder that diverges or fails to
        settle decides its row's result. Returns (total, fail): total is
        +inf for a divergent row, and fail holds a nonzero code, an index
        into FAILURES, for a row whose increments do not converge. A
        row's result does not depend on the other rows.
        """
        part, big, rbar, scatter, tail = _tail_stats(y.reshape((-1,) + self._shape).sum(axis=3))
        with np.errstate(invalid="ignore"):
            # a positive ladder whose tail is not negligible is classified
            judged = ~(part <= 0.0) & ~(big <= 1e-15 * part)
            code = np.select(
                [
                    part > DIVERGENCE_CAP,
                    judged & self._singular & (rbar >= DIVERGENCE_RATIO),
                    judged & (scatter > RATIO_SCATTER_TOL * np.maximum(rbar, _TAIL_RATIO_FLOOR)),
                    # non-singular ladders never see singular kernels; a fat
                    # tail here means the integrand misbehaves at a
                    # supposedly regular endpoint
                    judged & (rbar >= DIVERGENCE_RATIO),
                ],
                [_DIVERGENT, _DIVERGENT, 1, 2],
                0,
            )
            add = np.where(part <= 0.0, 0.0, part)
            add = np.where(judged & (rbar > _TAIL_RATIO_FLOOR), part + tail, add)
        # summed in ladder order; the first ladder with a code decides
        total = np.cumsum(add, axis=1)[:, -1]
        code = code[np.arange(code.shape[0]), np.argmax(code > 0, axis=1)]
        total[code == _DIVERGENT] = np.inf
        return total, np.where(code == _DIVERGENT, 0, code)

    def kernel_integral(self, kernel):
        """Integrate kernel(s) * mbar against the grid.

        kernel must be vectorized and nonnegative on s > 0. Returns +inf
        when the increments toward s = 0 classify as divergent.
        """
        total, fail = self.integrals((kernel(self.s) * self.w)[None, :])
        if fail[0]:
            raise QuadratureNotConverged(FAILURES[fail[0]])
        return float(total[0])

    def power_kernel(self, d, beta, power):
        """Integral of 1/(d + beta*s)^power against the marginal.

        Covers the single directional integrals of the dispersion
        machinery: l (d=0, beta=1, power=1), j (d=0, beta=1, power=2),
        the wave-profile mass (power=1) and the derivative integral
        (power=2). The H solver evaluates the implicit relation itself
        for many frequencies at once, through integrals.
        """
        if power == 1:
            return self.kernel_integral(lambda s: 1.0 / (d + beta * s))
        if power == 2:
            return self.kernel_integral(lambda s: 1.0 / (d + beta * s) ** 2)
        return self.kernel_integral(lambda s: (d + beta * s) ** (-power))

    @cached_property
    def l(self):
        """l: integral of 1/s against the marginal, computed once; +inf when divergent."""
        return self.power_kernel(0.0, 1.0, 1)

    @cached_property
    def j(self):
        """j: integral of 1/s^2 against the marginal, computed once; +inf when divergent."""
        return self.power_kernel(0.0, 1.0, 2)
