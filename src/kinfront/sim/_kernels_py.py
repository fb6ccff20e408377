"""Numpy implementation of the Strang-split stepping kernel.

The scheme: a half step of first-order upwind transport with Dirichlet
ghost values, a full Heun step of the local reaction/relaxation term,
another transport half step, then a clamp to [0, 1] that reports the worst
excess and the number of clamped entries. The arithmetic is regrouped for
vectorisation, so it agrees with a plain per-row loop over the same scheme
to roundoff, not bit for bit.

A run builds one `StepPlan` and passes it to `strang_step` on every step.
The plan holds everything that does not change between steps: the checked
ascending speeds, the row chunks with their Courant columns, a chunk-sized
scratch array, and six length-nx buffers for the density and the Heun
coefficients, so a step allocates no temporaries.

Block layout: the rows of g (velocity nodes) must come in ascending order of
speed, so the rows of negative, zero and positive speed form three
contiguous row blocks. Each block is swept in chunks of whole rows of about
_CHUNK_CELLS cells, which stay resident in L2 cache while the chunk is
worked on. A chunk of C-contiguous rows is one flat array: its upwind
differences are one shifted subtraction into the plan's scratch, after
which the ghost column (first column for positive speeds, last for negative)
is set from the boundary value. The ghosts are fixed: LEFT_GHOST = 1 is the
saturated state behind the front, RIGHT_GHOST = 0 the empty state ahead of
it.

The Heun step is linear in g at fixed rho, so it collapses to one per-column
update g <- g (1 - hQ) + hP, with hQ and hP built from rho alone (the
predictor density rho1 follows from rho in closed form). hQ and hP are
evaluated by the same expressions on equal inputs wherever rho == 1, so with
unit total mass g == 1 and g == 0 stay exact fixed points.

The clamp scan (a max and a min over each chunk) is skipped when it provably
finds nothing. In floating point an upwind update g - nu (g - g') with
|nu| <= 1/2 lies between g and g' (or the ghost value), and the reaction
g keep + hP is monotone in g. Both ghosts lie in [0, 1], so when every
|nu| <= 1/2 and keep >= 0, hP >= 0 and fl(keep + hP) <= 1 in every column
(checked on those length-nx vectors), a step maps [0, 1] into itself. Every step leaves g in [0, 1],
clamped or proven, so from its second step on a plan knows that g entered
the step in [0, 1]; its first step always scans. Between steps, any write
to g must keep it in [0, 1].
"""

import numpy as np

_CHUNK_CELLS = 1 << 16  # 512 KiB of float64 per chunk, plus as much scratch
# ghost values: saturated behind the front (left), empty ahead of it (right)
LEFT_GHOST = 1.0
RIGHT_GHOST = 0.0


class StepPlan:
    """What every step of one run shares: chunks, scratch and counters.

    nu_half (per-row Courant numbers of the half step) must be ascending;
    a ValueError is raised otherwise. masses are the per-row weights of
    rho = masses @ g, r the growth rate, dt the step, nx the number of
    columns of g.
    steps counts the steps taken, clamp_scans those that ran the clamp scan.
    """

    def __init__(self, nu_half, masses, r, dt, nx):
        if np.any(nu_half[1:] < nu_half[:-1]):
            raise ValueError("nu_half must be in ascending order of speed")
        self.masses = masses
        self.mass_total = masses.sum()
        self.r = r
        self.dt = dt
        n_neg = int(np.searchsorted(nu_half, 0.0, "left"))
        n_pos = int(np.searchsorted(nu_half, 0.0, "right"))
        rows = max(1, _CHUNK_CELLS // nx)
        # one chunk-sized scratch for the upwind differences; each chunk
        # starts its differences where the shifted subtraction's output
        # (d[1:] for positive speeds, d[:-1] for negative) lies on a 64-byte
        # boundary, which numpy's SIMD loops write faster
        scratch = np.empty(min(rows, nu_half.size) * nx + 8)
        base = scratch.ctypes.data // 8
        # (start, stop, sign, Courant column, flat and 2-D difference views)
        # of the negative, zero and positive blocks' row chunks
        self.chunks = []
        for lo, hi, sign in ((0, n_neg, -1), (n_neg, n_pos, 0), (n_pos, nu_half.size, 1)):
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                o = (-base - (sign > 0)) % 8
                d = scratch[o : o + (b - a) * nx]
                self.chunks.append((a, b, sign, nu_half[a:b, None], d, d.reshape(b - a, nx)))
        self.rho, self.rho1, self.hq1, self.hp1, self.hq2, self.hp2 = np.empty((6, nx))
        # the part of the [0, 1] proof that does not change between steps
        self.transport_bounded = float(np.abs(nu_half).max()) <= 0.5
        self.entry_bounded = False  # g known to lie in [0, 1] on entry
        self.steps = 0
        self.clamp_scans = 0


def _upwind(block, d, d2, nu, sign):
    """One upwind half step, in place, on a block of rows sharing a speed
    sign, with its differences in the flat scratch view d (d2 in 2-D)."""
    flat = block.reshape(-1)
    if sign > 0:
        np.subtract(flat[1:], flat[:-1], out=d[1:])
        np.subtract(block[:, 0], LEFT_GHOST, out=d2[:, 0])
    else:
        np.subtract(flat[1:], flat[:-1], out=d[:-1])
        np.subtract(RIGHT_GHOST, block[:, -1], out=d2[:, -1])
    d2 *= nu
    block -= d2


def strang_step(g, plan):
    """Advance g (shape (nv, nx)) by one full step of plan.dt, in place.

    plan is the run's StepPlan. g must lie in [0, 1] whenever it enters a
    step after the plan's first (see the module docstring).
    Returns (max_clamp_excess, n_clamped).
    """
    masses = plan.masses
    rho, rho1, hq1, hp1, hq2, hp2 = plan.rho, plan.rho1, plan.hq1, plan.hp1, plan.hq2, plan.hp2
    r, dt = plan.r, plan.dt

    # first transport half step, accumulating rho = masses @ g per chunk
    rho.fill(0.0)
    for a, b, sign, nu, d, d2 in plan.chunks:
        block = g[a:b]
        if sign:
            _upwind(block, d, d2, nu, sign)
        np.matmul(masses[a:b], block, out=rho1)
        rho += rho1

    # Heun: k = P - Q g with P = (1+r) rho, Q = 1 + r rho; the predictor
    # g1 = g + dt k1 has density rho1 = rho + dt (P1 sum(masses) - Q1 rho).
    # The plan's buffers take each formula's operations in its written
    # order (dt (1 + r rho) is r rho, then + 1, then * dt), so they round
    # as the formulas do.
    np.multiply(rho, r, out=hq1)
    hq1 += 1.0
    hq1 *= dt
    np.multiply(rho, 1.0 + r, out=hp1)
    hp1 *= dt
    np.multiply(hp1, plan.mass_total, out=rho1)
    np.multiply(hq1, rho, out=hq2)
    rho1 -= hq2
    rho1 += rho
    np.multiply(rho1, r, out=hq2)
    hq2 += 1.0
    hq2 *= dt
    np.multiply(rho1, 1.0 + r, out=hp2)
    hp2 *= dt
    # g <- (g + g1 + dt k2) / 2 = g (1 - hQ) + hP with
    # hP = (hp1 + hp2 - hp1 hq2) / 2 and 1 - hQ = 1 - (hq1 + hq2 - hq1 hq2) / 2
    hp = hp2
    np.multiply(hp1, hq2, out=rho1)
    hp += hp1
    hp -= rho1
    hp *= 0.5
    keep = hq2
    np.multiply(hq1, hq2, out=rho1)
    keep += hq1
    keep -= rho1
    keep *= 0.5
    np.subtract(1.0, keep, out=keep)

    scan = not (plan.entry_bounded and plan.transport_bounded
                and float(keep.min()) >= 0.0 and float(hp.min()) >= 0.0
                and float(np.add(keep, hp, out=rho1).max()) <= 1.0)
    plan.steps += 1
    plan.clamp_scans += scan
    plan.entry_bounded = True  # the step leaves g in [0, 1], proven or clamped

    # reaction and second transport half step, tracking the extremes per
    # chunk unless the step provably keeps g in [0, 1]
    hi, lo = 0.0, 1.0
    for a, b, sign, nu, d, d2 in plan.chunks:
        block = g[a:b]
        block *= keep
        block += hp
        if sign:
            _upwind(block, d, d2, nu, sign)
        if scan:
            hi = max(hi, float(block.max()))
            lo = min(lo, float(block.min()))

    if hi <= 1.0 and lo >= 0.0:
        return 0.0, 0
    n_clamped = int(np.count_nonzero(g > 1.0) + np.count_nonzero(g < 0.0))
    np.clip(g, 0.0, 1.0, out=g)
    return max(hi - 1.0, -lo), n_clamped
