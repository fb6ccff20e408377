"""Numpy implementation of the Strang-split stepping kernel.

The scheme: a half step of first-order upwind transport with Dirichlet
ghost values, a full Heun step of the local reaction/relaxation term,
another transport half step, then a clamp to [0, 1] that reports the worst
excess and the number of clamped entries. The arithmetic is regrouped for
vectorisation, so it agrees with a plain per-row loop over the same scheme
to roundoff, not bit for bit.

Block layout: the rows of g (velocity nodes) must come in ascending order of
speed, so the rows of negative, zero and positive speed form three
contiguous row blocks. Each block is swept in chunks of whole rows of about
_CHUNK_CELLS cells, which stay resident in L2 cache while the chunk is
worked on. A chunk of C-contiguous rows is one flat array: its upwind
differences are one shifted subtraction into the scratch array g1, after
which the ghost column (first column for positive speeds, last for negative)
is set from the boundary value.

The Heun step is linear in g at fixed rho, so it collapses to one per-column
update g <- g (1 - hQ) + hP, with hQ and hP built from rho alone (the
predictor density rho1 follows from rho in closed form). hQ and hP are
evaluated by the same expressions on equal inputs wherever rho == 1, so with
unit total mass g == 1 and g == 0 stay exact fixed points.
"""

import numpy as np

_CHUNK_CELLS = 1 << 16  # 512 KiB of float64 per chunk, plus as much scratch


def _chunks(nu_half, nx):
    """(start, stop, sign) row chunks of the negative, zero and positive blocks."""
    n_neg = int(np.searchsorted(nu_half, 0.0, "left"))
    n_pos = int(np.searchsorted(nu_half, 0.0, "right"))
    rows = max(1, _CHUNK_CELLS // nx)
    out = []
    for lo, hi, sign in ((0, n_neg, -1), (n_neg, n_pos, 0), (n_pos, nu_half.size, 1)):
        out.extend((a, min(a + rows, hi), sign) for a in range(lo, hi, rows))
    return out


def _upwind(block, scratch, nu, sign, left_val, right_val):
    """One upwind half step, in place, on a block of rows sharing a speed sign."""
    nb, nx = block.shape
    flat = block.reshape(-1)
    d = scratch[: nb * nx]
    d2 = d.reshape(nb, nx)
    if sign > 0:
        np.subtract(flat[1:], flat[:-1], out=d[1:])
        np.subtract(block[:, 0], left_val, out=d2[:, 0])
    else:
        np.subtract(flat[1:], flat[:-1], out=d[:-1])
        np.subtract(right_val, block[:, -1], out=d2[:, -1])
    d2 *= nu[:, None]
    block -= d2


def strang_step(g, g1, rho, rho1, nu_half, masses, r, dt, left_val, right_val):
    """Advance g (shape (nv, nx)) by one full step of size dt, in place.

    g1, rho, rho1 are scratch arrays (same shapes as g, g[0], g[0]).
    nu_half (per-row Courant numbers of the half step) must be ascending;
    a ValueError is raised otherwise.
    Returns (max_clamp_excess, n_clamped).
    """
    if np.any(nu_half[1:] < nu_half[:-1]):
        raise ValueError("nu_half must be in ascending order of speed")
    chunks = _chunks(nu_half, g.shape[1])
    scratch = g1.reshape(-1)

    # first transport half step, accumulating rho = masses @ g per chunk
    rho.fill(0.0)
    for a, b, sign in chunks:
        block = g[a:b]
        if sign:
            _upwind(block, scratch, nu_half[a:b], sign, left_val, right_val)
        np.matmul(masses[a:b], block, out=rho1)
        rho += rho1

    # Heun: k = P - Q g with P = (1+r) rho, Q = 1 + r rho; the predictor
    # g1 = g + dt k1 has density rho1 = rho + dt (P1 sum(masses) - Q1 rho)
    hq1 = dt * (1.0 + r * rho)
    hp1 = dt * ((1.0 + r) * rho)
    np.multiply(hp1, masses.sum(), out=rho1)
    rho1 -= hq1 * rho
    rho1 += rho
    hq2 = dt * (1.0 + r * rho1)
    hp2 = dt * ((1.0 + r) * rho1)
    # g <- (g + g1 + dt k2) / 2 = g (1 - hQ) + hP
    keep = 1.0 - 0.5 * (hq1 + hq2 - hq1 * hq2)
    hp = 0.5 * (hp1 + hp2 - hp1 * hq2)

    # reaction and second transport half step, tracking the extremes per chunk
    hi, lo = 0.0, 1.0
    for a, b, sign in chunks:
        block = g[a:b]
        block *= keep
        block += hp
        if sign:
            _upwind(block, scratch, nu_half[a:b], sign, left_val, right_val)
        hi = max(hi, float(block.max()))
        lo = min(lo, float(block.min()))

    if hi <= 1.0 and lo >= 0.0:
        return 0.0, 0
    n_clamped = int(np.count_nonzero(g > 1.0) + np.count_nonzero(g < 0.0))
    np.clip(g, 0.0, 1.0, out=g)
    return max(hi - 1.0, -lo), n_clamped
