"""Reference implementations that the package no longer carries, kept as
test oracles: the discrete Galilean boost of a trajectory set, gathered
copy by copy, the odd-reflection test of one trajectory, its flip
gathered and summed over the whole field, the weak-form assembly as it
was before the boosted grid and the field buffers (one grid kind, fresh
fields per trajectory), and the assembly as it was before a large
trajectory was split into halves (each trajectory one task of all its
rows)."""

from unittest import mock

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from eqod import weakform
from eqod.core import Trajectory, TrajectorySet
from eqod.spectral import spectrum_derivatives
from eqod.symmetry import REFLECTION_THRESHOLD, DetectorResult
from eqod.weakform import WeakSystem, _bump_matrices


def galilean_boost(trajset, c):
    """Discrete boost u -> u + c, x -> x + c t.

    Each time slice is circularly shifted by the nearest whole number of
    grid cells (ties to even), then offset by c. One flat index into the
    raveled (nt, nx) field shifts every slice of a trajectory in one
    gather: row i of it is i*nx + (arange(nx) - shift_i) % nx, read as the
    length-nx window of arange(nx) repeated twice that starts at
    -shift_i % nx.
    """
    g = trajset.grid
    shift = np.rint(c * g.t / g.dx).astype(np.int64)
    flat = sliding_window_view(np.tile(np.arange(g.nx), 2), g.nx)[-shift % g.nx]
    flat += g.nx * np.arange(g.nt)[:, None]
    flat = flat.ravel()
    boosted = []
    for tr in trajset:
        values = tr.values.ravel().take(flat).reshape(g.nt, g.nx)
        values += c
        boosted.append(Trajectory(g, values))
    return TrajectorySet(tuple(boosted))


def detect_reflection(traj):
    """Odd parity of the full space-time field about the domain origin.

    The flip maps grid index j to (nx - j) mod nx; the score is
    ||U + U_flip||^2 / ||U||^2, and a zero field raises. The flip is
    gathered once and summed and squared in place, so the score needs
    one full-size temporary.
    """
    u = traj.values
    norm = float(np.sum(u**2))
    if norm == 0:
        raise ValueError("zero field")
    s = u.take(-np.arange(u.shape[1]) % u.shape[1], axis=1)
    s += u
    s *= s
    score = float(np.sum(s) / norm)
    return DetectorResult(score < REFLECTION_THRESHOLD, score)


def plain_fields(traj, terms, u_hat=None):
    """Each term's field by its own chain of fresh products, as
    the package formed them before the field buffers."""
    g = traj.grid
    u_hat = np.fft.rfft(traj.values) if u_hat is None else u_hat
    orders = sorted({d for term in terms for d, p in enumerate(term.powers) if d and p})
    derivs = dict(zip(orders, spectrum_derivatives(u_hat, orders, g.nx, g.length))) if orders else {}
    derivs[0] = traj.values
    for term in terms:
        out = None
        for d, p in enumerate(term.powers):
            for _ in range(p):
                out = derivs[d] if out is None else out * derivs[d]
        yield out


def plain_assemble(trajset, spec, *grids):
    """``assemble`` on plain test grids, as the package formed it before
    the boosted grid: the systems it gives must stay bitwise these."""
    grid = trajset.grid
    bumps = [_bump_matrices(grid, tg) for tg in grids]
    dxdt = grid.dx * grid.dt
    singles = [(k, term.derivative_order) for k, term in enumerate(spec.terms) if term.power == 1]
    orders = sorted({d for _, d in singles if d})
    products = [(k, term) for k, term in enumerate(spec.terms) if term.power > 1]
    thetas = [np.empty((len(trajset) * tg.n_centers, len(spec))) for tg in grids]
    bs = [np.empty(len(trajset) * tg.n_centers) for tg in grids]
    for m, traj in enumerate(trajset):
        u = traj.values
        u_hat = np.fft.rfft(u)
        rows = [slice(m * tg.n_centers, (m + 1) * tg.n_centers) for tg in grids]
        for (phi_t, dphi_t, phi_x), theta, b, r in zip(bumps, thetas, bs, rows):
            b[r] = -dxdt * (dphi_t @ u @ phi_x.T).ravel()
            c_hat = (phi_t @ u_hat.view(float)).view(complex)
            contracted = dict(zip(orders, spectrum_derivatives(c_hat, orders, grid.nx, grid.length)))
            contracted[0] = phi_t @ u
            for k, d in singles:
                theta[r, k] = dxdt * (contracted[d] @ phi_x.T).ravel()
        for (k, _), field in zip(products, plain_fields(traj, [term for _, term in products], u_hat)):
            for (phi_t, _, phi_x), theta, r in zip(bumps, thetas, rows):
                theta[r, k] = dxdt * (phi_t @ field @ phi_x.T).ravel()
    return tuple(WeakSystem(theta, b, spec, tg) for tg, theta, b in zip(grids, thetas, bs))


def unsplit_assemble(trajset, spec, *grids):
    """``assemble`` with every trajectory one task of all its rows, at any
    size: the pass below the size rule, whose arithmetic (t-first
    contractions over the whole record, no sums of parts) the package
    used at every size before it split large trajectories into halves."""
    with mock.patch.object(weakform, "_THREADED_CELLS", float("inf")):
        return weakform.assemble(trajset, spec, *grids)
