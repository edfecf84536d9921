"""Weak-form linear systems built from compactly supported bump test functions.

Each test function is a tensor product of 1D bumps centered on a margin-
shrunk grid of (t_c, x_c) points, so every weak-form integral separates:
with dense bump matrices Phi_t (t-centers x nt) and Phi_x (x-centers x
nx), zero outside each bump's support, a library field F contributes the
column dx*dt * Phi_t F Phi_x^T over all centers at once. The time
derivative is moved onto the test function analytically, so the response
vector never differentiates the data in time.

Derivatives are taken after the time contraction wherever the term
allows: a single-derivative column (u_x, ..., u_xxxx) is differentiated
from Phi_t rfft(u), a few rows of modes per grid, since the t-contraction
commutes with the x-derivative. Only product terms need pointwise
derivative fields. One ``assemble`` call serves any number of test grids:
each trajectory's spectrum and product fields are formed once and
contracted on every grid, so the identification and stability systems
share one field pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid1D, TrajectorySet
from .oplib import LibrarySpec, term_fields
from .spectral import spectrum_derivatives

__all__ = [
    "bump",
    "bump_dt",
    "TestGrid",
    "make_test_grid",
    "IDENTIFY_GRID",
    "WeakSystem",
    "assemble",
]

MARGIN = 1.05  # center-to-boundary clearance, in radii
RADIUS_CELLS = 8  # floor of each bump radius, in grid cells

IDENTIFY_GRID = (5, 7)  # test-function density of the identification stage


def bump(r) -> np.ndarray:
    """C-infinity bump profile exp(-1/(1-r^2)) on |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out if out.ndim else float(out)


def bump_dt(r) -> np.ndarray:
    """Analytic derivative of the bump profile: -2r/(1-r^2)^2 * bump(r)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    ri = r[inside]
    out[inside] = -2.0 * ri / (1.0 - ri**2) ** 2 * np.exp(-1.0 / (1.0 - ri**2))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TestGrid:
    """Bump centers and radii for one weak-form assembly."""

    t_centers: np.ndarray
    x_centers: np.ndarray
    r_t: float
    r_x: float

    @property
    def n_centers(self) -> int:
        return len(self.t_centers) * len(self.x_centers)


def make_test_grid(grid: Grid1D, n_t: int, n_x: int) -> TestGrid:
    """Place n_t x n_x bump centers with boundary margins.

    Radii: r_t = max(0.18 * T_range, RADIUS_CELLS dt) and r_x =
    max(0.20 * X_range, RADIUS_CELLS dx). Centers are inclusive
    linspaces over the margin-shrunk intervals, which are nonempty iff
    an axis spans more than 2 * MARGIN * RADIUS_CELLS = 16.8 cells:
    nt >= 18 and nx >= 17, so nx >= 18 for a Grid1D.
    """
    if n_t < 1 or n_x < 1:
        raise ValueError(f"need at least one test-function center per axis, got {n_t} x {n_x}")
    t_range = grid.t_end - grid.t_start
    r_t = max(0.18 * t_range, RADIUS_CELLS * grid.dt)
    r_x = max(0.20 * grid.length, RADIUS_CELLS * grid.dx)
    t_lo, t_hi = grid.t_start + MARGIN * r_t, grid.t_end - MARGIN * r_t
    x_lo, x_hi = grid.x0 + MARGIN * r_x, grid.x0 + grid.length - MARGIN * r_x
    cells = int(2 * MARGIN * RADIUS_CELLS) + 1  # the fewest cells an axis may span
    axes = (("nt", grid.nt, cells + 1, t_lo, t_hi), ("nx", grid.nx, cells + cells % 2, x_lo, x_hi))
    short = [f"{axis} >= {need} (got {n})" for axis, n, need, lo, hi in axes if lo >= hi]
    if short:
        raise ValueError(f"grid too small for test-function margins; need {' and '.join(short)}")
    return TestGrid(np.linspace(t_lo, t_hi, n_t), np.linspace(x_lo, x_hi, n_x), r_t, r_x)


@dataclass(frozen=True)
class WeakSystem:
    """Design matrix and response of a weak-form system, with its test grid.

    Rows run trajectory-major, then t-center-major: with n_x =
    len(test_grid.x_centers), row r comes from trajectory r // n_centers,
    t-center (r % n_centers) // n_x and x-center r % n_x.
    """

    theta: np.ndarray
    b: np.ndarray
    spec: LibrarySpec
    test_grid: TestGrid

    @property
    def shape(self):
        return self.theta.shape

    def restricted(self, spec: LibrarySpec) -> "WeakSystem":
        """Column subset for a sub-library, preserving rows."""
        cols = [self.spec.index(t) for t in spec.terms]
        return WeakSystem(self.theta[:, cols], self.b, spec, self.test_grid)


def _bump_matrices(grid: Grid1D, tg: TestGrid):
    """Dense, zero-padded (Phi_t, dPhi_t/dt, Phi_x) of one test grid."""
    if tg.r_t < 2 * grid.dt or tg.r_x < 2 * grid.dx:
        raise ValueError("test-function radius below two grid cells")
    rt = (grid.t[None, :] - tg.t_centers[:, None]) / tg.r_t
    phi_x = bump((grid.x[None, :] - tg.x_centers[:, None]) / tg.r_x)
    return bump(rt), bump_dt(rt) / tg.r_t, phi_x


def assemble(trajset: TrajectorySet, spec: LibrarySpec, *grids: TestGrid) -> tuple[WeakSystem, ...]:
    """Build the weak-form system (Theta, b) of a trajectory set on each test grid.

    Per trajectory and bump center, one row with b = -integral of
    u * dphi/dt and Theta_k = integral of theta_k(u) * phi, both by the
    trapezoidal rule (the bumps vanish at the ends of their supports).
    Each is a separable contraction with the dense, zero-padded bump
    matrices, built once per grid and call: b = -dx*dt * dPhi_t u Phi_x^T
    and Theta_k = dx*dt * Phi_t F_k Phi_x^T, raveled t-major. The x-axis
    is periodic, but the center margins keep every bump inside one
    period, so no support wraps.

    A single-derivative term (one factor d^d u/dx^d, power 1) is
    differentiated after the time contraction: Phi_t acts on t and the
    Fourier derivative on x, so Phi_t d^d u = d^d (Phi_t u), and the rows
    Phi_t u have the spectrum Phi_t u_hat, u_hat = rfft(u). Each grid
    contracts u_hat once, and each order is then one small ``irfft`` of
    (Phi_t u_hat) (ik)^d, contracted with Phi_x^T. The spectrum is
    contracted, not u: then each mode keeps its own relative accuracy,
    while the rounding of Phi_t u at the high modes is amplified by k^d
    (on clean burgers, u_xxxx from rfft(Phi_t u) is off by 1.1e-12 of the
    integral's scale, from Phi_t u_hat by 6e-15). The column of u itself
    is (Phi_t u) Phi_x^T. Product terms keep their pointwise fields
    (``term_fields``), whose derivative fields come from the same u_hat,
    for the orders some product needs. So a trajectory makes one
    full-size ``rfft`` and one full-size ``irfft`` per order a product
    needs: 1 + 2 for the standard library, which holds GALILEAN_BASIS,
    and 1 + 1 for GALILEAN_BASIS.

    Every grid's columns come from the trajectory's spectrum and fields
    through that grid's own matrices alone; stacking the grids' Phi_t in
    one product would not give rows bitwise equal to the separate
    products in BLAS. So every system is bitwise the one a one-grid call
    gives.

    Returns one WeakSystem per grid, in the order given, each carrying
    its grid.
    """
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
            # Phi_t is real: contract the (re, im) pairs of u_hat as one real matrix
            c_hat = (phi_t @ u_hat.view(float)).view(complex)
            contracted = dict(zip(orders, spectrum_derivatives(c_hat, orders, grid.nx, grid.length)))
            contracted[0] = phi_t @ u
            for k, d in singles:
                theta[r, k] = dxdt * (contracted[d] @ phi_x.T).ravel()
        for (k, _), field in zip(products, term_fields(traj, [term for _, term in products], u_hat)):
            for (phi_t, _, phi_x), theta, r in zip(bumps, thetas, rows):
                theta[r, k] = dxdt * (phi_t @ field @ phi_x.T).ravel()
    return tuple(WeakSystem(theta, b, spec, tg) for tg, theta, b in zip(grids, thetas, bs))
