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
derivative fields, which one ``oplib.FieldPass`` per call forms in reused
buffers and hands over as (term, field) pairs, each going to its term's
column. One ``assemble`` call serves any number of test grids: each
trajectory's spectrum and product fields are formed once (1 full-size
``rfft``, and 1 full-size ``irfft`` per derivative order a product
needs) and contracted on every grid, so the identification and
stability systems share one field pass.

A ``BoostedGrid`` is a test grid read on the Galilean boost of the data,
u -> u + c with each time row t rolled by s_t = rint(c t / dx) whole
cells. It is served by the same pass with no transform of its own: the
test functions move by -s_t instead of the data by +s_t (the nx-th
roots of unity on each row of the spectrum before its one time
contraction, and a view of [Phi_x Phi_x] per run of rows with one shift
for the product fields), and the offset c enters by the binomial
expansion of (u + c)^p over the pass's own product fields. It adds no
failure path that its test grid lacks, except that an expansion needing
a product the library does not hold is rejected before any transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, LibraryTerm, TrajectorySet, as_index
from .oplib import FieldPass, LibrarySpec
from .spectral import spectrum_derivatives

__all__ = [
    "bump",
    "bump_dt",
    "TestGrid",
    "BoostedGrid",
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
    n_t, n_x = as_index("n_t", n_t), as_index("n_x", n_x)
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
class BoostedGrid:
    """A test grid read on the Galilean boost of the data.

    The boost is u(x, t) -> u(x - c t, t) + c, with the shift rounded per
    time row t to s_t = rint(c t / dx) whole cells (ties to even): row t
    of the boosted field is row t of u rolled by s_t, plus c. ``assemble``
    gives the system of the boosted data on ``test_grid`` for the terms of
    ``spec``, from the field pass of the data itself (see ``assemble``).
    """

    test_grid: TestGrid
    c: float
    spec: LibrarySpec

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"boost must be finite, got {self.c}")

    @property
    def n_centers(self) -> int:
        return self.test_grid.n_centers


@dataclass(frozen=True)
class WeakSystem:
    """Design matrix and response of a weak-form system, with its test grid.

    Rows run trajectory-major, then t-center-major: with n_x =
    len(test_grid.x_centers), row r comes from trajectory r // n_centers,
    t-center (r % n_centers) // n_x and x-center r % n_x. The system of
    boosted data carries its BoostedGrid, whose rows are those of the
    underlying test grid.
    """

    theta: np.ndarray
    b: np.ndarray
    spec: LibrarySpec
    test_grid: TestGrid | BoostedGrid

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


class _Boost:
    """One BoostedGrid's share of an assembly: the data's own spectrum and
    product fields, contracted with test functions that move with the
    boost (see ``assemble``). Moving the test functions of row t by -s_t
    is rolling the data by +s_t. The spectrum takes per-row phases and
    one contraction per trajectory; runs of rows with one shift serve
    only to window Phi_x for the product fields."""

    def __init__(self, bg: BoostedGrid, spec: LibrarySpec, grid: Grid1D, bumps):
        products = {t for t in spec.terms if t.power > 1}
        # Per boosted term, its expansion [(coefficient, key)]: key None is
        # the constant, an int a single-derivative order, a term a product.
        self.expansions = []
        for term in bg.spec.terms:
            p0, rest = term.powers[0], term.powers[1:]
            expansion = []
            for j in range(p0 + 1):
                powers = (j, *rest)
                key = None if sum(powers) == 0 else LibraryTerm(powers)
                if key is not None and key.power == 1:
                    key = key.derivative_order
                elif key is not None and key not in products:
                    raise ValueError(
                        f"boosted term {term.tag} needs the field of {key.tag}, which the assembled library does not form"
                    )
                expansion.append((math.comb(p0, j) * bg.c ** (p0 - j), key))
            self.expansions.append(expansion)
        keys = {key for expansion in self.expansions for _, key in expansion}
        self.orders = sorted(k for k in keys if isinstance(k, int))
        self.products = {k for k in keys if isinstance(k, LibraryTerm)}

        nx = grid.nx
        shift = np.rint(bg.c * grid.t / grid.dx).astype(np.int64) % nx
        phi_t, dphi_t, phi_x = bumps
        # The phases e^(-2 pi i k s / nx) of each distinct shift s, gathered
        # per row by s_t for each trajectory: a full (nt, nx/2+1) table would
        # stay live through the whole pass (4 MB at 1024 x 512). Per run of
        # rows with one shift, its window of Phi_x (a view).
        roots = np.exp(-2j * np.pi * np.arange(nx) / nx)
        distinct, self.which = np.unique(shift, return_inverse=True)
        self.phases = roots[np.outer(distinct, np.arange(nx // 2 + 1)) % nx]
        starts = np.flatnonzero(np.diff(shift, prepend=-1))
        phi_xx = np.hstack((phi_x, phi_x))
        self.windows = [(slice(a, z), phi_xx[:, shift[a] : shift[a] + nx].T) for a, z in zip(starts, [*starts[1:], None])]
        self.phi_tt = np.vstack((phi_t, dphi_t))
        self.phi_t, self.phi_x, self.grid = phi_t, phi_x, grid
        self.b_offset = bg.c * np.outer(dphi_t.sum(axis=1), phi_x.sum(axis=1))
        self.mats = {None: np.outer(phi_t.sum(axis=1), phi_x.sum(axis=1))}

    def spectrum(self, u_hat):
        """Contract one trajectory's spectrum: its single-derivative columns and b."""
        g = self.grid
        # Phi_t is real: contract the (re, im) pairs of the phased u_hat as one real matrix
        c_hat = (self.phi_tt @ (u_hat * self.phases[self.which]).view(float)).view(complex)
        c_t, c_b = np.split(c_hat, 2)
        # order 0 multiplies by (ik)^0 = 1, exactly: the irfft of c_t itself
        for d, f in zip(self.orders, spectrum_derivatives(c_t, self.orders, g.nx, g.length)):
            self.mats[d] = f @ self.phi_x.T
        self.b = -(np.fft.irfft(c_b, n=g.nx) @ self.phi_x.T + self.b_offset)

    def field(self, term: LibraryTerm, field):
        """Contract one product field, if an expansion uses it."""
        if term in self.products:
            self.mats[term] = self.phi_t @ np.vstack([field[rows] @ window for rows, window in self.windows])

    def write(self, theta, b, dxdt: float):
        """One trajectory's rows of the boosted system."""
        for k, expansion in enumerate(self.expansions):
            theta[:, k] = dxdt * sum(coef * self.mats[key] for coef, key in expansion).ravel()
        b[:] = dxdt * self.b.ravel()


def assemble(trajset: TrajectorySet, spec: LibrarySpec, *grids: TestGrid | BoostedGrid) -> tuple[WeakSystem, ...]:
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
    is (Phi_t u) Phi_x^T. Product terms keep their pointwise fields, from
    one ``FieldPass`` per call whose buffers every trajectory reuses and
    whose derivative fields come from the same u_hat, for the orders some
    product needs. The pass yields (term, field) pairs in its own chain
    order, and each field is contracted into its term's column. So a
    trajectory makes one full-size ``rfft`` and one full-size ``irfft``
    per order a product needs: 1 + 2 for the standard library, which
    holds GALILEAN_BASIS.

    A BoostedGrid adds no transform: its system, that of the boosted data
    (see BoostedGrid) on its test grid for its own terms, is contracted
    from the same u_hat and product fields with moving test functions.
    Row t's shift s_t = rint(c t / dx) mod nx is undone in two ways. Row
    t of u_hat is phased by e^(-2 pi i k s_t / nx), the phases being made
    once per call and distinct shift, and each trajectory's phased
    spectrum is contracted once with [Phi_t; dPhi_t] before the
    single-derivative columns and b are formed. A product field is read
    with Phi_x from s_t on: each run of rows with one s_t is multiplied
    by the view [Phi_x Phi_x][:, s:s+nx], and Phi_t contracts the stacked
    runs. The offset c enters by the binomial expansion of (u + c)^p
    times the term's derivative factors: (u + c) u_x = u u_x + c u_x,
    (u + c)^2 = u^2 + 2 c u + c^2, and so on, the constant's column being
    outer(Phi_t 1, Phi_x 1). It matches the assembly of the
    gathered boost to rounding (within 1.7e-12 of each column's largest
    entry on the eight laws). It adds no failure path that its test grid
    lacks, except that every product of an expansion must be a term of
    ``spec``: one that is not raises ValueError, naming the boosted term,
    before any transform.

    Every grid's columns come from the trajectory's spectrum and fields
    through that grid's own matrices alone; stacking the grids' Phi_t in
    one product would not give rows bitwise equal to the separate
    products in BLAS. So every TestGrid's system is bitwise the one a
    one-grid call gives.

    Returns one WeakSystem per grid, in the order given, each carrying
    its grid.
    """
    grid = trajset.grid
    test_grids = [g.test_grid if isinstance(g, BoostedGrid) else g for g in grids]
    bumps = [_bump_matrices(grid, tg) for tg in test_grids]
    boosts = {i: _Boost(g, spec, grid, bumps[i]) for i, g in enumerate(grids) if isinstance(g, BoostedGrid)}
    dxdt = grid.dx * grid.dt
    singles = [(k, term.derivative_order) for k, term in enumerate(spec.terms) if term.power == 1]
    orders = sorted({d for _, d in singles if d})
    products = {term: k for k, term in enumerate(spec.terms) if term.power > 1}
    specs = [g.spec if i in boosts else spec for i, g in enumerate(grids)]
    thetas = [np.empty((len(trajset) * tg.n_centers, len(s))) for tg, s in zip(test_grids, specs)]
    bs = [np.empty(len(trajset) * tg.n_centers) for tg in test_grids]
    fields = FieldPass(products, grid)
    for m, traj in enumerate(trajset):
        u = traj.values
        u_hat = np.fft.rfft(u)
        rows = [slice(m * tg.n_centers, (m + 1) * tg.n_centers) for tg in test_grids]
        for i, ((phi_t, dphi_t, phi_x), theta, b, r) in enumerate(zip(bumps, thetas, bs, rows)):
            if i in boosts:
                boosts[i].spectrum(u_hat)
                continue
            b[r] = -dxdt * (dphi_t @ u @ phi_x.T).ravel()
            # Phi_t is real: contract the (re, im) pairs of u_hat as one real matrix
            c_hat = (phi_t @ u_hat.view(float)).view(complex)
            contracted = dict(zip(orders, spectrum_derivatives(c_hat, orders, grid.nx, grid.length)))
            contracted[0] = phi_t @ u
            for k, d in singles:
                theta[r, k] = dxdt * (contracted[d] @ phi_x.T).ravel()
        for term, field in fields(traj, u_hat):
            for i, ((phi_t, _, phi_x), theta, r) in enumerate(zip(bumps, thetas, rows)):
                if i in boosts:
                    boosts[i].field(term, field)
                else:
                    theta[r, products[term]] = dxdt * (phi_t @ field @ phi_x.T).ravel()
        for i, boost in boosts.items():
            boost.write(thetas[i][rows[i]], bs[i][rows[i]], dxdt)
    return tuple(WeakSystem(theta, b, s, g) for g, s, theta, b in zip(grids, specs, thetas, bs))
