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
derivative fields, which one ``oplib.FieldPass`` per worker forms in reused
buffers and hands over as (term, field) pairs. One ``assemble`` call
serves any number of test grids: each trajectory's spectrum and product
fields are formed once (1 full-size ``rfft``, and 1 full-size ``irfft``
per derivative order a product needs) and contracted on every grid, so
the identification and stability systems share one field pass.

A ``BoostedGrid`` is a test grid read on the Galilean boost of the data,
u -> u + c with each time row t rolled by s_t = rint(c t / dx) whole
cells, and a plain ``TestGrid`` is the boost at c = 0. Every grid goes
through one contraction: its test functions move by -s_t instead of the
data by +s_t, and each of its terms is the binomial expansion of
(u + c)^p over the pass's own columns. At c = 0 no row moves and each
term is its own expansion, so the arithmetic is that of the plain
contraction above. A boost adds no failure path that its test grid
lacks, except that an expansion needing a product the library does not
hold, or a c whose shifts or coefficients overflow, is rejected before
any transform.

Everything a grid's contraction reads besides the data (bump matrices,
shift windows and phases, expansion, constant column) is its plan,
which depends only on the Grid1D (and the parts of a trajectory's rows
that it sets), the boost (test grid, c and library) and the assembled
library. Test grids and boosts are immutable values, checked when made,
so these arguments are themselves the key of a memo of the last 16
plans used. Plans are read-only, so repeated calls on one
grid, as in an evaluation over seeds and noise levels, build each plan
once.

A trajectory of at least ``_THREADED_CELLS`` grid cells is two tasks,
one per half of its time rows; a smaller one is one task of all its
rows. A task's field pass is its rows' ``rfft``, their product fields
and every grid's contraction of them, Phi_t[:, rows] F W, into small
partial sums of its own, over buffers as tall as a half that belong to
one worker (``_Worker``, about 10 MiB at 1024 x 512). A task reads
shared plans and writes only its own partial sums, so tasks can run at
once; after the join the caller adds each trajectory's halves in order
and writes its rows. The halves run on min(2 M, usable CPUs) workers,
the first on the calling thread and each other on a helper thread of a
``ThreadPoolExecutor``, each pinned to its own CPU (``_run``); one part
per trajectory runs inline and loads no pool. The parts depend on the
grid alone, so every system is bitwise the one-worker system on every
host, and below the size rule, where a trajectory is one part, bitwise
the unsplit pass's.
"""

from __future__ import annotations

import functools
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import Grid1D, LibraryTerm, TrajectorySet, as_index, as_real, frozen_reals
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


# bump and bump_dt are profiles, not entries: their r comes from checked
# grids, so they cast it and check nothing.
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
    """Bump centers and radii for one weak-form assembly, as a value.

    Each axis's centers must be a nonempty 1-D array of finite real
    numbers, and each radius finite and positive (stored as a float);
    anything else raises ValueError naming the field. The centers are kept
    as read-only float64 copies (``frozen_reals``), so no write, by the
    caller or through the grid, can change a grid once it is made. Two
    test grids are equal, and hash alike, when their centers have the same
    bytes (1-D float64, so the bytes fix the shape) and their radii are
    equal: an equal grid built apart is the same key of the plan memo (see
    ``assemble``).
    """

    t_centers: np.ndarray = field(compare=False)
    x_centers: np.ndarray = field(compare=False)
    r_t: float
    r_x: float
    _centers: tuple = field(init=False, repr=False)  # the arrays' bytes, which equality reads

    def __post_init__(self):
        for name in ("t_centers", "x_centers"):
            a = frozen_reals(name, getattr(self, name))
            if a.ndim != 1 or not a.size:
                raise ValueError(f"{name} must be a nonempty 1-D array of finite real numbers, got {a!r}")
            object.__setattr__(self, name, a)
        for name in ("r_t", "r_x"):
            r = as_real(name, getattr(self, name))
            if not r > 0:
                raise ValueError(f"{name} must be finite and positive, got {r}")
            object.__setattr__(self, name, r)
        object.__setattr__(self, "_centers", (self.t_centers.tobytes(), self.x_centers.tobytes()))

    @property
    def n_centers(self) -> int:
        return len(self.t_centers) * len(self.x_centers)


def make_test_grid(grid: Grid1D, n_t: int, n_x: int) -> TestGrid:
    """Place n_t x n_x bump centers with boundary margins.

    Radii: r_t = max(0.18 * T_range, RADIUS_CELLS dt) and r_x =
    max(0.20 * X_range, RADIUS_CELLS dx). Centers are inclusive
    linspaces over the margin-shrunk intervals, which are nonempty iff
    an axis spans more than 2 * MARGIN * RADIUS_CELLS = 16.8 cells:
    nt >= 18 and nx >= 17, so nx >= 18 for a Grid1D. A grid that is not a
    Grid1D raises ValueError naming it.
    """
    if not isinstance(grid, Grid1D):
        raise ValueError(f"grid must be a Grid1D, got {type(grid).__name__}")
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
    ``spec``, from the field pass of the data itself, by the contraction
    that serves every grid (see ``assemble``); a TestGrid is the boost at
    c = 0. c is stored as a float, with -0.0 folded into 0.0, so a boost
    compares and hashes by value: equal boosts, c = 1 and c = 1.0 among
    them, are one key of the plan memo. A test_grid that is not a
    TestGrid, a spec that is not a LibrarySpec, or a c that is not a
    finite real number (``as_real``) raises ValueError naming the field.
    """

    test_grid: TestGrid
    c: float
    spec: LibrarySpec

    def __post_init__(self):
        for name, kind in (("test_grid", TestGrid), ("spec", LibrarySpec)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        # -0.0 + 0.0 is 0.0: one value, and one key, for c = 0
        object.__setattr__(self, "c", as_real("c", self.c) + 0.0)


@dataclass(frozen=True, eq=False)
class WeakSystem:
    """Design matrix and response of a weak-form system, with its test grid.

    Rows run trajectory-major, then t-center-major: with n_x =
    len(test_grid.x_centers), row r comes from trajectory r // n_centers,
    t-center (r % n_centers) // n_x and x-center r % n_x. The system of
    boosted data carries its BoostedGrid, whose rows are those of the
    underlying test grid. Systems compare and hash by identity.
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
        missing = [t.tag for t in spec.terms if t not in self.spec]
        if missing:
            raise ValueError(f"the system's library lacks {missing}")
        cols = [self.spec.index(t) for t in spec.terms]
        return WeakSystem(self.theta[:, cols], self.b, spec, self.test_grid)


def _bump_matrices(grid: Grid1D, tg: TestGrid):
    """Dense, zero-padded (Phi_t, dPhi_t/dt, Phi_x) of one test grid."""
    if tg.r_t < 2 * grid.dt or tg.r_x < 2 * grid.dx:
        raise ValueError("test-function radius below two grid cells")
    # b moves d/dt onto the bumps, which is exact only if each vanishes within the record
    first, last = tg.t_centers.min() - tg.r_t, tg.t_centers.max() + tg.r_t
    if first < grid.t_start or last > grid.t_end:
        raise ValueError(f"test-function t-supports span [{first}, {last}], which leaves the record [{grid.t_start}, {grid.t_end}]")
    rt = (grid.t[None, :] - tg.t_centers[:, None]) / tg.r_t
    phi_x = bump((grid.x[None, :] - tg.x_centers[:, None]) / tg.r_x)
    return bump(rt), bump_dt(rt) / tg.r_t, phi_x


class _Part(NamedTuple):
    """One part's share of a plan: its columns of Phi_t and dPhi_t, its
    runs of rows with one shift (rows counted from the part's first) with
    their windows of Phi_x^T, and the index of each of its rows' phases
    (None when no row moves)."""

    phi_t: np.ndarray
    dphi_t: np.ndarray
    windows: tuple
    which: np.ndarray | None


class _Plan:
    """What one grid's contraction needs besides the data: the test
    functions of ``bg`` on ``grid``, moved with its boost, cut into the
    parts of a trajectory's rows that ``bounds`` gives (see ``_bounds``),
    and the expansion of its terms over the columns an assembly of
    ``spec`` forms. Its arrays are read-only, so every call shares it (see
    ``assemble``); a TestGrid is the boost at c = 0."""

    def __init__(self, grid: Grid1D, bg: BoostedGrid, spec: LibrarySpec, bounds: tuple[int, ...]):
        # Each row's shift rint(c t / dx) must fit an int64, and (1 + |c|)^p,
        # which bounds the binomial coefficients of a term with u-power p, a float64
        reach = abs(bg.c) * max(abs(grid.t_start), abs(grid.t_end)) / grid.dx
        p_max = max(t.powers[0] for t in bg.spec.terms)
        if not reach < 2.0**63 or p_max * math.log2(1 + abs(bg.c)) >= 1024:
            raise ValueError(f"boost c = {bg.c} is too large for the grid and library: its row shifts or binomial coefficients overflow")
        products = {t for t in spec.terms if t.power > 1}
        dxdt = grid.dx * grid.dt
        # Per key, its row of dx*dt times each term's binomial coefficients:
        # key None is the constant, an int a single-derivative order (0, u's
        # own, always: it comes with b) and a term a product.
        expansion = defaultdict(lambda: np.zeros(len(bg.spec)), {0: np.zeros(len(bg.spec))})
        for k, term in enumerate(bg.spec.terms):
            p0, rest = term.powers[0], term.powers[1:]
            for j in range(p0 + 1):
                coef = math.comb(p0, j) * bg.c ** (p0 - j)
                if coef == 0:
                    continue
                key = term if j == p0 else LibraryTerm((j, *rest)) if j or any(rest) else None
                if key is not None and key.power == 1:
                    key = key.derivative_order
                elif key is not None and key not in products:
                    raise ValueError(f"boosted term {term.tag} needs the field of {key.tag}, which the assembled library does not form")
                expansion[key][k] = dxdt * coef
        self.at = MappingProxyType({key: i for i, key in enumerate(expansion)})
        self.expansion = np.array(list(expansion.values()))
        self.orders = tuple(sorted(k for k in self.at if isinstance(k, int) and k))
        self.grid, self.dxdt, self.n_rows = grid, dxdt, bg.test_grid.n_centers

        nx = grid.nx
        phi_t, dphi_t, phi_x = _bump_matrices(grid, bg.test_grid)
        shift = np.rint(bg.c * grid.t / grid.dx).astype(np.int64) % nx
        self.phases, which = None, None
        if shift.any():
            # The phases e^(-2 pi i k s / nx) of each distinct shift s, gathered
            # per row by s_t for each trajectory: a full (nt, nx/2+1) table would
            # stay live through the whole pass (4 MB at 1024 x 512).
            roots = np.exp(-2j * np.pi * np.arange(nx) / nx)
            distinct, which = np.unique(shift, return_inverse=True)
            self.phases = roots[np.outer(distinct, np.arange(nx // 2 + 1)) % nx]
            phi_xx = np.hstack((phi_x, phi_x))
        parts = []
        for a, z in zip(bounds, bounds[1:]):
            # Per run of the part's rows with one shift, its window of Phi_x:
            # Phi_x itself when no row moves, else a view of [Phi_x Phi_x]
            windows = ((slice(None), phi_x.T),)
            if which is not None:
                s = shift[a:z]
                starts = np.flatnonzero(np.diff(s, prepend=-1))
                windows = tuple((slice(i, j), phi_xx[:, s[i] : s[i] + nx].T) for i, j in zip(starts, [*starts[1:], None]))
            # one part's columns are Phi_t itself; a half's are a copy
            part_t, part_dt = np.ascontiguousarray(phi_t[:, a:z]), np.ascontiguousarray(dphi_t[:, a:z])
            parts.append(_Part(part_t, part_dt, windows, None if which is None else which[a:z]))
        self.parts, self.phi_x = tuple(parts), phi_x
        self.b_offset = bg.c * np.outer(dphi_t.sum(axis=1), phi_x.sum(axis=1))
        self.const = np.outer(phi_t.sum(axis=1), phi_x.sum(axis=1)) if None in self.at else None
        shared = (self.expansion, phi_t, dphi_t, phi_x, self.b_offset, self.const, self.phases, which)
        pieces = [a for part in parts for a in (part.phi_t, part.dphi_t, part.which, *(w for _, w in part.windows))]
        for a in (*shared, *pieces):
            if a is not None:
                a.flags.writeable = False

    def write(self, theta, b, m: int, partials):
        """Trajectory m's rows of ``theta`` and ``b`` from its parts'
        partial sums, each (columns, b before its offset, contracted
        spectrum): the parts are added in order, part 0 + part 1, and one
        part is used as it is. Then the single-derivative columns are
        differentiated from the summed spectrum, and the constant column
        and b's offset are added once."""
        mats, b_u, c_hat = (sum(terms[1:], start=terms[0]) for terms in zip(*partials))
        for d, f in zip(self.orders, spectrum_derivatives(c_hat, self.orders, self.grid.nx, self.grid.length)):
            mats[self.at[d]] = f @ self.phi_x.T
        if self.const is not None:
            mats[self.at[None]] = self.const
        rows = slice(m * self.n_rows, (m + 1) * self.n_rows)
        np.matmul(mats.reshape(len(mats), -1).T, self.expansion, out=theta[rows])
        b[rows] = -self.dxdt * (b_u + self.b_offset).ravel()


# The plan memo, keyed by the arguments themselves: 16 plans are the three
# of ``run_eqod``'s grids for each of the five grids of the eight benchmark
# laws, and one more. A call that raises keeps nothing.
_plan = functools.lru_cache(maxsize=16)(_Plan)


class _Contraction:
    """One grid's share of one worker: the scratch in which it contracts
    one part of a trajectory's u, spectrum and product fields by the
    grid's plan, into that task's partial sums (see ``assemble``)."""

    def __init__(self, plan: _Plan, n_rows: int):
        self.plan = plan
        if any(len(part.windows) > 1 for part in plan.parts):
            self.moved = np.empty((n_rows, len(plan.phi_x)))  # F Phi_x^T, run by run

    def contract(self, part: _Part, field, *phis):
        """phi F Phi_x^T for each phi, over the part's rows, with Phi_x read
        from each row's shift: t first when there is one window, per run of
        rows otherwise."""
        if len(part.windows) == 1:
            ((_, window),) = part.windows
            return [phi @ field @ window for phi in phis]
        moved = self.moved[: len(field)]
        for rows, window in part.windows:
            np.matmul(field[rows], window, out=moved[rows])
        return [phi @ moved for phi in phis]

    def data(self, part: _Part, u, u_hat, phased):
        """Start a part's partial sums from its rows of u and their
        spectrum: u's own column, the response before its offset and the
        contracted spectrum. ``phased`` is a complex buffer of u_hat's
        shape, written when some row moves."""
        p = self.plan
        mats = np.zeros((len(p.at), len(part.phi_t), len(p.phi_x)))
        mats[p.at[0]], b_u = self.contract(part, u, part.phi_t, part.dphi_t)
        if p.phases is not None:
            # which is always in range; mode "raise" would gather through a full-size temporary
            np.take(p.phases, part.which, axis=0, out=phased, mode="clip")
            u_hat = np.multiply(phased, u_hat, out=phased)
        # Phi_t is real: contract the (re, im) pairs of u_hat as one real matrix
        self.partial = (mats, b_u, (part.phi_t @ u_hat.view(float)).view(complex))

    def field(self, part: _Part, term: LibraryTerm, field):
        """Contract one product field over the part's rows, if an expansion uses it."""
        if term in self.plan.at:
            (self.partial[0][self.plan.at[term]],) = self.contract(part, field, part.phi_t)


class _Worker:
    """What one worker reuses across its tasks: the spectrum u_hat of a
    part's rows, one complex scratch of its shape (a moved grid's phased
    spectrum, then each derivative order's (ik)^d u_hat), a ``FieldPass``
    with its product buffers and its derivative buffers (one per order
    needed at once), all as tall as the largest part, and one contraction
    per grid. For the standard library at 1024 x 512, whose parts are
    half-trajectories, that is two complex (256, 513) and three real (256,
    1024) arrays, about 10 MiB per worker, reused by each of its tasks.

    The caller makes every worker before any thread starts, so a helper
    thread allocates nothing full-size: helpers that made their own
    spectrum and scratch raised large-grid's peak RSS from 115.8 to 123.6
    MB."""

    def __init__(self, grid: Grid1D, bounds, products, plans, partials):
        self.rows = [slice(a, z) for a, z in zip(bounds, bounds[1:])]
        n_rows = max(z - a for a, z in zip(bounds, bounds[1:]))
        shape = (n_rows, grid.nx // 2 + 1)
        self.u_hat, self.scaled = np.empty(shape, complex), np.empty(shape, complex)
        self.fields = FieldPass(products, grid, scaled=self.scaled, n_rows=n_rows)
        self.passes = [_Contraction(plan, n_rows) for plan in plans]
        self.partials = partials

    def run(self, tasks):
        """Contract each (m, h, trajectory) of ``tasks``, part h of
        trajectory m, on every grid, keeping its partial sums in
        ``partials[m, h]``, one per grid. An overflowing product warns
        nowhere: ``assemble`` rejects the system it leaves non-finite. The
        error state is per thread, so each worker sets its own."""
        with np.errstate(over="ignore", invalid="ignore"):
            for m, h, traj in tasks:
                rows = self.rows[h]
                u = traj.values[rows]
                u_hat = np.fft.rfft(u, out=self.u_hat[: len(u)])
                parts = [(c, c.plan.parts[h]) for c in self.passes]
                for c, part in parts:
                    c.data(part, u, u_hat, self.scaled[: len(u)])
                for term, field in self.fields(traj, u_hat, rows):
                    for c, part in parts:
                        c.field(part, term, field)
                self.partials[m, h] = [c.partial for c in self.passes]


# A trajectory of at least this many grid cells (nt * nx) is two tasks,
# one per half of its time rows, which run on the caller and helper
# threads (``_run``); a smaller one is one task, run inline. On a 2-vCPU
# x86-64 host with one BLAS thread, the pipeline's three grids and M = 3,
# the threaded pass of whole trajectories (then one helper per worker,
# the caller idle) took this share of the inline one's time (medians of
# 30 alternating calls, three runs each of heat at sigma 0.1 and ks at
# sigma 0; nx x nt): 1.17-1.51 at 128 x 128, 0.98-1.25 at 256 x 128,
# 0.91-0.98 at 256 x 256, 0.72-0.81 at 512 x 512 and 0.73-0.77 at 1024 x
# 512. So 256 x 256 is the smallest grid that runs threaded. The work is
# FFT, BLAS and ufunc calls on full-size arrays, which release the
# interpreter lock. Halves let M = 1, 2, 3 and 5 all split evenly on two
# CPUs, where whole trajectories split M = 3 as 2 + 1 and ran M = 1 on
# one; each worker's buffers are then about 10 MiB, not 20.
_THREADED_CELLS = 2**16


def _bounds(grid: Grid1D) -> tuple[int, ...]:
    """The first row of each part of a trajectory's rows, then nt: its two
    halves from ``_THREADED_CELLS`` grid cells on, else all its rows as one
    part. The parts depend on the grid alone, never on the CPUs."""
    if grid.nt * grid.nx >= _THREADED_CELLS:
        return (0, grid.nt // 2, grid.nt)
    return (0, grid.nt)


def _usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus):
    """Run the calling thread on ``cpus`` alone, where the platform allows."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def _run(workers, tasks, cpus):
    """Run worker k of the n on tasks k, k + n, ... pinned to cpus[k]
    alone: worker 0 on the calling thread, each other worker in a pool
    thread. The tasks are half-trajectories in trajectory order, (0, 0),
    (0, 1), (1, 0), ..., so on two workers each runs one half of every
    trajectory, whatever M is. Left to the scheduler, the threads'
    hand-offs of the interpreter lock keep them on one CPU: an unpinned
    caller stayed on its pinned helper's CPU while the other one idled,
    and three-grid ``assemble`` at 1024 x 512 took 20-60 % longer. So the
    caller pins itself for its share and then, whatever happens, gets
    back its own affinity, ``cpus``.

    The caller submits the n - 1 helpers and then runs its share inside
    the pool's ``with`` block, whose exit joins every thread it started.
    A failure of the caller's share leaves the block first; otherwise the
    helpers' results, read in worker order, re-raise the first failure.
    A helper that has finished before the caller submits the next one is
    handed that share too, as the pool reuses an idle thread, so a call
    starts at most n - 1 threads: n - 1 whenever the shares overlap.

    If a thread fails to start, the pool has already queued its worker's
    task. The caller cancels every queued task, as it does when its own
    share fails, so no helper runs another's share, and raises the start
    error before its own share runs, once every started thread has
    ended."""
    # Imported here: at module top it adds about 7 ms to every ``import eqod``
    from concurrent.futures import ThreadPoolExecutor

    n = len(workers)

    def share(k):
        _pin(cpus[k : k + 1])
        workers[k].run(tasks[k::n])

    with ThreadPoolExecutor(n - 1, thread_name_prefix="eqod-assemble") as pool:
        try:
            futures = [pool.submit(share, k) for k in range(1, n)]
            share(0)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            _pin(cpus)
    for future in futures:
        future.result()


def assemble(trajset: TrajectorySet, spec: LibrarySpec, *grids: TestGrid | BoostedGrid) -> tuple[WeakSystem, ...]:
    """Build the weak-form system (Theta, b) of a trajectory set on each test grid.

    Per trajectory and bump center, one row with b = -integral of
    u * dphi/dt and Theta_k = integral of theta_k(u) * phi, both by the
    trapezoidal rule (the bumps vanish at the ends of their supports).
    Each is a separable contraction with the dense, zero-padded bump
    matrices: b = -dx*dt * dPhi_t u Phi_x^T and Theta_k = dx*dt * Phi_t
    F_k Phi_x^T, raveled t-major. The x-axis is periodic, but the center
    margins keep every bump inside one period, so no support wraps.

    What a grid's contraction needs besides the data is its plan: the
    bump matrices, the windows and phases of its shifts, the binomial
    expansion and the constant column. Plans are memoized across calls
    and shared read-only, so a call on a grid seen before builds none of
    it. The key is the plan's own arguments: the Grid1D, the BoostedGrid
    (a TestGrid being the boost at c = 0), ``spec`` and the parts of a
    trajectory's rows, which follow from the Grid1D. Each is an
    immutable value that compares and hashes by value, so an equal test
    grid built apart shares a plan, a changed constant never reads a
    stale one, and no write can change a grid under its kept plan. The
    memo keeps the last 16 plans used. A plan that fails is not kept:
    each call raises anew. Each WeakSystem carries the caller's own spec
    and grid objects.

    Every grid, plain or boosted, is one contraction of the trajectory's
    u, spectrum and product fields; a TestGrid is the BoostedGrid of its
    own terms at c = 0. Row t's shift s_t = rint(c t / dx) mod nx is
    undone by moving the test functions:

    - A real field F (u, with Phi_t for u's own column and with dPhi_t for
      b, as two products, and each product field) is read with Phi_x from
      s_t on. With one run of rows of equal shift, as at c = 0, that is
      (Phi_t F) W with the run's window W of Phi_x^T, t first; otherwise
      each run of rows is multiplied by its view [Phi_x Phi_x][:, s:s+nx]^T
      and Phi_t contracts the stacked runs.
    - A single-derivative term (one factor d^d u/dx^d, power 1, d >= 1) is
      differentiated after the time contraction: Phi_t acts on t and the
      Fourier derivative on x, so Phi_t d^d u = d^d (Phi_t u), and the rows
      Phi_t u have the spectrum Phi_t u_hat, u_hat = rfft(u). Each order
      is one small ``irfft`` of (Phi_t u_hat) (ik)^d, contracted with
      Phi_x^T. When some row moves, row t of u_hat is first phased by
      e^(-2 pi i k s_t / nx), the phases being made once per plan and
      distinct shift and gathered per trajectory. The spectrum is
      contracted, not u: then each mode keeps its own relative accuracy,
      while the rounding of Phi_t u at the high modes is amplified by k^d
      (on clean burgers, u_xxxx from rfft(Phi_t u) is off by 1.1e-12 of
      the integral's scale, from Phi_t u_hat by 6e-15).
    - The offset c enters by the binomial expansion of (u + c)^p times the
      term's derivative factors: (u + c) u_x = u u_x + c u_x, (u + c)^2 =
      u^2 + 2 c u + c^2, and so on, the constant's column being
      outer(Phi_t 1, Phi_x 1), and b gains -c outer(dPhi_t 1, Phi_x 1).
      Zero coefficients are dropped, so at c = 0 each term is its own
      expansion. Each trajectory's rows are one product of its contracted
      columns with the matrix of dx*dt times the coefficients: a 0/1 row
      gives a column bitwise.

    Product fields come from the worker's ``FieldPass``, whose derivative
    fields come from the same u_hat, each order when the first product
    needing it comes. So a trajectory makes one full-size ``rfft`` and
    one full-size ``irfft`` per order a product needs: 1 + 2 for the
    standard library, which holds GALILEAN_BASIS.

    A boosted system matches the assembly of the gathered boost to
    rounding (within 1.7e-12 of each column's largest entry on the eight
    laws). Every product of a boost's expansion must be a term of
    ``spec``: one that is not raises ValueError, naming the boosted term,
    before any transform. So does a c, named in the message, whose row
    shifts overflow an int64 or whose expansion's coefficients may
    overflow a float64 ((1 + |c|)^p >= 2^1024), and so does a test grid
    whose radius is below two grid cells or whose t-supports
    [t_c - r_t, t_c + r_t] leave the record [t_start, t_end]: b moves
    d/dt onto the bumps, which is exact only where each vanishes at both
    ends of its support within the record. Every grid's columns come
    from the trajectory's u, spectrum and fields through that grid's own
    matrices alone; stacking the grids' Phi_t in one product would not
    give rows bitwise equal to the separate products in BLAS. So every
    system is bitwise the one a one-grid call gives.

    A trajectory of at least ``_THREADED_CELLS`` grid cells is two tasks,
    one per half of its time rows (``_bounds``); a smaller one is one task
    of all its rows. A task runs its rows' ``rfft``, their product fields
    and, on every grid, its share of each contraction: Phi_t[:, rows] F W
    for u, b and each product field, and Phi_t[:, rows] u_hat for the
    spectrum, phased for a boost, whose runs of rows with one shift are
    cut at the half boundary. Each plan holds these pieces per part. The
    task keeps its small partial sums, over one worker's buffers
    (``_Worker``), as tall as a half: about 10 MiB per worker at 1024 x
    512. After every task has run, the caller adds each trajectory's
    partial sums in part order, part 0 + part 1, differentiates the
    summed spectrum, adds b's offset and the constant column once, and
    writes the trajectory's rows (``_Plan.write``).

    Two parts per trajectory run on n = min(2 M, usable CPUs) workers,
    the calling thread and n - 1 helper threads, each pinned to its own
    CPU (``_run``); the caller gets its own affinity back. One part per
    trajectory, or one worker, runs inline. On two CPUs M = 1, 2, 3 and 5
    all split evenly. The caller makes the plans, the systems and every
    worker before any thread starts, so a plan error raises exactly as
    inline. The parts depend on the grid alone, never on the worker or
    CPU count, and a task's arithmetic does not depend on its worker, so
    every system is bitwise the one-worker system on every host. Below
    the size rule a trajectory is one part, with no sum of parts, so the
    arithmetic is that of the unsplit pass: t-first Phi_t F W and c_hat =
    Phi_t u_hat. Above it the halves' sums round apart from the unsplit
    pass (by at most 8e-16 of each column's largest entry on heat and ks
    at 1024 x 512). A
    worker's failure is re-raised from ``assemble``, the first in worker
    order, once every helper has ended.

    A trajset that is not a TrajectorySet raises ValueError naming it,
    before any plan is made. The data are finite, but a library product
    of them may overflow: an infinite field, multiplied by the
    expansion's zeros, would make every column of its system non-finite.
    So a finished system that is not finite raises ValueError, giving the
    largest |u|.

    Returns one WeakSystem per grid, in the order given, each carrying
    its grid.
    """
    if not isinstance(trajset, TrajectorySet):
        raise ValueError(f"trajset must be a TrajectorySet, got {type(trajset).__name__}")
    grid, n_traj = trajset.grid, len(trajset)
    bounds = _bounds(grid)
    boosts = [g if isinstance(g, BoostedGrid) else BoostedGrid(g, 0.0, spec) for g in grids]
    plans = [_plan(grid, bg, spec, bounds) for bg in boosts]
    systems = [(p, np.empty((n_traj * p.n_rows, len(bg.spec))), np.empty(n_traj * p.n_rows)) for p, bg in zip(plans, boosts)]
    products = [t for t in spec.terms if t.power > 1]
    n_parts, cpus, partials = len(bounds) - 1, _usable_cpus(), {}
    tasks = [(m, h, traj) for m, traj in enumerate(trajset) for h in range(n_parts)]
    n_workers = min(len(tasks), len(cpus)) if n_parts > 1 else 1
    workers = [_Worker(grid, bounds, products, plans, partials) for _ in range(n_workers)]
    if n_workers == 1:
        workers[0].run(tasks)
    else:
        _run(workers, tasks, cpus)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (plan, theta, b) in enumerate(systems):
            for m in range(n_traj):
                plan.write(theta, b, m, [partials[m, h][i] for h in range(n_parts)])
    # Not an input check (the data are finite): a product of them may overflow.
    if not all(np.isfinite(theta).all() and np.isfinite(b).all() for _, theta, b in systems):
        peak = max(np.abs(traj.values).max() for traj in trajset)
        raise ValueError(f"the weak-form system is not finite: a library product of the data overflows (largest |u| is {peak:.3g})")
    return tuple(WeakSystem(theta, b, bg.spec, g) for g, bg, (_, theta, b) in zip(grids, boosts, systems))
