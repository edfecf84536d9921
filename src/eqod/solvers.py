"""Benchmark PDE trajectory generation.

All eight benchmark equations are propagated as Fourier coefficients on a
periodic grid, by one of two paths:

- exact, for a law with no nonlinear term (heat, adv_diff): each mode is
  multiplied by exp(symbol * t), with no time stepping;
- fixed-step ETDRK4 (Cox & Matthews 2002) for every law with a nonlinear
  term: the linear part, whose symbol may be complex, is integrated
  exactly, and the coefficients come from a contour integral (Kassam &
  Trefethen 2005).

One walk over the law's nonzero terms (``_operators``) sums the power-1
terms into the linear symbol and the others into the nonlinear tendency;
a law without the latter takes the exact path. The nonlinear terms are
evaluated in flux form: u^p (p >= 2) is F(u^p), and u^p·u_x =
(u^(p+1))_x/(p+1) is ik/(p+1)·F(u^(p+1)), so each stage makes one inverse
FFT of the 2/3-rule-dealiased field and one forward FFT of the powers of
u it needs. Any other nonlinear monomial is rejected.
A trajectory set's initial conditions are propagated together, as a
leading batch axis of one computation, and each row equals the solve of
that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NOISE_SEED_OFFSET, CoefficientVector, Grid1D, RngStream, Trajectory, TrajectorySet, as_index, as_real, as_reals
)
from .spectral import wavenumbers

__all__ = [
    "PdeSpec",
    "PDES",
    "RngStream",
    "SolverBlowUpError",
    "initial_condition",
    "solve",
    "add_noise",
    "generate_set",
]


class SolverBlowUpError(RuntimeError):
    """Raised when an integration produces non-finite values."""


@dataclass(frozen=True)
class PdeSpec:
    """A benchmark equation: true coefficients plus solver configuration.

    ``steps_per_sample`` is the number of ETDRK4 steps between two output
    samples; a law with no nonlinear term is propagated exactly and leaves
    it None. Each nonlinear law takes the fewest steps for which its clean
    trajectories on the default grid, for the evaluation's initial
    conditions (seeds 0-4, three rows each), lie within 1e-6 relative L2
    of a run with 4x as many steps. ks is exempt: it is chaotic, so no
    step count meets a trajectory-level contract (6 and 24 steps differ by
    about 1e-2), and it takes 6.

    A nonlinear term of ``true_coeffs`` must be u^p with p >= 2 or u^p·u_x
    with p >= 1: ETDRK4 evaluates them in flux form (see ``_operators``,
    the one walk over a law's terms), and ``solve`` rejects any other
    monomial. ``domain_length``, ``t_end`` and ``transient`` are stored as
    floats (``core.as_real``) and ``steps_per_sample`` as an int
    (``core.as_index``).
    """

    name: str
    true_coeffs: CoefficientVector
    domain_length: float
    t_end: float
    steps_per_sample: int | None = None
    transient: float = 0.0  # integrated then discarded before the first sample

    def __post_init__(self):
        for name in ("domain_length", "t_end", "transient"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.steps_per_sample is not None:
            object.__setattr__(self, "steps_per_sample", as_index("steps_per_sample", self.steps_per_sample))

    @property
    def true_support(self) -> frozenset:
        return frozenset(
            t for t, v in zip(self.true_coeffs.terms, self.true_coeffs.values) if v != 0.0
        )

    def default_grid(self, nx: int = 128, nt: int = 128) -> Grid1D:
        return Grid1D(0.0, self.domain_length, nx, 0.0, self.t_end, nt)


def _coeffs(d: dict) -> CoefficientVector:
    return CoefficientVector.from_dict(d)


PDES: dict[str, PdeSpec] = {
    "heat": PdeSpec("heat", _coeffs({"u_xx": 0.1}), 2 * np.pi, 1.0),
    "burgers": PdeSpec(
        "burgers", _coeffs({"u*u_x": -1.0, "u_xx": 0.1}), 2 * np.pi, 1.0, steps_per_sample=1
    ),
    "kdv": PdeSpec(
        "kdv", _coeffs({"u*u_x": -1.0, "u_xxx": -1.0}), 2 * np.pi, 0.005, steps_per_sample=4
    ),
    "fisher_kpp": PdeSpec(
        "fisher_kpp",
        _coeffs({"u_xx": 0.01, "u": 1.0, "u^2": -1.0}),
        2 * np.pi,
        2.0,
        steps_per_sample=1,
    ),
    "adv_diff": PdeSpec("adv_diff", _coeffs({"u_x": -1.0, "u_xx": 0.05}), 2 * np.pi, 1.0),
    "ks": PdeSpec(
        "ks",
        _coeffs({"u*u_x": -1.0, "u_xx": -1.0, "u_xxxx": -1.0}),
        32 * np.pi,
        60.0,
        steps_per_sample=6,
        transient=20.0,
    ),
    "kdv_burgers": PdeSpec(
        "kdv_burgers",
        _coeffs({"u*u_x": -1.0, "u_xx": 0.05, "u_xxx": -1.0}),
        2 * np.pi,
        0.075,
        steps_per_sample=17,
    ),
    "react_diff": PdeSpec(
        "react_diff",
        _coeffs({"u_xx": 0.1, "u": 1.0, "u^3": -1.0}),
        2 * np.pi,
        2.0,
        steps_per_sample=2,
    ),
}


def initial_condition(pde: PdeSpec, grid: Grid1D, rng: np.random.Generator) -> np.ndarray:
    """Sample the initial-condition family of a benchmark PDE.

    Two families shape what the data can show:

    - fisher_kpp's front is deterministic, so the clean trajectories of a set
      are identical; the tanh front also jumps from about 1 to about 0 at the
      periodic wrap (u0[0] = 3.5e-6, u0[-1] = 1.0).
    - kdv_burgers starts from -sin x plus 3 % noise, so the k = 1 mode
      dominates, and at k = 1, u_xxx = -u_x.
    """
    if not np.isclose(grid.length, pde.domain_length):
        raise ValueError(f"grid length {grid.length} does not match {pde.name} domain")
    x = grid.x
    name = pde.name
    if name in ("heat", "adv_diff"):
        a = rng.normal(0.0, 0.5, 5)
        b = rng.normal(0.0, 0.5, 5)
        modes = np.arange(1, 6)[:, None] * x[None, :]
        return a @ np.sin(modes) + b @ np.cos(modes)
    if name in ("burgers", "kdv_burgers"):
        return -np.sin(x) + 0.03 * rng.standard_normal(grid.nx)
    if name == "kdv":
        return 12.0 / np.cosh(x - np.pi) ** 2 + 0.1 * rng.standard_normal(grid.nx)
    if name == "fisher_kpp":
        return 0.5 * (1.0 + np.tanh(2.0 * (x - np.pi)))
    if name == "ks":
        return np.cos(x / 16.0) * (1.0 + np.sin(x / 16.0)) + 0.1 * rng.standard_normal(grid.nx)
    if name == "react_diff":
        return 0.5 * np.sin(x) + 0.3 * np.cos(2 * x) + 0.1 * rng.standard_normal(grid.nx)
    raise ValueError(f"unknown PDE {name!r}")


def _operators(coeffs: CoefficientVector, k, nx: int):
    """(sym, nl): the law's linear Fourier symbol and its nonlinear tendency
    N(v), from one walk over its nonzero terms; nl is None for a law with
    no nonlinear term.

    A term of power 1 adds c·(ik)^d to sym, in coefficient order. Every
    other term is a Fourier multiplier on a power of u, in flux form:
    c·u^p (p >= 2) is c·F(u^p), and c·u^p·u_x (p >= 1), which is
    c·(u^(p+1))_x/(p+1), is c·ik/(p+1)·F(u^(p+1)). Kassam & Trefethen (2005)
    write the KS nonlinearity this way. The multipliers of the terms that
    share a power q are summed once per solve. Any other monomial (u*u_xx,
    u_x^2, ...) raises ValueError here, before a step is taken.

    N takes rfft coefficients v along the last axis; any leading axes are a
    batch. A call makes one irfft of the modes |k| <= K, with K < nx/3 (the
    2/3 rule), one rfft of the stacked powers of u, and zeroes every mode
    above K. Since nx > 3K, the kept modes of u^2 are alias-free, so for
    quadratic terms the flux form equals the pointwise product u·u_x in
    exact arithmetic. A power q >= 3 has modes up to qK, which alias onto
    the kept ones; there c·ik/q·F(u^q) and the pointwise c·F(u^(q-1)·u_x)
    differ. The flux form weights each aliased mode j by the kept k, where
    the pointwise form weights it by k_j with |k_j| > |k|, so each of its
    aliasing contributions is the smaller.
    """
    keep = (nx - 1) // 3 + 1
    kept = np.arange(k.size) < keep
    ik = np.where(kept, 1j * k, 0.0)
    sym = np.zeros_like(k, dtype=complex)
    by_power: dict[int, np.ndarray] = {}
    for term, c in zip(coeffs.terms, coeffs.values):
        if c == 0.0:
            continue
        if term.power == 1:
            sym = sym + c * (1j * k) ** term.derivative_order
            continue
        p, px, *higher = term.powers
        if any(higher) or px > 1:
            raise ValueError(
                f"nonlinear term {term.tag} has no flux form; "
                "supported: u^p with p >= 2, and u^p*u_x"
            )
        mult = c * ik / (p + 1) if px else c * kept
        by_power[p + px] = by_power.get(p + px, 0.0) + mult
    if not by_power:
        return sym, None
    powers = sorted(by_power)
    mults = [by_power[q] for q in powers]

    def nl(v):
        u = np.fft.irfft(v[..., :keep], n=nx)
        stack = np.empty((len(powers),) + u.shape)
        for row, q in zip(stack, powers):
            np.power(u, q, out=row)
        f = np.fft.rfft(stack)
        nv = mults[0] * f[0]
        for mult, fq in zip(mults[1:], f[1:]):
            nv += mult * fq
        return nv

    return sym, nl


def _etdrk4_coeffs(sym, h, m=32):
    """ETDRK4 coefficients for each eigenvalue of the (complex) linear symbol.

    Each phi-function of z = h * sym is the mean of its values at 2m points
    on the unit circle around z (Kassam & Trefethen 2005), which avoids the
    cancellation of the closed forms near z = 0. The full circle and the
    complex mean serve real and complex symbols alike.
    """
    e_full = np.exp(h * sym)
    e_half = np.exp(0.5 * h * sym)
    r = np.exp(1j * np.pi * (np.arange(1, 2 * m + 1) - 0.5) / m)
    lr = h * sym[:, None] + r[None, :]
    q = h * (np.expm1(lr / 2) / lr).mean(axis=1)
    f1 = h * ((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr**2)) / lr**3).mean(axis=1)
    f2 = h * ((2 + lr + np.exp(lr) * (lr - 2)) / lr**3).mean(axis=1)
    f3 = h * ((-4 - 3 * lr - lr**2 + np.exp(lr) * (4 - lr)) / lr**3).mean(axis=1)
    return e_full, e_half, q, f1, f2, f3


def _etdrk4_step(sym, h, nl):
    """One ETDRK4 step of size h (Cox & Matthews 2002) as a function of v."""
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coeffs(sym, h)
    f2x2 = 2 * f2

    def step(v):
        nv = nl(v)
        ev = e_half * v
        a = ev + q * nv
        na = nl(a)
        b = ev + q * na
        nb = nl(b)
        c = e_half * a + q * (2 * nb - nv)
        nc = nl(c)
        return e_full * v + f1 * nv + f2x2 * (na + nb) + f3 * nc

    return step


def _solve_etdrk4(pde, v0, grid, sym, nl):
    """Fixed-step ETDRK4 with the linear part handled exactly, all rows in one step loop.

    Samples are pde.steps_per_sample steps of h = grid.dt / steps_per_sample
    apart. The lead-in from u0 at t = 0 to the first sample at
    transient + t_start takes the fewest equal steps no longer than h;
    when it is a whole number of h steps, they are h steps.
    """
    steps_per_sample = pde.steps_per_sample
    if steps_per_sample is None or steps_per_sample < 1:
        raise ValueError(f"{pde.name}: a law with a nonlinear term needs steps_per_sample >= 1")
    lead = pde.transient + grid.t_start
    h = grid.dt / steps_per_sample
    step = _etdrk4_step(sym, h, nl)
    steps = lead / h
    n_lead = round(steps)
    if abs(steps - n_lead) <= 1e-9 * max(1.0, steps):
        lead_step = step
    else:
        n_lead = math.ceil(steps)
        lead_step = _etdrk4_step(sym, lead / n_lead, nl)

    v = v0
    for _ in range(n_lead):
        v = lead_step(v)
    out = np.empty((len(v0), grid.nt, grid.nx))
    for sample in range(grid.nt):
        if sample:
            for _ in range(steps_per_sample):
                v = step(v)
        u = np.fft.irfft(v, n=grid.nx)
        if not np.all(np.isfinite(u)):
            t = grid.t[sample]
            raise SolverBlowUpError(f"{pde.name} blew up by sample {sample}, t={t:.4g}")
        out[:, sample] = u
    return out


def _propagate(pde: PdeSpec, u0: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Values (rows, nt, nx) of the law from each row of u0 (rows, nx)."""
    # solve's u0 has passed as_reals; generate_set's initial conditions come here unchecked.
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 must be finite")
    if pde.transient + grid.t_start < 0:
        raise ValueError(f"{pde.name}: the first sample lies before the initial condition")
    # The Nyquist mode keeps c·(ik)^d for odd d, where spectral zeroes it:
    # on the grid that mode is (-1)^j, which u_t = c·∂^d u evolves to
    # (-1)^j·cos(c·k_N^d·t), the real part of the rotated coefficient that
    # irfft keeps; only the derivative of the sampled mode is zero.
    k = wavenumbers(grid.nx, grid.length)
    sym, nl = _operators(pde.true_coeffs, k, grid.nx)
    v0 = np.fft.rfft(u0)
    if nl is None:  # in closed form: v(t) = exp(sym (transient + t)) v(0)
        growth = np.exp(np.outer(pde.transient + grid.t, sym))
        return np.fft.irfft(v0[:, None, :] * growth, n=grid.nx)
    return _solve_etdrk4(pde, v0, grid, sym, nl)


def solve(pde: PdeSpec, u0: np.ndarray, grid: Grid1D) -> Trajectory:
    """Propagate a benchmark PDE from u0, sampling on the grid's nt output times.

    A law with no nonlinear term is evaluated exactly from its Fourier
    symbol; any other is integrated by ETDRK4 with ``pde.steps_per_sample``
    steps between samples, to the accuracy stated on ``PdeSpec``; a
    nonlinear monomial other than u^p or u^p·u_x raises ValueError before
    any step. Any configured transient is propagated and discarded before
    the first sample. u0 must be finite real numbers (``core.as_reals``),
    and u0 is the state at t = 0, so the first sample, at transient +
    t_start, may not lie before it.
    """
    u0 = as_reals("u0", u0)
    if u0.shape != (grid.nx,):
        raise ValueError("u0 length must equal grid.nx")
    return Trajectory(grid, _propagate(pde, u0[None], grid)[0])


def add_noise(traj: Trajectory, sigma: float, rng: np.random.Generator) -> Trajectory:
    """Additive Gaussian noise scaled by sigma times the field's standard
    deviation; sigma must be a finite real number (``core.as_real``) and
    nonnegative."""
    sigma = as_real("sigma", sigma)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return traj
    scale = sigma * float(np.std(traj.values))
    noisy = rng.standard_normal(traj.values.shape)
    noisy *= scale
    noisy += traj.values  # bitwise traj.values + scale * r: IEEE + and * commute
    return Trajectory(traj.grid, noisy)


def generate_set(pde: PdeSpec, grid: Grid1D, m: int, sigma: float, seed: int) -> TrajectorySet:
    """Generate M trajectories; seed drives the initial conditions and the noise.

    Trajectory i uses substream (seed, i) for its initial condition and
    substream (seed + NOISE_SEED_OFFSET, i) for its noise realization
    (see ``core.RngStream``). The M initial conditions are propagated
    together, in one call to the solver.
    """
    m, sigma = as_index("m", m), as_real("sigma", sigma)  # before any solve
    if m < 1:
        raise ValueError("need m >= 1")
    ic_stream = RngStream(seed)
    noise_stream = RngStream(seed + NOISE_SEED_OFFSET)
    u0 = np.stack([initial_condition(pde, grid, ic_stream.generator(i)) for i in range(m)])
    return TrajectorySet(
        tuple(
            add_noise(Trajectory(grid, v), sigma, noise_stream.generator(i))
            for i, v in enumerate(_propagate(pde, u0, grid))
        )
    )
