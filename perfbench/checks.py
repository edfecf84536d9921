"""Correctness checks, each made against a computation done apart from the
program (closed-form solutions, an own weak-form quadrature, the LASSO
optimality conditions) or against a property the method must have.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import numpy as np

# Relative L2 distance between clean heat/adv_diff data and the exact
# Fourier solution. The solver runs RK45 at rtol 1e-7; measured 3.5e-11
# to 3.7e-10 on the benchmark's cells.
CLOSED_FORM_TOL = 1e-6
# std(data - exact) / (sigma * std(exact)) must lie within this many
# standard errors (1 / sqrt(2 N) for N samples) of 1.
NOISE_SIGMAS = 6.0
# ||b - Theta c_true|| / ||b|| on clean nonlinear data, own quadrature on
# the identification test grid.
WEAK_RESIDUAL_TOL = 5e-3
# Max relative coefficient error on clean cells.
COEF_TOL = 1e-2
# Worst LASSO optimality-condition violation of a lasso_cv answer, over lambda*.
KKT_TOL = 1e-2

# Identification test grid, written out here so the weak residual does not
# depend on the program's assembly.
TEST_GRID = (5, 7)
RADIUS_FRACTIONS = (0.18, 0.20)
MARGIN = 1.05


def derivative(u: np.ndarray, order: int, length: float) -> np.ndarray:
    """Spectral x-derivative along the last axis (Nyquist dropped for odd orders)."""
    nx = u.shape[-1]
    k = 2 * np.pi * np.fft.fftfreq(nx, d=length / nx)
    mult = (1j * k) ** order
    if order % 2:
        mult[nx // 2] = 0.0
    return np.fft.ifft(np.fft.fft(u, axis=-1) * mult, axis=-1).real


def linear_symbol(pde, k: np.ndarray) -> np.ndarray:
    """Fourier symbol of a law whose terms are all linear, sum_d c_d (ik)^d."""
    sym = np.zeros(k.shape, complex)
    for term, c in zip(pde.true_coeffs.terms, pde.true_coeffs.values):
        if c == 0.0:
            continue
        if term.power != 1:
            raise ValueError(f"{pde.name} is not linear")
        sym += c * (1j * k) ** term.derivative_order
    return sym


def exact_linear(pde, u0: np.ndarray, grid) -> np.ndarray:
    """u(x, t) = sum_k u0_hat(k) exp(symbol(k) t) e^{ikx} on the grid's sample times."""
    k = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    growth = np.exp(np.outer(grid.t - grid.t_start, linear_symbol(pde, k)))
    return np.fft.ifft(np.fft.fft(u0)[None, :] * growth, axis=-1).real


def check_closed_form(values: np.ndarray, exact: np.ndarray, sigma: float) -> list[str]:
    """Clean data match the exact solution; noisy data carry noise of the stated size."""
    resid = values - exact
    if sigma == 0.0:
        rel = float(np.linalg.norm(resid) / np.linalg.norm(exact))
        if not rel < CLOSED_FORM_TOL:
            return [f"closed form: relative distance {rel:.3g} >= {CLOSED_FORM_TOL:g}"]
        return []
    ratio = float(np.std(resid) / (sigma * np.std(exact)))
    tol = NOISE_SIGMAS / np.sqrt(2 * resid.size)
    if not abs(ratio - 1.0) < tol:
        return [f"noise: std ratio {ratio:.4f} off 1 by more than {tol:.4f}"]
    return []


def bump(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def bump_dr(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    inside = np.abs(r) < 1
    ri = r[inside]
    out[inside] = -2.0 * ri / (1.0 - ri**2) ** 2 * np.exp(-1.0 / (1.0 - ri**2))
    return out


def _test_functions(coords: np.ndarray, start: float, span: float, n: int, frac: float, step: float):
    """Rows of bump values (and their derivatives) at n margin-shrunk centers."""
    r = max(frac * span, 8 * step)
    centers = np.linspace(start + MARGIN * r, start + span - MARGIN * r, n)
    rr = (coords[None, :] - centers[:, None]) / r
    return bump(rr), bump_dr(rr) / r


def term_field(u: np.ndarray, powers, length: float) -> np.ndarray:
    out = np.ones_like(u)
    for d, p in enumerate(powers):
        if p:
            out = out * (u if d == 0 else derivative(u, d, length)) ** p
    return out


def weak_residual(trajset, coeffs) -> float:
    """||b - Theta c|| / ||b|| of the law ``coeffs`` on the data, by own quadrature.

    Rows are tensor-product bumps phi(t) psi(x); b = -int u phi' psi and
    Theta c = int (sum_j c_j theta_j(u)) phi psi, summed on the sample grid.
    """
    g = trajset.grid
    phi, dphi = _test_functions(g.t, g.t_start, g.t_end - g.t_start, TEST_GRID[0], RADIUS_FRACTIONS[0], g.dt)
    psi, _ = _test_functions(g.x, g.x0, g.length, TEST_GRID[1], RADIUS_FRACTIONS[1], g.dx)
    b, rhs = [], []
    for tr in trajset:
        u = tr.values
        law = sum(
            c * term_field(u, term.powers, g.length)
            for term, c in zip(coeffs.terms, coeffs.values)
            if c != 0.0
        )
        b.append(-(dphi @ u @ psi.T).ravel())
        rhs.append((phi @ law @ psi.T).ravel())
    b, rhs = np.concatenate(b), np.concatenate(rhs)
    return float(np.linalg.norm(b - rhs) / np.linalg.norm(b))


def check_weak_residual(trajset, coeffs) -> list[str]:
    res = weak_residual(trajset, coeffs)
    if not res < WEAK_RESIDUAL_TOL:
        return [f"weak residual of the true law {res:.3g} >= {WEAK_RESIDUAL_TOL:g}"]
    return []


def f1(pred: frozenset, truth: frozenset) -> float:
    tp = len(pred & truth)
    if tp == 0:
        return 0.0
    return 2 * tp / (len(pred) + len(truth))


def max_rel_coef_error(coeffs, truth) -> float:
    """max_j |c_j - c*_j| / |c*_j| over the true terms, with a spurious term
    counted against the smallest true coefficient."""
    est = dict(zip(coeffs.terms, coeffs.values))
    true = {t: v for t, v in zip(truth.terms, truth.values) if v != 0.0}
    smallest = min(abs(v) for v in true.values())
    errs = [abs(est.get(t, 0.0) - v) / abs(v) for t, v in true.items()]
    errs += [abs(v) / smallest for t, v in est.items() if t not in true]
    return max(errs)


def check_recovery(result, truth) -> list[str]:
    """A clean cell recovers the true support with small coefficient error."""
    out = []
    true_support = frozenset(t for t, v in zip(truth.terms, truth.values) if v != 0.0)
    support = result.support()
    if support != true_support:
        out.append(f"support {sorted(t.tag for t in support)} != true support")
    err = max_rel_coef_error(result.coeffs, truth)
    if not err < COEF_TOL:
        out.append(f"max relative coefficient error {err:.3g} >= {COEF_TOL:g}")
    return out


PURE_POWERS = ("u", "u^2", "u^3")


def check_structure(result) -> list[str]:
    """Without fallback: zero outside the library used, and no pure powers of u
    in symmetry mode (the Galilean exclusion)."""
    if result.fallback_triggered:
        return []
    out = []
    used = set(result.library_used.terms)
    for term, v in zip(result.coeffs.terms, result.coeffs.values):
        if term not in used and v != 0.0:
            out.append(f"{term.tag} = {v:.3g} outside library_used")
        if result.mode == "symmetry" and term.tag in PURE_POWERS and v != 0.0:
            out.append(f"{term.tag} = {v:.3g} in symmetry mode")
    return out


def kkt_violation(theta, b, lam: float, xi: np.ndarray) -> float:
    """Worst LASSO optimality-condition violation over lambda, for
    min ||b_n - Theta_n xi||^2 + lam ||xi||_1 on the column- and
    response-normalized system that ``lasso_cv`` solves."""
    theta = np.asarray(theta, float)
    b = np.asarray(b, float)
    norms = np.linalg.norm(theta, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    b_norm = np.linalg.norm(b)
    theta_n = theta / norms
    b_n = b / (b_norm if b_norm > 0 else 1.0)
    grad = 2.0 * theta_n.T @ (b_n - theta_n @ xi)
    viol = np.where(
        xi != 0.0, np.abs(grad - lam * np.sign(xi)), np.maximum(np.abs(grad) - lam, 0.0)
    )
    return float(viol.max() / lam)


def check_kkt(rel: float) -> list[str]:
    if not rel < KKT_TOL:
        return [f"lasso_cv KKT violation {rel:.3g} x lambda* >= {KKT_TOL:g}"]
    return []


def check_repeat(first, again) -> list[str]:
    """Passes with one seed give bitwise-identical coefficients."""
    if first.terms != again.terms or not np.array_equal(first.values, again.values):
        return ["coefficients differ between passes with one seed"]
    return []
