"""Exact LASSO by feature-sign search with a KKT certificate on every
solve, cross-validated regularization, and the threshold-plus-debias
weak-form identification stage.

The calibration is the module constants: ``LAMBDA_GRID`` and
``CV_FOLDS`` for the cross-validation, ``THRESHOLD_FLOOR``,
``THRESHOLD_FRAC`` and ``DEBIAS_ROUNDS`` for the identification stage,
and ``KKT_TOL`` for the certificate.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import CoefficientVector
from .oplib import LibrarySpec
from .solvers import RngStream
from .weakform import IDENTIFY_GRID, WeakSystem, assemble, make_test_grid

__all__ = [
    "lasso",
    "lasso_cv",
    "identify_on_system",
    "wf_lasso_identify",
]

CV_STREAM = 11  # substream id for the CV row permutation

# A solve is certified when its KKT residual (see _kkt_residual) is at
# most KKT_TOL; an uncertified warm-started solve is redone once from
# zero, and a solve that still fails warns "... did not converge".
KKT_TOL = 1e-6
# Feature-sign search stops once no zero coefficient violates its
# condition by more than this fraction of the certificate's scale. It
# sits well below KKT_TOL so rounding, not the stop, sets the residual.
ACTIVATE_TOL = 1e-9


# Cross-validation: penalties tried (ascending; read-only) and fold count.
LAMBDA_GRID = np.logspace(-6, -1, 60)
LAMBDA_GRID.setflags(write=False)
CV_FOLDS = 5

# Identification: each debias round zeroes coefficients below
# eta = max(THRESHOLD_FLOOR, THRESHOLD_FRAC * max|xi|) and refits OLS.
THRESHOLD_FLOOR = 1e-3
THRESHOLD_FRAC = 0.03
DEBIAS_ROUNDS = 2


def _normalize(theta, b):
    """Scale each column and the response to unit norm; a zero norm scales by 1.

    Returns (theta_n, b_n, col_norms, b_norm): the normalized system, the
    zero-guarded column norms and the response's own norm (0 for b = 0).
    """
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms = np.where(col_norms > 0, col_norms, 1.0)
    b_norm = float(np.linalg.norm(b))
    return theta / col_norms, b / (b_norm if b_norm > 0 else 1.0), col_norms, b_norm


def _kkt_scale(corr, lam: float) -> float:
    """lambda, or for lambda = 0 the largest |d_j| at xi = 0, 2 max|Theta^T b|."""
    if lam > 0:
        return lam
    return max(2.0 * float(np.abs(corr).max(initial=0.0)), np.finfo(float).tiny)


def _kkt_residual(gram, corr, lam: float, xi) -> float:
    """Worst violation of the LASSO optimality conditions over the scale.

    With d = 2 Theta^T (b - Theta xi) = 2 (corr - gram xi), xi minimizes
    ||b - Theta xi||^2 + lam ||xi||_1 iff d_j = lam sign(xi_j) where
    xi_j != 0 and |d_j| <= lam where xi_j = 0.
    """
    d = 2.0 * (corr - gram @ xi)
    viol = np.where(xi != 0.0, np.abs(d - lam * np.sign(xi)), np.maximum(np.abs(d) - lam, 0.0))
    return float(viol.max(initial=0.0)) / _kkt_scale(corr, lam)


def _feature_sign(gram, corr, lam: float, xi) -> np.ndarray:
    """Feature-sign search (Lee et al. 2007) for one lambda, started at xi.

    A step solves the active set's equations gram_AA x = corr_A - lam s/2
    for the current signs s, then moves to the point of lowest objective
    among that solution and the points on the way where a coefficient
    crosses zero (which is set to zero there). Landing on the solution
    with consistent signs makes the active set optimal; then the zero
    coefficient that most violates |d_j| <= lam enters with the sign of
    d_j. Every step lowers the objective strictly; a step that cannot,
    or the step cap (a guard, far above the few steps a warm start
    needs), ends the search and leaves the verdict to the certificate.
    The steps assume linearly independent active columns, as weak-form
    systems with more rows than columns have; a rank-deficient active
    set (for example more columns than rows) can stop the search short
    of the optimum, which the certificate then reports.
    """
    xi = np.array(xi, dtype=float)
    tol = ACTIVATE_TOL * _kkt_scale(corr, lam)
    signs = np.sign(xi)
    optimal_on_active = not signs.any()
    for _ in range(20 * xi.size + 50):
        d = 2.0 * (corr - gram @ xi)
        if optimal_on_active:
            viol = np.where(signs == 0.0, np.abs(d) - lam, -np.inf)
            j = int(np.argmax(viol))
            if not viol[j] > tol:
                return xi
            signs[j] = np.sign(d[j])
        idx = np.flatnonzero(signs)
        g = gram[np.ix_(idx, idx)]
        rhs = corr[idx] - 0.5 * lam * signs[idx]
        try:
            target = np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:  # exactly singular active Gram
            target = np.linalg.lstsq(g, rhs, rcond=None)[0]
        if np.all(np.sign(target) == signs[idx]):
            # The minimizer of the objective on the current orthant.
            xi[idx] = target
            optimal_on_active = True
            continue
        cur = xi[idx]
        crossing = np.flatnonzero((cur != 0.0) & (np.sign(target) != np.sign(cur)))
        ts = np.append(cur[crossing] / (cur[crossing] - target[crossing]), 1.0)
        cand = cur + ts[:, None] * (target - cur)
        cand[np.arange(crossing.size), crossing] = 0.0
        # Objective change from cur, formed from the step so that small
        # changes are not lost to the rounding of the O(1) objective.
        step = cand - cur
        change = (
            np.einsum("ij,jk,ik->i", step, g, step)
            - step @ d[idx]
            + lam * (np.abs(cand).sum(axis=1) - np.abs(cur).sum())
        )
        best = int(np.argmin(change))
        if not change[best] < 0.0:
            return xi
        xi[idx] = cand[best]
        optimal_on_active = False
        signs = np.sign(xi)
    return xi


def _lasso_path(theta, b, lambdas):
    """Exact LASSO solutions of ||b - theta xi||^2 + lambda ||xi||_1 for
    each lambda, with their KKT residuals.

    The lambdas are solved from the largest down, each started at the
    previous solution; a warm-started solve whose residual exceeds
    KKT_TOL is redone from zero. Returns (xi of shape (p, len(lambdas)), residuals).
    """
    theta = np.asarray(theta, dtype=float)
    gram = theta.T @ theta
    corr = theta.T @ np.asarray(b, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    xi = np.zeros((theta.shape[1], lambdas.size))
    kkt = np.zeros(lambdas.size)
    x = np.zeros(theta.shape[1])
    for i in np.argsort(-lambdas, kind="stable"):
        warm = x.any()
        x = _feature_sign(gram, corr, lambdas[i], x)
        kkt[i] = _kkt_residual(gram, corr, lambdas[i], x)
        if warm and not kkt[i] <= KKT_TOL:
            x = _feature_sign(gram, corr, lambdas[i], np.zeros_like(x))
            kkt[i] = _kkt_residual(gram, corr, lambdas[i], x)
        xi[:, i] = x
    return xi, kkt


def lasso(theta_norm, b_norm, lam: float) -> np.ndarray:
    """Solve one LASSO problem exactly; an uncertified solve warns.

    The objective is the plain squared residual plus lambda times the
    l1 norm (no 1/2 and no 1/n factor). The solution is found by
    feature-sign search from zero and carries a KKT certificate: if its
    residual exceeds KKT_TOL, a RuntimeWarning says "lasso did not
    converge" and the iterate is returned. lambda = 0 is least squares.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    xi, kkt = _lasso_path(theta_norm, b_norm, [lam])
    if not kkt[0] <= KKT_TOL:
        warnings.warn(f"lasso did not converge (KKT residual {kkt[0]:.3g})", RuntimeWarning)
    return xi[:, 0]


def _cv_permutation(seed: int, n: int) -> np.ndarray:
    return RngStream(seed).generator(CV_STREAM).permutation(n)


def lasso_cv(theta, b, seed: int = 0):
    """Column/response-normalized LASSO with lambda chosen by CV_FOLDS-fold CV.

    Rows are permuted by a seed-derived shuffle before the contiguous
    fold split; each fold's training rows get the exact path over
    LAMBDA_GRID, the score is held-out R^2 and ties go to the smaller
    lambda. Returns (lambda_star, xi_norm, curve): xi_norm solves the
    normalized system at lambda_star and curve holds the (lambda, mean
    R^2) rows. Every fold solve and the refit at lambda_star carry a KKT
    certificate (tolerance KKT_TOL); uncertified fold solves are still
    scored, with one RuntimeWarning that counts them, and an uncertified
    refit warns on its own.
    """
    theta_n, b_n, _, _ = _normalize(theta, b)
    n = theta_n.shape[0]
    if n < CV_FOLDS:
        raise ValueError("fewer rows than folds")

    perm = _cv_permutation(seed, n)
    folds = np.array_split(perm, CV_FOLDS)
    scores = np.zeros(len(LAMBDA_GRID))
    uncertified = []
    for held in folds:
        train = np.setdiff1d(perm, held, assume_unique=True)
        xi, kkt = _lasso_path(theta_n[train], b_n[train], LAMBDA_GRID)
        uncertified.extend(kkt[~(kkt <= KKT_TOL)])
        resid = b_n[held, None] - theta_n[held] @ xi
        denom = float(np.sum((b_n[held] - b_n[held].mean()) ** 2))
        denom = denom if denom > 0 else 1e-300
        scores += 1.0 - np.sum(resid**2, axis=0) / denom
    scores /= len(folds)
    if uncertified:
        warnings.warn(
            f"lasso CV: {len(uncertified)} of {len(folds) * len(scores)} fold solves did not"
            f" converge (KKT residual up to {max(uncertified):.3g})",
            RuntimeWarning,
        )
    best = int(np.argmax(scores))  # first maximum = smallest lambda on ties
    lambda_star = float(LAMBDA_GRID[best])
    xi_all, kkt = _lasso_path(theta_n, b_n, [lambda_star])
    if not kkt[0] <= KKT_TOL:
        warnings.warn(f"lasso refit did not converge (KKT residual {kkt[0]:.3g})", RuntimeWarning)
    return lambda_star, xi_all[:, 0], np.column_stack([LAMBDA_GRID, scores])


def identify_on_system(ws: WeakSystem, seed: int):
    """CV LASSO, rescale to physical units, then threshold + OLS debias rounds.

    Returns (coeffs, dense). dense is the pre-threshold CV-LASSO fit in
    physical units, which the residual guard compares pruned models
    against. Each of the DEBIAS_ROUNDS rounds zeroes coefficients below
    eta = max(THRESHOLD_FLOOR, THRESHOLD_FRAC * max|xi|) and refits
    ordinary least squares on the survivors; eta is recomputed from the
    debiased values between rounds. An empty support gives the all-zero
    coeffs.
    """
    theta, b = ws.theta, ws.b
    _, _, col_norms, b_norm = _normalize(theta, b)
    _, xi_n, _ = lasso_cv(theta, b, seed)
    xi = xi_n / col_norms * b_norm
    dense = CoefficientVector(ws.spec.terms, xi)
    for _ in range(DEBIAS_ROUNDS):
        eta = max(THRESHOLD_FLOOR, THRESHOLD_FRAC * float(np.abs(xi).max(initial=0.0)))
        support = np.abs(xi) >= eta
        xi = np.zeros_like(xi)
        if not support.any():
            break
        sol, *_ = np.linalg.lstsq(theta[:, support], b, rcond=None)
        xi[support] = sol
    return CoefficientVector(ws.spec.terms, xi), dense


def wf_lasso_identify(trajset, spec: LibrarySpec, seed: int) -> CoefficientVector:
    """Assemble the weak system for ``spec`` on IDENTIFY_GRID and run the
    identification stage; returns its thresholded coefficients."""
    (ws,) = assemble(trajset, spec, make_test_grid(trajset.grid, *IDENTIFY_GRID))
    return identify_on_system(ws, seed)[0]
