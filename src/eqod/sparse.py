"""LASSO coordinate descent, cross-validated regularization, and the
threshold-plus-debias weak-form identification stage."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import CoefficientVector
from .oplib import LibrarySpec
from .solvers import RngStream
from .weakform import IDENTIFY_GRID, WeakSystem, assemble, make_test_grid

__all__ = [
    "LassoConfig",
    "IdentifyConfig",
    "lasso",
    "lasso_cv",
    "identify_on_system",
    "wf_lasso_identify",
]

CV_STREAM = 11  # substream id for the CV row permutation


def _default_lambda_grid() -> np.ndarray:
    return np.logspace(-6, -1, 60)


@dataclass(frozen=True)
class LassoConfig:
    """Regularization grid and coordinate-descent controls."""

    lambda_grid: np.ndarray = field(default_factory=_default_lambda_grid)
    cv_folds: int = 5
    coord_tol: float = 1e-9
    max_sweeps: int = 10_000

    def __post_init__(self):
        grid = np.asarray(self.lambda_grid, dtype=float)
        if np.any(np.diff(grid) < 0):
            raise ValueError("lambda grid must be sorted ascending")
        if self.cv_folds < 2:
            raise ValueError("need at least 2 folds")
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class IdentifyConfig:
    """Adaptive threshold and debias controls for the final stage."""

    threshold_floor: float = 1e-3
    threshold_frac: float = 0.03
    debias_rounds: int = 2


def _cd_path(theta, b, lambdas, tol, max_sweeps):
    """Cyclic coordinate descent on ||b - theta xi||^2 + lambda ||xi||_1,
    run simultaneously for every lambda via the Gram matrix.

    Each coordinate update is soft(theta_j . r_j, lambda/2) / ||theta_j||^2,
    taken for every unsettled lambda at once. q = gram @ xi is updated by a
    product then a sum per moved entry, never by a matrix product, so each
    lambda's iterate is bitwise that of a scalar loop over it alone
    (``reference_cd_path`` in the tests). A lambda settles, and leaves later
    sweeps, once a full sweep moves none of its coordinates by tol or more.
    Returns (xi of shape (p, len(lambdas)), all-settled flag).
    """
    theta = np.ascontiguousarray(theta, dtype=float)
    gram = theta.T @ theta
    corr = theta.T @ b
    diag = np.diag(gram)
    cols = np.flatnonzero(~(diag <= 0))  # a zero column keeps xi = 0
    half_lam = np.asarray(lambdas, dtype=float) / 2.0
    xi = np.zeros((theta.shape[1], len(half_lam)))
    q = np.zeros_like(xi)
    live = np.arange(len(half_lam))  # lambda columns not yet settled
    for _ in range(max_sweeps):
        x, g, hl = xi[:, live], q[:, live], half_lam[live]
        step = np.zeros(len(live))
        for j in cols:
            rho = corr[j] - g[j] + diag[j] * x[j]
            mag = np.abs(rho) - hl
            new = np.where(mag <= 0.0, 0.0, np.where(rho > 0.0, mag, -mag) / diag[j])
            delta = new - x[j]
            moved = delta != 0.0
            g[:, moved] += gram[:, j, None] * delta[moved]
            x[j, moved] = new[moved]
            size = np.abs(delta)
            step = np.where(size > step, size, step)
        xi[:, live], q[:, live] = x, g
        live = live[~(step < tol)]
        if live.size == 0:
            return xi, True
    return xi, False


def lasso(theta_norm, b_norm, lam: float, config: LassoConfig | None = None) -> np.ndarray:
    """Solve one LASSO problem; non-convergence warns and returns the iterate.

    The objective is the plain squared residual plus lambda times the
    l1 norm (no 1/2 and no 1/n factor), so the coordinate update is
    soft(theta_j . r_j, lambda/2) / ||theta_j||^2.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    config = config or LassoConfig()
    xi, ok = _cd_path(
        np.asarray(theta_norm, float),
        np.asarray(b_norm, float),
        [lam],
        config.coord_tol,
        config.max_sweeps,
    )
    if not ok:
        warnings.warn("lasso coordinate descent did not converge", RuntimeWarning)
    return xi[:, 0]


def _cv_permutation(seed: int, n: int) -> np.ndarray:
    return RngStream(seed).generator(CV_STREAM).permutation(n)


def lasso_cv(theta, b, config: LassoConfig | None = None, seed: int = 0, full: bool = False):
    """Column/response-normalized LASSO with lambda chosen by 5-fold CV.

    Rows are permuted by a seed-derived shuffle before the contiguous
    fold split; the score is held-out R^2 and ties go to the smaller
    lambda. Returns (lambda_star, xi_norm) for the normalized system,
    plus the (lambda, mean R^2) curve when ``full`` is set. Fold paths
    that stop at the sweep cap are still scored, with one RuntimeWarning
    that counts them; an unconverged refit warns on its own.
    """
    config = config or LassoConfig()
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    n = theta.shape[0]
    if n < config.cv_folds:
        raise ValueError("fewer rows than folds")
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms = np.where(col_norms > 0, col_norms, 1.0)
    b_norm = np.linalg.norm(b)
    theta_n = theta / col_norms
    b_n = b / (b_norm if b_norm > 0 else 1.0)

    perm = _cv_permutation(seed, n)
    folds = np.array_split(perm, config.cv_folds)
    scores = np.zeros(len(config.lambda_grid))
    unconverged = 0
    for held in folds:
        train = np.setdiff1d(perm, held, assume_unique=True)
        xi, ok = _cd_path(
            theta_n[train], b_n[train], config.lambda_grid, config.coord_tol, config.max_sweeps
        )
        unconverged += not ok
        resid = b_n[held, None] - theta_n[held] @ xi
        denom = float(np.sum((b_n[held] - b_n[held].mean()) ** 2))
        denom = denom if denom > 0 else 1e-300
        scores += 1.0 - np.sum(resid**2, axis=0) / denom
    scores /= len(folds)
    if unconverged:
        warnings.warn(
            f"lasso CV: {unconverged} of {len(folds)} fold paths did not converge",
            RuntimeWarning,
        )
    best = int(np.argmax(scores))  # first maximum = smallest lambda on ties
    lambda_star = float(config.lambda_grid[best])
    xi_all, ok = _cd_path(
        theta_n, b_n, [lambda_star], config.coord_tol, config.max_sweeps
    )
    if not ok:
        warnings.warn("lasso refit did not converge", RuntimeWarning)
    if full:
        return lambda_star, xi_all[:, 0], np.column_stack([config.lambda_grid, scores])
    return lambda_star, xi_all[:, 0]


def identify_on_system(
    ws: WeakSystem,
    seed: int,
    lasso_config: LassoConfig | None = None,
    identify_config: IdentifyConfig | None = None,
    return_dense: bool = False,
):
    """CV LASSO, rescale to physical units, then threshold + OLS debias rounds.

    Each round zeroes coefficients below eta = max(floor, frac * max|xi|)
    and refits ordinary least squares on the survivors; eta is recomputed
    from the debiased values between rounds. An empty support returns the
    all-zero vector.

    With ``return_dense`` the pre-threshold CV-LASSO coefficients (in
    physical units) come back as a second vector; the residual guard
    compares pruned models against this dense fit.
    """
    icfg = identify_config or IdentifyConfig()
    theta, b = ws.theta, ws.b
    col_norms = np.linalg.norm(theta, axis=0)
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)
    b_norm = float(np.linalg.norm(b))
    _, xi_n = lasso_cv(theta, b, lasso_config, seed)
    xi = xi_n / safe_norms * b_norm
    dense = xi.copy()
    for _ in range(icfg.debias_rounds):
        eta = max(icfg.threshold_floor, icfg.threshold_frac * float(np.abs(xi).max(initial=0.0)))
        support = np.abs(xi) >= eta
        xi = np.zeros_like(xi)
        if not support.any():
            break
        sol, *_ = np.linalg.lstsq(theta[:, support], b, rcond=None)
        xi[support] = sol
    coeffs = CoefficientVector(ws.spec.terms, xi)
    if return_dense:
        return coeffs, CoefficientVector(ws.spec.terms, dense)
    return coeffs


def wf_lasso_identify(
    trajset,
    spec: LibrarySpec,
    seed: int,
    lasso_config: LassoConfig | None = None,
    identify_config: IdentifyConfig | None = None,
) -> CoefficientVector:
    """Assemble the weak system for ``spec`` on IDENTIFY_GRID and run the
    identification stage."""
    ws = assemble(trajset, spec, make_test_grid(trajset.grid, *IDENTIFY_GRID))
    return identify_on_system(ws, seed, lasso_config, identify_config)
