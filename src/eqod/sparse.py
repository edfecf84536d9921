"""Exact LASSO by homotopy with a KKT certificate on every solution,
cross-validated regularization, and the threshold-plus-debias weak-form
identification stage. This layer solves the weak systems it is given
and builds none.

One solver serves every LASSO here: the exact piecewise-linear path from
lambda_max down to the smallest lambda asked for (``_homotopy``), for a
stack of problems that share their lambdas, followed in lock-step; each
problem gets bitwise the answer it gets alone. A single lambda is that
path stopped at it. Every problem reaches it as a design and a response,
whose Gram and correlation ``_lasso_path`` alone forms. The stability
draws are one stack of designs. So are the CV folds, each its training
rows followed by zero rows, together with the whole system, whose path
is read at the chosen lambda instead of being solved again: bitwise
what ``lasso`` gives on the C-ordered system ``_normalize`` returns.

The calibration is the module constants: ``LAMBDA_GRID`` and
``CV_FOLDS`` for the cross-validation, ``THRESHOLD_FLOOR``,
``THRESHOLD_FRAC`` and ``DEBIAS_ROUNDS`` for the identification stage,
and ``KKT_TOL`` for the certificate.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import CV_STREAM, CoefficientVector, RngStream
from .weakform import WeakSystem

__all__ = ["lasso", "lasso_cv", "identify_on_system"]

# A solve is certified when its KKT residual (see _kkt_residual) is at
# most KKT_TOL; an uncertified solve warns "... did not converge".
KKT_TOL = 1e-6


# Cross-validation: penalties tried (ascending; read-only) and fold count.
LAMBDA_GRID = np.logspace(-6, -1, 60)
LAMBDA_GRID.setflags(write=False)
CV_FOLDS = 5

# Identification: each debias round zeroes coefficients below
# eta = max(THRESHOLD_FLOOR, THRESHOLD_FRAC * max|xi|) and refits OLS.
THRESHOLD_FLOOR = 1e-3
THRESHOLD_FRAC = 0.03
DEBIAS_ROUNDS = 2


def _scales(theta, b):
    """The validated system and its scales: (theta, b, col_norms, b_norm).

    theta and b come back as float arrays, as given otherwise; col_norms
    are the zero-guarded column norms and b_norm the response's own norm
    (0 for b = 0). theta must be (n, p) and b (n,); another shape, or a
    non-finite entry, raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    if theta.ndim != 2 or b.shape != theta.shape[:1]:
        raise ValueError(
            f"theta of shape {theta.shape} and b of shape {b.shape} are not one system, (n, p) and (n,)"
        )
    _check_finite(theta, b)
    col_norms = np.linalg.norm(theta, axis=0)
    return theta, b, np.where(col_norms > 0, col_norms, 1.0), float(np.linalg.norm(b))


def _normalize(theta, b):
    """Scale each column and the response to unit norm; a zero norm scales by 1.

    Returns (theta_n, b_n, col_norms, b_norm): the normalized system, with
    theta_n C-ordered whatever the layout of theta (a column subset comes
    F-ordered), and the scales of ``_scales``, which also checks the system.
    """
    theta, b, col_norms, b_norm = _scales(theta, b)
    return np.ascontiguousarray(theta / col_norms), b / (b_norm if b_norm > 0 else 1.0), col_norms, b_norm


def _check_finite(theta, b):
    if not (np.isfinite(theta).all() and np.isfinite(b).all()):
        raise ValueError("theta and b must be finite")


def _kkt_residual(gram, corr, lam, xi):
    """Worst violation of the LASSO optimality conditions over the scale.

    With d = 2 Theta^T (b - Theta xi) = 2 (corr - gram xi), xi minimizes
    ||b - Theta xi||^2 + lam ||xi||_1 iff d_j = lam sign(xi_j) where
    xi_j != 0 and |d_j| <= lam where xi_j = 0. The scale is lam, or for
    lam = 0 the largest |d_j| at xi = 0, 2 max|Theta^T b|. Given L
    lambdas and xi of shape (..., p, L), one solution per lambda, with
    gram (..., p, p) and corr (..., p), returns the (..., L) residuals.
    """
    lam = np.asarray(lam, dtype=float)
    d = 2.0 * (corr[..., None] - gram @ xi)
    viol = np.where(xi != 0.0, np.abs(d - lam * np.sign(xi)), np.abs(d) - lam)
    at_zero = np.maximum(2.0 * np.abs(corr).max(axis=-1, initial=0.0), np.finfo(float).tiny)
    return viol.max(axis=-2, initial=0.0) / np.where(lam > 0, lam, at_zero[..., None])


def _homotopy(gram, corr, lambdas):
    """The LASSO paths of a stack of D problems, gram (D, p, p) and
    corr (D, p), each followed from its lambda_max = 2 max|corr| down to
    min(lambdas) (Osborne, Presnell & Turlach 2000; Efron et al. 2004)
    and read at each lambda; returns xi of shape (D, p, len(lambdas)).

    Between breakpoints the active set A and its signs s are fixed and
    the solution is linear in lambda: one solve of
    gram_AA [u v] = [corr_A s_A] gives xi_A = u - (lambda/2) v, and the
    other columns' d = 2 (corr - gram xi) = a + lambda beta. The next
    breakpoint is the largest mu below the current one where an active
    xi_j reaches zero while moving towards it (s_j v_j < 0), or an
    inactive d_j reaches s mu while gaining on it (1 - s beta_j > 0); an
    event that rounding places above the current mu happens at it.

    A coefficient that reaches zero leaves. A column that reaches the
    boundary enters only if the new direction is sign-consistent
    (s v_j > 0) and the column is independent of the active ones: its
    Schur complement in the new active Gram must exceed
    gram_jj * eps / KKT_TOL, below which the solve's rounding alone could
    fail the certificate. Otherwise it stays out until the active set
    changes. Deciding a near-tie by the direction the path takes, not by
    a tolerance on mu, keeps a column that just entered from leaving at
    the same mu by rounding, and one that just left from re-entering;
    the rank rule keeps the active Gram nonsingular for duplicate or zero
    columns and for more columns than rows. A value read off a segment
    keeps only the coefficients whose sign is the segment's. The loop is
    capped (a guard, far above the few dozen breakpoints of a p-column
    path); a path cut short is left to the certificate.

    The stack is followed in lock-step: each step finds every problem's
    next event with one batched product, solves the live problems' new
    active Grams in one stacked solve per active-set size (one by one if
    the stack holds an exactly singular Gram), and updates each problem's
    own active order, barred columns, rank and sign decisions. A problem's path ends when its next event is at or
    below min(lambdas) or the path is cut; it keeps its place in the
    stack with its segment's top at -inf, so no later segment serves it.
    Each slice of the batched product depends on its own problem alone,
    so each answer is bitwise the one the problem gets in a stack of one.
    """
    n_sys, p = corr.shape
    lam_min = float(lambdas.min(initial=np.inf))
    rank_rtol = np.finfo(float).eps / KKT_TOL
    # Each event is num / den at the segment's (u, v), with
    # [num | den] = [num0 | den0] + [2 rows @ u | rows @ v], and counts
    # where den > 0. Rows 0..p-1: d_j reaches +mu; p..2p-1: d_j reaches
    # -mu; 2p..3p-1: an active xi_j reaches zero (the row is -s_j e_j).
    rows = np.zeros((n_sys, 3 * p, p))
    rows[:, :p] = -gram
    rows[:, p : 2 * p] = gram
    num0 = np.zeros((n_sys, 3 * p))
    num0[:, :p] = 2.0 * corr
    num0[:, p : 2 * p] = -num0[:, :p]
    den0 = np.zeros(3 * p)
    den0[: 2 * p] = 1.0
    allowed = np.ones((n_sys, 3 * p), bool)  # off for the +/- rows of active and barred columns
    rhs = np.zeros((n_sys, p, 3))  # [corr, s, e_j]; the sign column is read on A only
    rhs[:, :, 0] = corr
    orders = [[] for _ in range(n_sys)]  # the active columns
    barreds = [[] for _ in range(n_sys)]  # columns barred until A changes
    uv = np.zeros((n_sys, p, 2))  # the segment's u and v, zero off A
    signs = np.zeros((n_sys, p))
    mus = [np.inf] * n_sys  # the segment's top; -inf once the path has ended
    live = list(range(n_sys))
    tops, uvs, sgs = [], [], []  # per step, every problem's segment
    for _ in range(50 * (p + 1)):
        tops.append(mus)
        uvs.append(uv)
        sgs.append(signs)
        z = rows @ uv
        den = den0 + z[:, :, 1]
        events = np.divide(num0 + 2.0 * z[:, :, 0], den, out=np.full(den.shape, -np.inf), where=allowed & (den > 0.0))
        ks = events.argmax(axis=1).tolist()
        mus, uv, signs = list(mus), uv.copy(), signs.copy()
        groups = {}  # active-set size: [(i, j, entering, trial)] of the problems that move on
        for i in live:
            k = ks[i]
            mu = min(float(events[i, k]), mus[i])
            if not mu > lam_min:
                mus[i] = -np.inf
                continue
            mus[i] = mu
            kind, j = divmod(k, p)
            entering = kind < 2
            if entering:
                trial = orders[i] + [j]
                rhs[i, j, 1] = 1.0 - 2.0 * kind  # the side reached: +1 or -1
            else:
                trial = [a for a in orders[i] if a != j]
            groups.setdefault(len(trial), []).append((i, j, entering, trial))
        # One stacked solve per active-set size: each slice is the LAPACK
        # call a lone solve makes, so each solution is bitwise the same.
        steps = []
        for size, group in groups.items():
            ids = np.array([i for i, *_ in group])
            idxs = np.array([trial for *_, trial in group], dtype=int).reshape(len(group), size)
            grams = gram[ids[:, None, None], idxs[:, :, None], idxs[:, None, :]]
            rhss = rhs[ids[:, None], idxs]
            if size:
                rhss[[entering for _, _, entering, _ in group], -1, 2] = 1.0  # sol[-1, 2] = 1 / Schur complement of j
            try:
                sols = list(np.linalg.solve(grams, rhss))
            except np.linalg.LinAlgError:  # an exactly singular active Gram: solve one by one
                sols = []
                for g_a, rhs_a in zip(grams, rhss):
                    try:
                        sols.append(np.linalg.solve(g_a, rhs_a))
                    except np.linalg.LinAlgError:
                        sols.append(None)
            steps += zip(group, idxs, sols)
        for (i, j, entering, trial), idx, sol in steps:
            g, rhs_i = gram[i], rhs[i]
            if sol is None or entering and not (
                0.0 < sol[-1, 2] * rank_rtol * g[j, j] < 1.0 and rhs_i[j, 1] * sol[-1, 1] > 0.0
            ):
                if not entering:  # cannot happen to a subset of a nonsingular active set
                    mus[i] = -np.inf  # the path is cut here and the certificate reports it
                    continue
                barreds[i].append(j)
                allowed[i, j] = allowed[i, p + j] = False
                continue
            for a in barreds[i]:
                allowed[i, a] = allowed[i, p + a] = True
            allowed[i, j] = allowed[i, p + j] = not entering
            orders[i], barreds[i] = trial, []
            uv_i = uv[i]
            uv_i.fill(0.0)
            uv_i[idx] = sol[:, :2]
            signs[i, j] = rhs_i[j, 1] if entering else 0.0
            rows[i, 2 * p + j, j] = -signs[i, j]  # j's zero-crossing row
        live = [i for i in live if mus[i] > -np.inf]
        if not live:
            break
    # The segment of step t serves the lambdas at or below its top that
    # no later step's top reaches.
    pick = (np.array(tops)[:, :, None] >= lambdas).sum(axis=0) - 1, np.arange(n_sys)[:, None]
    at = np.array(uvs)[pick]
    xi = at[..., 0] - 0.5 * lambdas[:, None] * at[..., 1]
    return np.where(xi * np.array(sgs)[pick] > 0.0, xi, 0.0).transpose(0, 2, 1)


def _lasso_path(theta, b, lambdas):
    """Exact LASSO solutions of ||b - theta xi||^2 + lambda ||xi||_1 for
    each lambda, with their KKT residuals.

    One homotopy (see _homotopy) on the Gram form serves every lambda;
    the residuals come from one (p, len(lambdas)) product. Returns (xi of
    shape (p, len(lambdas)), residuals). A stack, theta (D, n, p) and
    b (D, n), is one lock-step homotopy, with a leading D axis on both
    results; one system is solved as a stack of one.
    """
    theta = np.asarray(theta, dtype=float)
    theta_t = np.swapaxes(theta, -1, -2)
    gram = theta_t @ theta
    corr = (theta_t @ np.asarray(b, dtype=float)[..., None])[..., 0]
    lambdas = np.asarray(lambdas, dtype=float)
    if gram.ndim == 2:
        xi = _homotopy(gram[None], corr[None], lambdas)[0]
    else:
        xi = _homotopy(gram, corr, lambdas)
    return xi, _kkt_residual(gram, corr, lambdas, xi)


def lasso(theta_norm, b_norm, lam: float) -> np.ndarray:
    """Solve one LASSO problem, or a stack of them, exactly; an
    uncertified solve warns.

    The objective is the plain squared residual plus lambda times the
    l1 norm (no 1/2 and no 1/n factor). The solution is the LASSO path
    followed from lambda_max down to lambda, and carries a KKT
    certificate: if its residual exceeds KKT_TOL, a RuntimeWarning says
    "lasso did not converge" and the solution is still returned.
    lambda = 0 is least squares. A negative or non-finite lambda, or a
    non-finite entry of the system, raises ValueError.

    theta_norm (n, p) with b_norm (n,) returns xi (p,). A stack,
    theta_norm (D, n, p) with b_norm (D, n), is solved in one lock-step
    homotopy at the shared lambda and returns (D, p), row d bitwise the
    solution of system d alone; each uncertified system warns once.
    """
    theta_norm = np.asarray(theta_norm, dtype=float)
    b_norm = np.asarray(b_norm, dtype=float)
    if theta_norm.ndim not in (2, 3) or b_norm.shape != theta_norm.shape[:-1]:
        raise ValueError(
            f"theta of shape {theta_norm.shape} and b of shape {b_norm.shape} are neither"
            " one system, (n, p) and (n,), nor a stack, (D, n, p) and (D, n)"
        )
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    _check_finite(theta_norm, b_norm)
    xi, kkt = _lasso_path(theta_norm, b_norm, [lam])
    for r in kkt.ravel().tolist():
        if not r <= KKT_TOL:
            warnings.warn(f"lasso did not converge (KKT residual {r:.3g})", RuntimeWarning)
    return xi[..., 0]


def _cv_permutation(seed: int, n: int) -> np.ndarray:
    return RngStream(seed).generator(CV_STREAM).permutation(n)


def lasso_cv(theta, b, seed: int = 0):
    """Column/response-normalized LASSO with lambda chosen by CV_FOLDS-fold CV.

    Rows are permuted by a seed-derived shuffle before the contiguous
    fold split; each fold's training rows, in their original order, get
    one exact path read at every lambda of LAMBDA_GRID, the score is
    held-out R^2 and ties go to the smaller lambda. Returns (lambda_star,
    xi_norm, curve): xi_norm solves the normalized system at lambda_star
    and curve holds the (lambda, mean R^2) rows. Every fold solve and
    the refit at lambda_star carry a KKT certificate (tolerance KKT_TOL);
    uncertified fold solves are still scored, with one RuntimeWarning
    that counts them, and an uncertified refit warns on its own.

    The folds and the whole system are one stack of designs and one
    ``_lasso_path`` call. A fold's design is its training rows followed
    by zero rows up to n, which add nothing to its Gram or correlation;
    with two or more columns its path is bitwise the one its training
    rows get alone (a one-column Gram is a dot product, whose rounding
    depends on the length). The whole system is the last problem, the
    C-ordered theta_n that ``_normalize`` returns and ``lasso`` is
    given, and xi_norm is its path read at lambda_star: bitwise
    ``lasso(theta_n, b_n, lambda_star)``, unless a breakpoint lands
    bit-for-bit on lambda_star, and then it differs only by rounding.
    """
    theta_n, b_n, _, _ = _normalize(theta, b)
    n = theta_n.shape[0]
    if n < CV_FOLDS:
        raise ValueError("fewer rows than folds")

    folds = np.array_split(_cv_permutation(seed, n), CV_FOLDS)
    designs = np.zeros((CV_FOLDS + 1, *theta_n.shape))
    rhs = np.zeros((CV_FOLDS + 1, n))
    for k, held in enumerate(folds):
        train = np.delete(np.arange(n), held)
        designs[k, : len(train)], rhs[k, : len(train)] = theta_n[train], b_n[train]
    designs[-1], rhs[-1] = theta_n, b_n
    xi, kkt = _lasso_path(designs, rhs, LAMBDA_GRID)
    uncertified = kkt[:-1][~(kkt[:-1] <= KKT_TOL)].tolist()
    scores = np.zeros(len(LAMBDA_GRID))
    for held, xi_f in zip(folds, xi):
        resid = b_n[held, None] - theta_n[held] @ xi_f
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
    if not kkt[-1, best] <= KKT_TOL:
        warnings.warn(f"lasso refit did not converge (KKT residual {kkt[-1, best]:.3g})", RuntimeWarning)
    # A copy, so that a kept result does not keep the whole stacked path.
    return float(LAMBDA_GRID[best]), xi[-1, :, best].copy(), np.column_stack([LAMBDA_GRID, scores])


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
    _, _, col_norms, b_norm = _scales(theta, b)  # lasso_cv normalizes the raw system itself
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
