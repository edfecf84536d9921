"""Randomized-LASSO stability selection for library pruning.

A term counts as selected in a draw when the LASSO keeps it
(Meinshausen & Bühlmann 2010): ``sparse.lasso`` returns exact zeros off
its active set, so the count needs no magnitude cut.

The calibration is the module constants: ``N_SUBSAMPLES`` draws with
penalty weights from Uniform(``WEIGHT_LOW``, ``WEIGHT_HIGH``), the cut
pi > ``PI_THRESHOLD``, the noise-adaptive penalty (``PENALTY_SCALE``,
``PENALTY_EXPONENT``, ``RESIDUAL_FLOOR``, ``PENALTY_CAP``) and the test
grid ``STABILITY_GRID``. All draws of one call come from one seeded
generator, the stream ``(seed, STABILITY_STREAM)`` of ``core.RngStream``.
This module assembles nothing: the pipeline builds the ``STABILITY_GRID``
system in the same field pass as the identification system and hands it
to ``stability_gate``.
"""

from __future__ import annotations

import numpy as np

from .core import STABILITY_STREAM, RngStream
from .oplib import LibrarySpec
from .sparse import _normalize, lasso
from .weakform import WeakSystem

__all__ = ["stability_select", "stability_gate"]

# Test-function density for the stability weak system: denser than the
# identification grid so half-subsampling still leaves enough rows.
STABILITY_GRID = (8, 10)

# Noise-adaptive penalty calibration. The per-iteration LASSO penalty
# follows a three-quarter-power law in the full-system OLS residual mean
# square: sublinear so low-noise systems keep enough pressure to prune
# near-collinear twins, floored so clean systems (residual at the
# quadrature floor) still prune, and capped so saturated high-noise
# systems retain their dominant column instead of emptying.
PENALTY_SCALE = 0.6
PENALTY_EXPONENT = 0.75
RESIDUAL_FLOOR = 1e-6
PENALTY_CAP = 2.1e-3

# Subsample draws, per-column penalty weight range and the selection cut on pi.
N_SUBSAMPLES = 50
WEIGHT_LOW, WEIGHT_HIGH = 0.5, 1.0
PI_THRESHOLD = 0.5


def stability_select(theta, b, seed: int = 0):
    """Selection probabilities from randomized LASSO on half-subsamples.

    Columns and response are normalized once. Each of the N_SUBSAMPLES
    draws takes a floor(n/2)-row subset without replacement and
    per-column penalty weights from Uniform(WEIGHT_LOW, WEIGHT_HIGH).
    One generator, the stream (seed, STABILITY_STREAM), makes every
    draw: one call shuffles each row of an (N_SUBSAMPLES, n) tile of
    range(n) on its own, and one more draws every weight. The draws'
    weight-scaled designs are solved as one stack by one ``sparse.lasso``
    call at the fixed lambda (one lock-step exact LASSO path per draw,
    stopped at that lambda; each draw's KKT residual must be at most
    ``sparse.KKT_TOL``, or it warns "lasso did not converge"), and each
    draw counts its nonzero coefficients, which are its active set.

    The penalty is noise-adaptive: each draw solves with a
    mean-squared-error penalty alpha = min(PENALTY_SCALE *
    max(s2, RESIDUAL_FLOOR)**PENALTY_EXPONENT, PENALTY_CAP), where s2 is
    the mean squared OLS residual of the full normalized system; the
    summed objective passed to the solver uses 2 * n_subsample * alpha.
    A fixed absolute penalty cannot separate stable from spurious terms
    across systems whose residual energies span five orders of
    magnitude; scaling with the noise level does.

    Returns (pi, stable) with stable = indices where pi > PI_THRESHOLD
    (strict).
    """
    theta_n, b_n, _, _ = _normalize(theta, b)
    n, p = theta_n.shape
    if n < 4:
        raise ValueError("need at least 4 rows")
    ols, *_ = np.linalg.lstsq(theta_n, b_n, rcond=None)
    s2 = float(np.sum((b_n - theta_n @ ols) ** 2)) / n
    alpha = min(PENALTY_SCALE * max(s2, RESIDUAL_FLOOR) ** PENALTY_EXPONENT, PENALTY_CAP)
    rng = RngStream(seed).generator(STABILITY_STREAM)
    half = n // 2
    lam_objective = 2.0 * half * alpha
    rows = rng.permuted(np.tile(np.arange(n), (N_SUBSAMPLES, 1)), axis=1)[:, :half]
    w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, (N_SUBSAMPLES, 1, p))
    designs = theta_n[rows]
    designs /= w
    xi = lasso(designs, b_n[rows], lam_objective)
    pi = np.count_nonzero(xi, axis=0) / N_SUBSAMPLES
    stable = frozenset(np.nonzero(pi > PI_THRESHOLD)[0].tolist())
    return pi, stable


def stability_gate(ws: WeakSystem, seed: int):
    """Prune a library to its stably selected terms.

    ``ws`` is the dense (STABILITY_GRID per trajectory) weak system on
    the library to prune, ``ws.spec``; the pipeline passes its stability
    system restricted to that library. Keeps the terms with
    pi > PI_THRESHOLD; an empty stable set returns ``ws.spec`` unchanged.

    Returns (spec, pi).
    """
    pi, stable = stability_select(ws.theta, ws.b, seed)
    if not stable:
        return ws.spec, pi
    terms = tuple(t for j, t in enumerate(ws.spec.terms) if j in stable)
    return LibrarySpec(terms), pi
