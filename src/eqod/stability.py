"""Randomized-LASSO stability selection for library pruning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TrajectorySet
from .oplib import LibrarySpec
from .solvers import RngStream
from .sparse import lasso
from .weakform import assemble, make_test_grid

__all__ = ["StabilityConfig", "stability_select", "stability_gate"]

STABILITY_STREAM = 23  # substream id namespace for subsample draws

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


@dataclass(frozen=True)
class StabilityConfig:
    n_iterations: int = 50
    pi_threshold: float = 0.5
    weight_low: float = 0.5
    weight_high: float = 1.0
    activity_eps: float = 1e-6

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0 < self.pi_threshold < 1:
            raise ValueError("pi threshold must lie in (0, 1)")


def stability_select(theta, b, config: StabilityConfig | None = None, seed: int = 0):
    """Selection probabilities from randomized LASSO on half-subsamples.

    Columns and response are normalized once. Each iteration draws a
    floor(n/2)-row subset without replacement and per-column penalty
    weights from Uniform(weight_low, weight_high), solves LASSO at the
    fixed lambda on the weight-scaled design with ``sparse.lasso`` (an
    exact solve whose KKT residual must be at most ``sparse.KKT_TOL``, or
    it warns "lasso did not converge"), and counts coefficients with
    magnitude above activity_eps. Iteration i draws from substream
    (seed, STABILITY_STREAM, i) so results are schedule-independent.

    The penalty is noise-adaptive: each iteration solves with a
    mean-squared-error penalty alpha = min(PENALTY_SCALE *
    max(s2, RESIDUAL_FLOOR)**PENALTY_EXPONENT, PENALTY_CAP), where s2 is
    the mean squared OLS residual of the full normalized system; the
    summed objective passed to the solver uses 2 * n_subsample * alpha.
    A fixed absolute penalty cannot separate stable from spurious terms
    across systems whose residual energies span five orders of
    magnitude; scaling with the noise level does.

    Returns (pi, stable) with stable = indices where pi > pi_threshold
    (strict).
    """
    config = config or StabilityConfig()
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    n, p = theta.shape
    if n < 4:
        raise ValueError("need at least 4 rows")
    col_norms = np.linalg.norm(theta, axis=0)
    col_norms = np.where(col_norms > 0, col_norms, 1.0)
    theta_n = theta / col_norms
    b_norm = np.linalg.norm(b)
    b_n = b / (b_norm if b_norm > 0 else 1.0)
    ols, *_ = np.linalg.lstsq(theta_n, b_n, rcond=None)
    s2 = float(np.sum((b_n - theta_n @ ols) ** 2)) / n
    alpha = min(PENALTY_SCALE * max(s2, RESIDUAL_FLOOR) ** PENALTY_EXPONENT, PENALTY_CAP)
    stream = RngStream(seed)
    counts = np.zeros(p)
    half = n // 2
    lam_objective = 2.0 * half * alpha
    for it in range(config.n_iterations):
        rng = stream.generator(STABILITY_STREAM, it)
        rows = rng.permutation(n)[:half]
        w = rng.uniform(config.weight_low, config.weight_high, p)
        xi = lasso(theta_n[rows] / w, b_n[rows], lam_objective)
        counts += np.abs(xi) > config.activity_eps
    pi = counts / config.n_iterations
    stable = frozenset(np.nonzero(pi > config.pi_threshold)[0].tolist())
    return pi, stable


def stability_gate(
    trajset: TrajectorySet,
    base_spec: LibrarySpec,
    seed: int,
    config: StabilityConfig | None = None,
):
    """Prune a library to its stably selected terms.

    Assembles the dense (8 x 10 per trajectory) weak system on the base
    library and keeps terms with majority selection probability. An
    empty stable set returns the base library unchanged.

    Returns (spec, pi).
    """
    tg = make_test_grid(trajset.grid, *STABILITY_GRID)
    ws = assemble(trajset, base_spec, tg)
    pi, stable = stability_select(ws.theta, ws.b, config, seed)
    if not stable:
        return base_spec, pi
    terms = tuple(t for j, t in enumerate(base_spec.terms) if j in stable)
    return LibrarySpec(terms), pi

