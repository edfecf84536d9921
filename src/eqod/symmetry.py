"""Data-driven symmetry detectors.

Three lightweight Fourier/parity diagnostics (temporal translation,
scaling, even/odd reflection) plus a weak-form structural test for
Galilean invariance. Only the Galilean and odd-reflection outcomes steer
the identification pipeline; the rest are reported as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Trajectory, TrajectorySet, term_from_tag
from .oplib import LibrarySpec
from .weakform import IDENTIFY_GRID, WeakSystem, assemble, make_test_grid

__all__ = [
    "SymbolEstimate",
    "DetectorResult",
    "SymmetryReport",
    "GALILEAN_BASIS",
    "estimate_symbol",
    "detect_temporal_translation",
    "detect_scaling",
    "detect_reflection",
    "detect_galilean",
    "galilean_boost",
    "galilean_system",
    "detect_all",
]

# Detection thresholds.
TEMPORAL_THRESHOLD = 0.4
SCALING_R2_THRESHOLD = 0.90
REFLECTION_THRESHOLD = 0.1
GALILEAN_TAU = 0.05
GALILEAN_BOOST_C = 0.3
BOOST_GAP_SCALE = 0.036  # calibrates the boost-consistency discount

# Six-column basis separating convection from reaction; the convective
# column comes first so its coefficient is c_1.
GALILEAN_BASIS = LibrarySpec(
    tuple(term_from_tag(t) for t in ("u*u_x", "u_xx", "u_xxx", "u", "u^2", "u^3")),
    "custom",
)


@dataclass(frozen=True)
class SymbolEstimate:
    """Per-wavenumber growth-rate estimate with a reliability mask."""

    wavenumbers: np.ndarray
    sigma: np.ndarray
    reliable: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class DetectorResult:
    detected: bool
    score: float


@dataclass(frozen=True)
class SymmetryReport:
    """Outcomes of the four symmetry tests on a trajectory set; reflection
    reports its even and odd outcomes separately."""

    temporal_translation: DetectorResult
    galilean: DetectorResult
    scaling: DetectorResult
    reflection_even: DetectorResult
    reflection_odd: DetectorResult
    galilean_c1: float
    galilean_rank_ok: bool = True

    def to_json_dict(self) -> dict:
        def entry(r: DetectorResult):
            score = None if math.isnan(r.score) else r.score
            return {"detected": bool(r.detected), "score": score}

        out = {
            name: entry(getattr(self, name))
            for name in (
                "temporal_translation",
                "galilean",
                "scaling",
                "reflection_even",
                "reflection_odd",
            )
        }
        out["galilean"]["c1"] = None if math.isnan(self.galilean_c1) else self.galilean_c1
        out["galilean"]["rank_ok"] = self.galilean_rank_ok
        return out


def _symbol_from_values(values: np.ndarray, dt: float, length: float) -> SymbolEstimate:
    nt, nx = values.shape
    if nt < 6:
        raise ValueError("need at least 6 time samples for symbol estimation")
    uhat = np.fft.rfft(values, axis=1)
    k = 2 * np.pi * np.arange(nx // 2 + 1) / length
    # Centered differences on interior times, skipping 2 samples at each end.
    interior = slice(2, nt - 3 + 1)
    u_mid = uhat[interior]
    u_t = (uhat[3 : nt - 1] - uhat[1 : nt - 3]) / (2 * dt)
    den = np.sum(np.abs(u_mid) ** 2, axis=0)
    num = np.sum(np.conj(u_mid) * u_t, axis=0)
    safe = den > 0
    sigma = np.zeros_like(num)
    sigma[safe] = num[safe] / den[safe]
    power = den / u_mid.shape[0]
    reliable = safe & (k > 0.5) & (power > 0.01 * power.max())
    if not reliable.any():
        raise ValueError("no reliable Fourier modes in trajectory")
    return SymbolEstimate(k, sigma, reliable, power)


def estimate_symbol(traj: Trajectory) -> SymbolEstimate:
    """Estimate the per-mode growth rate sigma(k) = <conj(uhat) uhat_t> / <|uhat|^2>.

    Modes are flagged reliable when |k| > 0.5 and their time-averaged
    power exceeds 1% of the maximum; an all-unreliable spectrum raises.
    """
    return _symbol_from_values(traj.values, traj.grid.dt, traj.grid.length)


def detect_temporal_translation(traj: Trajectory) -> DetectorResult:
    """Compare Re[sigma] between two time windows.

    Defaults to the two halves; when the second half has decayed below
    1e-3 of the first half's energy, both windows shrink toward the
    start until each holds at least 10% of the total energy (floor of
    8 samples).
    """
    nt = traj.grid.nt
    if nt < 12:
        raise ValueError("need nt >= 12")
    values = traj.values
    energy = np.sum(values**2, axis=1)
    total = float(energy.sum())
    if total == 0:
        raise ValueError("zero field")
    w = nt // 2
    e_first = float(energy[:w].sum())
    e_second = float(energy[w : 2 * w].sum())
    if e_second < 1e-3 * e_first:
        while w > 8:
            w = max(int(w * 0.75), 8)
            if (
                energy[:w].sum() >= 0.1 * total
                and energy[w : 2 * w].sum() >= 0.1 * total
            ):
                break
    a = _symbol_from_values(values[:w], traj.grid.dt, traj.grid.length)
    b = _symbol_from_values(values[w : 2 * w], traj.grid.dt, traj.grid.length)
    rel = a.reliable & b.reliable
    if not rel.any():
        raise ValueError("no commonly reliable modes between windows")
    ra, rb = a.sigma[rel].real, b.sigma[rel].real
    disc = np.abs(ra - rb) / np.maximum(np.abs(ra), 1e-12)
    score = float(np.median(disc))
    return DetectorResult(score < TEMPORAL_THRESHOLD, score)


def detect_scaling(traj: Trajectory) -> DetectorResult:
    """Power-weighted log-log fit of |Re sigma| against |k|.

    A scaling symmetry makes the dissipative part a monomial in k, so a
    good linear fit (R^2 > 0.9) counts as detection. Fewer than 3 usable
    modes is a non-detection with score 0.
    """
    est = estimate_symbol(traj)
    re = est.sigma.real
    usable = est.reliable & (np.abs(re) > 1e-10) & (est.power > 0.05 * est.power.max())
    if usable.sum() < 3:
        return DetectorResult(False, 0.0)
    x = np.log(np.abs(est.wavenumbers[usable]))
    y = np.log(np.abs(re[usable]))
    w = est.power[usable]
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    sxx = np.sum(w * (x - xm) ** 2)
    if sxx == 0:
        return DetectorResult(False, 0.0)
    slope = np.sum(w * (x - xm) * (y - ym)) / sxx
    resid = y - (ym + slope * (x - xm))
    ss_tot = np.sum(w * (y - ym) ** 2)
    r2 = 0.0 if ss_tot == 0 else float(1.0 - np.sum(w * resid**2) / ss_tot)
    return DetectorResult(r2 > SCALING_R2_THRESHOLD, r2)


def detect_reflection(traj: Trajectory) -> tuple[DetectorResult, DetectorResult]:
    """Even/odd parity of the full space-time field about the domain origin.

    The flip maps grid index j to (nx - j) mod nx. Returns (even, odd)
    results with scores ||U -/+ U_flip||^2 / ||U||^2.
    """
    u = traj.values
    nx = traj.grid.nx
    flipped = u[:, (nx - np.arange(nx)) % nx]
    norm = float(np.sum(u**2))
    if norm == 0:
        raise ValueError("zero field")
    even_score = float(np.sum((u - flipped) ** 2) / norm)
    odd_score = float(np.sum((u + flipped) ** 2) / norm)
    return (
        DetectorResult(even_score < REFLECTION_THRESHOLD, even_score),
        DetectorResult(odd_score < REFLECTION_THRESHOLD, odd_score),
    )


def galilean_boost(trajset: TrajectorySet, c: float) -> TrajectorySet:
    """Discrete boost u -> u + c, x -> x + c t.

    Each time slice is circularly shifted by the nearest whole number of
    grid cells, then offset by c. Solutions of a boost-invariant law map
    to solutions of the same law.
    """
    g = trajset.grid
    boosted = []
    for tr in trajset:
        v = np.empty_like(tr.values)
        for i, t in enumerate(g.t):
            v[i] = np.roll(tr.values[i], int(round(c * t / g.dx))) + c
        boosted.append(Trajectory(g, v))
    return TrajectorySet(tuple(boosted))


def galilean_system(trajset: TrajectorySet) -> WeakSystem:
    """The GALILEAN_BASIS weak system on the identification test grid."""
    return assemble(trajset, GALILEAN_BASIS, make_test_grid(trajset.grid, *IDENTIFY_GRID))


def _convective_fit(ws: WeakSystem):
    """Six-column weak-form fit; returns (raw fraction, c1, rank_ok)."""
    ws = ws.restricted(GALILEAN_BASIS)
    norms = np.linalg.norm(ws.theta, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    chat_n, _, rank, _ = np.linalg.lstsq(ws.theta / norms, ws.b, rcond=None)
    chat = chat_n / norms
    b_sq = float(np.sum(ws.b**2))
    f = 0.0 if b_sq == 0 else float(np.sum((chat[0] * ws.theta[:, 0]) ** 2) / b_sq)
    return f, float(chat[0]), bool(rank == ws.theta.shape[1])


def detect_galilean(trajset: TrajectorySet, ws: WeakSystem):
    """Weak-form structural test for Galilean invariance.

    ``ws`` is the weak system of ``trajset`` on the IDENTIFY_GRID test
    grid, with a library that contains every GALILEAN_BASIS term (the
    pipeline passes its full-library system). Solves the 6-term
    regression (convection, two dissipative derivatives, three reaction
    powers) on those columns and measures the energy fraction carried by
    the convective column. A genuinely boost-invariant law refits with
    the same convective coefficient on boosted data; advective or
    reaction leakage does not. So the fraction is divided by
    1 + (gap/BOOST_GAP_SCALE)^2, where gap is the relative change of c1
    when the fit is repeated on a discrete Galilean boost of the data.
    Detection requires both the discounted fraction and the physical
    convective coefficient to exceed GALILEAN_TAU.

    Returns (detected, energy_fraction, c1, rank_ok).
    """
    f, c1, rank_ok = _convective_fit(ws)
    if f != 0.0:
        boosted = galilean_system(galilean_boost(trajset, GALILEAN_BOOST_C))
        _, c1_boost, _ = _convective_fit(boosted)
        gap = abs(c1_boost - c1) / max(1.0, abs(c1))
        f = f / (1.0 + (gap / BOOST_GAP_SCALE) ** 2)
    detected = (f > GALILEAN_TAU) and (abs(c1) > GALILEAN_TAU)
    return detected, f, c1, rank_ok


def _conservative(results: list[DetectorResult]) -> DetectorResult:
    """AND detection flags, keep worst (largest) score across trajectories."""
    return DetectorResult(
        all(r.detected for r in results), max(r.score for r in results)
    )


def detect_all(trajset: TrajectorySet, ws: WeakSystem) -> SymmetryReport:
    """Run the four detectors on a trajectory set.

    The Galilean test uses the whole set through ``ws``, its weak system
    on the IDENTIFY_GRID test grid with a library that contains every
    GALILEAN_BASIS term. The others run per trajectory and report the
    most conservative outcome. A detector error downgrades that test to
    not-detected with a NaN score.
    """
    failed = DetectorResult(False, float("nan"))

    def per_traj(fn):
        try:
            return _conservative([fn(tr) for tr in trajset])
        except (ValueError, FloatingPointError):
            return failed

    temporal = per_traj(detect_temporal_translation)
    scaling = per_traj(detect_scaling)
    try:
        pairs = [detect_reflection(tr) for tr in trajset]
        even = _conservative([p[0] for p in pairs])
        odd = _conservative([p[1] for p in pairs])
    except (ValueError, FloatingPointError):
        even = odd = failed
    try:
        g_detected, g_f, g_c1, g_rank = detect_galilean(trajset, ws)
        galilean = DetectorResult(g_detected, g_f)
    except (ValueError, FloatingPointError, np.linalg.LinAlgError):
        galilean, g_c1, g_rank = failed, float("nan"), False
    return SymmetryReport(
        temporal_translation=temporal,
        galilean=galilean,
        scaling=scaling,
        reflection_even=even,
        reflection_odd=odd,
        galilean_c1=g_c1,
        galilean_rank_ok=g_rank,
    )
