"""Data-driven symmetry tests that steer the identification pipeline.

A weak-form structural test for Galilean invariance decides between the
Galilean-reduced library and stability selection, and a space-time
parity test decides whether the parity-incompatible terms are pruned.
Each test returns its own frozen record: a ``DetectorResult`` for the
parity test, and a ``GalileanResult``, which adds the convective
coefficient c1 and whether the fit had full rank, for the Galilean test.
A ``SymmetryReport`` holds the two records.
The Galilean test reads two systems that one ``assemble`` call makes
from one field pass: the data's, and the data's boost by
GALILEAN_BOOST_C (a ``weakform.BoostedGrid``), so this module assembles
nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import NUMERICAL_FAILURES, Trajectory, TrajectorySet, term_from_tag
from .oplib import LibrarySpec
from .sparse import _normalize
from .weakform import WeakSystem

__all__ = [
    "DetectorResult",
    "GalileanResult",
    "SymmetryReport",
    "GALILEAN_BASIS",
    "GALILEAN_BOOST_C",
    "detect_reflection",
    "detect_galilean",
    "detect_all",
]

# Detection thresholds.
REFLECTION_THRESHOLD = 0.1
GALILEAN_TAU = 0.05
GALILEAN_BOOST_C = 0.3
BOOST_GAP_SCALE = 0.036  # calibrates the boost-consistency discount

# Six-column basis separating convection from reaction; the convective
# column comes first so its coefficient is c_1.
GALILEAN_BASIS = LibrarySpec(
    tuple(term_from_tag(t) for t in ("u*u_x", "u_xx", "u_xxx", "u", "u^2", "u^3"))
)


@dataclass(frozen=True)
class DetectorResult:
    detected: bool
    score: float


@dataclass(frozen=True)
class GalileanResult(DetectorResult):
    """The Galilean test's decision, with its convective coefficient c1
    and whether the six-column fit had full rank."""

    c1: float
    rank_ok: bool


def _entry(r: DetectorResult) -> dict:
    """A record's fields in declaration order, with NaN as None."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in asdict(r).items()}


@dataclass(frozen=True)
class SymmetryReport:
    """Outcomes of the Galilean test and the odd-reflection test on a
    trajectory set: the two outcomes the pipeline reads."""

    galilean: GalileanResult
    reflection_odd: DetectorResult

    def to_json_dict(self) -> dict:
        return {"galilean": _entry(self.galilean), "reflection_odd": _entry(self.reflection_odd)}


def detect_reflection(traj: Trajectory) -> DetectorResult:
    """Odd parity of the full space-time field about the domain origin.

    The flip maps grid index j to (nx - j) mod nx; the score is
    ||U + U_flip||^2 / ||U||^2, and a zero field raises. The flip is
    gathered once and summed and squared in place, so the score needs
    one full-size temporary.
    """
    u = traj.values
    norm = float(np.sum(u**2))
    if norm == 0:
        raise ValueError("zero field")
    s = u.take(-np.arange(u.shape[1]) % u.shape[1], axis=1)
    s += u
    s *= s
    score = float(np.sum(s) / norm)
    return DetectorResult(score < REFLECTION_THRESHOLD, score)


def _convective_fit(ws: WeakSystem):
    """Six-column weak-form fit; returns (raw fraction, c1, rank_ok)."""
    ws = ws.restricted(GALILEAN_BASIS)
    theta_n, _, norms, _ = _normalize(ws.theta, ws.b)
    chat_n, _, rank, _ = np.linalg.lstsq(theta_n, ws.b, rcond=None)
    chat = chat_n / norms
    b_sq = float(np.sum(ws.b**2))
    f = 0.0 if b_sq == 0 else float(np.sum((chat[0] * ws.theta[:, 0]) ** 2) / b_sq)
    return f, float(chat[0]), bool(rank == ws.theta.shape[1])


def detect_galilean(ws: WeakSystem, ws_boost: WeakSystem) -> GalileanResult:
    """Weak-form structural test for Galilean invariance.

    ``ws`` is a weak system of the data whose library contains every
    GALILEAN_BASIS term (the pipeline passes its system of base ∪
    GALILEAN_BASIS on the identification test grid), and ``ws_boost`` the
    GALILEAN_BASIS system of the data's boost by GALILEAN_BOOST_C on the
    same test grid: the BoostedGrid system that the same ``assemble``
    call gives, from the same field pass. Solves the 6-term regression
    (convection, two dissipative derivatives, three reaction powers) on
    ``ws``'s basis columns and measures the energy fraction carried by the
    convective column. A genuinely boost-invariant law refits with the
    same convective coefficient on boosted data; advective or reaction
    leakage does not. So the fraction is divided by
    1 + (gap/BOOST_GAP_SCALE)^2, where gap is the relative change of c1
    when the fit is repeated on ``ws_boost``. The boost shifts each time
    row by +c t rounded to whole cells (see weakform.BoostedGrid).
    Detection requires both the discounted fraction and the physical
    convective coefficient to exceed GALILEAN_TAU.

    The result's score is the discounted energy fraction.
    """
    f, c1, rank_ok = _convective_fit(ws)
    if f != 0.0:
        _, c1_boost, _ = _convective_fit(ws_boost)
        gap = abs(c1_boost - c1) / max(1.0, abs(c1))
        f = f / (1.0 + (gap / BOOST_GAP_SCALE) ** 2)
    return GalileanResult((f > GALILEAN_TAU) and (abs(c1) > GALILEAN_TAU), f, c1, rank_ok)


def detect_all(trajset: TrajectorySet, ws: WeakSystem, ws_boost: WeakSystem) -> SymmetryReport:
    """Run the Galilean and odd-reflection tests on a trajectory set.

    The Galilean test uses the whole set through ``ws``, a weak system of
    it whose library contains every GALILEAN_BASIS term, and ``ws_boost``,
    the system of its boost on the same test grid (see
    ``detect_galilean``); it assembles nothing. Odd reflection runs per
    trajectory and reports the most conservative outcome: detected only
    if every trajectory is odd, with the largest score. A detector error
    downgrades that test to not-detected with a NaN score (and, for the
    Galilean test, a NaN c1 and rank_ok False), so this function raises
    none of the numerical errors it catches.
    """
    try:
        results = [detect_reflection(tr) for tr in trajset]
        odd = DetectorResult(all(r.detected for r in results), max(r.score for r in results))
    except NUMERICAL_FAILURES:
        odd = DetectorResult(False, math.nan)
    try:
        galilean = detect_galilean(ws, ws_boost)
    except NUMERICAL_FAILURES:
        galilean = GalileanResult(False, math.nan, math.nan, False)
    return SymmetryReport(galilean, odd)
