"""Four-stage identification pipeline with automatic mode selection.

The union of the base library and GALILEAN_BASIS is assembled once, in
one ``assemble`` call and one field pass per trajectory, on three grids:
the identification and the stability test grids, and the identification
grid read on the data's Galilean boost (a BoostedGrid with
GALILEAN_BOOST_C and GALILEAN_BASIS, contracted from the same u,
spectrum and fields as the plain grids, by the same contraction).
Every later system is a column restriction of the first
two. On the identification grid, the base columns give the full-library
fit the guard compares against, the GALILEAN_BASIS columns the Galilean
test (whose boosted refit is the third system), and the reduced columns
the final fit.
The stability system, restricted to the library being pruned, is what
the stability gate selects on. A column's values do not depend on which
other terms share its assembly: a library product that overflows would
break this, and ``assemble`` rejects it.

Stage 1 runs the two symmetry tests that steer the run: the weak-form
Galilean test and the odd-reflection test. Each returns its own record,
and the result's SymmetryReport holds the two. Stage 2 reduces the
candidate library: the Galilean-reduced set when a boost is detected,
otherwise stability selection; an odd field also drops the
parity-incompatible terms on either path. Stage 3 identifies
coefficients by weak-form LASSO on the reduced library. Stage 4
reverts to the full-library fit when the reduced-library residual is
more than GAMMA_SYMMETRY or GAMMA_STABILITY times worse and the dense
full-library fit carries at least MATERIAL_FRACTION of its largest
coefficient on a term the reduced library left out; both conditions are
read off the two fits' arrays.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NUMERICAL_FAILURES, SUPPORT_THRESHOLD, CoefficientVector, RngStream, TrajectorySet, support_from_coeffs
from .oplib import LibrarySpec, galilean_reduced, odd_reflection_prune, standard_library
from .sparse import identify_on_system
from .stability import STABILITY_GRID, stability_gate
from .symmetry import GALILEAN_BASIS, GALILEAN_BOOST_C, SymmetryReport, detect_all
from .weakform import IDENTIFY_GRID, BoostedGrid, assemble, make_test_grid

__all__ = ["IdentificationResult", "run_eqod", "run_wf_lasso_baseline"]

GAMMA_SYMMETRY = 1.5
GAMMA_STABILITY = 1.2

# The residual guard reverts only when the dense full-library fit also
# attributes a leading-order coefficient to a term the reduced library
# excluded; noise overfit spread across junk columns stays well below
# this fraction of the dominant coefficient.
MATERIAL_FRACTION = 0.5


@dataclass(frozen=True)
class IdentificationResult:
    """Identified coefficients plus how the pipeline arrived at them.

    ``library_size`` records the reduced library chosen before any
    fallback; when the fallback triggered, ``library_used`` is the full
    base library instead. If the reduced path itself failed, no reduced
    library exists and ``library_size`` is the base library's size.
    """

    coeffs: CoefficientVector
    mode: str  # "symmetry" | "stability" | "baseline"
    fallback_triggered: bool
    library_used: LibrarySpec
    library_size: int
    symmetry_report: SymmetryReport | None = None
    residual_ratio: float | None = None

    def support(self, threshold: float = SUPPORT_THRESHOLD) -> frozenset:
        return support_from_coeffs(self.coeffs, threshold)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": {t.tag: float(v) for t, v in zip(self.coeffs.terms, self.coeffs.values)},
            "mode": self.mode,
            "fallback": self.fallback_triggered,
            "library": list(self.library_used.tags),
            "library_size": self.library_size,
            "residual_ratio": self.residual_ratio,
            "detectors": None if self.symmetry_report is None else self.symmetry_report.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _residual_sq(ws, coeffs: CoefficientVector) -> float:
    return float(np.sum((ws.b - ws.theta @ coeffs.values) ** 2))


def run_eqod(
    trajset: TrajectorySet,
    seed: int,
    base_library: LibrarySpec | None = None,
) -> IdentificationResult:
    """Run the full four-stage pipeline on a trajectory set.

    The one seed drives both the stability-selection subsampling and the
    CV fold permutation. ``base_library`` defaults to the standard
    10-term set and also serves as the fallback comparator library. The
    calibration is the module constants: ``sparse.LAMBDA_GRID``,
    ``CV_FOLDS``, ``THRESHOLD_FLOOR``, ``THRESHOLD_FRAC``, ``DEBIAS_ROUNDS``
    and ``KKT_TOL``; ``stability.N_SUBSAMPLES``, ``WEIGHT_LOW``/``HIGH``,
    ``PI_THRESHOLD`` and the penalty constants; both test grids; the
    ``symmetry`` thresholds; and this module's GAMMA_SYMMETRY,
    GAMMA_STABILITY and MATERIAL_FRACTION.
    """
    seed = RngStream(seed).seed  # a bad seed fails here, before any work
    base = base_library or standard_library()
    lib = LibrarySpec(tuple(dict.fromkeys(base.terms + GALILEAN_BASIS.terms)))
    # Both test grids share their radii and margins, so the second grid
    # adds no failure path to the first, and the boosted grid adds none:
    # lib holds GALILEAN_BASIS, so its expansion is closed.
    identify = make_test_grid(trajset.grid, *IDENTIFY_GRID)
    ws_lib, ws_stab, ws_boost = assemble(
        trajset,
        lib,
        identify,
        make_test_grid(trajset.grid, *STABILITY_GRID),
        BoostedGrid(identify, GALILEAN_BOOST_C, GALILEAN_BASIS),
    )
    ws_full = ws_lib.restricted(base)
    coeffs_full, dense_full = identify_on_system(ws_full, seed)

    report = detect_all(trajset, ws_lib, ws_boost)  # catches its own detector failures
    symmetric = report.galilean.detected
    mode, gamma = ("symmetry", GAMMA_SYMMETRY) if symmetric else ("stability", GAMMA_STABILITY)
    try:
        pruned = odd_reflection_prune(base) if report.reflection_odd.detected else base
        if symmetric:
            reduced = galilean_reduced()
            spec = LibrarySpec(tuple(t for t in pruned.terms if t in reduced))
        else:
            spec, _ = stability_gate(ws_stab.restricted(pruned), seed)
        ws_red = ws_lib.restricted(spec)
        coeffs_red, _ = identify_on_system(ws_red, seed)
    except NUMERICAL_FAILURES as exc:
        # Numerical failures of the reduced path (library reduction,
        # lstsq, LASSO, coefficient checks) fall back to the full fit.
        warnings.warn(f"reduced path failed ({exc}); using full-library result")
        return IdentificationResult(coeffs_full, mode, True, base, len(base), report)

    # Guard: compare the pruned reduced model against the dense (pre-
    # threshold) full-library fit; benchmarking against the dense fit
    # keeps the comparison free of the baseline's own thresholding
    # noise. The ratio alone cannot distinguish junk overfit from a
    # genuinely missing term, so reverting also requires the dense fit
    # to carry a material coefficient outside the reduced support.
    r_red = _residual_sq(ws_red, coeffs_red)
    r_full = _residual_sq(ws_full, dense_full)
    ratio = r_red / r_full if r_full > 0 else (1.0 if r_red == 0 else np.inf)
    mag = np.abs(dense_full.values)
    outside = mag[[t not in spec for t in dense_full.terms]]
    missing_material = bool(np.any((outside > 0) & (outside >= MATERIAL_FRACTION * mag.max(initial=0.0))))
    fallback = ratio > gamma and missing_material  # strict: equality does not trigger
    return IdentificationResult(
        coeffs=(
            coeffs_full
            if fallback
            else CoefficientVector.from_dict(coeffs_red.as_dict(), base.terms)
        ),
        mode=mode,
        fallback_triggered=fallback,
        library_used=base if fallback else spec,
        library_size=len(spec),
        symmetry_report=report,
        residual_ratio=float(ratio),
    )


def run_wf_lasso_baseline(
    trajset: TrajectorySet,
    seed: int,
    base_library: LibrarySpec | None = None,
) -> IdentificationResult:
    """Identification stage alone, on the base library's IDENTIFY_GRID system."""
    seed = RngStream(seed).seed
    base = base_library or standard_library()
    (ws,) = assemble(trajset, base, make_test_grid(trajset.grid, *IDENTIFY_GRID))
    coeffs, _ = identify_on_system(ws, seed)
    return IdentificationResult(
        coeffs=coeffs,
        mode="baseline",
        fallback_triggered=False,
        library_used=base,
        library_size=len(base),
    )
