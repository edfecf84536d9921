"""Four-stage identification pipeline with automatic mode selection.

The base library is assembled once on the identification test grid;
that system gives the full-library fit the guard compares against and,
when the library holds every GALILEAN_BASIS term, the columns of the
Galilean test. Stage 1 runs the symmetry detectors. Stage 2 reduces the
candidate library: the Galilean-reduced set when a boost is detected
(optionally parity-pruned), otherwise stability selection. Stage 3
identifies coefficients by weak-form LASSO on the reduced library.
Stage 4 reverts to the full-library fit when the reduced-library
residual is more than a path-dependent factor worse.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SUPPORT_THRESHOLD, CoefficientVector, TrajectorySet, support_from_coeffs
from .oplib import LibrarySpec, galilean_reduced, odd_reflection_prune, standard_library
from .sparse import IdentifyConfig, LassoConfig, identify_on_system, wf_lasso_identify
from .stability import StabilityConfig, stability_gate
from .symmetry import GALILEAN_BASIS, SymmetryReport, detect_all, galilean_system
from .weakform import IDENTIFY_GRID, assemble, make_test_grid

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
    base library instead.
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


def _expand(coeffs: CoefficientVector, base: LibrarySpec) -> CoefficientVector:
    """Re-express coefficients over the base library, zeros elsewhere."""
    values = dict(zip(coeffs.terms, coeffs.values))
    return CoefficientVector(base.terms, np.array([values.get(t, 0.0) for t in base.terms]))


def _residual_sq(ws, coeffs: CoefficientVector) -> float:
    return float(np.sum((ws.b - ws.theta @ coeffs.values) ** 2))


def run_eqod(
    trajset: TrajectorySet,
    seed: int,
    base_library: LibrarySpec | None = None,
    lasso_config: LassoConfig | None = None,
    identify_config: IdentifyConfig | None = None,
    stability_config: StabilityConfig | None = None,
) -> IdentificationResult:
    """Run the full four-stage pipeline on a trajectory set.

    The one seed drives both the stability-selection subsampling and the
    CV fold permutation. ``base_library`` defaults to the standard
    10-term set and also serves as the fallback comparator library.
    """
    base = base_library or standard_library()
    ws_full = assemble(trajset, base, make_test_grid(trajset.grid, *IDENTIFY_GRID))
    coeffs_full, dense_full = identify_on_system(
        ws_full, seed, lasso_config, identify_config, return_dense=True
    )

    report, mode = None, "stability"  # the mode reported if detection itself fails
    try:
        has_basis = all(t in base for t in GALILEAN_BASIS.terms)
        report = detect_all(trajset, ws_full if has_basis else galilean_system(trajset))
        if report.galilean.detected:
            mode, gamma = "symmetry", GAMMA_SYMMETRY
            reduced = galilean_reduced()
            spec = LibrarySpec(tuple(t for t in base.terms if t in reduced), reduced.provenance)
            if report.reflection_odd.detected:
                spec = odd_reflection_prune(spec)
        else:
            mode, gamma = "stability", GAMMA_STABILITY
            gate_base = (
                odd_reflection_prune(base) if report.reflection_odd.detected else base
            )
            spec, _ = stability_gate(trajset, gate_base, seed, stability_config)
        ws_red = ws_full.restricted(spec)
        coeffs_red = identify_on_system(ws_red, seed, lasso_config, identify_config)
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # Numerical failures of the reduced path (assembly, lstsq, LASSO,
        # coefficient checks) fall back to the full fit; any other error
        # is a programming error and propagates.
        warnings.warn(f"reduced path failed ({exc}); using full-library result")
        return IdentificationResult(
            coeffs=coeffs_full,
            mode=mode,
            fallback_triggered=True,
            library_used=base,
            library_size=len(base),
            symmetry_report=report,
            residual_ratio=None,
        )

    # Guard: compare the pruned reduced model against the dense (pre-
    # threshold) full-library fit; benchmarking against the dense fit
    # keeps the comparison free of the baseline's own thresholding
    # noise. The ratio alone cannot distinguish junk overfit from a
    # genuinely missing term, so reverting also requires the dense fit
    # to carry a material coefficient outside the reduced support.
    r_red = _residual_sq(ws_red, coeffs_red)
    r_full = _residual_sq(ws_full, dense_full)
    if r_full > 0:
        ratio = r_red / r_full
    else:
        ratio = 1.0 if r_red == 0 else np.inf
    dense_max = float(np.abs(dense_full.values).max(initial=0.0))
    outside = [
        abs(v)
        for t, v in zip(dense_full.terms, dense_full.values)
        if t not in spec.terms
    ]
    missing_material = bool(
        outside and dense_max > 0 and max(outside) >= MATERIAL_FRACTION * dense_max
    )
    if ratio > gamma and missing_material:  # strict: equality does not trigger
        return IdentificationResult(
            coeffs=coeffs_full,
            mode=mode,
            fallback_triggered=True,
            library_used=base,
            library_size=len(spec),
            symmetry_report=report,
            residual_ratio=float(ratio),
        )
    return IdentificationResult(
        coeffs=_expand(coeffs_red, base),
        mode=mode,
        fallback_triggered=False,
        library_used=spec,
        library_size=len(spec),
        symmetry_report=report,
        residual_ratio=float(ratio),
    )


def run_wf_lasso_baseline(
    trajset: TrajectorySet,
    seed: int,
    base_library: LibrarySpec | None = None,
    lasso_config: LassoConfig | None = None,
    identify_config: IdentifyConfig | None = None,
) -> IdentificationResult:
    """Identification stage alone, on the full base library."""
    base = base_library or standard_library()
    coeffs = wf_lasso_identify(
        trajset, base, seed, lasso_config=lasso_config, identify_config=identify_config
    )
    return IdentificationResult(
        coeffs=coeffs,
        mode="baseline",
        fallback_triggered=False,
        library_used=base,
        library_size=len(base),
    )
