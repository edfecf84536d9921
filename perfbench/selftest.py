"""Each correctness check of the benchmark accepts a right input and rejects
a deliberately wrong one; the host-speed arithmetic behind the reference
seconds is tested too.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from eqod import (  # noqa: E402
    PDES,
    STANDARD_TERMS,
    CoefficientVector,
    IdentificationResult,
    RngStream,
    galilean_reduced,
    generate_set,
    initial_condition,
    standard_library,
)
from eqod.sparse import lasso  # noqa: E402

SEED = 42


def with_coeffs(name, changes: dict):
    """The benchmark PDE ``name`` with the coefficients of some terms (by tag) replaced."""
    pde = PDES[name]
    values = {t.tag: v for t, v in zip(pde.true_coeffs.terms, pde.true_coeffs.values) if v}
    return dataclasses.replace(pde, true_coeffs=CoefficientVector.from_dict({**values, **changes}))


def exact(pde, trajset, i):
    u0 = initial_condition(pde, trajset.grid, RngStream(SEED).generator(i))
    return checks.exact_linear(pde, u0, trajset.grid)


@pytest.mark.parametrize("name", ["heat", "adv_diff"])
def test_closed_form_accepts_solver_output(name):
    pde = PDES[name]
    ts = generate_set(pde, pde.default_grid(), 3, 0.0, SEED)
    for i, tr in enumerate(ts):
        assert checks.check_closed_form(tr.values, exact(pde, ts, i), 0.0) == []


def test_closed_form_rejects_wrong_viscosity():
    wrong = with_coeffs("heat", {"u_xx": 0.101})
    ts = generate_set(wrong, wrong.default_grid(), 1, 0.0, SEED)
    assert checks.check_closed_form(ts.trajectories[0].values, exact(PDES["heat"], ts, 0), 0.0)


def test_noise_check_accepts_stated_sigma_and_rejects_another():
    pde = PDES["adv_diff"]
    ts = generate_set(pde, pde.default_grid(), 1, 0.10, SEED)
    values, ref = ts.trajectories[0].values, exact(pde, ts, 0)
    assert checks.check_closed_form(values, ref, 0.10) == []
    assert checks.check_closed_form(values, ref, 0.11)
    assert checks.check_closed_form(values, ref, 0.09)


@pytest.mark.parametrize("name", ["burgers", "ks"])
def test_weak_residual_accepts_true_law_and_rejects_perturbed(name):
    pde = PDES[name]
    ts = generate_set(pde, pde.default_grid(), 3, 0.0, SEED)
    assert checks.check_weak_residual(ts, pde.true_coeffs) == []
    wrong = with_coeffs(name, {"u*u_x": -1.02})
    assert checks.check_weak_residual(ts, wrong.true_coeffs)


def result(values: dict, mode="stability", library=None, fallback=False):
    coeffs = CoefficientVector.from_dict(values)
    library = library or standard_library()
    return IdentificationResult(coeffs, mode, fallback, library, len(library))


def test_recovery_accepts_truth_and_rejects_perturbed_coefficient():
    truth = PDES["adv_diff"].true_coeffs
    assert checks.check_recovery(result({"u_x": -1.0, "u_xx": 0.0501}), truth) == []
    assert checks.check_recovery(result({"u_x": -1.0, "u_xx": 0.052}), truth)
    assert checks.check_recovery(result({"u_x": -1.0, "u_xx": 0.05, "u": 0.01}), truth)
    assert checks.check_recovery(result({"u_xx": 0.05}), truth)


def test_structure_rejects_pure_power_in_symmetry_mode():
    ok = {"u*u_x": -1.0, "u_xx": 0.1}
    assert checks.check_structure(result(ok, "symmetry", galilean_reduced())) == []
    bad = result({**ok, "u^2": 1e-3}, "symmetry")
    assert checks.check_structure(bad)


def test_structure_rejects_value_outside_library_used():
    inside = {"u*u_x": -1.0, "u_xx": 0.1, "u_xxx": 0.2}
    assert checks.check_structure(result(inside, "stability", galilean_reduced())) == []
    outside = {**inside, "u": 0.3}
    assert checks.check_structure(result(outside, "stability", galilean_reduced()))
    # After a fallback the full-library answer stands, whatever was used.
    assert checks.check_structure(result(outside, "stability", galilean_reduced(), True)) == []


def test_kkt_accepts_converged_lasso_and_rejects_perturbed_answer():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((60, 6))
    b = theta @ np.array([1.0, 0.0, -0.5, 0.0, 0.0, 0.2]) + 0.05 * rng.standard_normal(60)
    theta_n = theta / np.linalg.norm(theta, axis=0)
    b_n = b / np.linalg.norm(b)
    lam = 1e-2
    xi = lasso(theta_n, b_n, lam)
    assert checks.check_kkt(checks.kkt_violation(theta, b, lam, xi)) == []
    moved = xi.copy()
    moved[np.argmax(np.abs(xi))] *= 1.01
    assert checks.check_kkt(checks.kkt_violation(theta, b, lam, moved))


def test_repeat_rejects_one_ulp():
    a = CoefficientVector(STANDARD_TERMS, np.linspace(0.1, 1.0, 10))
    assert checks.check_repeat(a, CoefficientVector(STANDARD_TERMS, a.values.copy())) == []
    b = a.values.copy()
    b[3] = np.nextafter(b[3], 1.0)
    assert checks.check_repeat(a, CoefficientVector(STANDARD_TERMS, b))


def test_f1_and_coefficient_error():
    truth = PDES["burgers"].true_coeffs
    support = PDES["burgers"].true_support
    assert checks.f1(support, support) == 1.0
    assert checks.f1(frozenset(), support) == 0.0
    assert checks.f1(support | {STANDARD_TERMS[0]}, support) == pytest.approx(0.8)
    assert checks.max_rel_coef_error(truth, truth) == 0.0
    est = CoefficientVector.from_dict({"u*u_x": -1.0, "u_xx": 0.11})
    assert checks.max_rel_coef_error(est, truth) == pytest.approx(0.1)


def test_typical_probe_time_leaves_out_preempted_samples():
    assert hostspeed.typical([1.0, 1.0, 2.0, 100.0]) == pytest.approx(4 / 3)


def test_reference_seconds_scale_wall_time_by_host_speed():
    speed = hostspeed.HostSpeed()
    with speed.timed() as timing:
        speed.samples += [2 * hostspeed.REF_PROBE_S] * 3  # a host at half the reference speed
    assert timing.ref == pytest.approx(timing.wall / 2)
