"""Metamorphic relations of run_eqod on clean sets (128 x 128, seed 42).

u -> A u maps a solution of u_t = sum c_j f_j(u) to one of the law whose
degree-p coefficients are c_j A^(1-p); a whole-cell shift in x maps a
solution of an x-autonomous law to one of the same law. Identification
should follow: the same mode, fallback and support, and the scaled
coefficients.
"""

import numpy as np
import pytest

from eqod.core import Trajectory, TrajectorySet
from eqod.pipeline import run_eqod
from eqod.solvers import PDES, generate_set

KS_AMPLITUDE = pytest.mark.xfail(
    strict=True,
    reason=(
        "ks at A = 0.5: the Galilean score falls from 0.952 to 0.017 against"
        " GALILEAN_TAU = 0.05, so the mode goes from symmetry to stability"
        " (the support is unchanged); the boost c = 0.3 and the gap's"
        " max(1, |c1|) do not scale with the amplitude"
    ),
)
KDV_SHIFT = pytest.mark.xfail(
    strict=True,
    reason=(
        "kdv shifted by 5 cells gains u_x = -0.090 beside u_xxx = -0.978"
        " (also at 2, 3 and 64 cells): the travelling-wave degeneracy of"
        " its solitons"
    ),
)


def mapped(ts, f):
    return TrajectorySet(tuple(Trajectory(ts.grid, f(tr.values)) for tr in ts))


@pytest.fixture(scope="module")
def clean():
    """Each law's clean set and run_eqod result, made on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            pde = PDES[name]
            ts = generate_set(pde, pde.default_grid(), 3, 0.0, 42)
            cache[name] = ts, run_eqod(ts, 42)
        return cache[name]

    return get


@pytest.mark.parametrize(
    "name, amp",
    [
        (name, amp)
        for name in ("heat", "adv_diff", "burgers", "kdv", "ks")
        for amp in (0.5, 2.0)
        if (name, amp) != ("ks", 0.5)
    ]
    + [pytest.param("ks", 0.5, marks=KS_AMPLITUDE)],
)
def test_amplitude(clean, name, amp):
    ts, base = clean(name)
    res = run_eqod(mapped(ts, lambda v: amp * v), 42)
    assert (res.mode, res.fallback_triggered) == (base.mode, base.fallback_triggered)
    assert res.support() == base.support()
    for term in base.support():
        expected = base.coeffs.value(term) * amp ** (1 - term.power)
        assert res.coeffs.value(term) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize(
    "name, shift",
    [(name, s) for name in ("heat", "adv_diff", "burgers", "ks") for s in (5, 37)]
    + [pytest.param("kdv", 5, marks=KDV_SHIFT), ("kdv", 37)],
)
def test_shift(clean, name, shift):
    ts, base = clean(name)
    res = run_eqod(mapped(ts, lambda v: np.roll(v, shift, axis=1)), 42)
    assert res.mode == base.mode
    assert res.support() == base.support()
