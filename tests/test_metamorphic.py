"""Metamorphic relations of run_eqod on clean sets (128 x 128, seed 42).

u -> A u maps a solution of u_t = sum c_j f_j(u) to one of the law whose
degree-p coefficients are c_j A^(1-p); a whole-cell shift in x maps a
solution of an x-autonomous law to one of the same law; the reflection
x -> -x multiplies a term's coefficient by (-1)^(its total number of x
derivatives); and t -> c t divides every coefficient by c.
Identification should follow: the same mode, fallback and support, and
the mapped coefficients.
"""

import numpy as np
import pytest

from eqod.core import Grid1D, Trajectory, TrajectorySet
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

BOOST_SIGN = (
    "the boosted grid shifts the data by +c t whatever c1 is; for u_t = c1 u u_x + G"
    " the invariant boost is u(x + c1 c t, t) + c"
)
REFLECTED_MODE = pytest.mark.xfail(
    strict=True,
    reason=(
        f"{BOOST_SIGN}. x -> -x turns c1 = -1 into +1, the boosted refit's c1"
        " moves, and the Galilean score falls below GALILEAN_TAU = 0.05 (burgers"
        " 0.536 -> 0.013, ks 0.952 -> 0.0025), so the mode goes from symmetry to"
        " stability (the support is unchanged)"
    ),
)
BURGERS_SLOW_MODE = pytest.mark.xfail(
    strict=True,
    reason=(
        f"{BOOST_SIGN}. t -> 2t halves burgers' c1 to -0.5 and its Galilean score"
        " falls from 0.536 to 0.030 against GALILEAN_TAU = 0.05, so the mode goes"
        " from symmetry to stability (the support is unchanged)"
    ),
)
METAMORPHIC_LAWS = ("heat", "adv_diff", "burgers", "kdv", "ks")
TIME_SCALES = (0.5, 2.0)


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


def reflected(ts):
    """u(-x, t): grid index j goes to (nx - j) mod nx."""
    nx = ts.grid.nx
    return mapped(ts, lambda v: v.take(-np.arange(nx) % nx, axis=1))


def time_scaled(ts, c):
    """u(x, t / c): the same samples on a grid whose times are c t."""
    g = ts.grid
    grid = Grid1D(g.x0, g.length, g.nx, c * g.t_start, c * g.t_end, g.nt)
    return TrajectorySet(tuple(Trajectory(grid, tr.values) for tr in ts))


@pytest.fixture(scope="module")
def transformed(clean):
    """run_eqod on a law's clean set after a named map, made on first use."""
    cache = {}

    def get(name, how):
        if (name, how) not in cache:
            ts, _ = clean(name)
            ts = reflected(ts) if how == "reflect" else time_scaled(ts, how)
            cache[name, how] = run_eqod(ts, 42)
        return cache[name, how]

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


@pytest.mark.parametrize("name", METAMORPHIC_LAWS)
def test_reflection(clean, transformed, name):
    _, base = clean(name)
    res = transformed(name, "reflect")
    assert res.support() == base.support()
    sign = [(-1) ** sum(d * q for d, q in enumerate(t.powers)) for t in base.coeffs.terms]
    expected = base.coeffs.values * sign
    assert np.abs(res.coeffs.values - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize(
    "name",
    [n if n not in ("burgers", "ks") else pytest.param(n, marks=REFLECTED_MODE) for n in METAMORPHIC_LAWS],
)
def test_reflection_mode(clean, transformed, name):
    _, base = clean(name)
    res = transformed(name, "reflect")
    assert (res.mode, res.fallback_triggered) == (base.mode, base.fallback_triggered)


@pytest.mark.parametrize("name, c", [(n, c) for n in METAMORPHIC_LAWS for c in TIME_SCALES])
def test_time_scale(clean, transformed, name, c):
    # c is a power of two, so every time step, derivative and solve scales
    # exactly and the coefficients are bitwise the base ones over c
    _, base = clean(name)
    res = transformed(name, c)
    assert res.support() == base.support()
    assert np.array_equal(res.coeffs.values, base.coeffs.values / c)


@pytest.mark.parametrize(
    "name, c",
    [(n, c) if (n, c) != ("burgers", 2.0) else pytest.param(n, c, marks=BURGERS_SLOW_MODE) for n in METAMORPHIC_LAWS for c in TIME_SCALES],
)
def test_time_scale_mode(clean, transformed, name, c):
    _, base = clean(name)
    res = transformed(name, c)
    assert (res.mode, res.fallback_triggered) == (base.mode, base.fallback_triggered)


KDV_HALF_RATE = pytest.mark.xfail(
    strict=True,
    reason=(
        "kdv at every second time row returns {u_x} instead of {u*u_x, u_xxx},"
        " still in symmetry mode: its modes rotate by k^3 dt per sample, more"
        " than pi above k ~ 34 at half the rate, so the time quadrature of b"
        " aliases"
    ),
)


def every_second(ts, axis):
    """Every second time row (axis "t") or x point (axis "x") of an
    even-sized record: T shrinks by one original step, and L is kept."""
    g = ts.grid
    if axis == "t":
        grid, keep = Grid1D(g.x0, g.length, g.nx, g.t_start, float(g.t[-2]), g.nt // 2), np.s_[::2]
    else:
        grid, keep = Grid1D(g.x0, g.length, g.nx // 2, g.t_start, g.t_end, g.nt), np.s_[:, ::2]
    return TrajectorySet(tuple(Trajectory(grid, tr.values[keep]) for tr in ts))


@pytest.mark.parametrize(
    "name, axis",
    [(n, a) if (n, a) != ("kdv", "t") else pytest.param(n, a, marks=KDV_HALF_RATE) for n in METAMORPHIC_LAWS for a in "tx"],
)
def test_sampling(clean, name, axis):
    # the same record sampled half as finely in t or in x: the same law
    ts, base = clean(name)
    res = run_eqod(every_second(ts, axis), 42)
    assert (res.mode, res.fallback_triggered) == (base.mode, base.fallback_triggered)
    assert res.support() == base.support()
