"""One rule per kind of number, at every numeric entry of the package.

Each entry takes an index (``core.as_index``), a real number
(``core.as_real``) or an array of real numbers (``core.as_reals`` or
``core.frozen_reals``). A value of any other kind, or a non-finite one,
raises ValueError naming the argument before any FFT, solve or LASSO
path runs. A grid, trajectory set, law or base library of the wrong
kind raises ValueError naming the argument too (``TestKinds``).
"""

import dataclasses
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from eqod import pipeline, solvers, sparse, stability, symmetry
from eqod.core import STANDARD_TERMS, CoefficientVector, RngStream, Trajectory, as_real, as_reals, frozen_reals
from eqod.oplib import standard_library
from eqod.pipeline import run_eqod, run_wf_lasso_baseline
from eqod.solvers import PDES, add_noise, generate_set, initial_condition, solve
from eqod.spectral import spectral_derivative, wavenumbers
from eqod.symmetry import GALILEAN_BASIS
from eqod.weakform import IDENTIFY_GRID, BoostedGrid, WeakSystem, assemble, make_test_grid

GRID = PDES["heat"].default_grid(16, 16)

# The bad values of each kind of entry, by the failure they stand for.
BAD_SCALARS = {
    "complex": 0.5 + 1e-3j,
    "bool": True,
    "object": object(),
    "text": "0.5",
    "nan": np.nan,
    "inf": np.inf,
    "0-d array": np.array(0.5),
}
BAD_INDICES = {**BAD_SCALARS, "complex": 16 + 0j, "text": "16", "0-d array": np.array(16.0)}
BAD_ARRAYS = ("complex", "bool", "object", "text", "nan", "inf")  # see _spoiled


def _spoiled(good, kind=None):
    """A float64 copy of ``good``, spoiled by the bad value of ``kind``
    (None leaves it good)."""
    good = np.array(good, dtype=float)
    if kind == "nan":
        good.flat[0] = np.nan
    elif kind == "inf":
        good.flat[1] = -np.inf
    return {
        "complex": lambda: good + 1e-3j,
        "bool": lambda: good > 0,
        "object": lambda: good.astype(object),
        "text": lambda: good.astype(str),
    }.get(kind, lambda: good)()


@pytest.fixture(scope="module")
def ctx(heat_clean):
    tg = make_test_grid(heat_clean.grid, *IDENTIFY_GRID)
    (ws,) = assemble(heat_clean, standard_library(), tg)
    theta, b = np.random.default_rng(0).standard_normal((20, 3)), np.random.default_rng(1).standard_normal(20)
    return SimpleNamespace(tr=heat_clean.trajectories[0], tg=tg, ws=ws, theta=theta, b=b)


def _system(ctx, name, value):
    """The identification system of ``ctx`` with ``name`` (theta or b) replaced."""
    parts = {"theta": ctx.ws.theta, "b": ctx.ws.b, name: value}
    return WeakSystem(parts["theta"], parts["b"], ctx.ws.spec, ctx.ws.test_grid)


def _scales_entries():
    """The entries that check their system in ``sparse._scales``."""
    calls = {
        "lasso_cv": lambda ws: sparse.lasso_cv(ws.theta, ws.b, seed=0),
        "identify_on_system": lambda ws: sparse.identify_on_system(ws, 0),
        "stability_select": lambda ws: stability.stability_select(ws.theta, ws.b, seed=0),
        "galilean_fit": symmetry._convective_fit,
    }
    for entry, call in calls.items():
        for name in ("theta", "b"):
            good = lambda c, name=name: getattr(c.ws, name)
            yield f"{entry}-{name}", name, "array", good, lambda c, v, name=name, call=call: call(_system(c, name, v))


# (id, argument name, kind, good value of ctx, call with a value)
ENTRIES = [
    *(
        (f"Grid1D-{name}", name, "scalar", None, lambda c, v, name=name: dataclasses.replace(GRID, **{name: v}))
        for name in ("x0", "length", "t_start", "t_end")
    ),
    ("Trajectory-values", "trajectory values", "array", lambda c: np.zeros((16, 16)), lambda c, v: Trajectory(GRID, v)),
    (
        "CoefficientVector-values",
        "coefficient values",
        "array",
        lambda c: np.ones(len(STANDARD_TERMS)),
        lambda c, v: CoefficientVector(STANDARD_TERMS, v),
    ),
    *(
        (f"TestGrid-{name}", name, "array", lambda c, name=name: getattr(c.tg, name), lambda c, v, name=name: dataclasses.replace(c.tg, **{name: v}))
        for name in ("t_centers", "x_centers")
    ),
    *(
        (f"TestGrid-{name}", name, "scalar", None, lambda c, v, name=name: dataclasses.replace(c.tg, **{name: v}))
        for name in ("r_t", "r_x")
    ),
    ("BoostedGrid-c", "c", "scalar", None, lambda c, v: BoostedGrid(c.tg, v, GALILEAN_BASIS)),
    ("solve-u0", "u0", "array", lambda c: np.sin(GRID.x), lambda c, v: solve(PDES["heat"], v, GRID)),
    ("add_noise-sigma", "sigma", "scalar", None, lambda c, v: add_noise(c.tr, v, RngStream(0).generator(0))),
    ("spectral_derivative-row", "row", "array", lambda c: np.sin(GRID.x), lambda c, v: spectral_derivative(v, 1, GRID.length)),
    ("spectral_derivative-length", "length", "scalar", None, lambda c, v: spectral_derivative(np.sin(GRID.x), 1, v)),
    ("spectral_derivative-order", "order", "index", None, lambda c, v: spectral_derivative(np.sin(GRID.x), v, GRID.length)),
    ("wavenumbers-nx", "nx", "index", None, lambda c, v: wavenumbers(v, 2 * np.pi)),
    ("wavenumbers-length", "length", "scalar", None, lambda c, v: wavenumbers(16, v)),
    *_scales_entries(),
    ("lasso-theta_norm", "theta_norm", "array", lambda c: c.theta, lambda c, v: sparse.lasso(v, c.b, 0.1)),
    ("lasso-b_norm", "b_norm", "array", lambda c: c.b, lambda c, v: sparse.lasso(c.theta, v, 0.1)),
    ("lasso-lam", "lam", "scalar", None, lambda c, v: sparse.lasso(c.theta, c.b, v)),
    *(
        (f"PdeSpec-{name}", name, "scalar", None, lambda c, v, name=name: dataclasses.replace(PDES["burgers"], **{name: v}))
        for name in ("domain_length", "t_end", "transient")
    ),
    (
        "PdeSpec-steps_per_sample",
        "steps_per_sample",
        "index",
        None,
        lambda c, v: dataclasses.replace(PDES["burgers"], steps_per_sample=v),
    ),
]

CASES = [
    pytest.param(entry, bad, id=f"{entry[0]}-{bad}")
    for entry in ENTRIES
    for bad in {"scalar": BAD_SCALARS, "index": BAD_INDICES, "array": BAD_ARRAYS}[entry[2]]
]


@pytest.mark.parametrize("entry, bad", CASES)
def test_a_bad_number_is_rejected_by_name_before_any_work(ctx, monkeypatch, entry, bad):
    _, name, kind, good, call = entry
    value = _spoiled(good(ctx), bad) if kind == "array" else (BAD_INDICES if kind == "index" else BAD_SCALARS)[bad]

    def unreached(*args, **kwargs):
        raise AssertionError("a transform or solve ran")

    monkeypatch.setattr(np.fft, "rfft", unreached)
    monkeypatch.setattr(np.linalg, "lstsq", unreached)
    monkeypatch.setattr(sparse, "_homotopy", unreached)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(ctx, value)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_stability_select_checks_its_seed_before_its_ols_solve(ctx, monkeypatch, seed):
    solves, lstsq = [], np.linalg.lstsq

    def counted(*args, **kwargs):
        solves.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    with pytest.raises(ValueError, match="^seed must be"):
        stability.stability_select(ctx.theta, ctx.b, seed)
    assert not solves
    # a good seed reaches the one OLS solve that the count would see
    stability.stability_select(ctx.theta, ctx.b, 0)
    assert len(solves) == 1


@pytest.mark.parametrize("entry", [pytest.param(e, id=e[0]) for e in ENTRIES if e[2] == "array"])
def test_every_array_entry_takes_its_good_value(ctx, entry):
    # the bad arrays above differ from an accepted one in the spoiled way only
    *_, good, call = entry
    call(ctx, _spoiled(good(ctx)))


class TestPolicy:
    @pytest.mark.parametrize("v", [3, np.int64(3), np.float32(0.5), -2.5, np.float64(1e300)])
    def test_as_real_returns_a_float(self, v):
        out = as_real("v", v)
        assert type(out) is float and out == float(v)

    def test_as_reals_returns_float64_as_itself(self):
        a = np.arange(6.0).reshape(2, 3)
        assert as_reals("a", a) is a

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float32, np.float16])
    def test_as_reals_casts_integer_and_float_dtypes(self, dtype):
        out = as_reals("a", np.arange(4, dtype=dtype))
        assert out.dtype == np.float64 and np.array_equal(out, np.arange(4.0))

    @pytest.mark.parametrize("v", [np.arange(3.0), [1, 2, 3]])
    def test_frozen_reals_is_a_read_only_copy(self, v):
        out = frozen_reals("a", v)
        assert out.dtype == np.float64 and not out.flags.writeable
        assert not isinstance(v, np.ndarray) or not np.shares_memory(out, v)

    def test_as_reals_names_a_ragged_sequence(self):
        # numpy's own "inhomogeneous shape" error used to escape without the name
        with pytest.raises(ValueError, match="^theta must be a rectangular array of real numbers: "):
            as_reals("theta", [[1.0, 2.0], [3.0]])

    def test_as_reals_names_a_long_double_beyond_float64_before_numpy_warns(self):
        # the cast to float64 used to warn of its overflow first, an error under -W error
        if np.finfo(np.longdouble).max <= np.finfo(np.float64).max:
            pytest.skip("long double is float64 on this platform")
        big = np.array([np.finfo(np.longdouble).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^b must be finite$"):
                as_reals("b", big)


WRONG_KINDS = ["grid", [1, 2], None]


class TestKinds:
    """A grid, trajectory set, law or base library of the wrong kind is
    named, not met as an AttributeError deep in the code."""

    @pytest.mark.parametrize("run", [run_eqod, run_wf_lasso_baseline])
    @pytest.mark.parametrize("base_library", [("u_xx",), ()])
    def test_a_base_library_that_is_not_a_library_spec_fails_before_the_assembly(self, heat_clean, monkeypatch, run, base_library):
        # ("u_xx",) used to raise AttributeError in run_eqod and name spec in
        # the baseline, and () ran the standard library
        monkeypatch.setattr(pipeline, "assemble", _raises)
        with pytest.raises(ValueError, match="^base_library must be a LibrarySpec or None, got tuple$"):
            run(heat_clean, 0, base_library)

    @pytest.mark.parametrize("grid", WRONG_KINDS)
    def test_make_test_grid_rejects_a_grid_that_is_not_a_grid1d(self, grid):
        with pytest.raises(ValueError, match=f"^grid must be a Grid1D, got {type(grid).__name__}$"):
            make_test_grid(grid, *IDENTIFY_GRID)

    @pytest.mark.parametrize("trajset", [*WRONG_KINDS, ()])
    def test_assemble_rejects_a_trajset_that_is_not_a_trajectory_set(self, trajset, monkeypatch):
        tg = make_test_grid(PDES["heat"].default_grid(), *IDENTIFY_GRID)
        monkeypatch.setattr(np.fft, "rfft", _raises)
        with pytest.raises(ValueError, match=f"^trajset must be a TrajectorySet, got {type(trajset).__name__}$"):
            assemble(trajset, standard_library(), tg)

    @pytest.mark.parametrize("arg", ["pde", "grid"])
    @pytest.mark.parametrize("value", WRONG_KINDS)
    def test_generate_set_rejects_a_law_or_grid_of_the_wrong_kind_before_any_solve(self, arg, value, monkeypatch):
        monkeypatch.setattr(solvers, "_propagate", _raises)
        given = {"pde": PDES["heat"], "grid": GRID, arg: value}
        kind = {"pde": "PdeSpec", "grid": "Grid1D"}[arg]
        with pytest.raises(ValueError, match=f"^{arg} must be a {kind}, got {type(value).__name__}$"):
            generate_set(given["pde"], given["grid"], 3, 0.0, 0)

    @pytest.mark.parametrize("arg", ["pde", "grid"])
    @pytest.mark.parametrize("value", WRONG_KINDS)
    def test_initial_condition_rejects_a_law_or_grid_of_the_wrong_kind(self, arg, value):
        given = {"pde": PDES["heat"], "grid": GRID, arg: value}
        kind = {"pde": "PdeSpec", "grid": "Grid1D"}[arg]
        with pytest.raises(ValueError, match=f"^{arg} must be a {kind}, got {type(value).__name__}$"):
            initial_condition(given["pde"], given["grid"], RngStream(0).generator(0))


def _raises(*args, **kwargs):
    raise AssertionError("ran past the argument check")
