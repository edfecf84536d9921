import dataclasses
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from oracles import detect_reflection, galilean_boost, plain_assemble, plain_fields, unsplit_assemble
from scipy.interpolate import RectBivariateSpline

import eqod.oplib as oplib
import eqod.weakform as weakform
from eqod.core import Grid1D, Trajectory, TrajectorySet, term_from_tag
from eqod.oplib import (
    FieldPass,
    LibrarySpec,
    evaluate_term,
    expanded_library,
    galilean_reduced,
    standard_library,
)
from eqod.solvers import PDES, generate_set
from eqod.stability import STABILITY_GRID
from eqod.symmetry import GALILEAN_BASIS, GALILEAN_BOOST_C
from eqod.weakform import (
    IDENTIFY_GRID,
    BoostedGrid,
    OddReflection,
    WeakSystem,
    assemble,
    bump,
    bump_dt,
    make_test_grid,
)

UXX_ONLY = LibrarySpec((term_from_tag("u_xx"),))
SINGLE_DERIVATIVES = LibrarySpec(
    tuple(term_from_tag(t) for t in ("u", "u_x", "u_xx", "u_xxx", "u_xxxx"))
)
THREE_TERMS = LibrarySpec(tuple(term_from_tag(t) for t in ("u_x", "u_xx", "u*u_x")))


def _support_slice(centers, c, r, n):
    """Index range covering [c - r, c + r] plus one zero sample on each side."""
    inside = np.nonzero(np.abs(centers - c) <= r)[0]
    lo = max(int(inside[0]) - 1, 0)
    hi = min(int(inside[-1]) + 1, n - 1)
    return lo, hi + 1


def reference_assemble(trajset, spec, tg):
    """Per-center loop over each bump's support rectangle: the arithmetic the
    separable contraction in ``assemble`` must reproduce. Also returns the
    (trajectory index, t_c, x_c) origin of each row, in the loop's order."""
    grid = trajset.grid
    t, x = grid.t, grid.x
    dxdt = grid.dx * grid.dt
    rows_theta, rows_b, meta = [], [], []
    for m, traj in enumerate(trajset):
        fields = np.stack([evaluate_term(traj, term) for term in spec.terms])
        u = traj.values
        for tc in tg.t_centers:
            i0, i1 = _support_slice(t, tc, tg.r_t, grid.nt)
            phi_t = bump((t[i0:i1] - tc) / tg.r_t)
            dphi_t = bump_dt((t[i0:i1] - tc) / tg.r_t) / tg.r_t
            for xc in tg.x_centers:
                j0, j1 = _support_slice(x, xc, tg.r_x, grid.nx)
                phi_x = bump((x[j0:j1] - xc) / tg.r_x)
                w = np.outer(phi_t, phi_x)
                w_t = np.outer(dphi_t, phi_x)
                block = fields[:, i0:i1, j0:j1]
                rows_theta.append(dxdt * np.einsum("kij,ij->k", block, w))
                rows_b.append(-dxdt * float(np.sum(u[i0:i1, j0:j1] * w_t)))
                meta.append((m, float(tc), float(xc)))
    return WeakSystem(np.array(rows_theta), np.array(rows_b), spec, tg), meta


def row_origin(ws, r):
    """(trajectory index, t_c, x_c) of row r, by WeakSystem's row order."""
    tg = ws.test_grid
    n_x = len(tg.x_centers)
    return (
        r // tg.n_centers,
        float(tg.t_centers[(r % tg.n_centers) // n_x]),
        float(tg.x_centers[r % n_x]),
    )


def abs_quadrature(trajset, spec, tg):
    """dx*dt * (phi_t |F_k| phi_x^T) and dx*dt * (|dphi_t| |u| phi_x^T) per row:
    the scale of each weak-form integral before cancellation."""
    g = trajset.grid
    phi_t = bump((g.t[None, :] - tg.t_centers[:, None]) / tg.r_t)
    dphi_t = np.abs(bump_dt((g.t[None, :] - tg.t_centers[:, None]) / tg.r_t) / tg.r_t)
    phi_x = bump((g.x[None, :] - tg.x_centers[:, None]) / tg.r_x)
    dxdt = g.dx * g.dt
    theta, b = [], []
    for tr in trajset:
        b.append(dxdt * (dphi_t @ np.abs(tr.values) @ phi_x.T).ravel())
        theta.append(
            np.stack(
                [dxdt * (phi_t @ np.abs(evaluate_term(tr, t)) @ phi_x.T).ravel() for t in spec.terms],
                axis=1,
            )
        )
    return np.concatenate(theta), np.concatenate(b)


def full_size_ffts(monkeypatch, ts, spec, *grids):
    """The names of the FFTs over all nt rows that one assembly makes."""
    seen = []

    def counted(fn, name):
        def wrapper(a, *args, **kwargs):
            seen.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for fn in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            patch.setattr(np.fft, fn, counted(getattr(np.fft, fn), fn))
        assemble(ts, spec, *grids)
    return [name for name, shape in seen if shape[0] == ts.grid.nt]


class TestBump:
    def test_center(self):
        assert bump(0.0) == pytest.approx(np.exp(-1.0))

    def test_boundary(self):
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(1.5) == 0.0

    def test_half(self):
        assert bump(0.5) == pytest.approx(np.exp(-4.0 / 3.0))

    def test_derivative_matches_finite_difference(self):
        r = np.linspace(-0.95, 0.95, 41)
        h = 1e-6
        fd = (bump(r + h) - bump(r - h)) / (2 * h)
        assert np.abs(bump_dt(r) - fd).max() < 1e-6

    def test_derivative_zero_outside(self):
        assert bump_dt(1.0) == 0.0
        assert bump_dt(-2.0) == 0.0


class TestTestGrid:
    def test_benchmark_radii(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        tg = make_test_grid(g, 5, 7)
        assert tg.r_t == pytest.approx(0.18)
        assert tg.r_x == pytest.approx(0.2 * 2 * np.pi)
        assert tg.n_centers == 35

    def test_dense_grid(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        tg = make_test_grid(g, 8, 10)
        assert tg.n_centers == 80

    def test_margins(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        tg = make_test_grid(g, 5, 7)
        assert tg.t_centers[0] == pytest.approx(1.05 * 0.18)
        assert tg.t_centers[-1] == pytest.approx(1.0 - 1.05 * 0.18)
        assert tg.x_centers[0] >= 1.05 * tg.r_x

    def test_too_small_grid_errors(self):
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 16)
        with pytest.raises(ValueError, match="margins"):
            make_test_grid(g, 5, 7)

    # The margins need more than 2 * 1.05 * 8 = 16.8 cells per axis: nt >= 18,
    # and nx >= 17, which an even nx makes 18.
    @pytest.mark.parametrize(
        "nt, nx, short",
        [(17, 18, "nt >= 18 (got 17)"), (18, 16, "nx >= 18 (got 16)"), (18, 18, None)],
    )
    def test_smallest_grid_on_each_axis(self, nt, nx, short):
        g = Grid1D(0.0, 2 * np.pi, nx, 0.0, 1.0, nt)
        if short is None:
            assert make_test_grid(g, 5, 7).n_centers == 35
        else:
            with pytest.raises(ValueError) as err:
                make_test_grid(g, 5, 7)
            assert str(err.value).endswith(f"margins; need {short}")

    def test_too_small_on_both_axes_names_both(self):
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 17)
        with pytest.raises(ValueError, match=r"need nt >= 18 \(got 17\) and nx >= 18 \(got 16\)$"):
            make_test_grid(g, 5, 7)

    @pytest.mark.parametrize("n_t, n_x", [(0, 7), (5, 0), (-1, 7)])
    def test_no_centers_errors(self, n_t, n_x):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        with pytest.raises(ValueError, match="at least one test-function center"):
            make_test_grid(g, n_t, n_x)

    @pytest.mark.parametrize("n_t, n_x, name", [(5.0, 7, "n_t"), (5, 7.5, "n_x"), (5, "7", "n_x")])
    def test_non_integer_counts_error(self, n_t, n_x, name):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            make_test_grid(g, n_t, n_x)

    def test_equal_grids_built_apart_are_one_value(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        tg, again = make_test_grid(g, 5, 7), make_test_grid(g, 5, 7)
        assert again is not tg and again == tg and hash(again) == hash(tg)
        others = [
            dataclasses.replace(tg, t_centers=tg.t_centers + g.dt),
            dataclasses.replace(tg, x_centers=tg.x_centers[:-1]),
            dataclasses.replace(tg, r_t=1.01 * tg.r_t),
            dataclasses.replace(tg, r_x=tg.r_x / 2),
            make_test_grid(g, 5, 8),
        ]
        assert all(other != tg for other in others)
        assert len({tg, again, *others}) == 1 + len(others)

    def test_centers_are_read_only_float64_copies(self):
        t, x = np.linspace(0.2, 0.8, 5), np.arange(2, 5)
        view = t[:]
        view.flags.writeable = False  # read-only, yet the caller can still write t
        tg = weakform.TestGrid(view, x, np.float64(0.18), 1)
        t[0], x[0] = 0.5, 9
        assert tg.t_centers[0] == 0.2 and tg.x_centers[0] == 2.0
        assert tg.x_centers.dtype == np.float64 and type(tg.r_t) is float and type(tg.r_x) is float
        for a in (tg.t_centers, tg.x_centers):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            tg.t_centers = t

    @pytest.mark.parametrize(
        "name, value, must",
        # each case keeps the id it had with two parameters
        [
            pytest.param("t_centers", np.full((5, 1), 0.5), "be a nonempty 1-D array of finite real numbers, got ", id="t_centers-value0"),
            pytest.param("t_centers", np.array([]), "be a nonempty 1-D array of finite real numbers, got ", id="t_centers-value1"),
            pytest.param("t_centers", 0.5, "be a nonempty 1-D array of finite real numbers, got ", id="t_centers-0.5"),
            pytest.param("x_centers", np.array([2.0 + 0.5j, 3.0]), "be real, got dtype complex128$", id="x_centers-value3"),
            pytest.param("x_centers", np.array([None, 3.0]), "be real, got dtype object$", id="x_centers-value4"),
            pytest.param("t_centers", np.array([0.3, np.nan, 0.6]), "be finite$", id="t_centers-value5"),
            pytest.param("x_centers", np.array([2.0, np.inf]), "be finite$", id="x_centers-value6"),
            pytest.param("r_t", np.nan, "be a finite real number, got ", id="r_t-nan"),
            pytest.param("r_t", np.inf, "be a finite real number, got ", id="r_t-inf"),
            pytest.param("r_t", 0.0, "be finite and positive, got ", id="r_t-0.0"),
            pytest.param("r_x", np.nan, "be a finite real number, got ", id="r_x-nan"),
            pytest.param("r_x", -1.2, "be finite and positive, got ", id="r_x--1.2"),
        ],
    )
    def test_rejects_a_malformed_field_before_any_transform(self, heat_clean, monkeypatch, name, value, must):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        tg = make_test_grid(heat_clean.grid, *IDENTIFY_GRID)
        with pytest.raises(ValueError, match=f"^{name} must {must}"):
            assemble(heat_clean, UXX_ONLY, dataclasses.replace(tg, **{name: value}))

    @pytest.mark.parametrize("where", ["first center at t_start", "last center at t_end", "radius past t_start"])
    def test_rejects_a_t_support_that_leaves_the_record(self, heat_clean, monkeypatch, where):
        # b moves d/dt onto the bumps: one cut off by the record's end gives a
        # wrong b, so the plan refuses it on every call, boosted or not
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        ts, g = heat_clean, heat_clean.grid
        tg = make_test_grid(g, *IDENTIFY_GRID)
        t = tg.t_centers
        bad = {
            "first center at t_start": dataclasses.replace(tg, t_centers=np.r_[g.t_start, t[1:]]),
            "last center at t_end": dataclasses.replace(tg, t_centers=np.r_[t[:-1], g.t_end]),
            "radius past t_start": dataclasses.replace(tg, r_t=1.01 * (t[0] - g.t_start)),
        }[where]
        for grid in (bad, bad, BoostedGrid(bad, GALILEAN_BOOST_C, GALILEAN_BASIS)):
            with pytest.raises(ValueError, match=r"^test-function t-supports span \[.*\], which leaves the record \[0\.0, "):
                assemble(ts, standard_library(), grid)

    def test_every_grid_of_the_suite_keeps_its_t_supports_in_the_record(self):
        grids = [
            Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128),
            Grid1D(0.0, 2 * np.pi, 64, 0.0, 1.0, 64),
            Grid1D(0.0, 2 * np.pi, 64, 0.0, 1e-200, 64),
            Grid1D(0.0, 2 * np.pi, 32, 0.0, 1.0, 32),
            Grid1D(0.0, 2 * np.pi, 18, 0.0, 1.0, 18),
        ]
        for pde in PDES.values():
            g = pde.default_grid()
            grids += [g, pde.default_grid(1024, 512), dataclasses.replace(g, nt=g.nt // 2, t_end=float(g.t[-2]))]
            grids += [dataclasses.replace(g, nx=g.nx // 2), dataclasses.replace(g, t_start=1e3 * g.t_start, t_end=1e3 * g.t_end)]
        densities = [IDENTIFY_GRID, STABILITY_GRID, (3, 3), (5, 7), (8, 10), *((n, 3) for n in range(1, 21))]
        for g in grids:
            for density in densities:
                weakform._bump_matrices(g, make_test_grid(g, *density))


class TestAssemble:
    def test_constant_field_rows(self):
        # b vanishes in continuum (integral of phi_t over its support);
        # discretely it sits at the time-quadrature floor
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        ts = TrajectorySet((Trajectory(g, np.ones((128, 128))),))
        (ws,) = assemble(ts, UXX_ONLY, make_test_grid(g, 5, 7))
        assert ws.shape == (35, 1)
        assert np.abs(ws.b).max() < 1e-5
        assert np.abs(ws.theta).max() < 1e-9

    def test_heat_coefficient_ratio(self, heat_clean):
        (ws,) = assemble(heat_clean, UXX_ONLY, make_test_grid(heat_clean.grid, 5, 7))
        col = ws.theta[:, 0]
        assert ws.b @ col / (col @ col) == pytest.approx(0.1, abs=1e-3)

    def test_row_order(self, heat_clean):
        # trajectory-major, then t-center-major: each row is its own
        # trajectory's assembly on its own single center
        tg = make_test_grid(heat_clean.grid, 5, 7)
        (ws,) = assemble(heat_clean, UXX_ONLY, tg)
        assert ws.test_grid is tg
        assert ws.shape == (105, 1)
        assert row_origin(ws, 6) == (0, tg.t_centers[0], tg.x_centers[6])
        assert row_origin(ws, 7) == (0, tg.t_centers[1], tg.x_centers[0])
        tol_theta, tol_b = 1e-12 * np.abs(ws.theta).max(), 1e-12 * np.abs(ws.b).max()
        for r in range(ws.shape[0]):
            m, tc, xc = row_origin(ws, r)
            one = dataclasses.replace(tg, t_centers=np.array([tc]), x_centers=np.array([xc]))
            (alone,) = assemble(TrajectorySet(heat_clean.trajectories[m : m + 1]), UXX_ONLY, one)
            assert alone.theta[0, 0] == pytest.approx(ws.theta[r, 0], rel=0, abs=tol_theta)
            assert alone.b[0] == pytest.approx(ws.b[r], rel=0, abs=tol_b)

    def test_restriction_preserves_columns(self, burgers_clean):
        tg = make_test_grid(burgers_clean.grid, 5, 7)
        (full,) = assemble(burgers_clean, standard_library(), tg)
        three = LibrarySpec(tuple(term_from_tag(t) for t in ("u_x", "u_xx", "u*u_x")))
        for spec in (galilean_reduced(), GALILEAN_BASIS, three):
            red = full.restricted(spec)
            (direct,) = assemble(burgers_clean, spec, tg)
            assert np.array_equal(red.theta, direct.theta)
            assert np.array_equal(red.b, direct.b)
            assert red.test_grid is tg

    def test_restriction_names_the_terms_the_library_lacks(self, burgers_clean):
        tg = make_test_grid(burgers_clean.grid, 5, 7)
        three = LibrarySpec(tuple(term_from_tag(t) for t in ("u_x", "u_xx", "u*u_x")))
        (ws,) = assemble(burgers_clean, three, tg)
        with pytest.raises(ValueError, match=re.escape("the system's library lacks ['u^2', 'u_xxx']")):
            ws.restricted(LibrarySpec(tuple(term_from_tag(t) for t in ("u^2", "u_x", "u_xxx"))))

    def test_rejects_a_grid_that_is_not_a_test_grid(self, burgers_clean):
        # used to fail deep inside, with "'str' object has no attribute 'n_centers'"
        with pytest.raises(ValueError, match="^test_grid must be a TestGrid, got 'grid'$"):
            assemble(burgers_clean, standard_library(), "grid")

    def test_response_linear_in_data(self, heat_clean):
        g = heat_clean.grid
        tg = make_test_grid(g, 5, 7)
        tr = heat_clean.trajectories[0]
        scaled = TrajectorySet((Trajectory(g, 2.0 * tr.values),))
        b1 = assemble(TrajectorySet((tr,)), UXX_ONLY, tg)[0].b
        b2 = assemble(scaled, UXX_ONLY, tg)[0].b
        assert np.abs(b2 - 2.0 * b1).max() < 1e-12

    def test_true_coefficients_residual(self, burgers_clean):
        spec = galilean_reduced()
        (ws,) = assemble(burgers_clean, spec, make_test_grid(burgers_clean.grid, 5, 7))
        xi = np.zeros(len(spec))
        xi[spec.index(term_from_tag("u*u_x"))] = -1.0
        xi[spec.index(term_from_tag("u_xx"))] = 0.1
        resid = np.linalg.norm(ws.b - ws.theta @ xi) / np.linalg.norm(ws.b)
        assert resid < 1e-2

    def test_refined_quadrature_oracle(self, heat_clean):
        # bicubic-interpolate fields onto a 4x grid and redo each integral
        spec = LibrarySpec((term_from_tag("u"), term_from_tag("u_xx")))
        g = heat_clean.grid
        tg = make_test_grid(g, 3, 3)
        (ws,) = assemble(TrajectorySet(heat_clean.trajectories[:1]), spec, tg)
        tr = heat_clean.trajectories[0]
        fields = [evaluate_term(tr, t) for t in spec.terms]
        t_f = np.linspace(g.t_start, g.t_end, 4 * (g.nt - 1) + 1)
        x_f = g.x0 + np.arange(4 * g.nx) * g.dx / 4
        dt_f, dx_f = t_f[1] - t_f[0], g.dx / 4
        splines = [RectBivariateSpline(g.t, g.x, f) for f in fields]
        u_spline = RectBivariateSpline(g.t, g.x, tr.values)
        row = 0
        for tc in tg.t_centers:
            phi_t = bump((t_f - tc) / tg.r_t)
            dphi_t = bump_dt((t_f - tc) / tg.r_t) / tg.r_t
            for xc in tg.x_centers:
                phi_x = bump((x_f - xc) / tg.r_x)
                w = np.outer(phi_t, phi_x)
                ref_theta = [dt_f * dx_f * np.sum(s(t_f, x_f) * w) for s in splines]
                ref_b = -dt_f * dx_f * np.sum(u_spline(t_f, x_f) * np.outer(dphi_t, phi_x))
                scale = max(np.abs(ref_theta).max(), abs(ref_b))
                assert np.abs(ws.theta[row] - ref_theta).max() / scale < 1e-3
                assert abs(ws.b[row] - ref_b) / scale < 1e-3
                row += 1

    def test_galilean_boost_invariance(self, burgers_clean):
        # boosted solutions of a boost-invariant law refit to the same coefficients
        spec = galilean_reduced()
        tg = make_test_grid(burgers_clean.grid, 5, 7)

        def ls_fit(ts):
            (ws,) = assemble(ts, spec, tg)
            sol, *_ = np.linalg.lstsq(ws.theta, ws.b, rcond=None)
            return sol

        base = ls_fit(burgers_clean)
        boosted = ls_fit(galilean_boost(burgers_clean, 0.3))
        assert np.abs(base - boosted).max() < 5e-2

    def test_degenerate_radius_errors(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        ts = TrajectorySet((Trajectory(g, np.ones((128, 128))),))
        tg = make_test_grid(g, 5, 7)
        bad = dataclasses.replace(tg, r_t=g.dt)
        with pytest.raises(ValueError, match="radius"):
            assemble(ts, UXX_ONLY, bad)

    def test_an_overflowing_product_raises(self, heat_clean, monkeypatch):
        # u^2 of heat scaled by 1e200 overflows, and its infinite contraction,
        # times the expansion's zeros, would poison the u and u_xx columns too;
        # the error is reported once, with no warning, inline and on helper threads
        big = TrajectorySet(tuple(Trajectory(t.grid, t.values * 1e200) for t in heat_clean))
        tg = make_test_grid(big.grid, *IDENTIFY_GRID)
        peak = max(np.abs(t.values).max() for t in big)
        message = f"the weak-form system is not finite: a library product of the data overflows (largest |u| is {peak:.3g})"
        spec = LibrarySpec(tuple(term_from_tag(t) for t in ("u", "u_xx", "u^2")))
        for threaded in (False, True):
            if threaded:
                monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
                monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
                monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    assemble(big, spec, tg)
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
            (ws,) = assemble(big, SINGLE_DERIVATIVES, tg)
            assert np.isfinite(ws.theta).all() and np.isfinite(ws.b).all()

    def test_systems_compare_by_identity(self, heat_clean):
        # == between distinct systems used to raise on their arrays
        tg = make_test_grid(heat_clean.grid, 3, 3)
        (a,), (b,) = assemble(heat_clean, UXX_ONLY, tg), assemble(heat_clean, UXX_ONLY, tg)
        assert a == a and a != b and len({a, b}) == 2


class TestSeparableAssembly:
    @pytest.mark.parametrize("data", ["heat_noisy10", "burgers_clean", "fisher_kpp_clean"])
    @pytest.mark.parametrize("density", [(3, 3), (5, 7), (8, 10)])
    def test_matches_reference_loop(self, data, density, request):
        # the standard library plus 20 products, some of orders 3 and 4;
        # fisher_kpp has steep fronts
        ts = request.getfixturevalue(data)
        spec = expanded_library(30)
        tg = make_test_grid(ts.grid, *density)
        (ws,) = assemble(ts, spec, tg)
        ref, origins = reference_assemble(ts, spec, tg)
        assert ws.test_grid is tg
        assert [row_origin(ws, r) for r in range(ws.shape[0])] == origins
        scale_theta, scale_b = abs_quadrature(ts, spec, tg)
        assert np.all(np.abs(ws.theta - ref.theta) <= 1e-13 * scale_theta)
        assert np.all(np.abs(ws.b - ref.b) <= 1e-13 * scale_b)

    def test_each_derivative_order_computed_once(self, heat_noisy10, monkeypatch):
        # single-derivative columns are differentiated after the time
        # contraction; full-size fields are made once per order a product
        # uses, each when the first product that needs it comes
        calls = []
        real = oplib.spectrum_derivatives

        def counting(u_hat, orders, *args, **kwargs):
            calls.append(tuple(orders))
            return real(u_hat, orders, *args, **kwargs)

        monkeypatch.setattr(oplib, "spectrum_derivatives", counting)
        tg = make_test_grid(heat_noisy10.grid, 5, 7)
        for spec, orders in ((standard_library(), [(1,), (2,)]), (GALILEAN_BASIS, [(1,)]), (SINGLE_DERIVATIVES, [])):
            calls.clear()
            assemble(heat_noisy10, spec, tg)
            assert calls == orders * len(heat_noisy10)

    @pytest.mark.parametrize(
        "spec, inverses", [(standard_library(), 2), (GALILEAN_BASIS, 1)], ids=["standard", "galilean_basis"]
    )
    def test_full_size_ffts_per_trajectory(self, burgers_clean, monkeypatch, spec, inverses):
        # the standard library is the pipeline's base union GALILEAN_BASIS:
        # one rfft of u and one irfft per order a product needs; the
        # contracted spectra are small, and the odd-reflection sums add none
        g = burgers_clean.grid
        grids = make_test_grid(g, *IDENTIFY_GRID), make_test_grid(g, *STABILITY_GRID), OddReflection()
        full = full_size_ffts(monkeypatch, burgers_clean, spec, *grids)
        m = len(burgers_clean)
        assert sorted(full) == ["irfft"] * (inverses * m) + ["rfft"] * m

    @pytest.mark.parametrize("data", ["burgers_clean", "kdv_clean"])
    def test_boosted_grid_adds_no_full_size_fft(self, data, request, monkeypatch):
        # the pipeline's call: the boost is read from the same spectrum and fields
        ts = request.getfixturevalue(data)
        g = ts.grid
        tg = make_test_grid(g, *IDENTIFY_GRID)
        grids = (tg, make_test_grid(g, *STABILITY_GRID))
        boosted = BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS)
        spec = standard_library()
        with_boost = full_size_ffts(monkeypatch, ts, spec, *grids, boosted)
        assert sorted(with_boost) == sorted(full_size_ffts(monkeypatch, ts, spec, *grids))
        assert sorted(with_boost) == ["irfft"] * (2 * len(ts)) + ["rfft"] * len(ts)

    @pytest.mark.parametrize("data", ["heat_noisy10", "burgers_clean"])
    def test_grids_share_one_pass_bitwise(self, data, request):
        ts = request.getfixturevalue(data)
        spec = standard_library()
        g1, g2 = make_test_grid(ts.grid, 5, 7), make_test_grid(ts.grid, 8, 10)
        shared = assemble(ts, spec, g1, g2)
        assert len(shared) == 2
        for ws, tg in zip(shared, (g1, g2)):
            (alone,) = assemble(ts, spec, tg)
            assert np.array_equal(ws.theta, alone.theta)
            assert np.array_equal(ws.b, alone.b)
            assert ws.test_grid is tg and alone.test_grid is tg
            assert ws.spec == alone.spec

    def test_evaluate_term_is_the_assembly_field(self, burgers_clean):
        spec = standard_library()
        tr = burgers_clean.trajectories[0]
        seen = []
        for term, field in FieldPass(spec.terms, tr.grid)(tr):
            assert np.array_equal(evaluate_term(tr, term), field)
            seen.append(term)
        assert sorted(seen, key=spec.index) == list(spec.terms)


@pytest.fixture(scope="module")
def law_set():
    """Each law's 3-trajectory set at sigma, seed 0, made on first use."""
    cache = {}

    def get(name, sigma):
        if (name, sigma) not in cache:
            pde = PDES[name]
            cache[name, sigma] = generate_set(pde, pde.default_grid(), 3, sigma, 0)
        return cache[name, sigma]

    return get


class TestBoostedGrid:
    @pytest.mark.parametrize("c", [0.3, -0.3, 50.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PDES))
    def test_equals_the_gathered_boost(self, law_set, name, sigma, c):
        # the boosted system is the assembly of the boosted copies (to
        # 1e-11 of each column's and of b's largest entry); kdv and
        # kdv_burgers at |c| = 0.3 shift by no cell, so the pass is one
        # block, and c = 50 passes a whole period on the other laws
        ts = law_set(name, sigma)
        g = ts.grid
        tg = make_test_grid(g, *IDENTIFY_GRID)
        _, ws = assemble(ts, standard_library(), tg, BoostedGrid(tg, c, GALILEAN_BASIS))
        (ref,) = assemble(galilean_boost(ts, c), GALILEAN_BASIS, tg)
        assert ws.spec == GALILEAN_BASIS and ws.test_grid.test_grid is tg
        assert ws.shape == ref.shape
        assert np.all(np.abs(ws.theta - ref.theta) <= 1e-11 * np.abs(ref.theta).max(axis=0))
        assert np.abs(ws.b - ref.b).max() <= 1e-11 * np.abs(ref.b).max()
        shift = np.rint(c * g.t / g.dx)
        if name in ("kdv", "kdv_burgers") and abs(c) < 1:
            assert not shift.any()
        elif c == 50.0 and name not in ("kdv", "kdv_burgers"):
            assert shift.max() > g.nx

    @pytest.mark.parametrize("data", ["heat_clean", "burgers_clean"])
    def test_boost_at_zero_is_the_plain_system(self, data, request):
        # a plain test grid is the boost at c = 0: no row moves, and each
        # term is its own expansion, so the systems agree bitwise
        ts = request.getfixturevalue(data)
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        plain, boosted = assemble(ts, standard_library(), tg, BoostedGrid(tg, 0.0, GALILEAN_BASIS))
        restricted = plain.restricted(GALILEAN_BASIS)
        assert boosted.spec == GALILEAN_BASIS
        assert np.array_equal(boosted.theta, restricted.theta)
        assert np.array_equal(boosted.b, restricted.b)

    @pytest.mark.parametrize(
        "base",
        [standard_library(), THREE_TERMS, expanded_library(20), expanded_library(30)],
        ids=["standard", "three_terms", "expanded20", "expanded30"],
    )
    @pytest.mark.parametrize("data", ["heat_noisy10", "burgers_clean"])
    def test_main_systems_are_the_plain_assembly(self, base, data, request):
        # bitwise, with the boosted grid in the call (on the pipeline's
        # union with GALILEAN_BASIS) and without it (on the base alone)
        ts = request.getfixturevalue(data)
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        grids = (tg, make_test_grid(ts.grid, *STABILITY_GRID))
        union = LibrarySpec(tuple(dict.fromkeys(base.terms + GALILEAN_BASIS.terms)))
        for spec, boost in ((union, (BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS),)), (base, ())):
            got = assemble(ts, spec, *grids, *boost)
            assert len(got) == len(grids) + len(boost)
            for ws, ref in zip(got, plain_assemble(ts, spec, *grids)):
                assert np.array_equal(ws.theta, ref.theta)
                assert np.array_equal(ws.b, ref.b)
                assert ws.spec == spec and ws.test_grid is ref.test_grid

    @pytest.mark.parametrize(
        "spec, boosted",
        [(THREE_TERMS, "u^2"), (standard_library(), "u^2*u_xx"), (GALILEAN_BASIS, "u*u_xx")],
    )
    def test_unclosed_expansion_raises_before_any_transform(self, burgers_clean, monkeypatch, spec, boosted):
        # (u + c)^2 needs the field of u^2, (u + c)^2 u_xx that of u^2 u_xx
        # and (u + c) u_xx that of u u_xx
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        for fn in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, fn, no_transform)
        tg = make_test_grid(burgers_clean.grid, *IDENTIFY_GRID)
        terms = LibrarySpec((term_from_tag("u_xx"), term_from_tag(boosted)))
        with pytest.raises(ValueError, match=f"^boosted term {re.escape(boosted)} needs"):
            assemble(burgers_clean, spec, tg, BoostedGrid(tg, GALILEAN_BOOST_C, terms))

    @pytest.mark.parametrize(
        "field, value", [("test_grid", "grid"), ("spec", GALILEAN_BASIS.tags), ("c", "0.3"), ("c", 1j), ("c", None)]
    )
    def test_rejects_a_field_of_the_wrong_kind(self, burgers_clean, field, value):
        # a c of '0.3' used to be read as 0.3
        good = {"test_grid": make_test_grid(burgers_clean.grid, *IDENTIFY_GRID), "c": 0.5, "spec": GALILEAN_BASIS}
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            BoostedGrid(**{**good, field: value})

    def test_rejects_a_non_finite_boost(self, burgers_clean):
        tg = make_test_grid(burgers_clean.grid, *IDENTIFY_GRID)
        with pytest.raises(ValueError, match="^c must be a finite real number, got "):
            BoostedGrid(tg, np.nan, GALILEAN_BASIS)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e20, -1e20, 1e110])
    def test_rejects_a_boost_too_large_for_its_grid(self, burgers_clean, monkeypatch, c):
        # rint(c t / dx) does not fit an int64 on burgers' 128 x 128 grid
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        ts = TrajectorySet((burgers_clean.trajectories[0],))
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        with pytest.raises(ValueError, match=f"^boost c = {re.escape(str(c))} is too large"):
            assemble(ts, standard_library(), tg, BoostedGrid(tg, c, GALILEAN_BASIS))

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_boost_whose_coefficients_overflow(self, monkeypatch):
        # on a record 1e-200 long the shifts of c = 1e150 are small, but
        # the c^3 of (u + c)^3 overflows a float64
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        g = Grid1D(0.0, 2 * np.pi, 64, 0.0, 1e-200, 64)
        ts = TrajectorySet((Trajectory(g, np.ones((64, 64))),))
        tg = make_test_grid(g, *IDENTIFY_GRID)
        with pytest.raises(ValueError, match=r"^boost c = 1e\+150 is too large"):
            assemble(ts, standard_library(), tg, BoostedGrid(tg, 1e150, GALILEAN_BASIS))


class TestFieldPass:
    @pytest.mark.parametrize("data", ["heat_noisy10", "fisher_kpp_clean"])
    def test_fields_are_the_fresh_chains(self, data, request):
        # shared prefixes and reused buffers give bitwise each term's own
        # chain, on every trajectory of one pass
        ts = request.getfixturevalue(data)
        terms = expanded_library(30).terms
        fields = FieldPass(terms, ts.grid)
        for tr in ts:
            refs = dict(zip(terms, plain_fields(tr, terms)))
            seen = []
            for term, field in fields(tr):
                assert np.array_equal(field, refs[term])
                seen.append(term)
            assert sorted(seen, key=terms.index) == list(terms)

    @staticmethod
    def buffers_used(fields, ts):
        """The buffers behind each trajectory's (term, field) pairs."""
        seen = [[(term, f.base) for term, f in fields(tr)] for tr in ts]
        assert all([(t, id(b)) for t, b in fs] == [(t, id(b)) for t, b in seen[0]] for fs in seen)
        return {id(b) for fs in seen for _, b in fs}

    def test_buffers_serve_every_trajectory(self, burgers_clean):
        # the standard library's five products take two buffers, made once:
        # its longest chains, u^3 and u^2*u_x, have three factors
        products = [t for t in standard_library().terms if t.power > 1]
        fields = FieldPass(products, burgers_clean.grid)
        assert len(self.buffers_used(fields, burgers_clean)) == 2

    def test_buffers_are_the_longest_chain_less_one(self, burgers_clean):
        # expanded_library(30)'s longest chain is u^5
        products = [t for t in expanded_library(30).terms if t.power > 1]
        fields = FieldPass(products, burgers_clean.grid)
        assert len(self.buffers_used(fields, burgers_clean)) == 4

    def test_a_half_height_scaled_makes_half_height_buffers(self, burgers_clean):
        # a worker's pass over half-trajectories: the buffers take their rows
        # from scaled, and its fields are the full pass's rows
        products = [t for t in standard_library().terms if t.power > 1]
        tr = burgers_clean.trajectories[0]
        half, rows = tr.grid.nt // 2, slice(tr.grid.nt // 2, None)
        fields = FieldPass(products, tr.grid, scaled=np.empty((half, tr.grid.nx // 2 + 1), complex))
        assert {f.base.shape for _, f in fields(tr, rows=rows)} == {(half, tr.grid.nx)}
        full = {term: field.copy() for term, field in FieldPass(products, tr.grid)(tr)}
        for term, field in fields(tr, rows=rows):
            np.testing.assert_array_equal(field, full[term][rows])

    def test_derivative_orders_take_turns_in_one_buffer(self):
        # u_x serves u^2*u_x and u*u_x before u_xx serves u*u_xx; u_x*u_xx
        # needs both orders at once
        products = tuple(t for t in standard_library().terms if t.power > 1)
        assert oplib._walk(products)[2] == 1
        assert oplib._walk((term_from_tag("u_x*u_xx"),))[2] == 2

    def test_one_multiply_per_distinct_prefix(self, burgers_clean, monkeypatch):
        # the standard products' chains (0, 0), (0, 0, 0), (0, 0, 1), (0, 1)
        # and (0, 2) are their own distinct prefixes: u^3 and u^2*u_x both
        # extend the one u^2, so 5 products per trajectory, not 6
        products = [t for t in standard_library().terms if t.power > 1]
        fields = FieldPass(products, burgers_clean.grid)
        multiply, real = np.multiply, []

        def counted(a, b, *args, **kwargs):
            out = multiply(a, b, *args, **kwargs)
            real.append(out.dtype.kind == "f")
            return out

        with monkeypatch.context() as patch:
            patch.setattr(np, "multiply", counted)
            for tr in burgers_clean:
                for _ in fields(tr):
                    pass
        assert sum(real) == 5 * len(burgers_clean)


def pipeline_grids(ts):
    """The three grids of run_eqod's assembly: identification, stability and the boost."""
    tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
    return tg, make_test_grid(ts.grid, *STABILITY_GRID), BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS)


def assert_same_systems(got, want):
    assert len(got) == len(want)
    for ws, ref in zip(got, want):
        assert np.array_equal(ws.theta, ref.theta)
        assert np.array_equal(ws.b, ref.b)


class TestPlanMemo:
    """Each grid's plan is built once and shared by value across calls."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        weakform._plan.cache_clear()
        yield
        weakform._plan.cache_clear()

    @staticmethod
    def counts():
        info = weakform._plan.cache_info()
        return info.hits, info.misses

    @pytest.mark.parametrize("data", ["heat_noisy10", "burgers_clean"])
    def test_a_hit_gives_the_first_call_bitwise(self, data, request):
        ts = request.getfixturevalue(data)
        grids = pipeline_grids(ts)
        first = assemble(ts, standard_library(), *grids)
        assert self.counts() == (0, 3)
        second = assemble(ts, standard_library(), *grids)
        assert self.counts() == (3, 3)
        assert_same_systems(second, first)
        assert_same_systems(second[:2], plain_assemble(ts, standard_library(), *grids[:2]))

    def test_an_equal_grid_built_apart_hits(self, burgers_clean):
        # equal values in new arrays (and in another layout) share the plan
        ts, spec = burgers_clean, standard_library()
        tg, stab, boost = pipeline_grids(ts)
        first = assemble(ts, spec, tg, stab, boost)
        again = weakform.TestGrid(np.array(tg.t_centers), np.array(tg.x_centers[::-1])[::-1], float(tg.r_t), tg.r_x)
        assert again is not tg and again.t_centers is not tg.t_centers
        rebuilt = (again, make_test_grid(ts.grid, *STABILITY_GRID), BoostedGrid(again, GALILEAN_BOOST_C, GALILEAN_BASIS))
        second = assemble(ts, LibrarySpec(tuple(spec.terms)), *rebuilt)
        assert self.counts() == (3, 3)
        assert_same_systems(second, first)

    def test_the_caller_objects_come_back_on_a_hit(self, burgers_clean):
        ts = burgers_clean
        assemble(ts, standard_library(), *pipeline_grids(ts))
        spec, basis = LibrarySpec(tuple(standard_library().terms)), LibrarySpec(tuple(GALILEAN_BASIS.terms))
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        stab = make_test_grid(ts.grid, *STABILITY_GRID)
        boost = BoostedGrid(tg, GALILEAN_BOOST_C, basis)
        got = assemble(ts, spec, tg, stab, boost)
        assert self.counts() == (3, 3)
        assert got[0].spec is spec and got[1].spec is spec and got[2].spec is basis
        assert got[0].test_grid is tg and got[1].test_grid is stab and got[2].test_grid is boost

    def test_a_changed_input_gets_its_own_plan(self, burgers_clean):
        # each variant misses and is the system an assembly with an empty
        # memo gives; moved centers and another c change the system, and
        # another assembled library changes only the plan's key
        ts, spec = burgers_clean, standard_library()
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        (base,) = assemble(ts, spec, BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS))
        moved = dataclasses.replace(tg, x_centers=tg.x_centers + ts.grid.dx)
        variants = [
            (spec, BoostedGrid(moved, GALILEAN_BOOST_C, GALILEAN_BASIS), False),
            (spec, BoostedGrid(tg, 0.5, GALILEAN_BASIS), False),
            (spec, BoostedGrid(tg, GALILEAN_BOOST_C, galilean_reduced()), None),
            (expanded_library(20), BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS), True),
        ]
        for lib, boost, same in variants:
            hits, misses = self.counts()
            (got,) = assemble(ts, lib, boost)
            assert self.counts() == (hits, misses + 1)
            weakform._plan.cache_clear()
            (fresh,) = assemble(ts, lib, boost)
            assert_same_systems((got,), (fresh,))
            if same is not None:
                assert np.array_equal(got.theta, base.theta) is same

    def test_centers_changed_in_place_are_rejected(self, heat_clean):
        # TestGrid's centers are read-only: a kept plan cannot go stale
        ts = heat_clean
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        (before,) = assemble(ts, UXX_ONLY, tg)
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            tg.t_centers[0] += 2 * ts.grid.dt
        (after,) = assemble(ts, UXX_ONLY, tg)
        assert self.counts() == (1, 1)
        assert_same_systems((after,), (before,))

    def test_a_replaced_field_re_keys(self, heat_clean):
        ts = heat_clean
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        moved = dataclasses.replace(tg, x_centers=tg.x_centers + ts.grid.dx)
        back = dataclasses.replace(moved, x_centers=tg.x_centers)
        assert moved != tg and back == tg
        for grid in (tg, moved, back):
            assemble(ts, UXX_ONLY, grid)
        assert self.counts() == (1, 2)

    @pytest.mark.parametrize("first, second", [(1, 1.0), (-0.0, 0.0)])
    def test_equal_boosts_share_one_plan(self, burgers_clean, first, second):
        # c is kept as a float with -0.0 folded into 0.0, so each pair is one
        # key, and both systems are bitwise the one an empty memo gives
        ts, spec = burgers_clean, standard_library()
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        a, b = BoostedGrid(tg, first, GALILEAN_BASIS), BoostedGrid(tg, second, GALILEAN_BASIS)
        assert a == b and hash(a) == hash(b) and str(a.c) == str(b.c) == str(float(second))
        got = assemble(ts, spec, a, b)
        assert self.counts() == (1, 1)
        weakform._plan.cache_clear()
        (fresh,) = assemble(ts, spec, b)
        for ws in got:
            assert ws.theta.tobytes() == fresh.theta.tobytes() and ws.b.tobytes() == fresh.b.tobytes()

    def test_failures_raise_on_every_call_before_any_transform(self, burgers_clean, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        ts, spec = burgers_clean, standard_library()
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        assemble(ts, spec, tg)  # the valid plan of the same grid is kept
        unclosed = LibrarySpec((term_from_tag("u_xx"), term_from_tag("u^2")))
        cases = [
            (spec, BoostedGrid(tg, 1e20, GALILEAN_BASIS), "^boost c = 1e\\+20 is too large"),
            (THREE_TERMS, BoostedGrid(tg, GALILEAN_BOOST_C, unclosed), "^boosted term u\\^2 needs"),
            (spec, dataclasses.replace(tg, r_t=ts.grid.dt), "radius below two grid cells"),
        ]
        monkeypatch.setattr(np.fft, "rfft", no_transform)
        for lib, grid, message in cases:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    assemble(ts, lib, grid)
        assert weakform._plan.cache_info().currsize == 1

    def test_the_memo_is_bounded(self):
        g = Grid1D(0.0, 2 * np.pi, 64, 0.0, 1.0, 64)
        ts = TrajectorySet((Trajectory(g, np.ones((64, 64))),))
        bound = weakform._plan.cache_info().maxsize
        assert bound == 16
        for n in range(1, bound + 5):
            assemble(ts, UXX_ONLY, make_test_grid(g, n, 3))
            assert weakform._plan.cache_info().currsize == min(n, bound)

    def test_plan_arrays_reject_writes(self, burgers_clean):
        ts = burgers_clean
        tg = make_test_grid(ts.grid, *IDENTIFY_GRID)
        # a plan cut into two halves, each with its own pieces
        halves = (0, ts.grid.nt // 2, ts.grid.nt)
        plan = weakform._plan(ts.grid, BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS), standard_library(), halves)
        assert plan is weakform._plan(ts.grid, BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS), standard_library(), halves)
        assert len(plan.parts) == 2 and all(len(part.windows) > 1 for part in plan.parts)
        assert plan.phases is not None and plan.const is not None
        arrays = [plan.expansion, plan.phi_x, plan.b_offset, plan.const, plan.phases]
        for part in plan.parts:
            arrays += [part.phi_t, part.dphi_t, part.which, *(window for _, window in part.windows)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1
        with pytest.raises(TypeError):
            plan.at[0] = 1


@pytest.fixture(scope="module")
def burgers_set():
    """burgers at sigma 0.1 on its 128 x 128 grid, by number of trajectories, made on first use."""
    cache = {}

    def get(m):
        if m not in cache:
            pde = PDES["burgers"]
            cache[m] = generate_set(pde, pde.default_grid(), m, 0.1, 42)
        return cache[m]

    return get


@pytest.fixture(scope="module")
def burgers_256():
    """burgers at sigma 0.1 on a 256 x 256 grid, at the size rule, by number of trajectories."""
    cache = {}

    def get(m):
        if m not in cache:
            pde = PDES["burgers"]
            cache[m] = generate_set(pde, pde.default_grid(256, 256), m, 0.1, 42)
        return cache[m]

    return get


@pytest.fixture(scope="module")
def heat_1024():
    """large-grid's heat at sigma 0.1: three trajectories on a 1024 x 512 grid."""
    pde = PDES["heat"]
    return generate_set(pde, pde.default_grid(1024, 512), 3, 0.1, 42)


class TestThreadedPass:
    """A large set's trajectories are assembled in halves on parallel
    workers. With the size rule lowered, a 128 x 128 set takes that path
    too. The reference of each threaded system is the one-worker system
    on the same partition (``one_worker``): the halves' sums round apart
    from the unsplit pass's."""

    @staticmethod
    def one_worker(monkeypatch, ts, grids, threaded=True):
        """The systems of ts on grids with one usable CPU: every task of the
        partition, halves when ``threaded`` lowers the size rule, runs
        inline on the calling thread."""
        with monkeypatch.context() as patch:
            if threaded:
                patch.setattr(weakform, "_THREADED_CELLS", 0)
            patch.setattr(weakform, "_usable_cpus", lambda: [0])
            return assemble(ts, standard_library(), *grids)

    @staticmethod
    def starts(monkeypatch):
        """The names of the threads started from here on."""
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    @staticmethod
    def runs(monkeypatch, together=1):
        """The workers made from here on, in order, and the (worker, thread)
        of each ``run`` call. With ``together`` = n, each run first waits
        until n runs have begun, so no helper can finish its share, go idle
        and be handed the next one before every worker is running."""
        made, ran, init, run = [], [], weakform._Worker.__init__, weakform._Worker.run
        barrier = threading.Barrier(together, timeout=30)

        def making(worker, *args):
            init(worker, *args)
            made.append(worker)

        def running(worker, tasks):
            ran.append((worker, threading.current_thread()))
            barrier.wait()
            return run(worker, tasks)

        monkeypatch.setattr(weakform._Worker, "__init__", making)
        monkeypatch.setattr(weakform._Worker, "run", running)
        return made, ran

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_systems_are_the_inline_ones_bitwise(self, burgers_set, monkeypatch, m):
        # the pipeline's three grids, on min(2 m, usable CPUs) workers
        ts = burgers_set(m)
        grids = pipeline_grids(ts)
        inline = self.one_worker(monkeypatch, ts, grids)
        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        n = min(2 * m, len(weakform._usable_cpus()))
        started, _ = self.starts(monkeypatch), self.runs(monkeypatch, together=n)
        assert_same_systems(assemble(ts, standard_library(), *grids), inline)
        # the calling thread is worker 0: n workers start n - 1 threads
        assert len(started) == n - 1
        if affinity is not None:
            assert os.sched_getaffinity(0) == affinity

    def test_more_workers_than_cpus_under_frequent_switches(self, burgers_set, monkeypatch):
        # ten halves on the caller and four unpinned helpers, with the
        # interpreter switching threads every microsecond: a lost or
        # misplaced partial sum would show
        ts = burgers_set(5)
        grids = pipeline_grids(ts)
        inline = self.one_worker(monkeypatch, ts, grids)
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: list(range(5)))
        monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
        started, out, _ = self.starts(monkeypatch), [], self.runs(monkeypatch, together=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=lambda: out.append(assemble(ts, standard_library(), *grids)))
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(started) == 1 + 4
        assert_same_systems(out[0], inline)

    @staticmethod
    def failing(burgers_set, monkeypatch, failing):
        """Three trajectories, six half-trajectory tasks, on three workers:
        worker 0 runs (trajectory, part) (0, 0) and (1, 1), worker 1 (0, 1)
        and (2, 0), worker 2 (1, 0) and (2, 1). The tasks in ``failing``
        raise, and the (thread, cpus) of each pin is recorded in place of
        being made."""
        ts, pinned = burgers_set(3), []

        class Failing(FieldPass):
            def __call__(self, traj, u_hat=None, rows=slice(None)):
                m, h = ts.trajectories.index(traj), int(bool(rows.start))
                if (m, h) in failing:
                    raise RuntimeError(f"no fields for trajectory {m}, part {h}")
                yield from super().__call__(traj, u_hat, rows)

        monkeypatch.setattr(weakform, "FieldPass", Failing)
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(weakform, "_pin", lambda cpus: pinned.append((threading.current_thread(), list(cpus))))
        return ts, pinned

    def test_a_helpers_failure_re_raises_and_no_thread_outlives_the_call(self, burgers_set, monkeypatch):
        ts, _ = self.failing(burgers_set, monkeypatch, {(0, 1), (1, 0)})
        before = threading.active_count()
        # helpers 1 and 2 both fail, the caller does not: the first in worker order is raised
        with pytest.raises(RuntimeError, match=r"^no fields for trajectory 0, part 1$"):
            assemble(ts, standard_library(), *pipeline_grids(ts))
        assert threading.active_count() == before

    def test_the_callers_failure_re_raises_and_no_thread_outlives_the_call(self, burgers_set, monkeypatch):
        ts, pinned = self.failing(burgers_set, monkeypatch, {(0, 0), (2, 1)})
        before = threading.active_count()
        # the caller's own share fails, and so does helper 2's: the caller's is raised
        with pytest.raises(RuntimeError, match=r"^no fields for trajectory 0, part 0$"):
            assemble(ts, standard_library(), *pipeline_grids(ts))
        assert threading.active_count() == before
        # and the caller has its own affinity back
        assert [cpus for thread, cpus in pinned if thread is threading.current_thread()] == [[0], [0, 1, 2]]

    def test_each_worker_is_pinned_and_the_caller_keeps_its_affinity(self, burgers_set, monkeypatch):
        ts = burgers_set(3)
        grids = pipeline_grids(ts)
        inline = self.one_worker(monkeypatch, ts, grids)
        pinned = []
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(weakform, "_pin", lambda cpus: pinned.append((threading.current_thread(), list(cpus))))
        assert_same_systems(assemble(ts, standard_library(), *grids), inline)
        # worker k is pinned to CPU k; the caller, worker 0, then gets its own CPUs back
        caller = [cpus for thread, cpus in pinned if thread is threading.current_thread()]
        assert caller == [[0], [0, 1, 2]]
        assert sorted(cpus for thread, cpus in pinned if thread is not threading.current_thread()) == [[1], [2]]

    def test_worker_0_runs_on_the_calling_thread(self, burgers_set, monkeypatch):
        ts = burgers_set(3)
        grids = pipeline_grids(ts)
        inline = self.one_worker(monkeypatch, ts, grids)
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
        made, ran = self.runs(monkeypatch, together=3)
        assert_same_systems(assemble(ts, standard_library(), *grids), inline)
        # each worker runs once: worker 0 on this thread, each other on its own helper
        thread = dict(ran)
        assert len(made) == len(ran) == len(thread) == 3 and set(thread) == set(made)
        assert thread[made[0]] is threading.current_thread()
        helpers = [thread[worker] for worker in made[1:]]
        assert len(set(helpers)) == 2 and threading.current_thread() not in helpers

    def test_a_failed_start_raises_and_no_thread_outlives_the_call(self, burgers_set, monkeypatch):
        ts = burgers_set(3)
        start, tried = threading.Thread.start, []

        def second_fails(thread):
            tried.append(thread)
            if len(tried) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_fails)
        made, ran = self.runs(monkeypatch)
        recorded, restored = weakform._Worker.run, threading.Event()

        def after_the_caller_restores(worker, tasks):
            # the started helper idled before the second submit 1 time in 25
            # under load, and the pool then reused it, starting no second
            # thread; held until the caller has cancelled the queue and
            # restored its affinity, it cannot
            restored.wait(30)
            return recorded(worker, tasks)

        monkeypatch.setattr(weakform._Worker, "run", after_the_caller_restores)
        monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
        monkeypatch.setattr(weakform, "_pin", lambda cpus: restored.set() if len(cpus) == 3 else None)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^can't start new thread$"):
            assemble(ts, standard_library(), *pipeline_grids(ts))
        # the failed start's task is cancelled: the started helper runs its
        # own at most, and the caller raises before its own share runs
        assert len(tried) == 2 and len(ran) <= 1 and threading.active_count() == before
        assert made[0] not in [worker for worker, _ in ran]

    def test_a_small_set_runs_inline(self, burgers_set, monkeypatch):
        # grid-quick's 128 x 128 sets run inline, large-grid's 1024 x 512 ones on workers
        assert 128 * 128 < weakform._THREADED_CELLS <= 1024 * 512
        ts = burgers_set(5)
        started, pinned = self.starts(monkeypatch), []
        monkeypatch.setattr(weakform, "_pin", pinned.append)
        assemble(ts, standard_library(), *pipeline_grids(ts))
        assert started == [] and pinned == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_a_threaded_size_gives_the_one_worker_systems_on_any_cpus(self, burgers_256, monkeypatch, m, cpus):
        # 256 x 256 is at the size rule: each trajectory is two halves, on
        # min(2 m, cpus) workers, and the partition does not depend on the CPUs
        ts = burgers_256(m)
        assert ts.grid.nt * ts.grid.nx >= weakform._THREADED_CELLS
        grids = pipeline_grids(ts)
        alone = self.one_worker(monkeypatch, ts, grids, threaded=False)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: list(range(cpus)))
        monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
        n = min(2 * m, cpus)
        started, _ = self.starts(monkeypatch), self.runs(monkeypatch, together=n)
        got = assemble(ts, standard_library(), *grids)
        assert len(started) == n - 1
        for ws, ref in zip(got, alone):
            assert ws.theta.tobytes() == ref.theta.tobytes() and ws.b.tobytes() == ref.b.tobytes()

    def test_a_threaded_system_is_the_unsplit_one_to_rounding(self, heat_1024):
        # large-grid's heat at sigma 0.1: the halves' partial sums, added
        # after the join, against each trajectory contracted whole; the
        # boosted grid's runs of one shift are cut at the half boundary
        ts = heat_1024
        grids = pipeline_grids(ts)
        halves = assemble(ts, standard_library(), *grids)
        whole = unsplit_assemble(ts, standard_library(), *grids)
        # the unsplit pass is the plain assembly on plain grids
        assert_same_systems(whole[:2], plain_assemble(ts, standard_library(), *grids[:2]))
        for ws, ref in zip(halves, whole):
            assert (np.abs(ws.theta - ref.theta).max(axis=0) <= 1e-13 * np.abs(ref.theta).max(axis=0)).all()
            assert np.abs(ws.b - ref.b).max() <= 1e-13 * np.abs(ref.b).max()

    def test_one_trajectory_at_a_threaded_size_starts_one_helper(self, burgers_256, monkeypatch):
        # its two halves run on the caller and one helper, where a whole
        # trajectory ran on the caller alone
        ts = burgers_256(1)
        grids = pipeline_grids(ts)
        alone = self.one_worker(monkeypatch, ts, grids, threaded=False)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
        started, (made, ran) = self.starts(monkeypatch), self.runs(monkeypatch, together=2)
        assert_same_systems(assemble(ts, standard_library(), *grids), alone)
        assert len(started) == 1 and len(made) == len(ran) == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_threaded_reflection_scores_are_the_one_worker_ones(self, burgers_256, monkeypatch, m, cpus):
        # each trajectory's halves add their odd-reflection sums in part
        # order, so the scores are bitwise the one-worker ones on any CPUs
        ts = burgers_256(m)
        grids = (*pipeline_grids(ts), OddReflection())
        alone = self.one_worker(monkeypatch, ts, grids, threaded=False)
        monkeypatch.setattr(weakform, "_usable_cpus", lambda: list(range(cpus)))
        monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
        n = min(2 * m, cpus)
        started, _ = self.starts(monkeypatch), self.runs(monkeypatch, together=n)
        *got, scores = assemble(ts, standard_library(), *grids)
        assert len(started) == n - 1
        assert_same_systems(got, alone[:-1])
        assert len(scores) == m and scores == alone[-1]
        for score, tr in zip(scores, ts):
            assert score >= 0
            assert score == pytest.approx(detect_reflection(tr).score, abs=1e-12)

    def test_large_grid_reflection_scores_are_the_oracles(self, heat_1024):
        *_, scores = assemble(heat_1024, standard_library(), *pipeline_grids(heat_1024), OddReflection())
        assert len(scores) == len(heat_1024)
        for score, tr in zip(scores, heat_1024):
            assert score >= 0
            assert score == pytest.approx(detect_reflection(tr).score, abs=1e-12)
