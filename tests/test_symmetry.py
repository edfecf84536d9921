import dataclasses

import numpy as np
import pytest
from oracles import galilean_boost

import eqod.symmetry as symmetry
from eqod.core import Grid1D, Trajectory, TrajectorySet
from eqod.oplib import standard_library
from eqod.solvers import PDES, generate_set
from eqod.stability import STABILITY_GRID
from eqod.symmetry import (
    GALILEAN_BASIS,
    GALILEAN_BOOST_C,
    DetectorResult,
    GalileanResult,
    SymmetryReport,
    detect_all,
    detect_galilean,
    detect_reflection,
)
from eqod.weakform import IDENTIFY_GRID, BoostedGrid, assemble, make_test_grid


def make_traj(values, t_end=1.0, length=2 * np.pi):
    nt, nx = values.shape
    g = Grid1D(0.0, length, nx, 0.0, t_end, nt)
    return Trajectory(g, values)


def systems(ts, spec, tg=None):
    """The system of ``spec`` and the boosted GALILEAN_BASIS system on one
    test grid (the identification grid by default), from one assembly."""
    tg = tg or make_test_grid(ts.grid, *IDENTIFY_GRID)
    return assemble(ts, spec, tg, BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS))


def standard_systems(ts):
    """The systems that run_eqod hands to the Galilean test for the
    standard library, which holds every GALILEAN_BASIS term."""
    return systems(ts, standard_library())


def basis_systems(ts):
    """The GALILEAN_BASIS columns alone, with the boosted system."""
    return systems(ts, GALILEAN_BASIS)


def analytic_field(fn, nt=128, nx=128, t_end=1.0):
    g = Grid1D(0.0, 2 * np.pi, nx, 0.0, t_end, nt)
    tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
    return Trajectory(g, fn(xx, tt))


class TestReflection:
    def test_even_field(self):
        tr = analytic_field(lambda x, t: np.cos(x) * np.exp(-0.1 * t))
        assert not detect_reflection(tr).detected

    def test_burgers_odd(self, burgers_clean):
        assert detect_reflection(burgers_clean.trajectories[0]).detected

    def test_score_uses_the_index_flip(self, burgers_clean):
        # the flip maps grid index j to (nx - j) mod nx
        u = burgers_clean.trajectories[1].values
        nx = u.shape[1]
        flipped = u[:, (nx - np.arange(nx)) % nx]
        ref = float(np.sum((u + flipped) ** 2) / np.sum(u**2))
        assert detect_reflection(burgers_clean.trajectories[1]).score == ref

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PDES))
    def test_score_is_the_rolled_flip_expression(self, name, sigma):
        # the in-place score is bitwise the three-temporary expression
        pde = PDES[name]
        (tr,) = generate_set(pde, pde.default_grid(), 1, sigma, 42)
        u = tr.values
        ref = float(np.sum((u + np.roll(u[:, ::-1], 1, axis=1)) ** 2) / float(np.sum(u**2)))
        assert detect_reflection(tr).score == ref

    def test_mixed_parity(self):
        tr = analytic_field(lambda x, t: (np.sin(x) + np.cos(x)) * np.exp(-0.1 * t))
        odd = detect_reflection(tr)
        assert not odd.detected
        # ||(sin+cos) + (-sin+cos)||^2 / ||sin+cos||^2 = 2 exactly
        assert odd.score == pytest.approx(2.0, abs=1e-9)

    def test_zero_field_errors(self):
        with pytest.raises(ValueError):
            detect_reflection(make_traj(np.zeros((16, 32))))


class TestGalilean:
    def test_burgers_detected(self, burgers_clean):
        res = detect_galilean(*standard_systems(burgers_clean))
        assert isinstance(res, GalileanResult)
        assert res.detected
        assert res.score >= 0.08
        assert res.c1 == pytest.approx(-1.0, abs=0.05)
        assert res.rank_ok

    def test_heat_not_detected(self, heat_clean):
        res = detect_galilean(*standard_systems(heat_clean))
        assert not res.detected
        assert res.score <= 0.03

    def test_kdv_detected(self, kdv_clean):
        res = detect_galilean(*standard_systems(kdv_clean))
        assert res.detected
        assert res.c1 == pytest.approx(-1.0, abs=0.05)

    def test_boost_maps_grid_consistently(self, burgers_clean):
        boosted = galilean_boost(burgers_clean, 0.3)
        assert boosted.grid == burgers_clean.grid
        # offset by c and circularly shifted only
        assert np.allclose(
            np.sort(boosted.trajectories[0].values[-1]),
            np.sort(burgers_clean.trajectories[0].values[-1] + 0.3),
        )

    @pytest.mark.parametrize("c", [0.3, -0.3, 50.0])
    def test_boost_equals_per_row_roll(self, burgers_clean, c):
        # c = 50 shifts the last rows by more than nx cells
        g = burgers_clean.grid
        boosted = galilean_boost(burgers_clean, c)
        for tr, out in zip(burgers_clean, boosted):
            ref = np.stack(
                [np.roll(tr.values[i], int(round(c * t / g.dx))) + c for i, t in enumerate(g.t)]
            )
            assert np.array_equal(out.values, ref)
        if c == 50.0:
            assert c * g.t[-1] / g.dx > g.nx

    @pytest.mark.parametrize("c", [0.3, -50.0, 50.0])
    def test_boost_is_the_two_dimensional_gather(self, burgers_clean, c):
        # bitwise the (rows, cols) fancy index plus c; at |c| = 50 many rows
        # shift by more than a whole period
        g = burgers_clean.grid
        shift = np.rint(c * g.t / g.dx).astype(np.int64)
        rows = np.arange(g.nt)[:, None]
        cols = (np.arange(g.nx) - shift[:, None]) % g.nx
        boosted = galilean_boost(burgers_clean, c)
        for tr, out in zip(burgers_clean, boosted):
            assert np.array_equal(out.values, tr.values[rows, cols] + c)
        if abs(c) == 50.0:
            assert np.count_nonzero(np.abs(shift) >= g.nx) > 1

    def test_order_independent(self, burgers_clean):
        flipped = TrajectorySet(tuple(reversed(burgers_clean.trajectories)))
        a = detect_galilean(*standard_systems(burgers_clean))
        b = detect_galilean(*standard_systems(flipped))
        assert a.score == pytest.approx(b.score, rel=1e-9)

    @pytest.mark.parametrize("name", ["burgers_clean", "heat_clean", "kdv_clean"])
    def test_full_library_system_matches_own_assembly(self, name, request):
        ts = request.getfixturevalue(name)
        res = detect_galilean(*standard_systems(ts))
        own = detect_galilean(*basis_systems(ts))
        assert (res.detected, res.rank_ok) == (own.detected, own.rank_ok)
        assert res.score == pytest.approx(own.score, rel=1e-9)
        assert res.c1 == pytest.approx(own.c1, rel=1e-9)

    def test_boosted_refit_uses_the_system_test_grid(self, burgers_clean):
        # on the stability grid, the test equals the refit of the gathered
        # boost assembled on that grid
        tg = make_test_grid(burgers_clean.grid, *STABILITY_GRID)
        ws, ws_boost = systems(burgers_clean, GALILEAN_BASIS, tg)
        assert ws_boost.test_grid.test_grid is tg
        (oracle,) = assemble(galilean_boost(burgers_clean, GALILEAN_BOOST_C), GALILEAN_BASIS, tg)
        got = detect_galilean(ws, ws_boost)
        ref = detect_galilean(ws, oracle)
        assert (got.detected, got.c1, got.rank_ok) == (ref.detected, ref.c1, ref.rank_ok)
        assert got.score == pytest.approx(ref.score, rel=1e-11)
        assert not hasattr(symmetry, "assemble")


class TestDetectAll:
    def test_burgers_report(self, burgers_clean):
        rep = detect_all(burgers_clean, *standard_systems(burgers_clean))
        assert rep.galilean.detected
        assert rep.reflection_odd.detected

    def test_kdv_report(self, kdv_clean):
        rep = detect_all(kdv_clean, *standard_systems(kdv_clean))
        assert rep.galilean.detected
        assert not rep.reflection_odd.detected

    def test_heat_report(self, heat_clean):
        rep = detect_all(heat_clean, *standard_systems(heat_clean))
        assert not rep.galilean.detected

    def test_deterministic(self, heat_clean):
        assert detect_all(heat_clean, *standard_systems(heat_clean)) == detect_all(heat_clean, *standard_systems(heat_clean))

    def test_failed_detector_downgrades(self):
        # all-zero field: the reflection test raises on it -> NaN score
        g = Grid1D(0.0, 2 * np.pi, 32, 0.0, 1.0, 32)
        ts = TrajectorySet((Trajectory(g, np.zeros((32, 32))),))
        rep = detect_all(ts, *basis_systems(ts))
        assert not rep.reflection_odd.detected
        assert np.isnan(rep.reflection_odd.score)
        d = rep.to_json_dict()
        assert d["reflection_odd"]["score"] is None

    def test_failed_galilean_fit_downgrades(self, burgers_clean, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(symmetry.np.linalg, "lstsq", singular)
        rep = detect_all(burgers_clean, *standard_systems(burgers_clean))
        assert not rep.galilean.detected
        assert isinstance(rep.galilean, GalileanResult)
        assert np.isnan(rep.galilean.score) and np.isnan(rep.galilean.c1)
        assert rep.galilean.rank_ok is False
        assert rep.reflection_odd.detected
        d = rep.to_json_dict()["galilean"]
        assert d["score"] is None and d["c1"] is None and d["rank_ok"] is False

    def test_report_holds_the_two_records(self, burgers_clean):
        rep = detect_all(burgers_clean, *standard_systems(burgers_clean))
        assert [f.name for f in dataclasses.fields(SymmetryReport)] == ["galilean", "reflection_odd"]
        assert isinstance(rep.galilean, GalileanResult) and isinstance(rep.galilean, DetectorResult)
        assert type(rep.reflection_odd) is DetectorResult
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.galilean.c1 = 0.0

    def test_json_carries_each_records_fields(self, burgers_clean):
        rep = detect_all(burgers_clean, *standard_systems(burgers_clean))
        g, odd = rep.galilean, rep.reflection_odd
        assert rep.to_json_dict() == {
            "galilean": {"detected": g.detected, "score": g.score, "c1": g.c1, "rank_ok": g.rank_ok},
            "reflection_odd": {"detected": odd.detected, "score": odd.score},
        }
        assert list(rep.to_json_dict()["galilean"]) == ["detected", "score", "c1", "rank_ok"]
