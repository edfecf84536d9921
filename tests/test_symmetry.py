import numpy as np
import pytest

from eqod.core import Grid1D, Trajectory, TrajectorySet
from eqod.oplib import standard_library
from eqod.solvers import PDES, generate_set
from eqod.symmetry import (
    detect_all,
    detect_galilean,
    detect_reflection,
    detect_scaling,
    detect_temporal_translation,
    estimate_symbol,
    galilean_boost,
    galilean_system,
)
from eqod.weakform import IDENTIFY_GRID, assemble, make_test_grid


def make_traj(values, t_end=1.0, length=2 * np.pi):
    nt, nx = values.shape
    g = Grid1D(0.0, length, nx, 0.0, t_end, nt)
    return Trajectory(g, values)


def standard_system(ts):
    """The full-library system that run_eqod hands to the Galilean test."""
    return assemble(ts, standard_library(), make_test_grid(ts.grid, *IDENTIFY_GRID))


def analytic_field(fn, nt=128, nx=128, t_end=1.0):
    g = Grid1D(0.0, 2 * np.pi, nx, 0.0, t_end, nt)
    tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
    return Trajectory(g, fn(xx, tt))


class TestSymbol:
    def test_heat_symbol(self, heat_clean):
        est = estimate_symbol(heat_clean.trajectories[0])
        k = est.wavenumbers[est.reliable]
        low = est.reliable & (est.wavenumbers <= 5)
        rel = np.abs(est.sigma[low].real + 0.1 * est.wavenumbers[low] ** 2) / (
            0.1 * est.wavenumbers[low] ** 2
        )
        assert len(k) > 0
        assert rel.max() < 0.05

    def test_adv_diff_imaginary_part(self):
        pde = PDES["adv_diff"]
        ts = generate_set(pde, pde.default_grid(), 1, 0.0, 42)
        est = estimate_symbol(ts.trajectories[0])
        low = est.reliable & (est.wavenumbers <= 5)
        rel = np.abs(est.sigma[low].imag + est.wavenumbers[low]) / est.wavenumbers[low]
        assert rel.max() < 0.05

    def test_zero_field_errors(self):
        tr = make_traj(np.zeros((16, 32)))
        with pytest.raises(ValueError):
            estimate_symbol(tr)


class TestTemporalTranslation:
    def test_heat_detected(self, heat_clean):
        res = detect_temporal_translation(heat_clean.trajectories[0])
        assert res.detected
        assert res.score < 0.05

    def test_decayed_second_half_uses_shrunk_windows(self):
        # energy ratio far below the 1e-3 trigger; shrink succeeds
        tr = analytic_field(lambda x, t: np.sin(2 * x) * np.exp(-0.4 * t), t_end=20.0)
        energy = np.sum(tr.values**2, axis=1)
        w = tr.grid.nt // 2
        assert energy[w : 2 * w].sum() < 1e-3 * energy[:w].sum()
        res = detect_temporal_translation(tr)
        assert res.detected

    def test_time_dependent_rate_not_detected(self):
        # decay rate doubles between halves: discrepancy ~1 > 0.4
        def fn(x, t):
            rate = 0.2 + 0.6 * (t / 2.0)
            return np.sin(2 * x) * np.exp(-rate * t)

        res = detect_temporal_translation(analytic_field(fn, t_end=2.0))
        assert not res.detected

    def test_short_series_errors(self):
        tr = make_traj(np.tile(np.sin(2 * np.pi * np.arange(32) / 32), (8, 1)))
        with pytest.raises(ValueError):
            detect_temporal_translation(tr)


class TestScaling:
    def test_heat_detected_with_quadratic_law(self, heat_clean):
        res = detect_scaling(heat_clean.trajectories[0])
        assert res.detected
        assert res.score > 0.9
        # weighted log-log slope of |Re sigma| vs k is 2 for pure diffusion
        est = estimate_symbol(heat_clean.trajectories[0])
        usable = est.reliable & (np.abs(est.sigma.real) > 1e-10) & (
            est.power > 0.05 * est.power.max()
        )
        slope = np.polyfit(
            np.log(est.wavenumbers[usable]), np.log(np.abs(est.sigma.real[usable])), 1
        )[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_ks_not_detected(self):
        pde = PDES["ks"]
        ts = generate_set(pde, pde.default_grid(), 1, 0.0, 42)
        res = detect_scaling(ts.trajectories[0])
        assert not res.detected

    def test_single_mode_insufficient(self):
        tr = analytic_field(lambda x, t: np.sin(3 * x) * np.exp(-0.9 * t))
        res = detect_scaling(tr)
        assert res == (False, 0.0) or (not res.detected and res.score == 0.0)


class TestReflection:
    def test_even_field(self):
        tr = analytic_field(lambda x, t: np.cos(x) * np.exp(-0.1 * t))
        even, odd = detect_reflection(tr)
        assert even.detected and not odd.detected

    def test_burgers_odd(self, burgers_clean):
        even, odd = detect_reflection(burgers_clean.trajectories[0])
        assert odd.detected and not even.detected

    def test_mixed_parity(self):
        tr = analytic_field(lambda x, t: (np.sin(x) + np.cos(x)) * np.exp(-0.1 * t))
        even, odd = detect_reflection(tr)
        assert not even.detected and not odd.detected
        # ||(sin+cos) -/+ (-sin+cos)||^2 / ||sin+cos||^2 = 2 exactly
        assert even.score == pytest.approx(2.0, abs=1e-9)
        assert odd.score == pytest.approx(2.0, abs=1e-9)

    def test_zero_field_errors(self):
        with pytest.raises(ValueError):
            detect_reflection(make_traj(np.zeros((16, 32))))

    def test_never_both_on_benchmarks(self):
        for name in ("heat", "burgers", "kdv", "react_diff"):
            pde = PDES[name]
            ts = generate_set(pde, pde.default_grid(), 1, 0.0, 42)
            even, odd = detect_reflection(ts.trajectories[0])
            assert not (even.detected and odd.detected)


class TestGalilean:
    def test_burgers_detected(self, burgers_clean):
        detected, f, c1, rank_ok = detect_galilean(burgers_clean, standard_system(burgers_clean))
        assert detected
        assert f >= 0.08
        assert c1 == pytest.approx(-1.0, abs=0.05)
        assert rank_ok

    def test_heat_not_detected(self, heat_clean):
        detected, f, c1, _ = detect_galilean(heat_clean, standard_system(heat_clean))
        assert not detected
        assert f <= 0.03

    def test_kdv_detected(self, kdv_clean):
        detected, f, c1, _ = detect_galilean(kdv_clean, standard_system(kdv_clean))
        assert detected
        assert c1 == pytest.approx(-1.0, abs=0.05)

    def test_boost_maps_grid_consistently(self, burgers_clean):
        boosted = galilean_boost(burgers_clean, 0.3)
        assert boosted.grid == burgers_clean.grid
        # offset by c and circularly shifted only
        assert np.allclose(
            np.sort(boosted.trajectories[0].values[-1]),
            np.sort(burgers_clean.trajectories[0].values[-1] + 0.3),
        )

    def test_order_independent(self, burgers_clean):
        flipped = TrajectorySet(tuple(reversed(burgers_clean.trajectories)))
        a = detect_galilean(burgers_clean, standard_system(burgers_clean))
        b = detect_galilean(flipped, standard_system(flipped))
        assert a[1] == pytest.approx(b[1], rel=1e-9)

    @pytest.mark.parametrize("name", ["burgers_clean", "heat_clean", "kdv_clean"])
    def test_full_library_system_matches_own_assembly(self, name, request):
        ts = request.getfixturevalue(name)
        detected, f, c1, rank_ok = detect_galilean(ts, standard_system(ts))
        own = detect_galilean(ts, galilean_system(ts))
        assert (detected, rank_ok) == (own[0], own[3])
        assert f == pytest.approx(own[1], rel=1e-9)
        assert c1 == pytest.approx(own[2], rel=1e-9)


class TestDetectAll:
    def test_burgers_report(self, burgers_clean):
        rep = detect_all(burgers_clean, standard_system(burgers_clean))
        assert rep.galilean.detected
        assert rep.reflection_odd.detected
        assert not rep.reflection_even.detected

    def test_kdv_report(self, kdv_clean):
        rep = detect_all(kdv_clean, standard_system(kdv_clean))
        assert rep.galilean.detected
        assert not rep.reflection_odd.detected

    def test_heat_report(self, heat_clean):
        rep = detect_all(heat_clean, standard_system(heat_clean))
        assert not rep.galilean.detected

    def test_deterministic(self, heat_clean):
        assert detect_all(heat_clean, standard_system(heat_clean)) == detect_all(heat_clean, standard_system(heat_clean))

    def test_failed_detector_downgrades(self):
        # constant nonzero field: no reliable modes -> symbol tests go NaN
        g = Grid1D(0.0, 2 * np.pi, 32, 0.0, 1.0, 32)
        ts = TrajectorySet((Trajectory(g, np.ones((32, 32))),))
        rep = detect_all(ts, galilean_system(ts))
        assert not rep.scaling.detected
        assert np.isnan(rep.scaling.score)
        d = rep.to_json_dict()
        assert d["scaling"]["score"] is None
