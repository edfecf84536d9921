import dataclasses
import json
import warnings

import numpy as np
import pytest

import eqod.pipeline as pipeline
import eqod.stability as stability
import eqod.symmetry as symmetry
import eqod.weakform as weakform
from eqod.core import Grid1D, Trajectory, TrajectorySet, term_from_tag
from eqod.oplib import LibrarySpec, expanded_library, galilean_reduced, standard_library
from eqod.pipeline import run_eqod, run_wf_lasso_baseline
from eqod.solvers import PDES, generate_set
from eqod.stability import STABILITY_GRID
from eqod.symmetry import GALILEAN_BASIS, GALILEAN_BOOST_C, DetectorResult
from eqod.weakform import IDENTIFY_GRID, BoostedGrid, assemble


# A base that lacks most GALILEAN_BASIS terms.
THREE_TERMS = LibrarySpec(tuple(term_from_tag(t) for t in ("u_x", "u_xx", "u*u_x")))


def tags(support):
    return {t.tag for t in support}


@pytest.fixture(scope="module")
def heat_result(heat_clean):
    return run_eqod(heat_clean, 42)


class TestRunEqod:
    def test_heat_clean_stability(self, heat_result):
        res = heat_result
        assert res.mode == "stability"
        assert not res.fallback_triggered
        assert tags(res.support()) == {"u_xx"}

    def test_burgers_clean_symmetry(self, burgers_clean):
        res = run_eqod(burgers_clean, 42)
        assert res.mode == "symmetry"
        assert not res.fallback_triggered
        assert tags(res.support()) == {"u*u_x", "u_xx"}
        for tag in ("u", "u^2", "u^3"):
            assert res.coeffs.value(term_from_tag(tag)) == 0.0

    def test_symmetry_on_base_without_reduced_terms(self, burgers_clean):
        res = run_eqod(burgers_clean, 42, base_library=THREE_TERMS)
        assert res.mode == "symmetry"
        assert not res.fallback_triggered
        assert res.library_used.tags == ("u_x", "u_xx", "u*u_x")
        assert res.coeffs.value(term_from_tag("u_xx")) == pytest.approx(0.1, abs=1e-3)
        assert res.coeffs.value(term_from_tag("u*u_x")) == pytest.approx(-1.0, abs=1e-2)

    def test_an_overflowing_product_raises_from_the_assembly(self, heat_clean, monkeypatch):
        # the standard library's u^2 and u^3 overflow on heat scaled by 1e200:
        # the assembly's error is all a caller sees, inline and on helper threads
        big = TrajectorySet(tuple(Trajectory(t.grid, t.values * 1e200) for t in heat_clean))
        for threaded in (False, True):
            if threaded:
                monkeypatch.setattr(weakform, "_THREADED_CELLS", 0)
                monkeypatch.setattr(weakform, "_usable_cpus", lambda: [0, 1, 2])
                monkeypatch.setattr(weakform, "_pin", lambda cpus: None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match=r"^the weak-form system is not finite: a library product of the data overflows \(largest \|u\| is 2\.\d+e\+200\)$"):
                    run_eqod(big, 42)
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_all_zero_set(self):
        # every residual is zero, so the guard's ratio is 1 and nothing reverts
        g = Grid1D(0.0, 2 * np.pi, 32, 0.0, 1.0, 32)
        ts = TrajectorySet(tuple(Trajectory(g, np.zeros((32, 32))) for _ in range(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_eqod(ts, 42)
        assert np.all(res.coeffs.values == 0.0)
        assert res.mode == "stability"
        assert not res.fallback_triggered
        assert res.residual_ratio == 1.0

    @pytest.mark.parametrize("name, mode", [("burgers_clean", "symmetry"), ("heat_clean", "stability")])
    def test_parity_prune_applied_once_to_the_base(self, name, mode, request, monkeypatch):
        seen = []
        prune = pipeline.odd_reflection_prune

        def recording(spec):
            seen.append(spec)
            return prune(spec)

        monkeypatch.setattr(pipeline, "odd_reflection_prune", recording)
        monkeypatch.setattr(pipeline, "detect_all", odd_report(pipeline.detect_all))
        res = run_eqod(request.getfixturevalue(name), 42)
        assert res.mode == mode
        assert seen == [standard_library()]
        assert not {"u^2", "u*u_xx"} & set(res.library_used.tags)

    @pytest.mark.parametrize("run", [run_eqod, run_wf_lasso_baseline])
    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_bad_seed_fails_before_the_assembly(self, heat_clean, monkeypatch, run, seed):
        monkeypatch.setattr(pipeline, "assemble", _raise(AssertionError("assembled")))
        with pytest.raises(ValueError, match="^seed must be"):
            run(heat_clean, seed)

    def test_to_json_parses(self, heat_result):
        res = heat_result
        doc = json.loads(res.to_json())
        assert doc["mode"] == res.mode
        assert doc["library"] == list(res.library_used.tags)
        assert set(doc["coefficients"]) == set(standard_library().tags)
        assert set(doc["detectors"]) == {"galilean", "reflection_odd"}

    def test_support_rejects_a_nan_threshold(self, heat_result):
        with pytest.raises(ValueError, match="threshold must be positive, got nan"):
            heat_result.support(np.nan)
        assert heat_result.support(np.inf) == frozenset()

    # The base library and GALILEAN_BASIS are assembled once, together, on
    # the identification and the stability grids and on the identification
    # grid read on the data's boost, and reused by the full-library fit,
    # the Galilean test and its boosted refit, the stability gate and the
    # reduced fit. The stability and symmetry modules assemble nothing.
    @pytest.mark.parametrize(
        "name, base",
        [
            pytest.param("heat_clean", standard_library(), id="heat_clean-2"),
            pytest.param("burgers_clean", standard_library(), id="burgers_clean-2"),
            pytest.param("burgers_clean", THREE_TERMS, id="burgers_clean-three_terms"),
            pytest.param("burgers_clean", expanded_library(20), id="burgers_clean-expanded20"),
        ],
    )
    def test_assembly_count(self, name, base, request, monkeypatch):
        union = LibrarySpec(tuple(dict.fromkeys(base.terms + GALILEAN_BASIS.terms)))
        calls = []

        def shape(tg):
            return len(tg.t_centers), len(tg.x_centers)

        def counting(trajset, spec, *grids):
            calls.append(
                (
                    spec,
                    tuple(
                        ("boost", g.c, g.spec, shape(g.test_grid)) if isinstance(g, BoostedGrid) else shape(g)
                        for g in grids
                    ),
                )
            )
            return assemble(trajset, spec, *grids)

        monkeypatch.setattr(pipeline, "assemble", counting)
        run_eqod(request.getfixturevalue(name), 42, base_library=base)
        assert calls == [
            (union, (IDENTIFY_GRID, STABILITY_GRID, ("boost", GALILEAN_BOOST_C, GALILEAN_BASIS, IDENTIFY_GRID))),
        ]
        assert not hasattr(stability, "assemble")
        assert not hasattr(symmetry, "assemble")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def odd_report(detect):
    """detect_all, with the odd-reflection test forced to detect."""

    def forced(*args):
        rep = detect(*args)
        return dataclasses.replace(rep, reflection_odd=DetectorResult(True, 0.0))

    return forced


class TestFallback:
    @pytest.mark.parametrize("law", sorted(PDES))
    def test_reduced_path_value_error_falls_back(self, law, monkeypatch):
        # the fallback is the full-library baseline itself, in either mode,
        # so the reduced path can never leave an answer below it
        pde = PDES[law]
        ts = generate_set(pde, pde.default_grid(), 3, 0.1, 0)
        monkeypatch.setattr(pipeline, "stability_gate", _raise(ValueError("gate failed")))
        monkeypatch.setattr(pipeline, "galilean_reduced", _raise(ValueError("no library")))
        with pytest.warns(UserWarning, match="reduced path failed"):
            res = run_eqod(ts, 0)
        full = run_wf_lasso_baseline(ts, 0)
        assert res.mode == ("symmetry" if res.symmetry_report.galilean.detected else "stability")
        assert res.fallback_triggered
        assert res.library_used == standard_library()
        assert np.array_equal(res.coeffs.values, full.coeffs.values)

    def test_programming_error_propagates(self, heat_clean, monkeypatch):
        monkeypatch.setattr(pipeline, "stability_gate", _raise(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            run_eqod(heat_clean, 42)

    def test_library_emptied_by_the_parity_prune_falls_back(self, burgers_clean):
        base = LibrarySpec(tuple(term_from_tag(t) for t in ("u^2", "u*u_xx")))
        with pytest.warns(UserWarning, match="reduced path failed"):
            res = run_eqod(burgers_clean, 42, base_library=base)
        assert res.mode == "symmetry"
        assert res.fallback_triggered
        assert res.library_used == base

    def test_symmetry_path_failure_reports_symmetry(self, burgers_clean, monkeypatch):
        monkeypatch.setattr(pipeline, "galilean_reduced", _raise(ValueError("no library")))
        with pytest.warns(UserWarning, match="reduced path failed"):
            res = run_eqod(burgers_clean, 42)
        assert res.mode == "symmetry"
        assert res.fallback_triggered
        assert res.library_used == standard_library()


def _reduced_without(tag):
    """galilean_reduced, less the term ``tag``."""
    return lambda: LibrarySpec(tuple(t for t in galilean_reduced().terms if t.tag != tag))


class TestGuard:
    # Clean data, seed 42, with the reduced library forced to leave out a
    # term of the law: the reduced fit's residual is then about 1e6 times
    # the full fit's, and the guard must revert to the full-library fit.
    @pytest.mark.parametrize(
        "law, target, reduction, mode, ratio",
        [
            pytest.param("burgers", "galilean_reduced", _reduced_without("u*u_x"), "symmetry", 7.49e6, id="burgers-without-u*u_x"),
            pytest.param(
                "heat", "stability_gate", lambda ws, seed: (LibrarySpec((term_from_tag("u"),)), None), "stability", 5.71e6,
                id="heat-forced-to-u",
            ),
            pytest.param(
                "burgers", "galilean_reduced", _reduced_without("u_xx"), "symmetry", 8.6e5,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 5: the dense fit's u_xx = 0.1 is under MATERIAL_FRACTION of |u*u_x| = 1, so the guard keeps the reduced fit",
                ),
                id="burgers-without-u_xx",
            ),
        ],
    )
    def test_reverts_when_a_term_of_the_law_is_left_out(self, law, target, reduction, mode, ratio, request, monkeypatch):
        ts = request.getfixturevalue(f"{law}_clean")
        monkeypatch.setattr(pipeline, target, reduction)
        res = run_eqod(ts, 42)
        assert res.mode == mode
        assert res.residual_ratio == pytest.approx(ratio, rel=1e-2)
        assert res.fallback_triggered
        assert res.library_used == standard_library()
        assert np.array_equal(res.coeffs.values, run_wf_lasso_baseline(ts, 42).coeffs.values)
