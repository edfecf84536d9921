import json

import numpy as np
import pytest

import eqod.pipeline as pipeline
import eqod.stability as stability
import eqod.symmetry as symmetry
from eqod.core import term_from_tag
from eqod.oplib import LibrarySpec, standard_library
from eqod.pipeline import run_eqod, run_wf_lasso_baseline
from eqod.weakform import IDENTIFY_GRID, assemble


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
        base = LibrarySpec(tuple(term_from_tag(t) for t in ("u_x", "u_xx", "u*u_x")))
        res = run_eqod(burgers_clean, 42, base_library=base)
        assert res.mode == "symmetry"
        assert not res.fallback_triggered
        assert res.library_used.tags == ("u_x", "u_xx", "u*u_x")
        assert res.coeffs.value(term_from_tag("u_xx")) == pytest.approx(0.1, abs=1e-3)
        assert res.coeffs.value(term_from_tag("u*u_x")) == pytest.approx(-1.0, abs=1e-2)

    def test_to_json_parses(self, heat_result):
        res = heat_result
        doc = json.loads(res.to_json())
        assert doc["mode"] == res.mode
        assert doc["library"] == list(res.library_used.tags)
        assert set(doc["coefficients"]) == set(standard_library().tags)
        assert set(doc["detectors"]) == {
            "temporal_translation",
            "galilean",
            "scaling",
            "reflection_even",
            "reflection_odd",
        }

    # The base library is assembled once and reused by the Galilean test;
    # the boosted refit (skipped only when the raw fraction is 0) and the
    # stability gate's (8,10) system are the other assemblies.
    @pytest.mark.parametrize("name, expected", [("heat_clean", 3), ("burgers_clean", 2)])
    def test_assembly_count(self, name, expected, request, monkeypatch):
        calls = []

        def counting(trajset, spec, tg):
            calls.append((spec, (len(tg.t_centers), len(tg.x_centers))))
            return assemble(trajset, spec, tg)

        for module in (pipeline, symmetry, stability):
            monkeypatch.setattr(module, "assemble", counting)
        run_eqod(request.getfixturevalue(name), 42)
        assert len(calls) == expected
        assert calls.count((standard_library(), IDENTIFY_GRID)) == 1


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestFallback:
    def test_reduced_path_value_error_falls_back(self, heat_clean, monkeypatch):
        monkeypatch.setattr(pipeline, "stability_gate", _raise(ValueError("gate failed")))
        with pytest.warns(UserWarning, match="reduced path failed"):
            res = run_eqod(heat_clean, 42)
        full = run_wf_lasso_baseline(heat_clean, 42)
        assert res.mode == "stability"
        assert res.fallback_triggered
        assert res.library_used == standard_library()
        assert np.array_equal(res.coeffs.values, full.coeffs.values)

    def test_programming_error_propagates(self, heat_clean, monkeypatch):
        monkeypatch.setattr(pipeline, "stability_gate", _raise(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            run_eqod(heat_clean, 42)

    def test_symmetry_path_failure_reports_symmetry(self, burgers_clean, monkeypatch):
        monkeypatch.setattr(pipeline, "galilean_reduced", _raise(ValueError("no library")))
        with pytest.warns(UserWarning, match="reduced path failed"):
            res = run_eqod(burgers_clean, 42)
        assert res.mode == "symmetry"
        assert res.fallback_triggered
        assert res.library_used == standard_library()
