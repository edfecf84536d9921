import re

import numpy as np
import pytest

from eqod.core import Grid1D, STANDARD_TERMS, Trajectory, term_from_tag
from eqod.oplib import (
    FieldPass,
    LibrarySpec,
    evaluate_term,
    expanded_library,
    galilean_reduced,
    odd_reflection_prune,
    standard_library,
)
from eqod.pipeline import run_eqod


def flat_trajectory(fn, nx=128, nt=8):
    g = Grid1D(0.0, 2 * np.pi, nx, 0.0, 1.0, nt)
    row = fn(g.x)
    return Trajectory(g, np.tile(row, (nt, 1)))


class TestLibraries:
    def test_standard_order(self):
        spec = standard_library()
        assert spec.terms == STANDARD_TERMS

    def test_galilean_reduced(self):
        spec = galilean_reduced()
        assert len(spec) == 7
        assert term_from_tag("u*u_x") in spec
        for tag in ("u", "u^2", "u^3"):
            assert term_from_tag(tag) not in spec

    def test_inclusion_chain(self):
        std = set(standard_library().terms)
        gal = set(galilean_reduced().terms)
        odd = set(odd_reflection_prune(galilean_reduced()).terms)
        assert odd < gal < std
        assert (len(odd), len(gal), len(std)) == (6, 7, 10)

    def test_odd_prune_on_galilean(self):
        spec = odd_reflection_prune(galilean_reduced())
        assert len(spec) == 6
        assert term_from_tag("u*u_xx") not in spec

    def test_odd_prune_on_standard(self):
        spec = odd_reflection_prune(standard_library())
        assert len(spec) == 8
        assert term_from_tag("u^2") not in spec
        assert term_from_tag("u*u_xx") not in spec

    def test_odd_prune_idempotent(self):
        once = odd_reflection_prune(galilean_reduced())
        assert odd_reflection_prune(once) is once

    def test_no_duplicates_enforced(self):
        t = term_from_tag("u_xx")
        with pytest.raises(ValueError):
            LibrarySpec((t, t))

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError, match="library must be nonempty"):
            LibrarySpec(())

    @pytest.mark.parametrize(
        "entries, bad", [(("u_x", "u_xx"), "u_x"), ((term_from_tag("u_x"), (0, 0, 1, 0, 0)), (0, 0, 1, 0, 0))]
    )
    def test_non_term_entry_rejected(self, entries, bad):
        with pytest.raises(ValueError, match=re.escape(f"library entry {bad!r} is not a LibraryTerm") + ".*term_from_tag"):
            LibrarySpec(entries)


    def test_list_built_library_is_the_tuple_built_one(self, heat_clean):
        terms = [term_from_tag("u_x"), term_from_tag("u_xx")]
        spec = LibrarySpec(terms)
        assert spec == LibrarySpec(tuple(terms))
        assert hash(spec) == hash(LibrarySpec(tuple(terms)))
        res = run_eqod(heat_clean, 0, spec)
        assert np.array_equal(res.coeffs.values, run_eqod(heat_clean, 0, LibrarySpec(tuple(terms))).coeffs.values)


class TestExpandedLibrary:
    def test_size_10_is_standard(self):
        assert expanded_library(10).terms == standard_library().terms

    def test_size_15_superset(self):
        spec = expanded_library(15)
        assert len(spec) == 15
        assert spec.terms[:10] == STANDARD_TERMS

    def test_size_30_distinct(self):
        spec = expanded_library(30)
        assert len(spec) == 30
        assert len(set(spec.terms)) == 30
        assert not set(spec.terms[10:]) & set(STANDARD_TERMS)

    def test_nesting(self):
        prev = expanded_library(10).terms
        for size in (15, 20, 25, 30):
            cur = expanded_library(size).terms
            assert cur[: len(prev)] == prev
            prev = cur

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            expanded_library(12)

    @pytest.mark.parametrize("size", [15.0, 12.5, "15"])
    def test_non_integer_size(self, size):
        with pytest.raises(ValueError, match="^size must be an integer, got "):
            expanded_library(size)


class TestEvaluateTerm:
    def test_u_xx_of_sin(self):
        tr = flat_trajectory(np.sin)
        field = evaluate_term(tr, term_from_tag("u_xx"))
        assert np.abs(field + np.sin(tr.grid.x)).max() < 1e-10

    def test_constant_convective(self):
        tr = flat_trajectory(lambda x: np.full_like(x, 2.5))
        field = evaluate_term(tr, term_from_tag("u*u_x"))
        assert np.abs(field).max() < 1e-10

    def test_cubic_transport_analytic(self):
        tr = flat_trajectory(np.sin)
        field = evaluate_term(tr, term_from_tag("u^2*u_x"))
        x = tr.grid.x
        assert np.abs(field - np.sin(x) ** 2 * np.cos(x)).max() < 1e-9

    @pytest.mark.parametrize(
        "tag,degree",
        [("u_xx", 1), ("u_xxxx", 1), ("u*u_x", 2), ("u*u_xx", 2), ("u^3", 3), ("u^2*u_x", 3)],
    )
    def test_homogeneity_degree(self, tag, degree):
        tr = flat_trajectory(lambda x: np.sin(x) + 0.3 * np.cos(2 * x))
        doubled = Trajectory(tr.grid, 2.0 * tr.values)
        ratio = evaluate_term(doubled, term_from_tag(tag)) / evaluate_term(
            tr, term_from_tag(tag)
        )
        assert np.abs(ratio - 2.0**degree).max() < 1e-8


class TestFieldPass:
    def test_cube_within_two_ulp_of_pow(self):
        rng = np.random.default_rng(5)
        g = Grid1D(0.0, 2 * np.pi, 64, 0.0, 1.0, 16)
        tr = Trajectory(g, rng.standard_normal((16, 64)) * np.logspace(-3, 3, 64))
        field = evaluate_term(tr, term_from_tag("u^3"))
        ref = tr.values**3
        assert np.all(np.abs(field - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_fields_are_read_only(self):
        tr = flat_trajectory(np.sin)
        before = tr.values.copy()
        terms = tuple(term_from_tag(t) for t in ("u", "u_x", "u*u_x"))
        fields = dict(FieldPass(terms, tr.grid)(tr))
        assert len(fields) == len(terms)
        u, ux, uux = (fields[t] for t in terms)
        assert np.shares_memory(u, tr.values)
        for field in (u, ux, uux):
            with pytest.raises(ValueError):
                field[0, 0] = 1.0
        assert np.array_equal(tr.values, before)
        assert not tr.values.flags.writeable
