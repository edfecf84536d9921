import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eqod.solvers as solvers
from eqod.core import (
    CoefficientVector,
    Grid1D,
    LibraryTerm,
    RngStream,
    STANDARD_TERMS,
    Trajectory,
    TrajectorySet,
    coefficient_error,
    f1_score,
    support_from_coeffs,
    term_from_tag,
)

U_XX = term_from_tag("u_xx")
U_X = term_from_tag("u_x")
UUX = term_from_tag("u*u_x")


def vec(entries):
    return CoefficientVector.from_dict(entries)


class TestGrid:
    def test_spacings(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        assert g.dx == pytest.approx(2 * np.pi / 128)
        assert g.dt == pytest.approx(1.0 / 127)
        assert len(g.x) == 128 and len(g.t) == 128
        # periodic: the point x0 + L is not stored
        assert g.x[-1] == pytest.approx(2 * np.pi - g.dx)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, -1.0, 128, 0.0, 1.0, 128)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 4, 0.0, 1.0, 128)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 128, 1.0, 0.5, 128)
        with pytest.raises(ValueError, match="nx must be even"):
            Grid1D(0.0, 2 * np.pi, 127, 0.0, 1.0, 128)
        with pytest.raises(ValueError, match="nx must be an integer"):
            Grid1D(0.0, 2 * np.pi, 128.0, 0.0, 1.0, 128)
        with pytest.raises(ValueError, match="nt must be an integer"):
            Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128.5)
        with pytest.raises(ValueError, match="nt must be an integer"):
            Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, np.float64(128.0))
        g = Grid1D(0.0, 2 * np.pi, np.int64(128), 0.0, 1.0, np.int32(64))
        assert type(g.nx) is int and type(g.nt) is int and (g.nx, g.nt) == (128, 64)

    @pytest.mark.parametrize(
        "name, value", [("x0", np.nan), ("length", np.nan), ("t_start", -np.inf), ("t_end", np.inf)]
    )
    def test_rejects_non_finite_ends(self, name, value):
        args = {"x0": 0.0, "length": 2 * np.pi, "nx": 16, "t_start": 0.0, "t_end": 1.0, "nt": 8}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Grid1D(**{**args, name: value})

    def test_trajectory_validation(self):
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 8)
        Trajectory(g, np.zeros((8, 16)))
        with pytest.raises(ValueError):
            Trajectory(g, np.zeros((16, 8)))
        bad = np.zeros((8, 16))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError):
            Trajectory(g, bad)

    def test_trajectory_set_shares_grid(self):
        g1 = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 8)
        g2 = Grid1D(0.0, 2 * np.pi, 16, 0.0, 2.0, 8)
        t1 = Trajectory(g1, np.ones((8, 16)))
        with pytest.raises(ValueError):
            TrajectorySet((t1, Trajectory(g2, np.ones((8, 16)))))
        with pytest.raises(ValueError):
            TrajectorySet(())


class TestTerms:
    def test_standard_tags(self):
        assert [t.tag for t in STANDARD_TERMS] == [
            "u", "u^2", "u^3", "u_x", "u_xx", "u_xxx", "u_xxxx",
            "u*u_x", "u*u_xx", "u^2*u_x",
        ]

    def test_roundtrip(self):
        for t in STANDARD_TERMS:
            assert term_from_tag(t.tag) == t

    def test_parses_tags_outside_the_standard_set(self):
        assert term_from_tag("u^4") == LibraryTerm((4, 0, 0, 0, 0))
        assert term_from_tag("u*u_x*u_xx") == LibraryTerm((1, 1, 1, 0, 0))
        assert term_from_tag("u_x*u_x") == term_from_tag("u_x^2")

    @pytest.mark.parametrize("tag", ["v", "u_y", "u*v_x", "", "u**2", "u^x", "u^-1", "u^", "u^0*u_x", "u^\u0663", "u^00"])
    def test_unknown_tag(self, tag):
        with pytest.raises(ValueError, match=re.escape(f"unknown term tag {tag!r}")):
            term_from_tag(tag)

    @pytest.mark.parametrize(
        "powers", [(0, 0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0)]
    )
    def test_invalid_powers(self, powers):
        with pytest.raises(ValueError, match="invalid term powers"):
            LibraryTerm(powers)

    def test_order_and_power(self):
        assert UUX.derivative_order == 1 and UUX.power == 2
        sq = term_from_tag("u^2*u_x")
        assert sq.derivative_order == 1 and sq.power == 3
        assert term_from_tag("u_xxxx").derivative_order == 4


class TestRngStream:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            RngStream(-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_rejects_a_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            RngStream(seed)

    def test_keeps_numpy_integer_seeds(self):
        stream = RngStream(np.int64(7))
        assert type(stream.seed) is int
        assert np.array_equal(stream.generator(1).random(4), RngStream(7).generator(1).random(4))


class TestCoefficientVector:
    def test_one_value_per_term(self):
        with pytest.raises(ValueError, match="one value per term"):
            CoefficientVector(STANDARD_TERMS, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        values = np.zeros(len(STANDARD_TERMS))
        values[2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            CoefficientVector(STANDARD_TERMS, values)

    @pytest.mark.parametrize("entries", [{"u_x": 1.0, term_from_tag("u_x"): 2.0}, {"u_x^1": 1.0, "u_x": 2.0}])
    def test_from_dict_rejects_a_term_named_twice(self, entries):
        with pytest.raises(ValueError, match=r"^terms named twice: \['u_x'\]$"):
            vec(entries)

    @pytest.mark.parametrize("key", [3, None, (1, 0, 0, 0, 0)])
    def test_from_dict_rejects_a_key_that_is_neither_tag_nor_term(self, key):
        with pytest.raises(ValueError, match=re.escape(f"neither a term tag nor a LibraryTerm: [{key!r}]")):
            vec({"u_xx": 0.1, key: 1.0})

    def test_from_dict_rejects_terms_outside_the_ordering(self):
        with pytest.raises(ValueError, match=r"not in target ordering: \['u\^4'\]"):
            vec({"u_xx": 0.1, "u^4": 1.0})

    def test_equal_vectors_built_apart_are_one_value(self):
        # == used to raise "truth value of an array ... is ambiguous", and hash TypeError
        a, b = vec({"u_xx": 0.1}), vec({"u_xx": 0.1})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != vec({"u_xx": 0.2})
        assert a != CoefficientVector(STANDARD_TERMS[::-1], a.values[::-1])

    def test_values_are_a_read_only_float64_copy(self):
        values = np.zeros(len(STANDARD_TERMS), dtype=np.float32)
        c = CoefficientVector(list(STANDARD_TERMS), values)
        values[0] = 1.0
        assert c.values.dtype == np.float64 and not c.values.any()
        assert c.terms == STANDARD_TERMS
        with pytest.raises(ValueError, match="read-only"):
            c.values[0] = 1.0


class TestIdentityEquality:
    def test_trajectories_and_sets_compare_by_identity(self):
        # == between distinct objects used to raise on their arrays
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 16)
        a, b = Trajectory(g, np.zeros((16, 16))), Trajectory(g, np.zeros((16, 16)))
        assert a == a and a != b and len({a, b}) == 2
        s, t = TrajectorySet((a, b)), TrajectorySet((a, b))
        assert s == s and s != t and len({s, t}) == 2


class TestSupport:
    def test_strict_threshold(self):
        c = vec({"u_xx": 0.1, "u_x": 0.0005})
        assert support_from_coeffs(c, 1e-3) == {U_XX}

    def test_all_zero(self):
        assert support_from_coeffs(vec({})) == frozenset()

    def test_burgers_row(self):
        c = vec({"u*u_x": -1.0001, "u_xx": 0.1000})
        assert support_from_coeffs(c) == {UUX, U_XX}

    @pytest.mark.parametrize("threshold", [0.0, -1e-3, np.nan])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold must be positive"):
            support_from_coeffs(vec({"u_xx": 0.1}), threshold)

    def test_infinite_threshold_gives_an_empty_support(self):
        assert support_from_coeffs(vec({"u_xx": 0.1}), np.inf) == frozenset()

    def test_boundary_not_included(self):
        c = vec({"u_xx": 1e-3})
        assert support_from_coeffs(c, 1e-3) == frozenset()

    @given(st.floats(0.1, 10.0))
    def test_scale_invariance(self, alpha):
        c = vec({"u_xx": 0.1, "u_x": 0.0005, "u": -0.002})
        scaled = CoefficientVector(c.terms, c.values * alpha)
        assert support_from_coeffs(scaled, 1e-3 * alpha) == support_from_coeffs(c, 1e-3)


class TestF1:
    def test_identity(self):
        assert f1_score({U_XX}, {U_XX}) == (1.0, 1.0, 1.0)

    def test_half_precision(self):
        p, r, f1 = f1_score({U_XX, U_X}, {U_XX})
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        assert f1_score(frozenset(), {U_XX}) == (0.0, 0.0, 0.0)

    def test_empty_truth_errors(self):
        with pytest.raises(ValueError):
            f1_score({U_XX}, frozenset())

    def test_brute_force_enumeration(self):
        # all 2^10 predictions against a fixed truth, vs direct counting
        truth = {U_XX, UUX}
        for mask in range(1024):
            pred = frozenset(t for i, t in enumerate(STANDARD_TERMS) if mask >> i & 1)
            p, r, f1 = f1_score(pred, truth)
            tp = len(pred & truth)
            exp_p = tp / len(pred) if pred else 0.0
            exp_r = tp / 2
            exp_f = 2 * exp_p * exp_r / (exp_p + exp_r) if exp_p + exp_r else 0.0
            assert (p, r, f1) == (exp_p, exp_r, exp_f)
            assert 0.0 <= f1 <= 1.0
            assert (f1 == 1.0) == (pred == truth)


class TestCoefficientError:
    def test_identity(self):
        c = vec({"u_xx": 0.1})
        assert coefficient_error(c, c) == 0.0

    def test_single_difference(self):
        est = vec({"u_xx": 0.11})
        truth = vec({"u_xx": 0.1})
        assert coefficient_error(est, truth) == pytest.approx(0.001)

    def test_missing_terms_count_as_zero(self):
        est = vec({"u_xx": 0.1})
        truth = vec({"u_xx": 0.1, "u*u_x": -1.0})
        assert coefficient_error(est, truth) == pytest.approx(0.1)


class TestInputBoundary:
    def test_trajectory_rejects_complex_values(self):
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 16)
        with pytest.raises(ValueError, match="must be real, got dtype complex128"):
            Trajectory(g, np.ones((16, 16)) + 1e-3j)

    def test_trajectory_keeps_real_integer_values(self):
        g = Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 16)
        tr = Trajectory(g, np.ones((16, 16), dtype=np.int64))
        assert tr.values.dtype == np.float64 and np.all(tr.values == 1.0)

    @pytest.mark.parametrize(
        "kind", ["float64", "read-only float64", "read-only view", "int64", "generate_set row"]
    )
    def test_trajectory_values_are_a_read_only_copy(self, kind, monkeypatch):
        if kind == "generate_set row":
            made, propagate = [], solvers._propagate

            def recorded(*args):  # keeps the stack whose rows generate_set passes on
                made.append(propagate(*args))
                return made[-1]

            monkeypatch.setattr(solvers, "_propagate", recorded)
            heat = solvers.PDES["heat"]
            tr = solvers.generate_set(heat, heat.default_grid(16, 16), 2, 0.0, 42).trajectories[1]
            base = made[0]
        else:
            base = np.ones((16, 16), dtype=np.int64 if kind == "int64" else np.float64)
            a = base.view() if kind == "read-only view" else base
            a.flags.writeable = not kind.startswith("read-only")
            tr = Trajectory(Grid1D(0.0, 2 * np.pi, 16, 0.0, 1.0, 16), a)
        before = tr.values.copy()
        assert tr.values.dtype == np.float64 and not tr.values.flags.writeable
        assert not np.shares_memory(tr.values, base)
        base.flags.writeable = True
        base[...] = -1
        assert np.array_equal(tr.values, before)
        with pytest.raises(ValueError, match="read-only"):
            tr.values[0, 0] = np.nan

    @pytest.mark.parametrize("power", [1.5, 2.0, np.float64(1.0), "1"])
    def test_term_rejects_a_non_integer_power(self, power):
        with pytest.raises(ValueError, match=r"^term power must be an integer, got "):
            LibraryTerm((power, 0, 0, 0, 0))

    def test_term_stores_plain_int_powers(self):
        term = LibraryTerm((np.int64(2), 1, 0, 0, 0))
        assert term == term_from_tag("u^2*u_x") and hash(term) == hash(term_from_tag("u^2*u_x"))
        assert all(type(p) is int for p in term.powers)
