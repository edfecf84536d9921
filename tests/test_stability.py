import numpy as np
import pytest

from eqod.core import Grid1D, RngStream, Trajectory, TrajectorySet, term_from_tag
from eqod.oplib import odd_reflection_prune, standard_library
from eqod.solvers import PDES, generate_set
from eqod import core, stability
from eqod.sparse import _normalize
from eqod.stability import stability_gate, stability_select
from eqod.weakform import assemble, make_test_grid


def weak_system(ts, spec=None):
    spec = spec or standard_library()
    return assemble(ts, spec, make_test_grid(ts.grid, 8, 10))[0]


@pytest.fixture(scope="module")
def heat10_system(heat_noisy10):
    return weak_system(heat_noisy10)


@pytest.fixture(scope="module")
def react_diff5_system():
    pde = PDES["react_diff"]
    return weak_system(generate_set(pde, pde.default_grid(), 3, 0.05, 42))


TAGS = standard_library().tags


class TestStabilitySelect:
    def test_heat_profile(self, heat10_system):
        pi, stable = stability_select(heat10_system.theta, heat10_system.b, seed=42)
        by_tag = dict(zip(TAGS, pi))
        assert by_tag["u_xx"] >= 0.95
        assert all(v <= 0.45 for t, v in by_tag.items() if t != "u_xx")
        assert stable == {TAGS.index("u_xx")}

    def test_react_diff_profile(self, react_diff5_system):
        ws = react_diff5_system
        pi, stable = stability_select(ws.theta, ws.b, seed=42)
        by_tag = dict(zip(TAGS, pi))
        for tag in ("u", "u^3", "u_xx"):
            assert by_tag[tag] >= 0.9
        assert by_tag["u^2"] <= 0.45
        # the true trio is stable; the saturated front also keeps some
        # correlated derivative terms that the identification stage prunes
        assert {TAGS.index(t) for t in ("u", "u^3", "u_xx")} <= stable
        assert TAGS.index("u^2") not in stable

    def test_single_strong_column(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((60, 1))
        b = 2.0 * theta[:, 0]
        pi, stable = stability_select(theta, b, seed=5)
        assert pi[0] == 1.0
        assert stable == {0}

    def test_too_few_rows(self):
        theta = np.eye(3)
        with pytest.raises(ValueError, match="at least 4 rows"):
            stability_select(theta, np.ones(3), seed=0)

    def test_probabilities_are_count_fractions(self, heat10_system):
        pi, _ = stability_select(heat10_system.theta, heat10_system.b, seed=9)
        assert np.all(pi >= 0) and np.all(pi <= 1)
        counts = pi * stability.N_SUBSAMPLES
        assert np.abs(counts - np.round(counts)).max() < 1e-9

    @pytest.mark.parametrize("name", ["heat10_system", "react_diff5_system"])
    def test_pi_is_the_active_set_frequency(self, name, request, monkeypatch):
        # a term counts in a draw exactly when the draw's LASSO keeps it;
        # the draws are solved as one stack, one row per draw
        ws = request.getfixturevalue(name)
        calls = []
        solve = stability.lasso

        def recorder(*args):
            xi = solve(*args)
            calls.append(xi)
            return xi

        monkeypatch.setattr(stability, "lasso", recorder)
        pi, _ = stability_select(ws.theta, ws.b, seed=42)
        assert len(calls) == 1
        (draws,) = calls
        assert draws.shape == (stability.N_SUBSAMPLES, ws.theta.shape[1])
        assert np.array_equal(pi, np.mean([xi != 0.0 for xi in draws], axis=0))

    def test_one_generator_per_call(self, heat10_system, monkeypatch):
        made = []
        generator = core.RngStream.generator

        def counting(self, *stream):
            made.append((self.seed, *stream))
            return generator(self, *stream)

        monkeypatch.setattr(core.RngStream, "generator", counting)
        stability_select(heat10_system.theta, heat10_system.b, seed=42)
        assert made == [(42, core.STABILITY_STREAM)]

    def test_draws_are_half_subsets_with_column_weights(self, monkeypatch):
        # b has distinct entries, so each draw's response names its rows
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((61, 4))
        b = rng.standard_normal(61)
        calls = []
        solve = stability.lasso

        def recorder(designs, rhs, lam):
            calls.append((designs, rhs))
            return solve(designs, rhs, lam)

        monkeypatch.setattr(stability, "lasso", recorder)
        stability_select(theta, b, seed=3)
        ((designs, rhs),) = calls
        theta_n, b_n, _, _ = _normalize(theta, b)
        row_of = {v: i for i, v in enumerate(b_n)}
        assert len(row_of) == 61
        subsets = set()
        for design, draw_b in zip(designs, rhs):
            rows = [row_of[v] for v in draw_b]
            assert len(set(rows)) == len(rows) == 61 // 2
            subsets.add(frozenset(rows))
            w = theta_n[rows] / design
            assert np.allclose(w, w[0], rtol=1e-14, atol=0)
            assert np.all((w >= stability.WEIGHT_LOW) & (w < stability.WEIGHT_HIGH))
        assert len(subsets) == stability.N_SUBSAMPLES

    def test_deterministic(self, heat10_system):
        a, _ = stability_select(heat10_system.theta, heat10_system.b, seed=11)
        b, _ = stability_select(heat10_system.theta, heat10_system.b, seed=11)
        assert np.array_equal(a, b)

    def test_seed_variation_bounded(self, heat10_system):
        # repeated runs move pi by at most ~3 standard errors
        pis = [
            stability_select(heat10_system.theta, heat10_system.b, seed=s)[0]
            for s in range(5)
        ]
        spread = np.max(pis, axis=0) - np.min(pis, axis=0)
        assert np.quantile(spread, 0.99) <= 3 / (2 * np.sqrt(50)) + 1e-9

    def test_monotone_signal_on_orthogonal_design(self, monkeypatch):
        # pi of the true column never drops as its coefficient grows
        rng = np.random.default_rng(3)
        theta, _ = np.linalg.qr(rng.standard_normal((80, 5)))
        noise = 0.02 * rng.standard_normal(80)
        monkeypatch.setattr(stability, "N_SUBSAMPLES", 200)
        ladder = []
        for a in (0.005, 0.01, 0.02, 0.05, 0.1):
            pi, _ = stability_select(theta, a * theta[:, 0] + noise, seed=21)
            ladder.append(pi[0])
        assert all(b >= a - 1e-12 for a, b in zip(ladder, ladder[1:]))

    def test_strict_majority_threshold(self, monkeypatch):
        # a term selected in exactly half the runs is not stable
        monkeypatch.setattr(stability, "N_SUBSAMPLES", 2)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        pi, stable = stability_select(theta, b, seed=2)
        for j, p in enumerate(pi):
            assert (j in stable) == (p > 0.5)


class TestStabilityGate:
    def test_heat_collapses_to_diffusion(self, heat_clean):
        spec, _ = stability_gate(weak_system(heat_clean), 42)
        assert spec.tags == ("u_xx",)

    def test_adv_diff_two_terms(self):
        pde = PDES["adv_diff"]
        ts = generate_set(pde, pde.default_grid(), 3, 0.0, 42)
        spec, _ = stability_gate(weak_system(ts), 42)
        assert set(spec.tags) == {"u_x", "u_xx"}

    def test_pure_noise_returns_base(self):
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        rng = RngStream(99).generator(0)
        ts = TrajectorySet(
            tuple(Trajectory(g, rng.standard_normal((128, 128))) for _ in range(3))
        )
        base = standard_library()
        spec, pi = stability_gate(weak_system(ts, base), 42)
        assert spec is base
        assert np.all(pi <= 0.5)

    @pytest.mark.parametrize("name", ["heat_clean", "heat_noisy10"])
    def test_restricted_system_equals_direct_assembly(self, name, request):
        ts = request.getfixturevalue(name)
        sub = odd_reflection_prune(standard_library())
        spec_r, pi_r = stability_gate(weak_system(ts).restricted(sub), 42)
        spec_d, pi_d = stability_gate(weak_system(ts, sub), 42)
        assert spec_r == spec_d
        assert np.array_equal(pi_r, pi_d)
