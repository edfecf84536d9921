import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import eqod.sparse as sparse
from eqod.core import coefficient_error, support_from_coeffs, term_from_tag
from eqod.oplib import galilean_reduced, standard_library
from eqod.solvers import PDES
from eqod.sparse import IdentifyConfig, LassoConfig, lasso, lasso_cv, wf_lasso_identify


def objective(theta, b, xi, lam):
    return np.sum((b - theta @ xi) ** 2) + lam * np.abs(xi).sum()


def reference_cd_path(theta, b, lambdas, tol, max_sweeps):
    """Scalar coordinate descent, one lambda and one coordinate at a time.

    An independent reference for the exact solver: its objective can only
    be at or above the exact one. A lambda stops sweeping once a sweep
    moves none of its coordinates by tol or more; the flag says whether
    every lambda stopped before max_sweeps.
    """
    theta = np.ascontiguousarray(theta, dtype=float)
    gram = theta.T @ theta
    corr = theta.T @ b
    diag = np.diag(gram).copy()
    zero_col = diag <= 0
    half_lam = np.asarray(lambdas, dtype=float) / 2.0
    p, n_lam = theta.shape[1], len(half_lam)
    xi = np.zeros((p, n_lam))
    q = np.zeros_like(xi)
    settled = np.zeros(n_lam, bool)
    for _ in range(max_sweeps):
        step = np.zeros(n_lam)
        for j in range(p):
            if zero_col[j]:
                continue
            for l in range(n_lam):
                if settled[l]:
                    continue
                rho = corr[j] - q[j, l] + diag[j] * xi[j, l]
                mag = abs(rho) - half_lam[l]
                if mag <= 0.0:
                    new = 0.0
                elif rho > 0.0:
                    new = mag / diag[j]
                else:
                    new = -mag / diag[j]
                delta = new - xi[j, l]
                if delta != 0.0:
                    for k in range(p):
                        q[k, l] += gram[k, j] * delta
                    xi[j, l] = new
                    if abs(delta) > step[l]:
                        step[l] = abs(delta)
        done = True
        for l in range(n_lam):
            if not settled[l]:
                if step[l] < tol:
                    settled[l] = True
                else:
                    done = False
        if done:
            return xi, True
    return xi, False


def normalized_system(rng, n, p):
    theta = rng.standard_normal((n, p))
    theta /= np.linalg.norm(theta, axis=0)
    b = rng.standard_normal(n)
    return theta, b / np.linalg.norm(b)


def fold_systems(ws, seed):
    """The normalized training systems of lasso_cv's five folds."""
    theta = ws.theta / np.linalg.norm(ws.theta, axis=0)
    b = ws.b / np.linalg.norm(ws.b)
    perm = sparse._cv_permutation(seed, len(b))
    for held in np.array_split(perm, 5):
        train = np.setdiff1d(perm, held, assume_unique=True)
        yield theta[train], b[train]


def kkt_from_rows(theta, b, xi, lam):
    """Worst optimality-condition violation over lambda, from the rows."""
    grad = 2.0 * theta.T @ (b - theta @ xi)
    viol = np.where(xi != 0.0, np.abs(grad - lam * np.sign(xi)), np.maximum(np.abs(grad) - lam, 0.0))
    return viol.max() / lam


class TestExactPath:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.booleans(),
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5),
    )
    def test_objective_and_kkt_against_reference(self, seed, p, zero_col, lambdas):
        rng = np.random.default_rng(seed)
        theta, b = normalized_system(rng, int(rng.integers(2 * p + 5, 40)), p)
        if zero_col:
            theta[:, int(rng.integers(p))] = 0.0
        lambdas = sorted(lambdas)
        xi_ref, ok_ref = reference_cd_path(theta, b, lambdas, 1e-9, 10_000)
        assume(ok_ref)
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        for k, lam in enumerate(lambdas):
            exact = objective(theta, b, xi[:, k], lam)
            assert exact <= objective(theta, b, xi_ref[:, k], lam) + 1e-12 * abs(exact)
            assert kkt[k] <= 1e-8
            assert kkt_from_rows(theta, b, xi[:, k], lam) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.booleans(),
        st.sampled_from([None, 1e-3, 0.0]),
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5),
    )
    def test_degenerate_columns(self, seed, p, zero_col, dup_noise, lambdas):
        """Zero, near-duplicate and duplicate columns (a singular Gram)
        neither raise nor break least squares at lambda = 0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(p + 1, 30))
        theta = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, p)
        if dup_noise is not None and p > 1:
            theta[:, -1] = theta[:, 0] * (1.0 + dup_noise * rng.standard_normal(n))
        if zero_col:
            theta[:, int(rng.integers(p))] = 0.0
        b = rng.standard_normal(n)
        lambdas = [0.0] + sorted(lambdas)
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        assert np.all(xi[~theta.any(axis=0)] == 0.0)
        assert kkt[0] <= sparse.KKT_TOL
        ols, *_ = np.linalg.lstsq(theta, b, rcond=None)
        assert np.sum((b - theta @ xi[:, 0]) ** 2) <= np.sum((b - theta @ ols) ** 2) * (1 + 1e-9) + 1e-12

    def test_certificate_scale(self):
        """The residual is relative to lambda, and to 2 max|Theta^T b| at lambda = 0."""
        theta, b = normalized_system(np.random.default_rng(6), 30, 5)
        gram, corr = theta.T @ theta, theta.T @ b
        xi = np.array([0.3, 0.0, -0.2, 0.0, 1e-3])
        for lam in (1e-5, 0.2):
            rel = sparse._kkt_residual(gram, corr, lam, xi)
            assert rel == pytest.approx(kkt_from_rows(theta, b, xi, lam), rel=1e-9)
        grad = 2.0 * theta.T @ (b - theta @ xi)
        rel0 = sparse._kkt_residual(gram, corr, 0.0, xi)
        assert rel0 == pytest.approx(np.abs(grad).max() / (2.0 * np.abs(corr).max()), rel=1e-9)

    def test_warm_start_matches_cold_start(self):
        theta, b = normalized_system(np.random.default_rng(5), 40, 8)
        lambdas = np.logspace(-4, 0, 15)
        path, _ = sparse._lasso_path(theta, b, lambdas)
        for k, lam in enumerate(lambdas):
            cold, _ = sparse._lasso_path(theta, b, [lam])
            assert np.abs(path[:, k] - cold[:, 0]).max() < 1e-10


class TestLasso:
    def test_soft_threshold_closed_form(self):
        theta = np.eye(4)[:, :1]  # single unit column
        b = 0.5 * theta[:, 0]
        xi = lasso(theta, b, 0.2)
        assert xi[0] == pytest.approx(0.4, abs=1e-9)

    def test_zero_lambda_is_ols(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((40, 5))
        b = rng.standard_normal(40)
        xi = lasso(theta, b, 0.0)
        ols, *_ = np.linalg.lstsq(theta, b, rcond=None)
        assert np.abs(xi - ols).max() < 1e-6

    def test_large_lambda_kills_everything(self):
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((30, 4))
        theta /= np.linalg.norm(theta, axis=0)
        b = rng.standard_normal(30)
        lam = 2 * np.abs(theta.T @ b).max()
        assert np.all(lasso(theta, b, lam + 1e-9) == 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso(np.eye(2), np.ones(2), -0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1e-4, 0.5))
    def test_kkt_conditions(self, seed, lam):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((30, 5))
        theta /= np.linalg.norm(theta, axis=0)
        b = rng.standard_normal(30)
        b /= np.linalg.norm(b)
        xi = lasso(theta, b, lam)
        r = b - theta @ xi
        grad = 2 * theta.T @ r
        for j in range(5):
            if xi[j] == 0.0:
                assert abs(grad[j]) <= lam + 1e-6
            else:
                assert grad[j] == pytest.approx(lam * np.sign(xi[j]), abs=1e-6)

    def test_lambda_path_l1_monotone(self, heat_noisy10):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        theta = ws.theta / np.linalg.norm(ws.theta, axis=0)
        b = ws.b / np.linalg.norm(ws.b)
        norms = []
        for lam in np.logspace(-6, -1, 12):
            norms.append(np.abs(lasso(theta, b, lam)).sum())
        assert np.all(np.diff(norms) <= 1e-6)


class TestLassoCV:
    def test_heat_support(self, heat_clean):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_clean, standard_library(), make_test_grid(heat_clean.grid, 5, 7))
        lam, xi_n = lasso_cv(ws.theta, ws.b, seed=42)
        tags = standard_library().tags
        top = tags[int(np.argmax(np.abs(xi_n)))]
        assert top == "u_xx"

    def test_deterministic(self, heat_noisy10):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        a = lasso_cv(ws.theta, ws.b, seed=7)
        b = lasso_cv(ws.theta, ws.b, seed=7)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_permutation_coupled_replay(self, heat_noisy10, monkeypatch):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        lam_ref, xi_ref = lasso_cv(ws.theta, ws.b, seed=3)
        perm = np.random.default_rng(123).permutation(len(ws.b))
        base = sparse._cv_permutation(3, len(ws.b))
        # rows permuted by P with the fold permutation composed to match
        inv = np.argsort(perm)
        monkeypatch.setattr(sparse, "_cv_permutation", lambda s, n: inv[base])
        lam_p, xi_p = lasso_cv(ws.theta[perm], ws.b[perm], seed=3)
        assert lam_p == lam_ref
        assert np.abs(xi_p - xi_ref).max() < 1e-12

    def test_curve_output(self, heat_clean):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_clean, standard_library(), make_test_grid(heat_clean.grid, 5, 7))
        lam, xi, curve = lasso_cv(ws.theta, ws.b, seed=42, full=True)
        assert curve.shape == (60, 2)
        assert np.all(np.diff(curve[:, 0]) > 0)

    # Clean fisher_kpp and kdv have normalized Gram conditions near 1e8
    # and 5e6; reference_cd_path stops at 10 000 sweeps on every fold.
    @pytest.mark.parametrize("name", ["fisher_kpp_clean", "kdv_clean"])
    def test_kkt_on_ill_conditioned_folds(self, name, request):
        from eqod.weakform import assemble, make_test_grid

        ts = request.getfixturevalue(name)
        ws = assemble(ts, standard_library(), make_test_grid(ts.grid, 5, 7))
        grid = LassoConfig().lambda_grid
        for theta, b in fold_systems(ws, 42):
            xi, kkt = sparse._lasso_path(theta, b, grid)
            assert kkt.max() <= sparse.KKT_TOL
            for k, lam in enumerate(grid):
                assert kkt_from_rows(theta, b, xi[:, k], lam) <= sparse.KKT_TOL

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            lasso_cv(np.ones((3, 2)), np.ones(3), LassoConfig(cv_folds=5))


def _perturbed_solver(monkeypatch):
    """Make every solve return an iterate off its optimum."""
    exact = sparse._feature_sign
    monkeypatch.setattr(
        sparse, "_feature_sign", lambda gram, corr, lam, xi: exact(gram, corr, lam, xi) + 1e-3
    )


class TestUncertified:
    def test_restart_from_zero_repairs(self, monkeypatch):
        """A warm-started solve that misses the certificate is redone from zero."""
        theta, b = normalized_system(np.random.default_rng(4), 40, 6)
        exact = sparse._feature_sign

        def bad_warm_start(gram, corr, lam, xi):
            return exact(gram, corr, lam, xi) + (1e-3 if xi.any() else 0.0)

        monkeypatch.setattr(sparse, "_feature_sign", bad_warm_start)
        lambdas = np.logspace(-4, -1, 8)
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        assert kkt.max() <= 1e-8
        for k, lam in enumerate(lambdas):
            assert kkt_from_rows(theta, b, xi[:, k], lam) <= 1e-8

    def test_lasso_warns(self, monkeypatch):
        theta, b = normalized_system(np.random.default_rng(3), 30, 5)
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="lasso did not converge"):
            lasso(theta, b, 0.05)

    def test_lasso_cv_warns(self, heat_noisy10, monkeypatch):
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="did not converge") as record:
            lasso_cv(ws.theta, ws.b, seed=42)
        msgs = [str(w.message) for w in record]
        assert any(m.startswith("lasso CV: 300 of 300 fold solves did not converge") for m in msgs)
        assert any(m.startswith("lasso refit did not converge") for m in msgs)

    def test_stability_select_warns(self, heat_noisy10, monkeypatch):
        from eqod.stability import StabilityConfig, stability_select
        from eqod.weakform import assemble, make_test_grid

        ws = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 8, 10))
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="lasso did not converge") as record:
            stability_select(ws.theta, ws.b, StabilityConfig(n_iterations=3), seed=42)
        assert len(record) == 3


class TestIdentify:
    def test_heat_clean(self, heat_clean):
        coeffs = wf_lasso_identify(heat_clean, standard_library(), 42)
        support = support_from_coeffs(coeffs)
        assert support == {term_from_tag("u_xx")}
        assert coefficient_error(coeffs, PDES["heat"].true_coeffs) <= 1e-3
        assert coeffs.value(term_from_tag("u_xx")) == pytest.approx(0.1, abs=1e-3)

    def test_kdv_on_galilean_library(self, kdv_clean):
        coeffs = wf_lasso_identify(kdv_clean, galilean_reduced(), 42)
        assert coeffs.value(term_from_tag("u*u_x")) == pytest.approx(-1.0, abs=1e-2)
        assert coeffs.value(term_from_tag("u_xxx")) == pytest.approx(-1.0, abs=1e-2)

    def test_zero_data_returns_zero_vector(self):
        from eqod.core import Grid1D, Trajectory, TrajectorySet

        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        ts = TrajectorySet((Trajectory(g, np.zeros((128, 128))),))
        coeffs = wf_lasso_identify(ts, standard_library(), 42)
        assert np.all(coeffs.values == 0.0)

    def test_debias_is_ols_on_final_support(self, burgers_clean):
        from eqod.weakform import assemble, make_test_grid

        spec = galilean_reduced()
        ws = assemble(burgers_clean, spec, make_test_grid(burgers_clean.grid, 5, 7))
        coeffs = sparse.identify_on_system(ws, 42)
        support = coeffs.values != 0.0
        ols, *_ = np.linalg.lstsq(ws.theta[:, support], ws.b, rcond=None)
        assert np.abs(coeffs.values[support] - ols).max() < 1e-12

    def test_threshold_floor_respected(self, burgers_clean):
        coeffs = wf_lasso_identify(
            burgers_clean, standard_library(), 42, identify_config=IdentifyConfig()
        )
        nonzero = np.abs(coeffs.values[coeffs.values != 0.0])
        assert nonzero.min() >= 1e-3
