import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import eqod.sparse as sparse
from eqod.core import coefficient_error, support_from_coeffs, term_from_tag
from eqod.oplib import galilean_reduced, standard_library
from eqod.solvers import PDES
from eqod.pipeline import run_wf_lasso_baseline
from eqod.sparse import lasso, lasso_cv


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


def reference_homotopy(gram, corr, lambdas):
    """The homotopy for one problem, one breakpoint at a time.

    An independent bitwise reference for the lock-step solver: the same
    events, rank rule, sign rule and read-out (see sparse._homotopy),
    written for a single (p, p) Gram. Returns xi of shape
    (p, len(lambdas)).
    """
    p = corr.size
    lam_min = float(lambdas.min(initial=np.inf))
    rank_rtol = np.finfo(float).eps / sparse.KKT_TOL
    rows = np.zeros((3 * p, p))
    rows[:p] = -gram
    rows[p : 2 * p] = gram
    num0 = np.zeros(3 * p)
    num0[:p] = 2.0 * corr
    num0[p : 2 * p] = -num0[:p]
    den0 = np.zeros(3 * p)
    den0[: 2 * p] = 1.0
    allowed = np.ones(3 * p, bool)
    rhs = np.zeros((p, 3))
    rhs[:, 0] = corr
    order, barred = [], []
    seg = np.zeros((p, 3))
    mu = np.inf
    tops, segments = [], []
    for _ in range(50 * (p + 1)):
        tops.append(mu)
        segments.append(seg)
        z = rows @ seg[:, :2]
        den = den0 + z[:, 1]
        events = np.divide(num0 + 2.0 * z[:, 0], den, out=np.full(3 * p, -np.inf), where=allowed & (den > 0.0))
        k = int(events.argmax())
        nxt = min(float(events[k]), mu)
        if not nxt > lam_min:
            break
        mu = nxt
        kind, j = divmod(k, p)
        entering = kind < 2
        if entering:
            trial = order + [j]
            rhs[j, 1] = 1.0 - 2.0 * kind
        else:
            trial = [i for i in order if i != j]
        idx = np.array(trial, dtype=int)
        rhs_a = rhs[idx]
        rhs_a[-1:, 2] = float(entering)
        try:
            sol = np.linalg.solve(gram[idx[:, None], idx], rhs_a)
        except np.linalg.LinAlgError:
            sol = None
        if sol is None or entering and not (
            0.0 < sol[-1, 2] * rank_rtol * gram[j, j] < 1.0 and rhs[j, 1] * sol[-1, 1] > 0.0
        ):
            if not entering:
                break
            barred.append(j)
            allowed[j] = allowed[p + j] = False
            continue
        for i in barred:
            allowed[i] = allowed[p + i] = True
        allowed[j] = allowed[p + j] = not entering
        order, barred = trial, []
        signs = seg[:, 2]
        seg = np.zeros((p, 3))
        seg[idx, :2] = sol[:, :2]
        seg[:, 2] = signs
        seg[j, 2] = rhs[j, 1] if entering else 0.0
        rows[2 * p + j, j] = -seg[j, 2]
    at = np.array(segments)[np.searchsorted(-np.array(tops), -lambdas, side="right") - 1]
    xi = at[:, :, 0] - 0.5 * lambdas[:, None] * at[:, :, 1]
    return np.where(xi * at[:, :, 2] > 0.0, xi, 0.0).T


def normalized_system(rng, n, p):
    theta = rng.standard_normal((n, p))
    theta /= np.linalg.norm(theta, axis=0)
    b = rng.standard_normal(n)
    return theta, b / np.linalg.norm(b)


def fold_systems(ws, seed):
    """The normalized training systems of lasso_cv's five folds."""
    theta, b, _, _ = sparse._normalize(ws.theta, ws.b)
    perm = sparse._cv_permutation(seed, len(b))
    for held in np.array_split(perm, 5):
        train = np.ones(len(b), bool)
        train[held] = False
        yield theta[train], b[train]


@functools.cache
def law_system(name, sigma, library):
    """run_eqod's identification system of a law's 3-trajectory set with
    data seed 0, on the standard library or, as a column subset of it,
    the Galilean-reduced one."""
    from eqod.solvers import generate_set
    from eqod.weakform import IDENTIFY_GRID, assemble, make_test_grid

    pde = PDES[name]
    ts = generate_set(pde, pde.default_grid(), 3, sigma, 0)
    (ws,) = assemble(ts, standard_library(), make_test_grid(ts.grid, *IDENTIFY_GRID))
    return ws if library == "standard" else ws.restricted(galilean_reduced())


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
            (rel,) = sparse._kkt_residual(gram, corr, [lam], xi[:, None])
            assert rel == pytest.approx(kkt_from_rows(theta, b, xi, lam), rel=1e-9)
        grad = 2.0 * theta.T @ (b - theta @ xi)
        (rel0,) = sparse._kkt_residual(gram, corr, [0.0], xi[:, None])
        assert rel0 == pytest.approx(np.abs(grad).max() / (2.0 * np.abs(corr).max()), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5),
    )
    def test_more_columns_than_rows(self, seed, n, lambdas):
        """Systems with p = n + 3 columns certify: the path never needs
        an active set larger than the rank, and lambda = 0 interpolates."""
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((n, n + 3))
        b = rng.standard_normal(n)
        lambdas = [0.0] + sorted(lambdas)
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        assert kkt.max() <= sparse.KKT_TOL
        for k, lam in enumerate(lambdas[1:], start=1):
            assert kkt_from_rows(theta, b, xi[:, k], lam) <= sparse.KKT_TOL

    def test_zero_gain_column(self):
        """theta_1 = theta_0 + r with r orthogonal to theta_0 and b: once
        theta_0 is active, d_1 = d_0 along the whole segment, so column 1
        sits on the boundary with zero gain. Rounding picks the sign of
        its direction, and a value read with the wrong sign would leave a
        residual of 2; the read-out keeps no such coefficient."""
        grid = np.logspace(-6, 0.3, 120)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 40))
            b = rng.standard_normal(n)
            b /= np.linalg.norm(b)
            t = 0.9 * b + 0.3 * rng.standard_normal(n) / np.sqrt(n)
            q, _ = np.linalg.qr(np.column_stack([t, b]))
            r = rng.standard_normal(n)
            r -= q @ (q.T @ r)
            r *= 0.5 / np.linalg.norm(r)
            theta = np.column_stack([t, t + r, 0.3 * rng.standard_normal((n, 2)) / np.sqrt(n)])
            xi, kkt = sparse._lasso_path(theta, b, grid)
            assert kkt.max() <= sparse.KKT_TOL, seed

    def test_barred_column_reenters(self):
        """Column 5 is column 0 times 1 + 1e-10 noise: whichever of the
        twins enters second fails the rank rule and is barred, and the
        bar is lifted when the active set next changes. Every solution
        still certifies and is no worse than coordinate descent."""
        rng = np.random.default_rng(4)
        theta, b = normalized_system(rng, 30, 6)
        theta[:, 5] = theta[:, 0] * (1.0 + 1e-10 * rng.standard_normal(30))
        lambdas = np.logspace(-3, 0, 20)
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        assert kkt.max() <= sparse.KKT_TOL
        xi_ref, ok_ref = reference_cd_path(theta, b, lambdas, 1e-9, 10_000)
        assert ok_ref
        for k, lam in enumerate(lambdas):
            exact = objective(theta, b, xi[:, k], lam)
            assert exact <= objective(theta, b, xi_ref[:, k], lam) + 1e-12 * abs(exact)

    def test_path_matches_single_lambda(self):
        """Reading many lambdas off one path gives each single-lambda solution."""
        theta, b = normalized_system(np.random.default_rng(5), 40, 8)
        lambdas = np.logspace(-4, 0, 15)
        path, _ = sparse._lasso_path(theta, b, lambdas)
        for k, lam in enumerate(lambdas):
            cold, _ = sparse._lasso_path(theta, b, [lam])
            assert np.abs(path[:, k] - cold[:, 0]).max() < 1e-10


def degenerate_stack(rng, n_sys, n, p):
    """n_sys systems of shape (n, p); system d is plain, or has a zero
    column, an exact duplicate or a 1e-8 near-duplicate, by d mod 4."""
    theta = rng.standard_normal((n_sys, n, p)) * 10.0 ** rng.uniform(-2, 1, (n_sys, 1, p))
    b = rng.standard_normal((n_sys, n))
    for d in range(n_sys):
        kind = d % 4
        if kind == 1:
            theta[d, :, int(rng.integers(p))] = 0.0
        elif kind == 2:
            theta[d, :, -1] = theta[d, :, 0]
        elif kind == 3:
            theta[d, :, -1] = theta[d, :, 0] * (1.0 + 1e-8 * rng.standard_normal(n))
    return theta, b


GRID_TO_ZERO = np.concatenate([[0.0], np.logspace(-6, -1, 59)])


class TestBatchedPath:
    """A stack of problems follows one lock-step homotopy; each row is
    bitwise what reference_homotopy gives for that problem alone."""

    def assert_rows_are_the_reference(self, theta, b, lambdas):
        xi, kkt = sparse._lasso_path(theta, b, lambdas)
        assert xi.shape == (len(b), theta.shape[2], len(lambdas)) and kkt.shape == (len(b), len(lambdas))
        for d in range(len(b)):
            gram, corr = theta[d].T @ theta[d], theta[d].T @ b[d]
            ref = reference_homotopy(gram, corr, lambdas)
            assert xi[d].tobytes() == ref.tobytes(), d
            assert kkt[d].tobytes() == sparse._kkt_residual(gram, corr, lambdas, ref).tobytes(), d

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(2, 8),
        st.sampled_from(["grid", "zero", "one"]),
    )
    def test_rows_are_the_reference(self, seed, n_sys, p, which):
        # the 1e-8 near-duplicates are barred on entry (the rank rule), and
        # the systems' paths end after different numbers of breakpoints
        rng = np.random.default_rng(seed)
        theta, b = degenerate_stack(rng, n_sys, int(rng.integers(3, 30)), p)
        lambdas = {"grid": GRID_TO_ZERO, "zero": np.zeros(1), "one": rng.uniform(0.0, 1.0, 1)}[which]
        self.assert_rows_are_the_reference(theta, b, lambdas)

    @pytest.mark.parametrize("lambdas", [GRID_TO_ZERO, np.array([1e-3])], ids=["grid", "one"])
    def test_stack_with_a_barred_entry(self, lambdas):
        """The system of test_barred_column_reenters, whose twin columns
        are barred three times on the way to lambda = 1e-3, among systems
        of its shape that end sooner or later."""
        rng = np.random.default_rng(4)
        theta, b = normalized_system(rng, 30, 6)
        theta[:, 5] = theta[:, 0] * (1.0 + 1e-10 * rng.standard_normal(30))
        others, b_others = degenerate_stack(np.random.default_rng(11), 4, 30, 6)
        self.assert_rows_are_the_reference(np.concatenate([theta[None], others]), np.vstack([b, b_others]), lambdas)

    def test_one_system_is_a_stack_of_one(self):
        theta, b = degenerate_stack(np.random.default_rng(2), 1, 25, 5)
        xi, kkt = sparse._lasso_path(theta[0], b[0], GRID_TO_ZERO)
        xi_s, kkt_s = sparse._lasso_path(theta, b, GRID_TO_ZERO)
        assert xi.tobytes() == xi_s[0].tobytes() and kkt.tobytes() == kkt_s[0].tobytes()


class TestCallStructure:
    """Stability selection's draws are one homotopy call, and lasso_cv's
    folds and refit are one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        exact = sparse._homotopy

        def counted(gram, corr, lambdas):
            made.append(gram.shape)
            return exact(gram, corr, lambdas)

        monkeypatch.setattr(sparse, "_homotopy", counted)
        return made

    def test_stability_select_is_one_call(self, heat_noisy10, calls):
        from eqod import stability
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, *stability.STABILITY_GRID))
        stability.stability_select(ws.theta, ws.b, seed=42)
        p = ws.theta.shape[1]
        assert calls == [(stability.N_SUBSAMPLES, p, p)]

    def test_lasso_cv_is_one_call(self, heat_noisy10, calls):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        lasso_cv(ws.theta, ws.b, seed=42)
        p = ws.theta.shape[1]
        assert calls == [(sparse.CV_FOLDS + 1, p, p)]


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

    def test_negative_lambda_rejected_on_a_stack(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lasso(np.ones((3, 4, 2)), np.ones((3, 4)), -0.1)

    @pytest.mark.parametrize(
        "theta_shape, b_shape",
        [((4, 2), (3,)), ((4, 2), (4, 1)), ((3, 4, 2), (4,)), ((3, 4, 2), (2, 4)), ((4,), (4,)), ((2, 3, 4, 2), (2, 3, 4))],
    )
    def test_mismatched_stack_rejected(self, theta_shape, b_shape, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before the shapes were checked")

        monkeypatch.setattr(sparse, "_lasso_path", no_solve)
        with pytest.raises(ValueError) as err:
            lasso(np.ones(theta_shape), np.ones(b_shape), 0.1)
        assert str(theta_shape) in str(err.value) and str(b_shape) in str(err.value)

    def test_stack_rows_are_single_solves(self):
        theta, b = degenerate_stack(np.random.default_rng(8), 6, 20, 5)
        xi = lasso(theta, b, 0.05)
        assert xi.shape == (6, 5)
        for d in range(6):
            assert xi[d].tobytes() == lasso(theta[d], b[d], 0.05).tobytes()

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

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        theta = ws.theta / np.linalg.norm(ws.theta, axis=0)
        b = ws.b / np.linalg.norm(ws.b)
        norms = []
        for lam in np.logspace(-6, -1, 12):
            norms.append(np.abs(lasso(theta, b, lam)).sum())
        assert np.all(np.diff(norms) <= 1e-6)


class TestNonFinite:
    """A non-finite lambda or system entry, or a system of the wrong shape
    or without columns, raises ValueError before any solve, at every entry
    into the LASSO and at the Galilean fit."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a non-finite system")

        monkeypatch.setattr(sparse, "_homotopy", no_solve)
        monkeypatch.setattr(np.linalg, "lstsq", no_solve)

    @pytest.fixture(scope="class")
    def heat_system(self, heat_clean):
        from eqod.weakform import IDENTIFY_GRID, assemble, make_test_grid

        return assemble(heat_clean, standard_library(), make_test_grid(heat_clean.grid, *IDENTIFY_GRID))[0]

    @staticmethod
    def spoiled(ws, where, value):
        from eqod.weakform import WeakSystem

        theta, b = ws.theta.copy(), ws.b.copy()
        (theta if where == "theta" else b).flat[7] = value
        return WeakSystem(theta, b, ws.spec, ws.test_grid)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_lasso_rejects_lambda(self, lam, no_solve):
        theta, b = normalized_system(np.random.default_rng(0), 20, 3)
        with pytest.raises(ValueError, match="^lam must be a finite real number, got "):
            lasso(theta, b, lam)

    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["theta", "b"])
    def test_lasso_rejects_system(self, where, value, stack, no_solve):
        theta, b = degenerate_stack(np.random.default_rng(1), 3, 20, 4)
        if not stack:
            theta, b = theta[0], b[0]
        (theta if where == "theta" else b).flat[7] = value
        with pytest.raises(ValueError, match=f"^{where}_norm must be finite$"):
            lasso(theta, b, 0.1)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", ["theta", "b"])
    @pytest.mark.parametrize("entry", ["lasso_cv", "identify_on_system", "stability_select", "galilean_fit"])
    def test_normalize_entries_reject(self, entry, where, value, heat_system, no_solve):
        from eqod import stability, symmetry

        ws = self.spoiled(heat_system, where, value)
        call = {
            "lasso_cv": lambda: lasso_cv(ws.theta, ws.b, seed=0),
            "identify_on_system": lambda: sparse.identify_on_system(ws, 0),
            "stability_select": lambda: stability.stability_select(ws.theta, ws.b, seed=0),
            "galilean_fit": lambda: symmetry._convective_fit(ws),
        }[entry]
        with pytest.raises(ValueError, match=f"^{where} must be finite$"):
            call()

    @pytest.mark.parametrize(
        "theta_shape, b_shape", [((10, 2), (9,)), ((10, 2), (10, 1)), ((10,), (10,)), ((2, 10, 2), (2, 10))]
    )
    @pytest.mark.parametrize("entry", ["lasso_cv", "stability_select"])
    def test_normalize_entries_reject_shapes(self, entry, theta_shape, b_shape, no_solve):
        from eqod import stability

        rng = np.random.default_rng(0)
        theta, b = rng.random(theta_shape), rng.random(b_shape)
        call = {"lasso_cv": lasso_cv, "stability_select": stability.stability_select}[entry]
        with pytest.raises(ValueError, match=rf"theta of shape \({theta_shape[0]},.* and b of shape \({b_shape[0]},"):
            call(theta, b, seed=0)

    @pytest.mark.parametrize("entry", ["lasso", "lasso_stack", "lasso_cv", "identify_on_system", "stability_select"])
    def test_a_system_without_columns_is_rejected(self, entry, heat_system, no_solve):
        # the Galilean fit always has its six columns: it restricts to GALILEAN_BASIS first
        from eqod import stability
        from eqod.weakform import WeakSystem

        theta, b = np.zeros((10, 0)), np.zeros(10)
        call = {
            "lasso": lambda: lasso(np.zeros((5, 0)), np.zeros(5), 0.1),
            "lasso_stack": lambda: lasso(np.zeros((3, 5, 0)), np.zeros((3, 5)), 0.1),
            "lasso_cv": lambda: lasso_cv(theta, b),
            "identify_on_system": lambda: sparse.identify_on_system(WeakSystem(theta, b, heat_system.spec, heat_system.test_grid), 0),
            "stability_select": lambda: stability.stability_select(theta, b, seed=0),
        }[entry]
        with pytest.raises(ValueError, match=r"^theta of shape \((\d+, )+0\) and b of shape \("):
            call()

    def test_detect_all_downgrades_the_galilean_test(self, heat_clean, heat_system, no_solve):
        from eqod.symmetry import GALILEAN_BASIS, GALILEAN_BOOST_C, detect_all
        from eqod.weakform import BoostedGrid, OddReflection, assemble

        tg = heat_system.test_grid
        scores, ws_boost = assemble(heat_clean, GALILEAN_BASIS, OddReflection(), BoostedGrid(tg, GALILEAN_BOOST_C, GALILEAN_BASIS))
        report = detect_all(scores, self.spoiled(heat_system, "theta", np.nan), ws_boost)
        assert not report.galilean.detected and np.isnan(report.galilean.score)


class TestLassoCV:
    def test_heat_support(self, heat_clean):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_clean, standard_library(), make_test_grid(heat_clean.grid, 5, 7))
        lam, xi_n, _ = lasso_cv(ws.theta, ws.b, seed=42)
        tags = standard_library().tags
        top = tags[int(np.argmax(np.abs(xi_n)))]
        assert top == "u_xx"

    def test_deterministic(self, heat_noisy10):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        a = lasso_cv(ws.theta, ws.b, seed=7)
        b = lasso_cv(ws.theta, ws.b, seed=7)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_permutation_coupled_replay(self, heat_noisy10, monkeypatch):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        lam_ref, xi_ref, _ = lasso_cv(ws.theta, ws.b, seed=3)
        perm = np.random.default_rng(123).permutation(len(ws.b))
        base = sparse._cv_permutation(3, len(ws.b))
        # rows permuted by P with the fold permutation composed to match
        inv = np.argsort(perm)
        monkeypatch.setattr(sparse, "_cv_permutation", lambda s, n: inv[base])
        lam_p, xi_p, _ = lasso_cv(ws.theta[perm], ws.b[perm], seed=3)
        assert lam_p == lam_ref
        assert np.abs(xi_p - xi_ref).max() < 1e-12

    def test_curve_output(self, heat_clean):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_clean, standard_library(), make_test_grid(heat_clean.grid, 5, 7))
        lam, xi, curve = lasso_cv(ws.theta, ws.b, seed=42)
        assert curve.shape == (60, 2)
        assert np.all(np.diff(curve[:, 0]) > 0)

    # Clean fisher_kpp and kdv have normalized Gram conditions near 1e8
    # and 5e6; reference_cd_path stops at 10 000 sweeps on every fold. The
    # noisy sets (conditions 3e6 to 7e7) are the evaluation runs whose
    # folds a homotopy with a tolerance-based tie rule left uncertified.
    @pytest.mark.parametrize(
        "name, sigma, seed",
        [
            pytest.param("fisher_kpp", 0.0, 42, id="fisher_kpp_clean"),
            pytest.param("kdv", 0.0, 42, id="kdv_clean"),
            pytest.param("kdv", 0.05, 3, id="kdv-0.05-seed3"),
            pytest.param("fisher_kpp", 0.05, 1, id="fisher_kpp-0.05-seed1"),
            pytest.param("fisher_kpp", 0.05, 4, id="fisher_kpp-0.05-seed4"),
            pytest.param("fisher_kpp", 0.2, 1, id="fisher_kpp-0.2-seed1"),
        ],
    )
    def test_kkt_on_ill_conditioned_folds(self, name, sigma, seed):
        """lasso_cv's fold systems as run_eqod builds them, with seed s
        for both the data and the CV folds."""
        from eqod.solvers import generate_set
        from eqod.weakform import IDENTIFY_GRID, assemble, make_test_grid

        pde = PDES[name]
        ts = generate_set(pde, pde.default_grid(), 3, sigma, seed)
        (ws,) = assemble(ts, standard_library(), make_test_grid(ts.grid, *IDENTIFY_GRID))
        grid = sparse.LAMBDA_GRID
        for theta, b in fold_systems(ws, seed):
            xi, kkt = sparse._lasso_path(theta, b, grid)
            assert kkt.max() <= sparse.KKT_TOL
            for k, lam in enumerate(grid):
                assert kkt_from_rows(theta, b, xi[:, k], lam) <= sparse.KKT_TOL

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PDES))
    def test_refit_is_the_single_lambda_solve(self, name, sigma):
        """xi_norm, read off the whole system's path in the fold stack at
        lambda_star, is bitwise the path stopped there, on the standard
        library and on a column subset of it, which comes F-ordered; and
        it is a copy, not a view that keeps the stacked path alive."""
        for library in ("standard", "galilean_reduced"):
            ws = law_system(name, sigma, library)
            lam, xi, _ = lasso_cv(ws.theta, ws.b, seed=0)
            theta_n, b_n, _, _ = sparse._normalize(ws.theta, ws.b)
            assert xi.base is None and xi.flags.owndata
            assert xi.tobytes() == lasso(theta_n, b_n, lam).tobytes(), library

    @pytest.mark.parametrize("library", ["standard", "galilean_reduced"])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PDES))
    def test_fold_paths_are_the_training_rows_alone(self, name, sigma, library, monkeypatch):
        """Each fold's path and KKT residuals in lasso_cv's stack, its
        training rows followed by zero rows, are bitwise those of
        _lasso_path on its training rows alone."""
        ws = law_system(name, sigma, library)
        stacks, path = [], sparse._lasso_path
        monkeypatch.setattr(sparse, "_lasso_path", lambda *args: stacks.append(path(*args)) or stacks[-1])
        lasso_cv(ws.theta, ws.b, seed=0)
        ((xi, kkt),) = stacks
        for k, (theta, b) in enumerate(fold_systems(ws, 0)):
            xi_k, kkt_k = path(theta, b, sparse.LAMBDA_GRID)
            assert xi[k].tobytes() == xi_k.tobytes()
            assert kkt[k].tobytes() == kkt_k.tobytes()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            lasso_cv(np.ones((3, 2)), np.ones(3))


def _perturbed_solver(monkeypatch):
    """Move every grid solution the homotopy returns off its optimum."""
    exact = sparse._homotopy
    monkeypatch.setattr(sparse, "_homotopy", lambda gram, corr, lambdas: exact(gram, corr, lambdas) + 1e-3)


class TestUncertified:
    def test_lasso_warns(self, monkeypatch):
        theta, b = normalized_system(np.random.default_rng(3), 30, 5)
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="lasso did not converge"):
            lasso(theta, b, 0.05)

    def test_stacked_lasso_warns_once_per_system(self, monkeypatch):
        theta, b = degenerate_stack(np.random.default_rng(3), 3, 30, 5)
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="lasso did not converge") as record:
            lasso(theta, b, 0.05)
        assert len(record) == 3

    def test_lasso_cv_warns(self, heat_noisy10, monkeypatch):
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 5, 7))
        _perturbed_solver(monkeypatch)
        with pytest.warns(RuntimeWarning, match="did not converge") as record:
            lasso_cv(ws.theta, ws.b, seed=42)
        msgs = [str(w.message) for w in record]
        assert any(m.startswith("lasso CV: 300 of 300 fold solves did not converge") for m in msgs)
        assert any(m.startswith("lasso refit did not converge") for m in msgs)

    def test_stability_select_warns(self, heat_noisy10, monkeypatch):
        from eqod import stability
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(heat_noisy10, standard_library(), make_test_grid(heat_noisy10.grid, 8, 10))
        _perturbed_solver(monkeypatch)
        monkeypatch.setattr(stability, "N_SUBSAMPLES", 3)
        with pytest.warns(RuntimeWarning, match="lasso did not converge") as record:
            stability.stability_select(ws.theta, ws.b, seed=42)
        assert len(record) == 3


class TestIdentify:
    def test_heat_clean(self, heat_clean):
        coeffs = run_wf_lasso_baseline(heat_clean, 42, standard_library()).coeffs
        support = support_from_coeffs(coeffs)
        assert support == {term_from_tag("u_xx")}
        assert coefficient_error(coeffs, PDES["heat"].true_coeffs) <= 1e-3
        assert coeffs.value(term_from_tag("u_xx")) == pytest.approx(0.1, abs=1e-3)

    def test_kdv_on_galilean_library(self, kdv_clean):
        coeffs = run_wf_lasso_baseline(kdv_clean, 42, galilean_reduced()).coeffs
        assert coeffs.value(term_from_tag("u*u_x")) == pytest.approx(-1.0, abs=1e-2)
        assert coeffs.value(term_from_tag("u_xxx")) == pytest.approx(-1.0, abs=1e-2)

    def test_zero_data_returns_zero_vector(self):
        from eqod.core import Grid1D, Trajectory, TrajectorySet

        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 1.0, 128)
        ts = TrajectorySet((Trajectory(g, np.zeros((128, 128))),))
        coeffs = run_wf_lasso_baseline(ts, 42, standard_library()).coeffs
        assert np.all(coeffs.values == 0.0)

    def test_debias_is_ols_on_final_support(self, burgers_clean):
        from eqod.weakform import assemble, make_test_grid

        spec = galilean_reduced()
        (ws,) = assemble(burgers_clean, spec, make_test_grid(burgers_clean.grid, 5, 7))
        coeffs, _ = sparse.identify_on_system(ws, 42)
        support = coeffs.values != 0.0
        ols, *_ = np.linalg.lstsq(ws.theta[:, support], ws.b, rcond=None)
        assert np.abs(coeffs.values[support] - ols).max() < 1e-12

    def test_threshold_floor_respected(self, burgers_clean):
        coeffs = run_wf_lasso_baseline(burgers_clean, 42, standard_library()).coeffs
        nonzero = np.abs(coeffs.values[coeffs.values != 0.0])
        assert nonzero.min() >= 1e-3

    def test_dense_is_the_rescaled_cv_fit(self, burgers_clean):
        """The guard's comparator: dense is lasso_cv's fit in physical units,
        and the thresholded coeffs are zero wherever dense is below eta."""
        from eqod.weakform import IDENTIFY_GRID, assemble, make_test_grid

        tg = make_test_grid(burgers_clean.grid, *IDENTIFY_GRID)
        (ws,) = assemble(burgers_clean, standard_library(), tg)
        coeffs, dense = sparse.identify_on_system(ws, 42)
        norms = np.linalg.norm(ws.theta, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        _, xi_n, _ = lasso_cv(ws.theta, ws.b, seed=42)
        assert dense.terms == coeffs.terms == ws.spec.terms
        assert np.array_equal(dense.values, xi_n / norms * np.linalg.norm(ws.b))
        eta = max(sparse.THRESHOLD_FLOOR, sparse.THRESHOLD_FRAC * np.abs(dense.values).max())
        below = np.abs(dense.values) < eta
        assert below.any()
        assert np.all(coeffs.values[below] == 0.0)

    def test_one_normalize_per_identification(self, burgers_clean, monkeypatch):
        # the norms come from _scales; only lasso_cv normalizes the system
        from eqod.weakform import assemble, make_test_grid

        (ws,) = assemble(burgers_clean, standard_library(), make_test_grid(burgers_clean.grid, 5, 7))
        expected = sparse.identify_on_system(ws, 42)
        made = []
        exact = sparse._normalize

        def counted(theta, b):
            made.append(theta.shape)
            return exact(theta, b)

        monkeypatch.setattr(sparse, "_normalize", counted)
        coeffs, dense = sparse.identify_on_system(ws, 42)
        assert made == [ws.shape]
        assert np.array_equal(coeffs.values, expected[0].values) and np.array_equal(dense.values, expected[1].values)
