import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import eqod

import eqod.solvers as solvers
from eqod.core import (
    CV_STREAM,
    STABILITY_STREAM,
    CoefficientVector,
    Grid1D,
    RngStream,
    support_from_coeffs,
)
from eqod.solvers import (
    PDES,
    SolverBlowUpError,
    _etdrk4_coeffs,
    _operators,
    add_noise,
    generate_set,
    initial_condition,
    solve,
)
from eqod.spectral import spectral_derivative

NONLINEAR_LAWS = [n for n, p in PDES.items() if p.steps_per_sample]


def reference_nonlinear(nonlinear, k, nx):
    """The nonlinear tendency formed pointwise: each monomial's product of
    dealiased derivative fields, then one rfft of the sum."""
    keep = (nx - 1) // 3 + 1
    orders = sorted({d for term, _ in nonlinear for d, p in enumerate(term.powers) if p})
    mults = {d: (1j * k[:keep]) ** d for d in orders}

    def apply(v):
        low = v[..., :keep]
        fields = {d: np.fft.irfft(low * mults[d], n=nx) for d in orders}
        out = np.zeros(v.shape[:-1] + (nx,))
        for term, c in nonlinear:
            prod = np.ones(nx)
            for d, p in enumerate(term.powers):
                if p:
                    prod = prod * fields[d] ** p
            out = out + c * prod
        nv = np.fft.rfft(out)
        nv[..., keep:] = 0.0
        return nv

    return apply


def random_rows(rng, nx, band, rows=4):
    """rfft rows of real fields whose modes 0..band are random and the rest zero."""
    v = np.zeros((rows, nx // 2 + 1), complex)
    v[:, : band + 1] = rng.standard_normal((rows, band + 1)) + 1j * rng.standard_normal(
        (rows, band + 1)
    )
    v[:, 0] = v[:, 0].real
    return v


# u^2 and u*u_x share the power q = 2, u^2*u_x has q = 3
MIXED_LAW = CoefficientVector.from_dict({"u^2": 0.7, "u*u_x": -1.0, "u^2*u_x": 0.5})


TRUE_SUPPORTS = {
    "heat": {"u_xx"},
    "burgers": {"u*u_x", "u_xx"},
    "kdv": {"u*u_x", "u_xxx"},
    "fisher_kpp": {"u_xx", "u", "u^2"},
    "adv_diff": {"u_x", "u_xx"},
    "ks": {"u*u_x", "u_xx", "u_xxxx"},
    "kdv_burgers": {"u*u_x", "u_xx", "u_xxx"},
    "react_diff": {"u_xx", "u", "u^3"},
}


@pytest.mark.parametrize("name", sorted(PDES))
def test_true_support_is_the_nonzero_true_coeffs(name):
    pde = PDES[name]
    assert {t.tag for t in pde.true_support} == TRUE_SUPPORTS[name]
    assert pde.true_support == support_from_coeffs(pde.true_coeffs)


def test_specs_compare_and_hash_by_value():
    # hash(PDES["heat"]) used to raise TypeError on the coefficient array
    heat = PDES["heat"]
    again = dataclasses.replace(heat, true_coeffs=CoefficientVector.from_dict({"u_xx": 0.1}))
    assert again == heat and hash(again) == hash(heat)
    assert dataclasses.replace(heat, true_coeffs=CoefficientVector.from_dict({"u_xx": 0.2})) != heat
    assert len(set(PDES.values())) == len(PDES)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42).generator(3).standard_normal(8)
        b = RngStream(42).generator(3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = RngStream(42).generator(0).standard_normal(8)
        b = RngStream(42).generator(1).standard_normal(8)
        assert not np.array_equal(a, b)


def first_ic_draws(monkeypatch, m, seed):
    """The first draws of the initial-condition generator of each
    trajectory of a generate_set call with data seed ``seed``."""
    draws = []

    def recording(pde, grid, rng):
        draws.append(rng.random(4))
        return np.zeros(grid.nx)

    monkeypatch.setattr(solvers, "initial_condition", recording)
    pde = PDES["heat"]
    generate_set(pde, pde.default_grid(16, 8), m, 0.0, seed)
    return draws


class TestStreamCollisions:
    """With the data seed equal to the run seed, two initial-condition
    streams are streams the identification draws from. Re-keying moves
    every CV fold and stability draw, so these stay known failures until
    the answers may change."""

    @pytest.mark.xfail(strict=True, reason="initial condition 11 draws the CV permutation stream")
    def test_ic_stream_11_is_not_the_cv_stream(self, monkeypatch):
        ic = first_ic_draws(monkeypatch, 12, 5)
        assert not np.array_equal(ic[11], RngStream(5).generator(CV_STREAM).random(4))

    @pytest.mark.xfail(strict=True, reason="initial condition 23 draws the stability stream")
    def test_ic_stream_23_is_not_the_stability_stream(self, monkeypatch):
        ic = first_ic_draws(monkeypatch, 24, 5)
        assert not np.array_equal(ic[23], RngStream(5).generator(STABILITY_STREAM).random(4))


class TestInitialConditions:
    def test_fisher_deterministic(self):
        pde = PDES["fisher_kpp"]
        g = pde.default_grid()
        u1 = initial_condition(pde, g, RngStream(42).generator(0))
        u2 = initial_condition(pde, g, RngStream(97).generator(5))
        assert np.array_equal(u1, u2)

    def test_burgers_seed_perturbation(self):
        pde = PDES["burgers"]
        g = pde.default_grid()
        u1 = initial_condition(pde, g, RngStream(42).generator(0))
        u2 = initial_condition(pde, g, RngStream(43).generator(0))
        diff = np.abs(u1 - u2)
        assert diff.max() > 0
        assert diff.max() < 0.2  # only the 0.03-scale perturbation differs

    def test_kdv_peak(self):
        pde = PDES["kdv"]
        g = pde.default_grid()

        class ZeroRng:
            def standard_normal(self, n):
                return np.zeros(n)

        u0 = initial_condition(pde, g, ZeroRng())
        assert u0.max() == pytest.approx(12.0, abs=1e-9)
        assert g.x[np.argmax(u0)] == pytest.approx(np.pi, abs=g.dx)

    def test_grid_length_must_match_domain(self):
        pde = PDES["ks"]
        with pytest.raises(ValueError, match="does not match ks domain"):
            initial_condition(pde, PDES["heat"].default_grid(), RngStream(1).generator(0))

    def test_unknown_pde(self):
        fake = dataclasses.replace(PDES["heat"], name="nonsense")
        with pytest.raises(ValueError):
            initial_condition(fake, PDES["heat"].default_grid(), RngStream(1).generator(0))


class TestSolve:
    def test_heat_analytic(self):
        pde = PDES["heat"]
        g = pde.default_grid()
        tr = solve(pde, np.sin(g.x), g)
        exact = np.exp(-0.1) * np.sin(g.x)
        assert np.abs(tr.values[-1] - exact).max() < 1e-12

    def test_adv_diff_analytic(self):
        pde = PDES["adv_diff"]
        g = pde.default_grid()
        tr = solve(pde, np.sin(g.x), g)
        exact = np.exp(-0.05) * np.sin(g.x - 1.0)
        assert np.abs(tr.values[-1] - exact).max() < 1e-12

    def test_exact_path_counts_transient(self):
        pde = dataclasses.replace(PDES["heat"], transient=0.3)
        g = pde.default_grid()
        tr = solve(pde, np.sin(g.x), g)
        exact = np.exp(-0.1 * (0.3 + g.t))[:, None] * np.sin(g.x)[None, :]
        assert np.abs(tr.values - exact).max() < 1e-12

    @pytest.mark.parametrize(
        "name, exact",
        [
            ("heat", lambda x, t: np.exp(-0.1 * t) * np.sin(x)),
            ("adv_diff", lambda x, t: np.exp(-0.05 * t) * np.sin(x - t)),
        ],
    )
    def test_linear_law_never_builds_a_step(self, name, exact, monkeypatch):
        # no nonlinear term selects the closed form, even with a step count
        def no_step(*args):
            raise AssertionError("a step was built")

        g = PDES[name].default_grid()
        clean = solve(PDES[name], np.sin(g.x), g).values
        monkeypatch.setattr(solvers, "_etdrk4_step", no_step)
        pde = dataclasses.replace(PDES[name], steps_per_sample=1)
        tr = solve(pde, np.sin(g.x), g)
        assert np.array_equal(tr.values, clean)
        assert np.abs(tr.values - exact(g.x[None, :], g.t[:, None])).max() < 1e-12

    @pytest.mark.parametrize("tag, order", [("u_x", 1), ("u_xxx", 3)])
    def test_nyquist_mode_under_odd_order(self, tag, order):
        # On the grid cos(32 x) is (-1)^j. Under u_t = -d^d u (d odd) the
        # solver keeps the Nyquist symbol, so the samples oscillate as
        # cos(32^d t) (-1)^j; the derivative of the sampled mode is 0.
        pde = solvers.PdeSpec(tag, CoefficientVector.from_dict({tag: -1.0}), 2 * np.pi, 0.01)
        g = Grid1D(0.0, 2 * np.pi, 64, 0.0, 0.01, 17)
        u0 = np.cos(32 * g.x)
        tr = solve(pde, u0, g)
        exact = np.cos(32.0**order * g.t)[:, None] * u0[None, :]
        assert np.abs(tr.values - exact).max() <= 1e-12
        assert np.abs(spectral_derivative(u0, order, g.length)).max() == 0.0

    def test_heat_l2_nonincreasing(self, heat_clean):
        for tr in heat_clean:
            norms = np.linalg.norm(tr.values, axis=1)
            assert np.all(np.diff(norms) <= 1e-12)

    # every term of these laws is a derivative, so the mean mode never moves
    @pytest.mark.parametrize("name", ["burgers", "kdv", "kdv_burgers", "ks"])
    def test_mass_conservation(self, name):
        pde = PDES[name]
        g = pde.default_grid()
        u0 = initial_condition(pde, g, RngStream(42).generator(0))
        tr = solve(pde, u0, g)
        masses = tr.values.sum(axis=1) * g.dx
        scale = max(abs(masses[0]), np.abs(tr.values).max())
        assert np.abs(masses - masses[0]).max() / scale < 1e-12

    def test_kdv_soliton(self):
        # 12 sech^2(x - pi) is kdv's c = 4 soliton up to its periodic tail
        # (12 sech^2 pi, about 0.09); a 5 % error in the nonlinear strength
        # puts the run 5e-2 from it
        g = Grid1D(0.0, 2 * np.pi, 128, 0.0, 0.3, 61)
        u = solve(PDES["kdv"], 12.0 / np.cosh(g.x - np.pi) ** 2, g).values
        shift = np.mod(g.x[None, :] - 4.0 * g.t[:, None], 2 * np.pi) - np.pi
        exact = 12.0 / np.cosh(shift) ** 2
        assert np.linalg.norm(u - exact) / np.linalg.norm(exact) <= 1e-2

    def test_ks_bounded(self):
        pde = PDES["ks"]
        g = pde.default_grid()
        u0 = initial_condition(pde, g, RngStream(42).generator(0))
        tr = solve(pde, u0, g)
        assert np.abs(tr.values).max() < 10.0

    @pytest.mark.parametrize("t_start", [0.5, 0.1])
    def test_etdrk4_samples_from_t_start(self, t_start):
        # Cole-Hopf: u = -2 nu phi_x / phi solves viscous Burgers when phi
        # solves the heat equation, here with nu = 0.1 and u0 = -sin x. The
        # lead-in to 0.5 is a whole number of sample steps, to 0.1 it is not.
        g = Grid1D(0.0, 2 * np.pi, 128, t_start, 1.0, 128)
        nu = 0.1
        phi = solve(PDES["heat"], np.exp(-np.cos(g.x) / (2 * nu)), g).values
        exact = -2 * nu * spectral_derivative(phi, 1, g.length) / phi
        u = solve(PDES["burgers"], -np.sin(g.x), g).values
        assert np.abs(u - exact).max() < 1e-8

    def test_etdrk4_coeffs_match_closed_forms(self):
        # complex z = h * sym (dispersive, damped-oscillatory) as well as real
        h = 0.5
        z = np.array([1j, -1 + 10j, -50.0, 2.0])
        e_full, e_half, q, f1, f2, f3 = _etdrk4_coeffs(z / h, h)
        ez = np.exp(z)
        closed = [
            ez,
            np.exp(z / 2),
            h * (np.exp(z / 2) - 1) / z,
            h * (-4 - z + ez * (4 - 3 * z + z**2)) / z**3,
            h * (2 + z + ez * (z - 2)) / z**3,
            h * (-4 - 3 * z - z**2 + ez * (4 - z)) / z**3,
        ]
        for got, want in zip((e_full, e_half, q, f1, f2, f3), closed):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # near z = 0 the closed forms cancel catastrophically; the contour gives the limits
        _, _, q0, f10, f20, f30 = _etdrk4_coeffs(np.array([0.0, 1e-9j]), h)
        np.testing.assert_allclose(q0, h / 2, rtol=1e-8)
        for f in (f10, f20, f30):
            np.testing.assert_allclose(f, h / 6, rtol=1e-8)

    # one law on the exact path, two on ETDRK4, with a real and a complex symbol
    @pytest.mark.parametrize("name", ["heat", "burgers", "kdv"])
    def test_rejects_first_sample_before_u0(self, name):
        g = Grid1D(0.0, 2 * np.pi, 64, -0.5, 1.0, 8)
        with pytest.raises(ValueError, match=f"{name}: the first sample lies before"):
            solve(PDES[name], -np.sin(g.x), g)

    def test_nonlinear_law_needs_steps_per_sample(self):
        pde = dataclasses.replace(PDES["burgers"], steps_per_sample=None)
        g = pde.default_grid(64, 8)
        with pytest.raises(ValueError, match="burgers: .*needs steps_per_sample"):
            solve(pde, -np.sin(g.x), g)

    # ks is chaotic and exempt
    @pytest.mark.parametrize(
        "name", [n for n, p in PDES.items() if p.steps_per_sample and n != "ks"]
    )
    def test_steps_per_sample_meet_accuracy_contract(self, name):
        # within 1e-6 relative L2 of a run with 4x as many steps
        pde = PDES[name]
        g = pde.default_grid()
        coarse = generate_set(pde, g, 1, 0.0, 0).trajectories[0].values
        finer = dataclasses.replace(pde, steps_per_sample=4 * pde.steps_per_sample)
        fine = generate_set(finer, g, 1, 0.0, 0).trajectories[0].values
        assert np.linalg.norm(coarse - fine) / np.linalg.norm(fine) <= 1e-6

    def test_etdrk4_fourth_order_on_dispersive_law(self):
        # halving h must cut kdv's error by 10x or more (16x for fourth order)
        pde = PDES["kdv"]
        g = pde.default_grid()
        u0 = initial_condition(pde, g, RngStream(0).generator(0))

        def run(steps):
            return solve(dataclasses.replace(pde, steps_per_sample=steps), u0, g).values

        ref = run(8)
        assert np.linalg.norm(run(2) - ref) >= 10.0 * np.linalg.norm(run(4) - ref)

    def test_heat_spectral_convergence(self):
        # geometric-spectrum IC (Poisson kernel): doubling nx must shrink
        # the spatial discretization error by 10x or more
        pde = dataclasses.replace(PDES["heat"], t_end=0.1)
        a = 0.7
        fine = 4096
        xf = 2 * np.pi * np.arange(fine) / fine
        ic = lambda x: (1 - a**2) / (1 - 2 * a * np.cos(x) + a**2)
        chat = np.fft.rfft(ic(xf)) / fine
        kf = np.arange(fine // 2 + 1)

        def run(nx):
            g = Grid1D(0.0, 2 * np.pi, nx, 0.0, 0.1, 16)
            tr = solve(pde, ic(g.x), g)
            decay = chat * np.exp(-0.1 * kf**2 * 0.1)
            modes = np.exp(1j * np.outer(g.x, kf)) @ decay
            exact = 2 * modes.real - chat[0].real  # one-sided sum, DC once
            return np.abs(tr.values[-1] - exact).max()

        assert run(16) / run(32) >= 10.0

    def test_rejects_monomial_without_flux_form(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step was built")

        monkeypatch.setattr(solvers, "_etdrk4_step", no_step)
        coeffs = CoefficientVector.from_dict({"u_xx": 0.1, "u*u_xx": 0.1})
        pde = dataclasses.replace(PDES["heat"], true_coeffs=coeffs, steps_per_sample=1)
        g = pde.default_grid(64, 8)
        with pytest.raises(ValueError, match=r"u\*u_xx"):
            solve(pde, np.sin(g.x), g)

    def test_blow_up_raises(self):
        # u_t = u^2 from u0 = 5 is 5 / (1 - 5 t), infinite at t = 0.2
        pde = solvers.PdeSpec(
            "blowup", CoefficientVector.from_dict({"u^2": 1.0}), 2 * np.pi, 1.0, steps_per_sample=1
        )
        g = pde.default_grid(32, 16)
        with np.errstate(all="ignore"), pytest.raises(SolverBlowUpError, match="blowup blew up by sample"):
            solve(pde, np.full(g.nx, 5.0), g)

    def test_wrong_ic_length(self):
        pde = PDES["heat"]
        with pytest.raises(ValueError):
            solve(pde, np.zeros(64), pde.default_grid())

    @pytest.mark.parametrize("name", ["heat", "burgers", "ks"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_ic(self, name, bad):
        pde = PDES[name]
        g = pde.default_grid()
        u0 = np.zeros(g.nx)
        u0[7] = bad
        with pytest.raises(ValueError, match="u0 must be finite"):
            solve(pde, u0, g)

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency, on every solver path; and a
        # 128 x 128 run_eqod, whose field pass runs inline, loads no thread
        # pool (weakform._run imports it only for a threaded pass)
        src = os.path.dirname(os.path.dirname(eqod.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        code = (
            "import sys, eqod\n"
            "for pde in eqod.PDES.values():\n"
            "    eqod.generate_set(pde, pde.default_grid(64, 64), 2, 0.05, 0)\n"
            "pde = eqod.PDES['heat']\n"
            "eqod.run_eqod(eqod.generate_set(pde, pde.default_grid(128, 128), 3, 0.1, 0), 0)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'concurrent.futures')\n"
            "assert not loaded, loaded\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


class TestNonlinearOperator:
    @staticmethod
    def operators(coeffs, nx, length=2 * np.pi):
        k = 2 * np.pi * np.arange(nx // 2 + 1) / length
        nonlinear = [(t, c) for t, c in zip(coeffs.terms, coeffs.values) if c != 0.0 and t.power > 1]
        return _operators(coeffs, k, nx)[1], reference_nonlinear(nonlinear, k, nx)

    @pytest.mark.parametrize("name", NONLINEAR_LAWS + ["mixed"])
    def test_matches_pointwise_reference(self, name):
        if name == "mixed":
            # u^3 is alias-free on the kept modes |k| <= 42 only when
            # 3 * band < 128 - 42 (see test_cubic_flux_aliases_less_than_pointwise)
            coeffs, length, band = MIXED_LAW, 2 * np.pi, 28
        else:
            coeffs, length, band = PDES[name].true_coeffs, PDES[name].domain_length, 42
        flux, pointwise = self.operators(coeffs, 128, length)
        v = random_rows(np.random.default_rng(0), 128, band)
        want = pointwise(v)
        assert np.abs(flux(v) - want).max() <= 1e-13 * np.abs(want).max()

    def test_cubic_flux_aliases_less_than_pointwise(self):
        # full-band rows: u^3 aliases onto the kept modes in both forms; the
        # alias-free projection is the pointwise form on a 4x finer grid
        nx, fine = 128, 512
        flux, pointwise = self.operators(MIXED_LAW, nx)
        _, exact = self.operators(MIXED_LAW, fine)
        v = random_rows(np.random.default_rng(1), nx, nx // 3)
        padded = np.zeros((len(v), fine // 2 + 1), complex)
        padded[:, : v.shape[1]] = v * (fine / nx)
        want = np.zeros_like(v)
        want[:, : nx // 3 + 1] = exact(padded)[:, : nx // 3 + 1] * (nx / fine)
        err = lambda got: np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err(flux(v)) < 0.5 * err(pointwise(v))

    @pytest.mark.parametrize("name", NONLINEAR_LAWS)
    def test_two_ffts_per_stage(self, name, monkeypatch):
        calls = {"fft": 0, "stage": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for fn in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, fn, counted(getattr(np.fft, fn), "fft"))
        operators = solvers._operators

        def counted_operators(*args):
            sym, nl = operators(*args)
            return sym, counted(nl, "stage")

        monkeypatch.setattr(solvers, "_operators", counted_operators)
        pde = PDES[name]
        g = pde.default_grid(64, 32)
        generate_set(pde, g, 2, 0.0, 0)
        # one rfft of u0 and one irfft per output sample besides the stages
        assert calls["stage"] > 0
        assert calls["fft"] - 1 - g.nt == 2 * calls["stage"]


class TestNoise:
    def test_sigma_zero_identity(self, heat_clean):
        tr = heat_clean.trajectories[0]
        out = add_noise(tr, 0.0, RngStream(1).generator(0))
        assert out is tr

    def test_noise_scale(self, heat_clean):
        tr = heat_clean.trajectories[0]
        noisy = add_noise(tr, 0.1, RngStream(1042).generator(0))
        ratio = np.std(noisy.values - tr.values) / np.std(tr.values)
        assert 0.095 < ratio < 0.105

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sigma(self, heat_clean, sigma):
        tr = heat_clean.trajectories[0]
        with pytest.raises(ValueError, match="sigma must be finite"):
            add_noise(tr, sigma, RngStream(1).generator(0))

    def test_rejects_negative_sigma(self, heat_clean):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            add_noise(heat_clean.trajectories[0], -0.1, RngStream(1).generator(0))

    @pytest.mark.parametrize("sigma", [0.05, 0.2])
    def test_noise_is_the_scaled_draw_added_to_the_values(self, heat_clean, sigma):
        # add_noise builds the draw in place; IEEE + and * commute, so it is bitwise this
        tr = heat_clean.trajectories[1]
        noisy = add_noise(tr, sigma, RngStream(7).generator(2))
        r = RngStream(7).generator(2).standard_normal(tr.values.shape)
        assert np.array_equal(noisy.values, tr.values + sigma * np.std(tr.values) * r)
        assert not noisy.values.flags.writeable

    def test_same_seed_same_noise(self, heat_clean):
        tr = heat_clean.trajectories[0]
        a = add_noise(tr, 0.1, RngStream(7).generator(2))
        b = add_noise(tr, 0.1, RngStream(7).generator(2))
        assert np.array_equal(a.values, b.values)


class TestGenerateSet:
    def test_m3_distinct(self, heat_clean):
        assert len(heat_clean) == 3
        v = [tr.values for tr in heat_clean]
        assert not np.array_equal(v[0], v[1])
        assert not np.array_equal(v[1], v[2])
        assert not any(a.flags.writeable for a in v)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_empty_set(self, m):
        pde = PDES["heat"]
        with pytest.raises(ValueError, match="need m >= 1"):
            generate_set(pde, pde.default_grid(), m, 0.0, 42)

    @pytest.mark.parametrize("m", [2.5, 3.0, "3"])
    def test_rejects_a_non_integer_count(self, m):
        pde = PDES["heat"]
        with pytest.raises(ValueError, match="^m must be an integer, got "):
            generate_set(pde, pde.default_grid(), m, 0.0, 42)

    def test_reproducible(self):
        pde = PDES["heat"]
        g = pde.default_grid()
        a = generate_set(pde, g, 2, 0.05, 42)
        b = generate_set(pde, g, 2, 0.05, 42)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.values, tb.values)
            assert not ta.values.flags.writeable

    def test_seed_changes_data(self, heat_clean):
        pde = PDES["heat"]
        other = generate_set(pde, pde.default_grid(), 3, 0.0, 43)
        assert not np.array_equal(heat_clean.trajectories[0].values, other.trajectories[0].values)

    @pytest.mark.parametrize("name", NONLINEAR_LAWS)
    def test_rows_equal_single_solves(self, name):
        # the batched integration of a set must not drift from solve
        pde = PDES[name]
        g = pde.default_grid(64, 32)
        ts = generate_set(pde, g, 3, 0.0, 42)
        for i, tr in enumerate(ts):
            u0 = initial_condition(pde, g, RngStream(42).generator(i))
            single = solve(pde, u0, g).values
            assert np.array_equal(tr.values, single) and not single.flags.writeable

    def test_rejects_non_finite_ic(self, monkeypatch):
        import eqod.solvers as solvers

        def nan_ic(pde, grid, rng):
            return np.full(grid.nx, np.nan)

        monkeypatch.setattr(solvers, "initial_condition", nan_ic)
        pde = PDES["ks"]
        with pytest.raises(ValueError, match="u0 must be finite"):
            generate_set(pde, pde.default_grid(), 3, 0.0, 42)
