import math

import numpy as np
import pytest

import eqod.spectral as spectral
from eqod.spectral import spectral_derivative, spectrum_derivatives, wavenumbers


class TestWavenumbers:
    """The wavenumbers of the rfft modes, Nyquist last."""

    def test_nx4_unit_domain(self):
        assert wavenumbers(4, 2 * np.pi).tolist() == [0.0, 1.0, 2.0]

    def test_nx8(self):
        assert wavenumbers(8, 2 * np.pi).tolist() == [0, 1, 2, 3, 4]

    def test_length_scaling(self):
        assert wavenumbers(4, 4 * np.pi).tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("length", [2 * np.pi, 3.0])
    def test_exact_mode_numbers_off_powers_of_two(self, length):
        # each wavenumber is 2*pi*n/L with n an exact integer; nx = 98 is
        # the smallest even nx with nx * (1 / nx) != 1, where scaling by
        # fftfreq's 1 / (nx * d) moved n by an ulp for 95 of the 98 modes
        expected = [2.0 * math.pi * n / length for n in range(50)]
        assert wavenumbers(98, length).tolist() == expected

    def test_odd_nx_rejected(self):
        with pytest.raises(ValueError):
            wavenumbers(5, 2 * np.pi)

    @pytest.mark.parametrize("length", [0.0, -2 * np.pi])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(ValueError, match="length"):
            wavenumbers(8, length)


class TestDerivative:
    x = 2 * np.pi * np.arange(128) / 128

    def test_sin_first(self):
        d = spectral_derivative(np.sin(self.x), 1, 2 * np.pi)
        assert np.abs(d - np.cos(self.x)).max() < 1e-10

    def test_constant(self):
        for order in (1, 2, 3, 4):
            d = spectral_derivative(np.full(128, 3.7), order, 2 * np.pi)
            assert np.abs(d).max() < 1e-10

    def test_sin3x_second(self):
        d = spectral_derivative(np.sin(3 * self.x), 2, 2 * np.pi)
        assert np.abs(d + 9 * np.sin(3 * self.x)).max() < 1e-10

    def test_linearity(self):
        u = np.sin(2 * self.x)
        v = np.cos(5 * self.x)
        lhs = spectral_derivative(1.5 * u - 2.0 * v, 3, 2 * np.pi)
        rhs = 1.5 * spectral_derivative(u, 3, 2 * np.pi) - 2.0 * spectral_derivative(v, 3, 2 * np.pi)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_second_twice_close_to_fourth(self):
        u = np.sin(3 * self.x) + 0.2 * np.cos(7 * self.x)
        twice = spectral_derivative(spectral_derivative(u, 2, 2 * np.pi), 2, 2 * np.pi)
        once = spectral_derivative(u, 4, 2 * np.pi)
        assert np.abs(twice - once).max() / np.abs(once).max() < 1e-8

    def test_periodic_integral_vanishes(self):
        u = np.exp(np.sin(self.x))
        for order in (1, 2, 3, 4):
            d = spectral_derivative(u, order, 2 * np.pi)
            assert abs(d.sum() * (2 * np.pi / 128)) < 1e-10

    def test_matrix_rows(self):
        u = np.stack([np.sin(self.x), np.cos(self.x)])
        d = spectral_derivative(u, 1, 2 * np.pi)
        assert np.abs(d[0] - np.cos(self.x)).max() < 1e-10
        assert np.abs(d[1] + np.sin(self.x)).max() < 1e-10

    def test_rejects_nonfinite(self):
        bad = np.ones(16)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            spectral_derivative(bad, 1, 2 * np.pi)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            spectral_derivative(np.ones(16), 5, 2 * np.pi)


class TestDerivatives:
    x = 2 * np.pi * np.arange(64) / 64

    def test_nyquist_mode(self):
        # cos(nx/2 x) alternates sign on the grid: its derivative vanishes at
        # every grid point for odd orders, even orders scale it by (-1)^(d/2) (nx/2)^d
        u = np.cos(32 * self.x)
        d1, d2, d3, d4 = (spectral_derivative(u, order, 2 * np.pi) for order in (1, 2, 3, 4))
        assert np.abs(d1).max() < 1e-9
        assert np.abs(d3).max() < 1e-9
        assert np.abs(d2 - (-(32.0**2)) * u).max() < 1e-9 * 32.0**2
        assert np.abs(d4 - 32.0**4 * u).max() < 1e-9 * 32.0**4

    @pytest.mark.parametrize("shape", [(64,), (5, 64)])
    def test_equals_one_order_calls_bitwise(self, shape):
        # the many-order path the assembly takes gives the checked
        # one-order entry's answers
        rng = np.random.default_rng(3)
        u = rng.standard_normal(shape)
        orders = (3, 1, 4, 2)
        for order, d in zip(orders, spectrum_derivatives(np.fft.rfft(u), orders, 64, 3.0)):
            assert np.array_equal(d, spectral_derivative(u, order, 3.0))

    def test_bad_order_raises_before_any_transform(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        monkeypatch.setattr(np.fft, "irfft", no_transform)
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(np.ones(16), 5, 2 * np.pi)
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(np.ones(16), 0, 2 * np.pi)

    def test_commutes_with_row_contraction(self):
        # differentiating A @ u through its spectrum A @ rfft(u) is
        # differentiating u and then contracting its rows
        rng = np.random.default_rng(5)
        u = rng.standard_normal((40, 64))
        a = rng.standard_normal((3, 40))
        orders = (1, 2, 3, 4)
        after = spectrum_derivatives(a @ np.fft.rfft(u), orders, 64, 3.0)
        for d_after, order in zip(after, orders):
            d = spectral_derivative(u, order, 3.0)
            assert np.abs(d_after - a @ d).max() < 1e-12 * np.abs(a).sum(axis=1).max() * np.abs(d).max()


class TestMultiplierMemo:
    """Each (nx, length, order)'s multiplier (ik)^d is made once and kept read-only."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        spectral._multiplier.cache_clear()
        yield
        spectral._multiplier.cache_clear()

    def test_a_hit_gives_the_first_call_bitwise(self):
        u = np.random.default_rng(7).standard_normal((5, 64))
        orders = (1, 2, 3, 4)
        first = spectrum_derivatives(np.fft.rfft(u), orders, 64, 3.0)
        assert spectral._multiplier.cache_info().misses == 4
        second = spectrum_derivatives(np.fft.rfft(u), orders, 64, 3.0)
        assert spectral._multiplier.cache_info().hits == 4
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_multiplier_is_ik_to_the_order(self, order):
        # the Nyquist mode is zeroed for odd orders only
        ik = 1j * wavenumbers(16, 2.0)
        want = ik**order
        if order % 2:
            want[8] = 0.0
        mult = spectral._multiplier(16, 2.0, order)
        assert np.array_equal(mult, want)
        assert spectral._multiplier(16, 2.0, order) is mult

    def test_keys_are_typed_values(self):
        spectral._multiplier(16, 2.0, 2)
        spectral._multiplier(16, 2, 2)
        spectral._multiplier(16, 2.0, 3)
        assert spectral._multiplier.cache_info().currsize == 3

    def test_multipliers_reject_writes(self):
        mult = spectral._multiplier(16, 2.0, 1)
        with pytest.raises(ValueError, match="read-only"):
            mult[0] = 1.0

    def test_the_memo_is_bounded(self):
        bound = spectral._multiplier.cache_info().maxsize
        assert bound == 64
        for n in range(bound + 5):
            spectral._multiplier(16, 1.0 + n, 1)
            assert spectral._multiplier.cache_info().currsize == min(n + 1, bound)

    @pytest.mark.parametrize("nx, length, message", [(15, 2.0, "nx must be even"), (16, 0.0, "length must be positive")])
    def test_bad_grid_raises_on_every_call(self, nx, length, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                spectrum_derivatives(np.zeros(nx // 2 + 1, complex), (1,), nx, length)
        assert spectral._multiplier.cache_info().currsize == 0
