import numpy as np
import pytest

from eqod.spectral import spectral_derivative, wavenumbers


class TestWavenumbers:
    def test_nx4_unit_domain(self):
        assert wavenumbers(4, 2 * np.pi).tolist() == [0.0, 1.0, -2.0, -1.0]

    def test_nx8(self):
        assert wavenumbers(8, 2 * np.pi).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_length_scaling(self):
        assert wavenumbers(4, 4 * np.pi).tolist() == [0.0, 0.5, -1.0, -0.5]

    def test_odd_nx_rejected(self):
        with pytest.raises(ValueError):
            wavenumbers(5, 2 * np.pi)


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
