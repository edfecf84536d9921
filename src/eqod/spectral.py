"""Fourier differentiation on periodic grids.

A real field has a Hermitian spectrum, so one real FFT (``rfft``) of the
nx // 2 + 1 non-negative modes serves every derivative order; each order
is one multiplication and one inverse real FFT. ``spectral_derivative``
is the checked one-order entry: it rejects a bad order or non-finite
input before any transform. ``spectrum_derivatives`` is the unchecked
many-order step on rows of ``rfft`` modes, which a caller holding a
spectrum, or a linear contraction of one, uses without a further
forward transform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wavenumbers", "spectrum_derivatives", "spectral_derivative"]


def wavenumbers(nx: int, length: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*n/L, n = 0 .. nx/2, of the ``rfft`` modes
    of an even nx-point grid; the last is the Nyquist mode."""
    if nx % 2 != 0:
        raise ValueError("nx must be even")
    if length <= 0:
        raise ValueError("length must be positive")
    return 2.0 * np.pi * np.arange(nx // 2 + 1) / length


def spectrum_derivatives(u_hat, orders, nx: int, length: float) -> list[np.ndarray]:
    """d^order/dx^order, on the nx-point grid, of the field whose ``rfft``
    along the last axis is ``u_hat``, for each order in ``orders``.

    Each order is one multiplication by (ik)^order, into one buffer that
    every order of the call reuses, and one ``irfft``. For
    odd orders the Nyquist mode is zeroed: on the grid that mode is
    cos(k_N x_j) = (-1)^j, whose derivative vanishes at every grid point.
    The orders are not checked here.

    Returns one array of u_hat's leading shape by nx per order, in the
    order given.
    """
    ik = 1j * wavenumbers(nx, length)
    out, scaled = [], None
    for order in orders:
        mult = ik**order
        if order % 2 == 1:
            mult[nx // 2] = 0.0
        scaled = np.multiply(u_hat, mult, out=scaled)
        out.append(np.fft.irfft(scaled, n=nx, axis=-1))
    return out


def spectral_derivative(row, order: int, length: float) -> np.ndarray:
    """d^order/dx^order of a periodic field along its last axis.

    The order (1..4) and the finiteness of ``row`` are checked before any
    transform; then one ``rfft`` feeds ``spectrum_derivatives``.
    """
    u = np.asarray(row, dtype=float)
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    if not np.all(np.isfinite(u)):
        raise ValueError("input must be finite")
    (d,) = spectrum_derivatives(np.fft.rfft(u, axis=-1), (order,), u.shape[-1], length)
    return d
