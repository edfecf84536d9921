"""Fourier differentiation on periodic grids.

A real field has a Hermitian spectrum, so one real FFT (``rfft``) of the
nx // 2 + 1 non-negative modes serves every derivative order; each order
is one multiplication and one inverse real FFT. ``spectrum_derivatives``
does that step for any rows of ``rfft`` modes, so a caller that already
holds a spectrum, or a linear contraction of one, differentiates it
without a further forward transform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wavenumbers", "spectrum_derivatives", "spectral_derivatives", "spectral_derivative"]


def wavenumbers(nx: int, length: float) -> np.ndarray:
    """FFT-ordered angular wavenumbers 2*pi*n/L for an even nx-point grid.

    The Nyquist bin is stored as -nx/2 * (2*pi/L).
    """
    if nx % 2 != 0:
        raise ValueError("nx must be even")
    if length <= 0:
        raise ValueError("length must be positive")
    return 2.0 * np.pi * np.fft.fftfreq(nx, d=1.0 / nx) / length


def spectrum_derivatives(u_hat, orders, nx: int, length: float) -> list[np.ndarray]:
    """d^order/dx^order, on the nx-point grid, of the field whose ``rfft``
    along the last axis is ``u_hat``, for each order in ``orders``.

    Each order is one multiplication by (ik)^order and one ``irfft``. For
    odd orders the Nyquist mode is zeroed, since its derivative has no
    real representation on the grid. The orders are not checked here.

    Returns one array of u_hat's leading shape by nx per order, in the
    order given.
    """
    # The last entry is the Nyquist bin, stored as -nx/2: its sign drops
    # out of the even orders, and the odd orders zero it.
    ik = 1j * wavenumbers(nx, length)[: nx // 2 + 1]
    out = []
    for order in orders:
        mult = ik**order
        if order % 2 == 1:
            mult[nx // 2] = 0.0
        out.append(np.fft.irfft(u_hat * mult, n=nx, axis=-1))
    return out


def spectral_derivatives(u, orders, length: float) -> list[np.ndarray]:
    """d^order/dx^order of a periodic field for each order in ``orders``.

    Rows or full (nt, nx) arrays are differentiated along the last axis.
    The orders and the finiteness of ``u`` are checked before any
    transform; then one ``rfft`` of ``u`` is shared by every order
    (``spectrum_derivatives``).

    Returns one (nt, nx) array per order, in the order given.
    """
    u = np.asarray(u, dtype=float)
    orders = tuple(orders)
    if any(order not in (1, 2, 3, 4) for order in orders):
        raise ValueError(f"orders must be in 1..4, got {orders}")
    if not np.all(np.isfinite(u)):
        raise ValueError("input must be finite")
    return spectrum_derivatives(np.fft.rfft(u, axis=-1), orders, u.shape[-1], length)


def spectral_derivative(row, order: int, length: float) -> np.ndarray:
    """d^order/dx^order of a periodic sample row: the one-order case of
    ``spectral_derivatives``."""
    (d,) = spectral_derivatives(row, (order,), length)
    return d
