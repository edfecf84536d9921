"""Fourier differentiation on periodic grids."""

from __future__ import annotations

import numpy as np

__all__ = ["wavenumbers", "spectral_derivative"]


def wavenumbers(nx: int, length: float) -> np.ndarray:
    """FFT-ordered angular wavenumbers 2*pi*n/L for an even nx-point grid.

    The Nyquist bin is stored as -nx/2 * (2*pi/L).
    """
    if nx % 2 != 0:
        raise ValueError("nx must be even")
    if length <= 0:
        raise ValueError("length must be positive")
    return 2.0 * np.pi * np.fft.fftfreq(nx, d=1.0 / nx) / length


def spectral_derivative(row, order: int, length: float) -> np.ndarray:
    """d^order/dx^order of a periodic sample row via the FFT.

    Rows or full (nt, nx) arrays are differentiated along the last axis.
    For odd orders the Nyquist mode is zeroed before the inverse
    transform so the result stays real.
    """
    row = np.asarray(row, dtype=float)
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in 1..4")
    if not np.all(np.isfinite(row)):
        raise ValueError("input must be finite")
    nx = row.shape[-1]
    k = wavenumbers(nx, length)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[nx // 2] = 0.0
    return np.fft.ifft(np.fft.fft(row, axis=-1) * mult, axis=-1).real
