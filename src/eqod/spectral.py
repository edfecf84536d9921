"""Fourier differentiation on periodic grids.

A real field has a Hermitian spectrum, so one real FFT (``rfft``) of the
nx // 2 + 1 non-negative modes serves every derivative order; each order
is one multiplication and one inverse real FFT. ``spectral_derivative``
is the checked one-order entry: it rejects a bad row, length or order
(``core.as_reals``, ``as_real``, ``as_index``) before any transform.
``spectrum_derivatives`` is the unchecked many-order step on rows of
``rfft`` modes, which a caller holding a spectrum, or a linear
contraction of one, uses without a further forward transform; it makes
each order's multiplier (ik)^d once per grid and keeps it, read-only,
for later calls.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import as_index, as_real, as_reals

__all__ = ["wavenumbers", "spectrum_derivatives", "spectral_derivative"]


def wavenumbers(nx: int, length: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*n/L, n = 0 .. nx/2, of the ``rfft`` modes
    of an even nx-point grid; the last is the Nyquist mode. nx is an
    index (``core.as_index``) and length a real number (``core.as_real``)."""
    nx, length = as_index("nx", nx), as_real("length", length)
    if nx % 2 != 0:
        raise ValueError("nx must be even")
    if length <= 0:
        raise ValueError("length must be positive")
    return 2.0 * np.pi * np.arange(nx // 2 + 1) / length


def spectrum_derivatives(u_hat, orders, nx: int, length: float, out=None, scaled=None) -> list[np.ndarray]:
    """d^order/dx^order, on the nx-point grid, of the field whose ``rfft``
    along the last axis is ``u_hat``, for each order in ``orders``.

    Each order is one multiplication by (ik)^order, into one buffer that
    every order of the call reuses, and one ``irfft``. For
    odd orders the Nyquist mode is zeroed: on the grid that mode is
    cos(k_N x_j) = (-1)^j, whose derivative vanishes at every grid point.
    The multipliers are memoized across calls, keyed by the type and value
    of (nx, length, order) and bounded to the last 64 keys used; each is
    read-only. The orders are not checked here, and nx and length only
    by ``wavenumbers`` when a multiplier is made.

    A caller that reuses its memory passes the buffers: ``out``, one
    float64 array of u_hat's leading shape by nx per order, which that
    order's ``irfft`` writes, and ``scaled``, a complex128 array of
    u_hat's shape, which takes each product u_hat (ik)^order. Either one
    left None is made here. The buffers change no bit of the result.

    Returns one array of u_hat's leading shape by nx per order, in the
    order given: the arrays of ``out``, when given.
    """
    outs = [None] * len(orders) if out is None else out
    derivs = []
    for order, into in zip(orders, outs):
        scaled = np.multiply(u_hat, _multiplier(nx, length, order), out=scaled)
        derivs.append(np.fft.irfft(scaled, n=nx, axis=-1, out=into))
    return derivs


@functools.lru_cache(maxsize=64, typed=True)
def _multiplier(nx: int, length: float, order: int) -> np.ndarray:
    """(ik)^order on the ``rfft`` modes, its Nyquist mode zeroed for odd
    orders: read-only, and made once per (nx, length, order) of the last
    64 used, each argument keyed by its type and value."""
    mult = (1j * wavenumbers(nx, length)) ** order
    if order % 2 == 1:
        mult[nx // 2] = 0.0
    mult.flags.writeable = False
    return mult


def spectral_derivative(row, order: int, length: float) -> np.ndarray:
    """d^order/dx^order of a periodic field along its last axis.

    ``row`` (``core.as_reals``), ``length`` (``core.as_real``) and the
    order (an index, 1..4) are checked before any transform; then one
    ``rfft`` feeds ``spectrum_derivatives``.
    """
    u, length, order = as_reals("row", row), as_real("length", length), as_index("order", order)
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    (d,) = spectrum_derivatives(np.fft.rfft(u, axis=-1), (order,), u.shape[-1], length)
    return d
