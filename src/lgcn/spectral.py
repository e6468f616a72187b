"""Per-channel 2-d discrete Fourier transform and amplitude-spectrum modulation.

The DFT is computed in its direct matrix form (exact, no FFT); grids here
never exceed a few hundred bins so asymptotics are irrelevant. Inputs are
real, so the transform is one real matmul over the flattened spatial axis
of a (B, H, W, C) map:
M = [Re F; Im F] with F = kron(F_H, F_W), which is 2N x N for N = H * W.
F is symmetric, so M's transpose maps a stacked spectrum back to space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ops import _check, _check_map


@dataclass
class ComplexGrid:
    """Frequency-domain counterpart of a (B, H, W, C) map: real and imaginary grids."""

    re: np.ndarray
    im: np.ndarray

    def amplitude(self) -> np.ndarray:
        return np.sqrt(self.re ** 2 + self.im ** 2)

    def phase(self) -> np.ndarray:
        return np.arctan2(self.im, self.re)


@lru_cache(maxsize=64)
def _dft_matrix(h: int, w: int) -> np.ndarray:
    """(2N, N) real form [Re F; Im F] of the 2-d DFT on an h x w grid."""
    def dft(n):
        idx = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(idx, idx) / n)

    f = np.kron(dft(h), dft(w))  # bin u * w + v, pixel y * w + x
    m = np.concatenate([f.real, f.imag])
    m.flags.writeable = False  # shared by every call on this grid
    return m


def _stack(grid: ComplexGrid):
    """(B, 2N, C) stack of a grid's real and imaginary parts."""
    B, H, W, C = grid.re.shape
    return np.concatenate([p.reshape(B, H * W, C) for p in (grid.re, grid.im)], axis=1)


def _unstack(stacked, shape) -> ComplexGrid:
    n = shape[1] * shape[2]
    return ComplexGrid(stacked[:, :n].reshape(shape), stacked[:, n:].reshape(shape))


def dft2d_fwd(x):
    """Per-channel 2-d DFT of a (B, H, W, C) map."""
    _check_map(x, "dft2d")
    B, H, W, C = x.shape
    spec = _dft_matrix(H, W) @ x.reshape(B, H * W, C)
    return _unstack(spec, x.shape), x.shape


def dft2d_bwd(dgrid: ComplexGrid, xshape):
    # Adjoint of the real->complex linear map: sum each bin's cos/sin weights.
    dspec = _stack(dgrid)
    dx = _dft_matrix(*xshape[1:3]).T @ dspec
    return dx.reshape(xshape)


def idft2d_fwd(grid: ComplexGrid):
    """Real part of the per-channel inverse 2-d DFT of a (B, H, W, C) grid."""
    _check_map(grid.re, "idft2d")
    _check(grid.re.shape == grid.im.shape, "idft2d: re/im shapes differ")
    spec, shape = _stack(grid), grid.re.shape
    B, H, W, C = shape
    x = _dft_matrix(H, W).T @ spec
    x /= H * W
    return x.reshape(shape), shape


def idft2d_bwd(dy, shape):
    B, H, W, C = shape
    # d(Re idft)/d(im) picks up the -sin weights, i.e. +Im of the forward DFT.
    dspec = _dft_matrix(H, W) @ dy.reshape(B, H * W, C)
    dspec /= H * W
    return _unstack(dspec, shape)


def amplitude_modulate_fwd(grid: ComplexGrid, gains):
    """Scale each bin's amplitude by a positive gain, preserving phase exactly.

    For gain g > 0 this equals multiplying the complex bin by g: the modulus
    becomes g*|X| while arg(X) is untouched.
    """
    _check(grid.re.shape[-3:] == gains.shape,
           f"amplitude_modulate: gain field {gains.shape} does not match grid {grid.re.shape}")
    out = ComplexGrid(grid.re * gains, grid.im * gains)
    return out, (grid, gains)


def amplitude_modulate_bwd(dout: ComplexGrid, cache):
    grid, gains = cache
    dre = dout.re * gains
    dim = dout.im * gains
    dgains = (dout.re * grid.re + dout.im * grid.im).sum(axis=0)
    return ComplexGrid(dre, dim), dgains
