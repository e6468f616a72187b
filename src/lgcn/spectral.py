"""Per-channel 2-d discrete Fourier transform and amplitude-spectrum modulation.

The DFT is computed in its direct matrix form (exact, no FFT); grids here
never exceed a few hundred bins so asymptotics are irrelevant. Inputs are
real, so the transform is one real matmul over the flattened spatial axis:
M = [Re F; Im F] with F = kron(F_H, F_W), which is 2N x N for N = H * W.
F is symmetric, so M's transpose maps a stacked spectrum back to space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ops import _batched, _check, _debatch


@dataclass
class ComplexGrid:
    """Frequency-domain counterpart of a feature map: real and imaginary grids."""

    re: np.ndarray
    im: np.ndarray

    @property
    def shape(self):
        return self.re.shape

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
    reb, had_batch = _batched(grid.re)
    B, H, W, C = reb.shape
    parts = (reb, _batched(grid.im)[0])
    return np.concatenate([p.reshape(B, H * W, C) for p in parts], axis=1), reb.shape, had_batch


def _unstack(stacked, shape, had_batch) -> ComplexGrid:
    n = shape[1] * shape[2]
    return ComplexGrid(_debatch(stacked[:, :n].reshape(shape), had_batch),
                       _debatch(stacked[:, n:].reshape(shape), had_batch))


def dft2d_fwd(x):
    """Per-channel 2-d DFT of a (B, H, W, C) or (H, W, C) map."""
    xb, had_batch = _batched(x)
    B, H, W, C = xb.shape
    spec = _dft_matrix(H, W) @ xb.reshape(B, H * W, C)
    return _unstack(spec, xb.shape, had_batch), (xb.shape, had_batch)


def dft2d_bwd(dgrid: ComplexGrid, cache):
    xshape, had_batch = cache
    # Adjoint of the real->complex linear map: sum each bin's cos/sin weights.
    dspec, _, _ = _stack(dgrid)
    dx = _dft_matrix(*xshape[1:3]).T @ dspec
    return _debatch(dx.reshape(xshape), had_batch)


def idft2d_fwd(grid: ComplexGrid):
    """Real part of the per-channel inverse 2-d DFT."""
    _check(grid.re.shape == grid.im.shape, "idft2d: re/im shapes differ")
    spec, shape, had_batch = _stack(grid)
    B, H, W, C = shape
    x = _dft_matrix(H, W).T @ spec
    x /= H * W
    return _debatch(x.reshape(shape), had_batch), (shape, had_batch)


def idft2d_bwd(dy, cache):
    shape, had_batch = cache
    B, H, W, C = shape
    # d(Re idft)/d(im) picks up the -sin weights, i.e. +Im of the forward DFT.
    dspec = _dft_matrix(H, W) @ _batched(dy)[0].reshape(B, H * W, C)
    dspec /= H * W
    return _unstack(dspec, shape, had_batch)


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
    dgains = dout.re * grid.re + dout.im * grid.im
    if dgains.ndim == 4:
        dgains = dgains.sum(axis=0)
    return ComplexGrid(dre, dim), dgains
