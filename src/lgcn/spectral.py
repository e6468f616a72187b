"""Per-channel 2-d discrete Fourier transform and amplitude-spectrum modulation.

The DFT is computed in its direct matrix form (exact, no FFT); grids here
never exceed a few hundred bins so asymptotics are irrelevant.
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
def _dft_matrix(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def _transform(arr, fh, fw):
    """fh @ arr @ fw over the spatial axes of (B, H, W, C), channel by channel."""
    t = arr.transpose(0, 3, 1, 2)  # (B, C, H, W) so matmul broadcasts over B, C
    out = (fh @ t) @ fw
    return out.transpose(0, 2, 3, 1)


def dft2d_fwd(x):
    """Per-channel 2-d DFT of a (B, H, W, C) or (H, W, C) map."""
    xb, had_batch = _batched(x)
    B, H, W, C = xb.shape
    spec = _transform(xb.astype(np.complex128), _dft_matrix(H), _dft_matrix(W))
    grid = ComplexGrid(_debatch(np.ascontiguousarray(spec.real), had_batch),
                       _debatch(np.ascontiguousarray(spec.imag), had_batch))
    return grid, (xb.shape, had_batch)


def dft2d_bwd(dgrid: ComplexGrid, cache):
    xshape, had_batch = cache
    B, H, W, C = xshape
    # Adjoint of the real->complex linear map: sum each bin's cos/sin weights.
    dspec = _batched(dgrid.re)[0] + 1j * _batched(dgrid.im)[0]
    dx = _transform(dspec, np.conj(_dft_matrix(H)), np.conj(_dft_matrix(W))).real
    return _debatch(np.ascontiguousarray(dx), had_batch)


def idft2d_fwd(grid: ComplexGrid):
    """Real part of the per-channel inverse 2-d DFT."""
    _check(grid.re.shape == grid.im.shape, "idft2d: re/im shapes differ")
    reb, had_batch = _batched(grid.re)
    imb, _ = _batched(grid.im)
    B, H, W, C = reb.shape
    x = _transform(reb + 1j * imb, np.conj(_dft_matrix(H)), np.conj(_dft_matrix(W))) / (H * W)
    return _debatch(np.ascontiguousarray(x.real), had_batch), (reb.shape, had_batch)


def idft2d_bwd(dy, cache):
    shape, had_batch = cache
    B, H, W, C = shape
    dyb, _ = _batched(dy)
    dspec = _transform(dyb.astype(np.complex128), _dft_matrix(H), _dft_matrix(W)) / (H * W)
    dre = _debatch(np.ascontiguousarray(dspec.real), had_batch)
    # d(Re idft)/d(im) picks up the -sin weights, i.e. +Im of the forward DFT.
    dim = _debatch(np.ascontiguousarray(dspec.imag), had_batch)
    return ComplexGrid(dre, dim)


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
