"""The adapter's frequency branch: a per-channel filter on the 2-d DFT.

The DFT is computed in its direct matrix form (exact, no FFT); grids here
never exceed a few hundred bins so asymptotics are irrelevant. Inputs are
real, so the transform is one real matmul over the flattened spatial axis
of a (B, H, W, C) map:
M = [Re F; Im F] with F = kron(F_H, F_W), which is 2N x N for N = H * W.
F is symmetric, so M's transpose maps a stacked spectrum back to space, and
Re(F^-1(g * F x)) is M^T (g * M x) / N for a real gain field g.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ops import _check, _check_map


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


def frequency_branch_fwd(x, gains):
    """Scale each bin of a (B, H, W, C) map's spectrum by a finite positive gain.

    A positive real gain scales a bin's amplitude and keeps its phase.
    """
    if not np.all((gains > 0) & (gains < np.inf)):  # NaN fails both
        raise ValueError("frequency_branch: gains must be finite and strictly positive")
    _check_map(x, "frequency_branch")
    B, H, W, C = x.shape
    _check(gains.shape == (H, W, C),
           f"frequency_branch: gain field {gains.shape} does not match map {x.shape}")
    n = H * W
    m = _dft_matrix(H, W)
    spec = (m @ x.reshape(B, n, C)).reshape(B, 2, n, C)
    g = gains.reshape(n, C)
    y = m.T @ (spec * g).reshape(B, 2 * n, C)
    y /= n
    return y.reshape(x.shape), (spec, g, x.shape)


def frequency_branch_bwd(dy, cache):
    spec, g, shape = cache
    _check_map(dy, "frequency_branch")  # a same-size dy of another rank would reshape silently
    B, H, W, C = shape
    n = H * W
    m = _dft_matrix(H, W)
    dmod = m @ dy.reshape(B, n, C)
    dmod /= n
    dmod = dmod.reshape(B, 2, n, C)
    # re and im products are added before the batch sum; one sum over both
    # axes would reorder the additions and move the last bits
    dgains = (dmod[:, 0] * spec[:, 0] + dmod[:, 1] * spec[:, 1]).sum(axis=0)
    dx = m.T @ (dmod * g).reshape(B, 2 * n, C)
    return dx.reshape(shape), dgains.reshape(shape[1:])
