"""The adapter's frequency branch: a per-channel filter on the 2-d spectrum.

A real map's bins k and -k are conjugates, so Re(F^-1(g * F x)) reads g only
through (g(k) + g(-k)) / 2: gains are one row per pair {k, -k}, (n_bins, C).
With g(k) = g(-k) the filter is Hm (g * Hm x) / N, Hm the symmetric N x N
discrete Hartley matrix cas(2 pi (u y / H + v x / W)), cas = cos + sin, on the
N = H * W bins, with Hm Hm = N I (Bracewell, JOSA 1983). Grids are small.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ops import _check, _check_map


def n_bins(h: int, w: int) -> int:
    """Independent bins of an h x w real map: the pairs, and 1, 2 or 4 self-mirrored bins."""
    return (h * w + (2 - h % 2) * (2 - w % 2)) // 2


@lru_cache(maxsize=64)
def _bin_rows(h: int, w: int) -> np.ndarray:
    """The gain row of bin u * w + v: a pair's row is its rank by smaller index (DC: row 0)."""
    k = np.arange(h * w)
    u, v = np.divmod(k, w)
    rows = np.unique(np.minimum(k, (-u % h) * w + (-v % w)), return_inverse=True)[1]
    rows.flags.writeable = False  # shared by every call on this grid
    return rows


@lru_cache(maxsize=64)
def _hartley_matrix(h: int, w: int) -> np.ndarray:
    """(N, N) 2-d discrete Hartley transform on an h x w grid."""
    u, v = np.divmod(np.arange(h * w), w)  # bin u * w + v, pixel y * w + x
    angle = 2 * np.pi * (np.outer(u, u) % h / h + np.outer(v, v) % w / w)
    m = np.cos(angle) + np.sin(angle)
    m.flags.writeable = False  # shared by every call on this grid
    return m


def fold_gains_log(a) -> np.ndarray:
    """An (H, W, C) log-gain field as its rows, log((e^a(k) + e^a(-k)) / 2): the same filter."""
    h, w, c = a.shape
    rows = _bin_rows(h, w)
    out = np.full((n_bins(h, w), c), -np.inf)
    np.logaddexp.at(out, rows, a.reshape(h * w, c))
    return out - np.log(np.bincount(rows))[:, None]


def frequency_branch_fwd(x, gains):
    """Scale bins k, -k of a (B, H, W, C) map's spectrum by their row of gains; phase is kept."""
    if not np.all((gains > 0) & (gains < np.inf)):  # NaN fails both
        raise ValueError("frequency_branch: gains must be finite and strictly positive")
    _check_map(x, "frequency_branch")
    B, H, W, C = x.shape
    _check(gains.shape == (n_bins(H, W), C), f"frequency_branch: gains {gains.shape} do not "
           f"match map {x.shape}, which has {n_bins(H, W)} independent bins")
    m = _hartley_matrix(H, W)
    spec = m @ x.reshape(B, H * W, C)
    g = gains[_bin_rows(H, W)]
    y = m @ (spec * g)
    y /= H * W
    return y.reshape(x.shape), (spec, g, x.shape)


def frequency_branch_bwd(dy, cache):
    """(dx, dgains): a row's gradient is the sum of its bins'."""
    spec, g, shape = cache
    _check_map(dy, "frequency_branch")  # a same-size dy of another rank would reshape silently
    B, H, W, C = shape
    m = _hartley_matrix(H, W)
    dmod = m @ dy.reshape(B, H * W, C)
    dmod /= H * W
    dgains = np.zeros((n_bins(H, W), C))
    np.add.at(dgains, _bin_rows(H, W), (dmod * spec).sum(axis=0))
    return (m @ (dmod * g)).reshape(shape), dgains
