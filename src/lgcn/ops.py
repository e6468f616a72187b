"""Differentiable operator set: each op ships a forward and a hand-written backward.

Conventions:
  - feature maps are channels-last and batched, (B, H, W, C); map ops
    reject any other rank
  - forward returns (output, cache); backward takes (grad_output, cache)
    and returns gradients in the same order as the forward inputs
  - float64 is used for training and tests; ops preserve the input dtype
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class ShapeError(ValueError):
    """Shape mismatch, naming the offending axis."""


# Test hook: when True, conv2d's kernel gradient is deliberately scaled by 2
# so the gradient-check suite can demonstrate it catches broken backwards.
INJECT_GRADIENT_BUG = False


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def _check_map(x: np.ndarray, op: str) -> None:
    _check(x.ndim == 4, f"{op}: expected a (B, H, W, C) map, got {x.ndim}-d")


# ---------------------------------------------------------------------------
# dense / elementwise
# ---------------------------------------------------------------------------

def linear_fwd(x, w, b=None):
    """y = x @ w (+ b) over the last axis."""
    _check(x.shape[-1] == w.shape[0],
           f"linear: input features (last axis) {x.shape[-1]} != weight rows {w.shape[0]}")
    y = x @ w
    if b is not None:
        y = y + b
    return y, (x, w, b is not None)


def linear_bwd(dy, cache, inputs=True, weights=True):
    """(dx, dw, db); inputs=False skips dx and weights=False dw and db (None)."""
    x, w, has_b = cache
    dx = dy @ w.T if inputs else None
    if not weights:
        return dx, None, None
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0) if has_b else None
    return dx, dw, db


def relu_fwd(x):
    mask = x > 0
    return x * mask, mask


def relu_bwd(dy, mask):
    return dy * mask


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x):
    """tanh-approximation GELU."""
    # inner = C * (x + 0.044715 * (x * x * x)), then y = 0.5 * x * (1 + t),
    # op for op in place. x * x * x, not x ** 3: float64 pow of signed inputs
    # is ~40x slower.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t
    return y, (x, t)


def gelu_bwd(dy, cache):
    x, t = cache
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    dt = (1.0 - t * t) * dinner
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)


def sigmoid_fwd(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one exp(-|x|)."""
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, e)
    y /= 1.0 + e
    return y, y


def sigmoid_bwd(dy, y):
    return dy * y * (1.0 - y)


def softplus_fwd(x):
    """log(1 + e^x), computed stably."""
    y = np.logaddexp(0.0, x)
    return y, x


def softplus_bwd(dy, x):
    return dy * sigmoid_fwd(x)[0]


def softmax_fwd(x, axis=-1):
    y = x - x.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y, (y, axis)


def softmax_bwd(dy, cache):
    y, axis = cache
    dot = (dy * y).sum(axis=axis, keepdims=True)
    return (dy - dot) * y


def layernorm_fwd(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = np.square(xhat)  # what xhat ** 2 runs; y then holds gamma * xhat + beta
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv, gamma)


def layernorm_bwd(dy, cache, affine=True):
    """(dx, dgamma, dbeta); affine=False skips dgamma and dbeta (None)."""
    xhat, inv, gamma = cache
    n = xhat.shape[-1]
    dgamma = (dy * xhat).reshape(-1, n).sum(axis=0) if affine else None
    dbeta = dy.reshape(-1, n).sum(axis=0) if affine else None
    dxhat = dy * gamma
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def l2_normalize_fwd(x, axis=-1):
    n = np.sqrt((x ** 2).sum(axis=axis, keepdims=True))
    y = x / n
    return y, (y, n, axis)


def l2_normalize_bwd(dy, cache):
    y, n, axis = cache
    dot = (dy * y).sum(axis=axis, keepdims=True)
    return (dy - y * dot) / n


# ---------------------------------------------------------------------------
# attention core
# ---------------------------------------------------------------------------

def attention_fwd(q, k, v):
    """Scaled dot-product attention over the last two axes.

    q, k: (..., n, d_k); v: (..., n, d_v). Rows of the softmaxed score
    matrix sum to 1, so each output row is a convex mix of value rows.
    """
    _check(q.shape[-1] == k.shape[-1],
           f"attention: q depth {q.shape[-1]} != k depth {k.shape[-1]}")
    _check(q.shape[-2] == k.shape[-2] == v.shape[-2],
           "attention: q/k/v row counts differ")
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    attn, sm_cache = softmax_fwd(scores, axis=-1)
    out = attn @ v
    return out, (q, k, v, attn, sm_cache, scale)


def attention_bwd(dy, cache):
    q, k, v, attn, sm_cache, scale = cache
    dv = np.swapaxes(attn, -1, -2) @ dy
    dattn = dy @ np.swapaxes(v, -1, -2)
    dscores = softmax_bwd(dattn, sm_cache) * scale
    dq = dscores @ k
    dk = np.swapaxes(dscores, -1, -2) @ q
    return dq, dk, dv


# ---------------------------------------------------------------------------
# convolutions (conv2d: one im2col matmul; the input gradient and depthwise loop over taps)
# ---------------------------------------------------------------------------

def _pad_hw(xb, p):
    """Copy of a (B, H, W, C) map with p zeros around each spatial side."""
    B, H, W, C = xb.shape
    xp = np.empty((B, H + 2 * p, W + 2 * p, C), dtype=xb.dtype)
    xp[:, :p] = xp[:, p + H:] = 0  # only the border is zeroed; the rest is copied over
    xp[:, :, :p] = xp[:, :, p + W:] = 0
    xp[:, p:p + H, p:p + W] = xb
    return xp


def conv2d_fwd(x, w, b=None, stride=1, padding=0):
    """2-d convolution (cross-correlation) on channels-last maps.

    x: (B, H, W, Cin); w: (Cout, Cin, kh, kw).
    Output spatial side: floor((H + 2p - k) / stride) + 1.
    """
    _check_map(x, "conv2d")
    cout, cin, kh, kw = w.shape
    _check(stride >= 1 and kh >= 1 and kw >= 1, "conv2d: stride and kernel must be >= 1")
    _check(x.shape[3] == cin,
           f"conv2d: input channel axis has {x.shape[3]}, kernel expects {cin}")
    B, H, W, _ = x.shape
    _check(H + 2 * padding >= kh,
           f"conv2d: padded height {H + 2 * padding} smaller than kernel {kh}")
    _check(W + 2 * padding >= kw,
           f"conv2d: padded width {W + 2 * padding} smaller than kernel {kw}")
    xp = _pad_hw(x, padding)
    oh = (H + 2 * padding - kh) // stride + 1
    ow = (W + 2 * padding - kw) // stride + 1
    cols = np.empty((B, oh, ow, kh, kw, cin), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :]
    del xp  # the padded copy goes before the matmul allocates y
    wmat = w.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    y = (cols.reshape(-1, kh * kw * cin) @ wmat).reshape(B, oh, ow, cout)
    if b is not None:
        y += b
    return y, (cols, w, b is not None, stride, padding, x.shape)


def conv2d_bwd(dy, cache, inputs=True):
    """(dx, dw, db); inputs=False skips dx (None)."""
    cols, w, has_b, stride, padding, xshape = cache
    cout, cin, kh, kw = w.shape
    B, H, W, _ = xshape
    oh, ow = dy.shape[1], dy.shape[2]
    dy_flat = dy.reshape(-1, cout)
    dwmat = cols.reshape(-1, kh * kw * cin).T @ dy_flat
    dw = dwmat.reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
    if INJECT_GRADIENT_BUG:
        dw = dw * 2.0
    db = dy.sum(axis=(0, 1, 2)) if has_b else None
    if not inputs:
        return None, dw, db
    taps = w.transpose(2, 3, 0, 1).copy()  # (kh, kw, cout, cin), each tap contiguous
    dxp = np.zeros((B, H + 2 * padding, W + 2 * padding, cin), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += (
                dy_flat @ taps[i, j]).reshape(B, oh, ow, cin)
    return dxp[:, padding:padding + H, padding:padding + W, :], dw, db


def depthwise_conv2d_fwd(x, k, padding=1):
    """Per-channel 2-d convolution: one k x k slice per input channel.

    x: (B, H, W, C); k: (C, kh, kw). Stride is fixed at 1.
    Channel c of the output depends only on channel c of the input.
    """
    _check_map(x, "depthwise_conv2d")
    C, kh, kw = k.shape
    _check(x.shape[3] == C,
           f"depthwise_conv2d: input channel axis has {x.shape[3]}, kernel has {C} slices")
    B, H, W, _ = x.shape
    xp = _pad_hw(x, padding)
    oh = H + 2 * padding - kh + 1
    ow = W + 2 * padding - kw + 1
    y = np.zeros((B, oh, ow, C), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            y += xp[:, i:i + oh, j:j + ow, :] * k[:, i, j]
    return y, (xp, k, padding, x.shape)


def depthwise_conv2d_bwd(dy, cache):
    xp, k, padding, xshape = cache
    C, kh, kw = k.shape
    B, H, W, _ = xshape
    oh, ow = dy.shape[1], dy.shape[2]
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            dk[:, i, j] = (dy * xp[:, i:i + oh, j:j + ow, :]).sum(axis=(0, 1, 2))
            dxp[:, i:i + oh, j:j + ow, :] += dy * k[:, i, j]
    return dxp[:, padding:padding + H, padding:padding + W, :], dk


def avg_pool2d_fwd(x, factor):
    """Non-overlapping factor x factor mean pool."""
    _check_map(x, "avg_pool2d")
    B, H, W, C = x.shape
    _check(H % factor == 0 and W % factor == 0,
           f"avg_pool2d: spatial side {H}x{W} not divisible by factor {factor}")
    y = x.reshape(B, H // factor, factor, W // factor, factor, C).mean(axis=(2, 4))
    return y, factor


def avg_pool2d_bwd(dy, factor):
    return np.repeat(np.repeat(dy, factor, axis=1), factor, axis=2) / (factor * factor)


# ---------------------------------------------------------------------------
# bilinear resize (align-corners-false, edge clamped)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _resize_matrix(in_size: int, out_size: int) -> np.ndarray:
    """(out_size, in_size) weights: row i mixes the two input samples nearest to i."""
    src = (np.arange(out_size) + 0.5) * in_size / out_size - 0.5
    src = np.clip(src, 0.0, in_size - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    rows = np.arange(out_size)
    r = np.zeros((out_size, in_size))
    r[rows, lo] = 1.0 - frac
    r[rows, hi] += frac  # at the clamped edge hi == lo and frac == 0
    r.flags.writeable = False  # shared by every call of this size
    return r


def _resize_rows(x, r):
    """r @ x along axis 1 of a (B, H, W, C) map."""
    B, H, W, C = x.shape
    return (r @ x.reshape(B, H, W * C)).reshape(B, r.shape[0], W, C)


def _resize_cols(x, r):
    """r @ x along axis 2 of a (B, H, W, C) map."""
    B, H, W, C = x.shape
    return (r @ x.reshape(B * H, W, C)).reshape(B, H, r.shape[0], C)


def bilinear_resize_fwd(x, out_h, out_w):
    """Resize spatial axes with the half-pixel-center sampling convention.

    Separable: y = Rh @ x @ Rw^T per channel, with Rh, Rw cached per size.
    """
    _check(out_h >= 1 and out_w >= 1, "bilinear_resize: output sides must be >= 1")
    _check_map(x, "bilinear_resize")
    B, H, W, C = x.shape
    rh, rw = _resize_matrix(H, out_h), _resize_matrix(W, out_w)
    return _resize_cols(_resize_rows(x, rh), rw), (rh, rw)


def bilinear_resize_bwd(dy, cache):
    rh, rw = cache
    return _resize_rows(_resize_cols(dy, rw.T), rh.T)


# ---------------------------------------------------------------------------
# losses / pooling helpers
# ---------------------------------------------------------------------------

def gem_pool_fwd(x, regions, p=3.0):
    """Generalized-mean pool of regions of a (B, H, W, C) map, stacked as (B, R, C).

    regions: (row slice, column slice) pairs. Each region pools to
    (mean over its pixels of softplus(x)^p)^(1/p). Inputs are shifted
    positive with softplus before the power mean, so the fractional power
    is always defined. softplus and the power run once on the whole map.
    """
    _check_map(x, "gem_pool")
    u, sp_cache = softplus_fwd(x)
    up = u ** p
    m = np.stack([up[:, rows, cols, :].mean(axis=(1, 2)) for rows, cols in regions], axis=1)
    y = m ** (1.0 / p)
    return y, (u, m, p, sp_cache, regions)


def gem_pool_bwd(dy, cache):
    u, m, p, sp_cache, regions = cache
    dm = dy * (1.0 / p) * m ** (1.0 / p - 1.0)
    pu = p * u ** (p - 1.0)
    sig = sigmoid_fwd(sp_cache)[0]  # softplus' derivative
    dx = np.zeros(u.shape)
    for r, (rows, cols) in enumerate(regions):
        pu_r = pu[:, rows, cols, :]
        du = pu_r * (dm[:, r, None, None, :] / (pu_r.shape[1] * pu_r.shape[2]))
        dx[:, rows, cols, :] += du * sig[:, rows, cols, :]
    return dx
