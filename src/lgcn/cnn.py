"""Convolutional local-texture stream and the alignment upsampler.

Three stride-2 conv+ReLU stages and a final average pool produce the coarse
local map; the upsampler then resamples to an intermediate side, remaps
channels with a 3x3 conv, and resamples again so the result is aligned with
the transformer map in both spatial and channel dimensions.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .params import ZEROS, acc_grad, he


def stage_channels(cfg) -> tuple[int, int, int]:
    c = cfg.cnn_channels
    return max(1, c // 4), max(1, c // 2), c


def cnn_spec(cfg) -> list:
    c1, c2, c3 = stage_channels(cfg)
    d = cfg.embed_dim
    # Gains above plain He init keep the local stream comparable in scale to
    # the transformer stream at init (there is no batch norm to do it later).
    return [
        ("cnn.stage1.w", (c1, 3, 3, 3), he(3 * 9, 1.5)),
        ("cnn.stage1.b", (c1,), ZEROS),
        ("cnn.stage2.w", (c2, c1, 3, 3), he(c1 * 9, 1.5)),
        ("cnn.stage2.b", (c2,), ZEROS),
        ("cnn.stage3.w", (c3, c2, 3, 3), he(c2 * 9, 1.5)),
        ("cnn.stage3.b", (c3,), ZEROS),
        ("cnn.align.w", (d, c3, 3, 3), he(c3 * 9, 2.0)),
        ("cnn.align.b", (d,), ZEROS),
    ]


def cnn_forward(images, params, cfg, keep=True):
    """images (B, S, S, 3) -> local map (B, G_res, G_res, C_res); keep=False returns no cache."""
    x = images
    caches = []
    for i in (1, 2, 3):
        y, c_conv = ops.conv2d_fwd(x, params[f"cnn.stage{i}.w"], params[f"cnn.stage{i}.b"],
                                   stride=2, padding=1)
        x, c_relu = ops.relu_fwd(y)
        if keep:
            caches.append((c_conv, c_relu))
        del y, c_conv, c_relu  # freed before the next stage runs unless kept
    pooled, c_pool = ops.avg_pool2d_fwd(x, cfg.pool_factor)
    return pooled, ((caches, c_pool) if keep else None)


def cnn_backward(dy, cache, grads, image_grad=True):
    """Image gradient, or an empty array when image_grad is False."""
    caches, c_pool = cache
    dx = ops.avg_pool2d_bwd(dy, c_pool)
    for i, (c_conv, c_relu) in zip((3, 2, 1), reversed(caches)):
        dx = ops.relu_bwd(dx, c_relu)
        dx, dw, db = ops.conv2d_bwd(dx, c_conv, inputs=i > 1 or image_grad)
        acc_grad(grads, f"cnn.stage{i}.w", dw)
        acc_grad(grads, f"cnn.stage{i}.b", db)
    return np.empty(0) if dx is None else dx


def align_upsample(fres, params, cfg):
    """Resample, convolve, resample again: G_res -> mid -> G alignment.

    Output matches the transformer map (B, G, G, D) exactly in shape.
    """
    mid, g = cfg.align_mid, cfg.grid
    up1, c_r1 = ops.bilinear_resize_fwd(fres, mid, mid)
    conv, c_conv = ops.conv2d_fwd(up1, params["cnn.align.w"], params["cnn.align.b"],
                                  stride=1, padding=1)
    up2, c_r2 = ops.bilinear_resize_fwd(conv, g, g)
    trace = (tuple(np.shape(fres)), tuple(up1.shape), tuple(conv.shape), tuple(up2.shape))
    return up2, (c_r1, c_conv, c_r2, trace)


def align_trace(cache) -> tuple:
    """Shapes traversed by the upsampler: input, mid resize, conv, output."""
    return cache[3]


def align_backward(dy, cache, grads):
    c_r1, c_conv, c_r2, _ = cache
    dconv = ops.bilinear_resize_bwd(dy, c_r2)
    dup1, dw, db = ops.conv2d_bwd(dconv, c_conv)
    acc_grad(grads, "cnn.align.w", dw)
    acc_grad(grads, "cnn.align.b", db)
    return ops.bilinear_resize_bwd(dup1, c_r1)
