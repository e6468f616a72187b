"""Frequency-spatial adapter: a residual modulator for frozen-backbone tuning.

Two branches act on a bottlenecked copy of the patch-token map. The spatial
branch is a depthwise 3x3 convolution with GELU; the frequency branch scales
the amplitude spectrum of each channel with learnable positive gains, one per
independent bin, keeping phase. Branch outputs are concatenated along channels,
projected back to the token width, scaled, and added to the tokens as a
residual. The fusion projection starts at zero, so a fresh adapter is an
exact no-op.
"""

from __future__ import annotations

import numpy as np

from . import ops, spectral
from .params import ZEROS, acc_grad, const, linear_grads, normal


def _identity_taps(rng, shape):
    """Depthwise kernels that start the spatial branch as a pass-through."""
    taps = np.zeros(shape)
    taps[:, 1, 1] = 1.0
    return taps


def fsa_spec(cfg, prefix: str) -> list:
    d, cr, g = cfg.embed_dim, cfg.adapter_dim, cfg.grid
    return [
        (f"{prefix}.down_w", (d, cr), normal()),
        (f"{prefix}.dw_k", (cr, 3, 3), _identity_taps),
        (f"{prefix}.gains_log", (spectral.n_bins(g, g), cr), ZEROS),  # one row per bin pair
        (f"{prefix}.fuse_w", (2 * cr, d), ZEROS),
        (f"{prefix}.scale", (), const(0.1)),  # the residual scale a fresh adapter starts at
    ]


def spatial_branch_fwd(x, kernels):
    """Depthwise 3x3 (pad 1) then GELU; channels never mix."""
    y1, c_dw = ops.depthwise_conv2d_fwd(x, kernels, padding=1)
    y2, c_act = ops.gelu_fwd(y1)
    return y2, (c_dw, c_act)


def spatial_branch_bwd(dy, cache):
    c_dw, c_act = cache
    return ops.depthwise_conv2d_bwd(ops.gelu_bwd(dy, c_act), c_dw)


def fsa_forward(tokens, params, prefix, cfg):
    """Residual term for a token sequence; the class-token row stays zero.

    tokens: (B, 1 + G^2, D), normally the block's post-LN activations.
    """
    B, n, d = tokens.shape
    g = cfg.grid
    if n != 1 + g * g:
        raise ops.ShapeError(f"fsa_forward: token count {n} != 1 + grid^2 = {1 + g * g}")
    fmap = tokens[:, 1:, :].reshape(B, g, g, d)
    down, c_down = ops.linear_fwd(fmap, params[f"{prefix}.down_w"])
    sp, c_sp = spatial_branch_fwd(down, params[f"{prefix}.dw_k"])
    gains = np.exp(params[f"{prefix}.gains_log"])
    fr, c_fr = spectral.frequency_branch_fwd(down, gains)
    cat = np.concatenate([sp, fr], axis=-1)
    fused, c_fuse = ops.linear_fwd(cat, params[f"{prefix}.fuse_w"])
    s = params[f"{prefix}.scale"]
    out_map = fused * s
    residual = np.zeros_like(tokens)
    residual[:, 1:, :] = out_map.reshape(B, g * g, d)
    cache = (c_down, c_sp, c_fr, c_fuse, gains, fused, s, prefix, (B, g, d))
    return residual, cache


def fsa_backward(dres, cache, params, grads):
    c_down, c_sp, c_fr, c_fuse, gains, fused, s, prefix, (B, g, d) = cache
    cr = gains.shape[-1]
    dout_map = dres[:, 1:, :].reshape(B, g, g, d)
    acc_grad(grads, f"{prefix}.scale", np.array((dout_map * fused).sum()))
    dfused = dout_map * s
    dcat = linear_grads(dfused, c_fuse, grads, f"{prefix}.fuse_w")
    dsp = dcat[..., :cr]
    dfr = dcat[..., cr:]
    ddown_f, dgains = spectral.frequency_branch_bwd(dfr, c_fr)
    acc_grad(grads, f"{prefix}.gains_log", dgains * gains)
    ddown_s, dk = spatial_branch_bwd(dsp, c_sp)
    acc_grad(grads, f"{prefix}.dw_k", dk)
    dfmap = linear_grads(ddown_f + ddown_s, c_down, grads, f"{prefix}.down_w")
    dtokens = np.zeros((B, 1 + g * g, d), dtype=dres.dtype)
    dtokens[:, 1:, :] = dfmap.reshape(B, g * g, d)
    return dtokens
