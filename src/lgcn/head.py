"""Descriptor head: regional GeM pooling, batch attention, L2 finalization.

Four regions are pooled from the fused map (whole map, left half, right
half, center crop), each with a generalized mean. One attention layer then
lets region tokens exchange information: across the whole batch during
training, strictly within each image at inference, so retrieval never
depends on which other images shared a batch. Concatenating the region
vectors and normalizing yields the global descriptor.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .params import ZEROS, normal
from .vit import mhsa_bwd, mhsa_fwd

GEM_P = 3.0
NUM_REGIONS = 4


class DegenerateDescriptorError(ValueError):
    """Raised when a descriptor would be the zero vector."""


def head_spec(channels: int) -> list:
    return [
        *((f"head.attn.{proj}", (channels, channels), normal()) for proj in ("wq", "wk", "wv")),
        ("head.attn.wo", (channels, channels), ZEROS),  # attention is a no-op at init
        *((f"head.attn.{bias}", (channels,), ZEROS) for bias in ("bq", "bk", "bv", "bo")),
    ]


def _region_slices(g: int):
    half = g // 2
    start = (g - half) // 2
    return (
        (slice(None), slice(None)),                      # whole map
        (slice(None), slice(0, half)),                   # left half
        (slice(None), slice(half, g)),                   # right half
        (slice(start, start + half), slice(start, start + half)),  # center crop
    )


def regional_pool_fwd(fmap):
    """(B, G, G, C) -> one GeM vector per region, stacked as (B, R, C)."""
    B, g, g2, c = fmap.shape
    if g != g2 or g % 2 != 0:
        raise ops.ShapeError(f"regional_pool: map must be square with even side, got {g}x{g2}")
    return ops.gem_pool_fwd(fmap, _region_slices(g), p=GEM_P)


def cross_image_correlate_fwd(tokens, params, n_heads, cross: bool):
    """Residual attention over region tokens.

    cross=True joins all B*R tokens in one sequence so images inform each
    other (training); cross=False keeps each image's R tokens separate
    (inference), which makes the result batch-composition independent.
    """
    B, r, c = tokens.shape
    seq = tokens.reshape(1, B * r, c) if cross else tokens
    att, c_att = mhsa_fwd(seq, params, "head.attn", n_heads)
    out = (seq + att).reshape(B, r, c)
    return out, (c_att, cross, tokens.shape)


def cross_image_correlate_bwd(dy, cache, grads):
    c_att, cross, shape = cache
    B, r, c = shape
    dseq = dy.reshape(1, B * r, c) if cross else dy
    dtok = mhsa_bwd(dseq, c_att, grads) + dseq
    return dtok.reshape(B, r, c)


def finalize_fwd(tokens):
    """Concatenate region vectors and L2-normalize to the unit sphere."""
    B, r, c = tokens.shape
    flat = tokens.reshape(B, r * c)
    norms = np.sqrt((flat ** 2).sum(axis=1))
    if np.any(norms == 0.0):
        raise DegenerateDescriptorError("degenerate descriptor: zero vector before normalization")
    desc, c_norm = ops.l2_normalize_fwd(flat, axis=-1)
    return desc, (c_norm, (B, r, c))


def finalize_bwd(ddesc, cache):
    c_norm, (B, r, c) = cache
    dflat = ops.l2_normalize_bwd(ddesc, c_norm)
    return dflat.reshape(B, r, c)


def head_forward(fmap, params, n_heads, cross: bool):
    pooled, c_pool = regional_pool_fwd(fmap)
    corr, c_corr = cross_image_correlate_fwd(pooled, params, n_heads, cross)
    desc, c_fin = finalize_fwd(corr)
    return desc, (c_pool, c_corr, c_fin)


def head_backward(ddesc, cache, grads):
    c_pool, c_corr, c_fin = cache
    dcorr = finalize_bwd(ddesc, c_fin)
    dpooled = cross_image_correlate_bwd(dcorr, c_corr, grads)
    return ops.gem_pool_bwd(dpooled, c_pool)
