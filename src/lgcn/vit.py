"""Vision-transformer stream: patch embedding and pre-norm attention blocks.

Block layout: x <- x + MHSA(LN1(x)), then the feedforward and the adapter
read the same LN2 output in parallel: x <- x + FFN(LN2(x)) + FSA(LN2(x)).
Dropping the class token and reshaping the patch tokens yields the G x G x D
feature map consumed by the fusion stage.
"""

from __future__ import annotations

import numpy as np

from . import fsa, ops
from .params import acc_grad, normal_init, ones, zeros

FFN_RATIO = 4


def init_vit_params(cfg, rng) -> dict:
    d = cfg.embed_dim
    g = cfg.grid
    patch_in = cfg.patch_size * cfg.patch_size * 3
    # Patch projection init is deliberately strong: the backbone stays frozen
    # and random at desk scale, so the image-dependent component has to
    # dominate the (image-independent) positional embeddings.
    p = {
        "vit.patch.proj_w": normal_init(rng, (patch_in, d), std=0.24),
        "vit.patch.proj_b": zeros((d,)),
        "vit.patch.pos": normal_init(rng, (g * g, d)),
        "vit.patch.cls": normal_init(rng, (d,)),
    }
    for i in range(cfg.depth):
        pre = f"vit.block{i}"
        p[f"{pre}.ln1.g"] = ones((d,))
        p[f"{pre}.ln1.b"] = zeros((d,))
        for proj in ("wq", "wk", "wv", "wo"):
            p[f"{pre}.attn.{proj}"] = normal_init(rng, (d, d))
        for bias in ("bq", "bk", "bv", "bo"):
            p[f"{pre}.attn.{bias}"] = zeros((d,))
        p[f"{pre}.ln2.g"] = ones((d,))
        p[f"{pre}.ln2.b"] = zeros((d,))
        p[f"{pre}.ffn.w1"] = normal_init(rng, (d, FFN_RATIO * d))
        p[f"{pre}.ffn.b1"] = zeros((FFN_RATIO * d,))
        p[f"{pre}.ffn.w2"] = normal_init(rng, (FFN_RATIO * d, d))
        p[f"{pre}.ffn.b2"] = zeros((d,))
    return p


def block_param_count(cfg) -> int:
    d = cfg.embed_dim
    return 2 * (2 * d) + 4 * (d * d + d) + d * 4 * d + 4 * d + 4 * d * d + d


def patch_embed_fwd(images, params, cfg):
    """Split the image into P x P patches, project, add position, prepend class.

    images: (B, S, S, 3) in [0, 1] (or a single unbatched image).
    Output: (B, 1 + G^2, D), or (1 + G^2, D) for an unbatched input.
    """
    imb, had_batch = ops._batched(images)
    B, H, W, C = imb.shape
    if (H, W, C) != (cfg.image_size, cfg.image_size, 3):
        raise ops.ShapeError(
            f"patch_embed: image {H}x{W}x{C} does not match config "
            f"{cfg.image_size}x{cfg.image_size}x3")
    g, p = cfg.grid, cfg.patch_size
    patches = imb.reshape(B, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5).reshape(B, g * g, p * p * 3)
    proj, c_lin = ops.linear_fwd(patches, params["vit.patch.proj_w"], params["vit.patch.proj_b"])
    tok = proj + params["vit.patch.pos"]
    cls = np.broadcast_to(params["vit.patch.cls"], (B, 1, cfg.embed_dim))
    tokens = np.concatenate([cls, tok], axis=1)
    cache = (c_lin, (B, g, p), had_batch)
    return (tokens if had_batch else tokens[0]), cache


def patch_embed_bwd(dtokens, cache, grads):
    c_lin, (B, g, p), had_batch = cache
    if dtokens.ndim == 2:
        dtokens = dtokens[None]
    dcls = dtokens[:, 0, :].sum(axis=0)
    dtok = dtokens[:, 1:, :]
    acc_grad(grads, "vit.patch.cls", dcls)
    acc_grad(grads, "vit.patch.pos", dtok.sum(axis=0))
    dpatches, dw, db = ops.linear_bwd(dtok, c_lin)
    acc_grad(grads, "vit.patch.proj_w", dw)
    acc_grad(grads, "vit.patch.proj_b", db)
    dimages = dpatches.reshape(B, g, g, p, p, 3).transpose(0, 1, 3, 2, 4, 5).reshape(B, g * p, g * p, 3)
    return dimages if had_batch else dimages[0]


def _split_heads(x, n_heads):
    B, n, d = x.shape
    return x.reshape(B, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, h, n, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, h * dk)


def mhsa_fwd(x, params, prefix, n_heads):
    """Multi-head self-attention with an output projection."""
    q, cq = ops.linear_fwd(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k, ck = ops.linear_fwd(x, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    v, cv = ops.linear_fwd(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    oh, c_att = ops.attention_fwd(qh, kh, vh)
    merged = _merge_heads(oh)
    out, co = ops.linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, (cq, ck, cv, c_att, co, n_heads, prefix)


def mhsa_bwd(dy, cache, grads):
    cq, ck, cv, c_att, co, n_heads, prefix = cache
    dmerged, dwo, dbo = ops.linear_bwd(dy, co)
    acc_grad(grads, f"{prefix}.wo", dwo)
    acc_grad(grads, f"{prefix}.bo", dbo)
    doh = _split_heads(dmerged, n_heads)
    dqh, dkh, dvh = ops.attention_bwd(doh, c_att)
    dx = np.zeros_like(dy)
    for dh, clin, wname, bname in ((dqh, cq, "wq", "bq"), (dkh, ck, "wk", "bk"), (dvh, cv, "wv", "bv")):
        dt, dw, db = ops.linear_bwd(_merge_heads(dh), clin)
        acc_grad(grads, f"{prefix}.{wname}", dw)
        acc_grad(grads, f"{prefix}.{bname}", db)
        dx = dx + dt
    return dx


def ffn_fwd(x, params, prefix):
    h1, c1 = ops.linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    a1, ca = ops.gelu_fwd(h1)
    y, c2 = ops.linear_fwd(a1, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y, (c1, ca, c2, prefix)


def ffn_bwd(dy, cache, grads):
    c1, ca, c2, prefix = cache
    da1, dw2, db2 = ops.linear_bwd(dy, c2)
    acc_grad(grads, f"{prefix}.w2", dw2)
    acc_grad(grads, f"{prefix}.b2", db2)
    dh1 = ops.gelu_bwd(da1, ca)
    dx, dw1, db1 = ops.linear_bwd(dh1, c1)
    acc_grad(grads, f"{prefix}.w1", dw1)
    acc_grad(grads, f"{prefix}.b1", db1)
    return dx


def vit_block_fwd(x, params, prefix, cfg, adapter_prefix=None):
    h1, c_ln1 = ops.layernorm_fwd(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    att, c_att = mhsa_fwd(h1, params, f"{prefix}.attn", cfg.num_heads)
    x2 = x + att
    h2, c_ln2 = ops.layernorm_fwd(x2, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    ff, c_ffn = ffn_fwd(h2, params, f"{prefix}.ffn")
    if adapter_prefix is not None:
        ad, c_fsa = fsa.fsa_forward(h2, params, adapter_prefix, cfg)
        y = x2 + ff + ad
    else:
        c_fsa = None
        y = x2 + ff
    return y, (c_ln1, c_att, c_ln2, c_ffn, c_fsa, prefix)


def vit_block_bwd(dy, cache, params, grads):
    c_ln1, c_att, c_ln2, c_ffn, c_fsa, prefix = cache
    dh2 = ffn_bwd(dy, c_ffn, grads)
    if c_fsa is not None:
        dh2 = dh2 + fsa.fsa_backward(dy, c_fsa, params, grads)
    dx2, dg2, db2 = ops.layernorm_bwd(dh2, c_ln2)
    acc_grad(grads, f"{prefix}.ln2.g", dg2)
    acc_grad(grads, f"{prefix}.ln2.b", db2)
    dx2 = dx2 + dy
    dh1 = mhsa_bwd(dx2, c_att, grads)
    dx, dg1, db1 = ops.layernorm_bwd(dh1, c_ln1)
    acc_grad(grads, f"{prefix}.ln1.g", dg1)
    acc_grad(grads, f"{prefix}.ln1.b", db1)
    return dx + dx2


def vit_forward(images, params, cfg):
    """Run the transformer stream; returns the patch-token map (B, G, G, D).

    Block i runs its adapter when the fsa.block{i} group is in params.
    """
    tokens, c_embed = patch_embed_fwd(images, params, cfg)
    block_caches = []
    for i in range(cfg.depth):
        adapter = f"fsa.block{i}" if f"fsa.block{i}.scale" in params else None
        tokens, c_blk = vit_block_fwd(tokens, params, f"vit.block{i}", cfg, adapter)
        block_caches.append(c_blk)
    B = tokens.shape[0]
    g, d = cfg.grid, cfg.embed_dim
    fmap = tokens[:, 1:, :].reshape(B, g, g, d)
    return fmap, (c_embed, block_caches, (B, g, d))


def vit_backward(dfmap, cache, params, grads):
    c_embed, block_caches, (B, g, d) = cache
    dtokens = np.zeros((B, 1 + g * g, d), dtype=dfmap.dtype)
    dtokens[:, 1:, :] = dfmap.reshape(B, g * g, d)
    for c_blk in reversed(block_caches):
        dtokens = vit_block_bwd(dtokens, c_blk, params, grads)
    return patch_embed_bwd(dtokens, c_embed, grads)
