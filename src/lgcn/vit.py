"""Vision-transformer stream: patch embedding and pre-norm attention blocks.

Block layout: x <- x + MHSA(LN1(x)), then the feedforward and the adapter
read the same LN2 output in parallel: x <- x + FFN(LN2(x)) + FSA(LN2(x)).
The block is the frozen path alone: vit_forward adds each adapter's residual
and keeps the caches. Dropping the class token and reshaping the patch
tokens yields the G x G x D feature map consumed by the fusion stage.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import fsa, ops
from .params import ONES, ZEROS, acc_grad, linear_grads, normal

FFN_RATIO = 4


def vit_spec(cfg):
    """The backbone's (name, shape, initialiser) entries, made as they are read."""
    d, g, h = cfg.embed_dim, cfg.grid, FFN_RATIO * cfg.embed_dim
    # Patch projection init is deliberately strong: the backbone stays frozen
    # and random at desk scale, so the image-dependent component has to
    # dominate the (image-independent) positional embeddings.
    patch = [("vit.patch.proj_w", (cfg.patch_size * cfg.patch_size * 3, d), normal(0.24)),
             ("vit.patch.proj_b", (d,), ZEROS),
             ("vit.patch.pos", (g * g, d), normal()),
             ("vit.patch.cls", (d,), normal())]
    block = [("ln1.g", (d,), ONES), ("ln1.b", (d,), ZEROS),
             *((f"attn.{proj}", (d, d), normal()) for proj in ("wq", "wk", "wv", "wo")),
             # no key bias: it shifts all of a query's scores alike, which the softmax ignores
             *((f"attn.{bias}", (d,), ZEROS) for bias in ("bq", "bv", "bo")),
             ("ln2.g", (d,), ONES), ("ln2.b", (d,), ZEROS),
             ("ffn.w1", (d, h), normal()), ("ffn.b1", (h,), ZEROS),
             ("ffn.w2", (h, d), normal()), ("ffn.b2", (d,), ZEROS)]
    return itertools.chain(patch, ((f"vit.block{i}.{name}", shape, init)
                                   for i in range(cfg.depth) for name, shape, init in block))


def patch_embed_fwd(images, params, cfg):
    """Split the image into P x P patches, project, add position, prepend class.

    images: (B, S, S, 3) in [0, 1]. Output: (B, 1 + G^2, D).
    """
    ops._check_map(images, "patch_embed")
    B, H, W, C = images.shape
    if (H, W, C) != (cfg.image_size, cfg.image_size, 3):
        raise ops.ShapeError(
            f"patch_embed: image {H}x{W}x{C} does not match config "
            f"{cfg.image_size}x{cfg.image_size}x3")
    g, p = cfg.grid, cfg.patch_size
    patches = images.reshape(B, g, p, g, p, 3).transpose(0, 1, 3, 2, 4, 5).reshape(B, g * g, p * p * 3)
    proj, c_lin = ops.linear_fwd(patches, params["vit.patch.proj_w"], params["vit.patch.proj_b"])
    tok = proj + params["vit.patch.pos"]
    cls = np.broadcast_to(params["vit.patch.cls"], (B, 1, cfg.embed_dim))
    tokens = np.concatenate([cls, tok], axis=1)
    return tokens, (c_lin, (B, g, p))


def patch_embed_bwd(dtokens, cache, grads, image_grad=True):
    """The patch weights' gradients into grads; returns the image gradient, or an empty array."""
    c_lin, (B, g, p) = cache
    dtok = dtokens[:, 1:, :]
    acc_grad(grads, "vit.patch.cls", dtokens[:, 0, :].sum(axis=0))
    acc_grad(grads, "vit.patch.pos", dtok.sum(axis=0))
    dpatches = linear_grads(dtok, c_lin, grads, "vit.patch.proj_w", "vit.patch.proj_b",
                            inputs=image_grad)
    if dpatches is None:
        return np.empty(0)
    return dpatches.reshape(B, g, g, p, p, 3).transpose(0, 1, 3, 2, 4, 5).reshape(B, g * p, g * p, 3)


def _layernorm_bwd(dy, cache, grads, prefix, weights):
    dx, dg, db = ops.layernorm_bwd(dy, cache, weights)
    if weights:
        acc_grad(grads, f"{prefix}.g", dg)
        acc_grad(grads, f"{prefix}.b", db)
    return dx


def _split_heads(x, n_heads):
    B, n, d = x.shape
    return x.reshape(B, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, h, n, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, h * dk)


def mhsa_fwd(x, params, prefix, n_heads, keep=True):
    """Multi-head self-attention with an output projection; keep=False returns no cache."""
    q, cq = ops.linear_fwd(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k, ck = ops.linear_fwd(x, params[f"{prefix}.wk"])
    v, cv = ops.linear_fwd(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    oh, c_att = ops.attention_fwd(qh, kh, vh)
    merged = _merge_heads(oh)
    out, co = ops.linear_fwd(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return out, ((cq, ck, cv, c_att, co, n_heads, prefix) if keep else None)


def mhsa_bwd(dy, cache, grads, weights=True):
    cq, ck, cv, c_att, co, n_heads, prefix = cache
    dmerged = linear_grads(dy, co, grads, f"{prefix}.wo", f"{prefix}.bo", weights)
    doh = _split_heads(dmerged, n_heads)
    dqh, dkh, dvh = ops.attention_bwd(doh, c_att)
    dx = np.zeros_like(dy)
    for dh, clin, proj in ((dqh, cq, "q"), (dkh, ck, "k"), (dvh, cv, "v")):
        dx = dx + linear_grads(_merge_heads(dh), clin, grads, f"{prefix}.w{proj}",
                               f"{prefix}.b{proj}", weights)
    return dx


def ffn_fwd(x, params, prefix, keep=True):
    h1, c1 = ops.linear_fwd(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    a1, ca = ops.gelu_fwd(h1)
    y, c2 = ops.linear_fwd(a1, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return y, ((c1, ca, c2, prefix) if keep else None)


def ffn_bwd(dy, cache, grads, weights=True):
    c1, ca, c2, prefix = cache
    da1 = linear_grads(dy, c2, grads, f"{prefix}.w2", f"{prefix}.b2", weights)
    dh1 = ops.gelu_bwd(da1, ca)
    return linear_grads(dh1, c1, grads, f"{prefix}.w1", f"{prefix}.b1", weights)


def vit_block_fwd(x, params, prefix, cfg, keep: bool):
    """The frozen block: (x2 + FFN(LN2(x2)), LN2(x2), cache), x2 = x + MHSA(LN1(x)).

    The caller adds the adapter's residual, read from LN2(x2). keep=False
    returns no cache.
    """
    h1, c_ln1 = ops.layernorm_fwd(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    att, c_att = mhsa_fwd(h1, params, f"{prefix}.attn", cfg.num_heads, keep)
    x2 = x + att
    h2, c_ln2 = ops.layernorm_fwd(x2, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    ff, c_ffn = ffn_fwd(h2, params, f"{prefix}.ffn", keep)
    return x2 + ff, h2, ((c_ln1, c_att, c_ln2, c_ffn, prefix) if keep else None)


def vit_block_bwd(dy, cache, grads, weights=True, dh2=None):
    """Input gradient of a block; dh2 is the adapter's gradient at LN2(x2), if any.

    weights=False leaves the block's vit.* weights without gradients.
    """
    c_ln1, c_att, c_ln2, c_ffn, prefix = cache
    dffn = ffn_bwd(dy, c_ffn, grads, weights)
    if dh2 is not None:
        dffn = dffn + dh2
    dx2 = _layernorm_bwd(dffn, c_ln2, grads, f"{prefix}.ln2", weights) + dy
    dh1 = mhsa_bwd(dx2, c_att, grads, weights)
    return _layernorm_bwd(dh1, c_ln1, grads, f"{prefix}.ln1", weights) + dx2


def vit_prefix(images, params, cfg):
    """The image-only part of vit_forward under a frozen backbone, one row per image.

    The patch embedding and each block's frozen path up to the first block
    with an adapter, whose (x2 + FFN(LN2(x2)), LN2(x2)) it stacks as
    (B, 2, 1 + G^2, D); without adapters, the whole stream's (B, G, G, D) map.
    """
    adapters = [i for i in range(cfg.depth) if f"fsa.block{i}.scale" in params]
    if not adapters:
        return vit_forward(images, params, cfg, tape=False)[0]
    tokens, _ = patch_embed_fwd(images, params, cfg)
    for i in range(adapters[0] + 1):
        tokens, h2, _ = vit_block_fwd(tokens, params, f"vit.block{i}", cfg, keep=False)
    return np.stack([tokens, h2], axis=1)


def vit_forward(images, params, cfg, tape=True, backbone=True, prefix=None):
    """Run the transformer stream; returns the patch-token map (B, G, G, D).

    Block i adds its fsa.block{i} adapter's residual, if params hold one, as
    (x2 + FFN(LN2(x2))) + FSA(LN2(x2)). tape=False keeps no cache. A tape
    for a training backbone keeps every cache. One for a frozen backbone
    (backbone=False) keeps each adapter's cache and a block's frozen-path
    cache only above an adapter, whose gradient crosses the block; the
    patch embedding keeps none. prefix, the images' vit_prefix, stands in
    for the work it covers, so it needs a frozen backbone.
    """
    if prefix is not None and tape and backbone:
        raise ValueError("vit_forward: a prefix holds no cache for a training backbone")
    g, d = cfg.grid, cfg.embed_dim
    adapters = [i for i in range(cfg.depth) if f"fsa.block{i}.scale" in params]
    if prefix is None:
        tokens, c_embed = patch_embed_fwd(images, params, cfg)
    elif not adapters:
        return prefix, (None, [(None, None)] * cfg.depth, (prefix.shape[0], g, d))
    block_caches = []
    above_adapter = False
    for i in range(cfg.depth):
        keep = tape and (backbone or above_adapter)
        if prefix is not None and i <= adapters[0]:
            tokens, h2, c_blk = prefix[:, 0], prefix[:, 1], None
        else:
            tokens, h2, c_blk = vit_block_fwd(tokens, params, f"vit.block{i}", cfg, keep)
        c_fsa = None
        if i in adapters:
            ad, c_fsa = fsa.fsa_forward(h2, params, f"fsa.block{i}", cfg)
            tokens = tokens + ad
            above_adapter = True
        block_caches.append((c_blk, c_fsa if tape else None))
    B = tokens.shape[0]
    fmap = tokens[:, 1:, :].reshape(B, g, g, d)
    return fmap, (c_embed if tape and backbone else None, block_caches, (B, g, d))


def vit_backward(dfmap, cache, params, grads, image_grad=True):
    """Backpropagate the map gradient into grads; returns the image gradient.

    Top down, each kept adapter's backward runs, then its block's; the first
    block without a frozen-path cache ends the blocks. vit.* weights get
    gradients only on a tape that holds the patch-embedding cache (a
    training backbone). An empty array stands in for the image gradient
    without that cache or with image_grad=False.
    """
    c_embed, block_caches, (B, g, d) = cache
    weights = c_embed is not None
    dtokens = np.zeros((B, 1 + g * g, d), dtype=dfmap.dtype)
    dtokens[:, 1:, :] = dfmap.reshape(B, g * g, d)
    for c_blk, c_fsa in reversed(block_caches):
        dh2 = None if c_fsa is None else fsa.fsa_backward(dtokens, c_fsa, params, grads)
        if c_blk is None:
            break
        dtokens = vit_block_bwd(dtokens, c_blk, grads, weights, dh2)
    return patch_embed_bwd(dtokens, c_embed, grads, image_grad) if weights else np.empty(0)
