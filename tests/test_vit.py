"""Transformer-stream tests: patch embedding, attention, block wiring."""

import numpy as np
import pytest

from lgcn import fsa, ops, vit
from lgcn.config import ModelConfig
from lgcn.params import normal_init


def toy_cfg():
    return ModelConfig.toy()


def test_patch_embed_toy_token_count(rng):
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    image = rng.random((64, 64, 3))
    tokens, _ = vit.patch_embed_fwd(image, params, cfg)
    assert tokens.shape == (65, 64)  # 8^2 patches + class token


def test_patch_embed_paper_shape(rng):
    """Full-size dims: 224x224x3 -> 257x768 on a 16x16 patch grid."""
    cfg = ModelConfig.paper()
    assert cfg.grid == 16
    patch_in = cfg.patch_size * cfg.patch_size * 3
    params = {
        "vit.patch.proj_w": normal_init(rng, (patch_in, cfg.embed_dim)),
        "vit.patch.proj_b": np.zeros(cfg.embed_dim),
        "vit.patch.pos": normal_init(rng, (cfg.grid ** 2, cfg.embed_dim)),
        "vit.patch.cls": normal_init(rng, (cfg.embed_dim,)),
    }
    tokens, _ = vit.patch_embed_fwd(rng.random((224, 224, 3)), params, cfg)
    assert tokens.shape == (257, 768)


def test_patch_embed_zero_image_gives_positional_embeddings(rng):
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    params["vit.patch.proj_w"] = np.zeros_like(params["vit.patch.proj_w"])
    tokens, _ = vit.patch_embed_fwd(np.zeros((64, 64, 3)), params, cfg)
    np.testing.assert_array_equal(tokens[1:], params["vit.patch.pos"])
    np.testing.assert_array_equal(tokens[0], params["vit.patch.cls"])


def test_patch_embed_size_mismatch(rng):
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    with pytest.raises(ops.ShapeError):
        vit.patch_embed_fwd(rng.random((32, 32, 3)), params, cfg)


def test_patch_flatten_reshape_roundtrip(rng):
    """Dropping the class token and reshaping is the exact flatten inverse."""
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    image = rng.random((1, 64, 64, 3))
    fmap, _ = vit.vit_forward(image, params, cfg)
    g, d = cfg.grid, cfg.embed_dim
    flat = fmap.reshape(1, g * g, d)
    np.testing.assert_array_equal(flat.reshape(1, g, g, d), fmap)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_token_returns_v(rng):
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 6))
    out, _ = ops.attention_fwd(q, k, v)
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_attention_identical_keys_average_values(rng):
    q = rng.normal(size=(3, 4))
    k = np.tile(rng.normal(size=(1, 4)), (3, 1))
    v = rng.normal(size=(3, 5))
    out, _ = ops.attention_fwd(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)


def test_attention_three_term_softmax_oracle(rng):
    q = rng.normal(size=(3, 2))
    k = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    out, _ = ops.attention_fwd(q, k, v)
    for i in range(3):
        scores = [float(q[i] @ k[j]) / np.sqrt(2.0) for j in range(3)]
        e = np.exp(scores - max(scores))
        alpha = e / e.sum()
        ref = sum(alpha[j] * v[j] for j in range(3))
        np.testing.assert_allclose(out[i], ref, atol=1e-12)


def test_attention_rows_sum_to_one_in_blocks(rng):
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    x = rng.normal(size=(2, 65, 64))
    q, _ = ops.linear_fwd(x, params["vit.block0.attn.wq"], params["vit.block0.attn.bq"])
    k, _ = ops.linear_fwd(x, params["vit.block0.attn.wk"], params["vit.block0.attn.bk"])
    qh = vit._split_heads(q, cfg.num_heads)
    kh = vit._split_heads(k, cfg.num_heads)
    scores = (qh @ np.swapaxes(kh, -1, -2)) / np.sqrt(cfg.head_dim)
    attn, _ = ops.softmax_fwd(scores, axis=-1)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# block / full stream
# ---------------------------------------------------------------------------

def test_vit_forward_toy_shape(rng):
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    fmap, _ = vit.vit_forward(rng.random((2, 64, 64, 3)), params, cfg)
    assert fmap.shape == (2, 8, 8, 64)


def test_zero_adapter_projection_is_bit_identical(rng):
    """Freshly initialized adapters (zero fusion projection) change nothing."""
    cfg = toy_cfg()
    gen = np.random.default_rng(7)
    params = vit.init_vit_params(cfg, gen)
    for i in range(cfg.depth):
        params.update(fsa.init_fsa_params(cfg, gen, f"fsa.block{i}"))
    image = rng.random((1, 64, 64, 3))
    with_adapters, _ = vit.vit_forward(image, params, cfg)
    vit_params = {n: v for n, v in params.items() if not n.startswith("fsa.")}
    without, _ = vit.vit_forward(image, vit_params, cfg)
    np.testing.assert_array_equal(with_adapters, without)


def test_permutation_equivariance_with_matching_positions(rng):
    """Permute patches and positional rows together: output permutes along."""
    cfg = toy_cfg()
    params = vit.init_vit_params(cfg, rng)
    g, p, d = cfg.grid, cfg.patch_size, cfg.embed_dim
    image = rng.random((64, 64, 3))
    perm = rng.permutation(g * g)

    patches = image.reshape(g, p, g, p, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, p, p, 3)
    shuffled = patches[perm].reshape(g, g, p, p, 3).transpose(0, 2, 1, 3, 4).reshape(64, 64, 3)

    params2 = dict(params)
    params2["vit.patch.pos"] = params["vit.patch.pos"][perm]

    out1, _ = vit.vit_forward(image[None], params, cfg)
    out2, _ = vit.vit_forward(shuffled[None], params2, cfg)
    flat1 = out1.reshape(g * g, d)
    flat2 = out2.reshape(g * g, d)
    assert np.abs(flat2 - flat1[perm]).max() < 1e-9
