"""Descriptor head tests: regional pooling, batch attention, finalization."""

import numpy as np
import pytest

from lgcn import head, ops, vit
from lgcn.config import AblationFlags, ModelConfig
from lgcn.model import init_model, model_forward


def softplus(x):
    return np.logaddexp(0.0, x)


def make_head_params(channels=64, seed=0, random_out=False):
    gen = np.random.default_rng(seed)
    params = head.init_head_params(gen, channels)
    if random_out:
        params["head.attn.wo"] = gen.normal(size=(channels, channels)) * 0.3
    return params


def test_regional_pool_constant_map(rng):
    c = 1.2
    fmap = np.full((2, 8, 8, 5), c)
    pooled, _ = head.regional_pool_fwd(fmap)
    assert pooled.shape == (2, 4, 5)
    np.testing.assert_allclose(pooled, softplus(c), atol=1e-12)


def test_regional_pool_regions_differ_on_structured_map(rng):
    fmap = np.zeros((1, 8, 8, 1))
    fmap[0, :, :4, 0] = 3.0  # bright left half
    pooled, _ = head.regional_pool_fwd(fmap)
    left, right = pooled[0, 1, 0], pooled[0, 2, 0]
    assert left > right


def test_regional_pool_odd_grid_rejected(rng):
    with pytest.raises(ops.ShapeError):
        head.regional_pool_fwd(rng.normal(size=(1, 7, 7, 4)))


def test_cross_image_zero_projection_is_identity(rng):
    params = make_head_params(8)
    tokens = rng.normal(size=(1, 1, 8))
    out, _ = head.cross_image_correlate_fwd(tokens, params, n_heads=2, cross=True)
    np.testing.assert_array_equal(out, tokens)


def test_cross_image_duplicate_images_get_identical_outputs(rng):
    params = make_head_params(16, random_out=True)
    one = rng.normal(size=(1, 4, 16))
    batch = np.concatenate([one, one], axis=0)
    out, _ = head.cross_image_correlate_fwd(batch, params, n_heads=4, cross=True)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_cross_image_b2_matches_from_scratch_attention(rng):
    """Cross mode over B=2, R=4 equals one 8-token attention computation."""
    params = make_head_params(16, random_out=True)
    tokens = rng.normal(size=(2, 4, 16))
    out, _ = head.cross_image_correlate_fwd(tokens, params, n_heads=4, cross=True)

    seq = tokens.reshape(1, 8, 16)
    q, _ = ops.linear_fwd(seq, params["head.attn.wq"], params["head.attn.bq"])
    k, _ = ops.linear_fwd(seq, params["head.attn.wk"], params["head.attn.bk"])
    v, _ = ops.linear_fwd(seq, params["head.attn.wv"], params["head.attn.bv"])
    qh = vit._split_heads(q, 4)
    kh = vit._split_heads(k, 4)
    vh = vit._split_heads(v, 4)
    att, _ = ops.attention_fwd(qh, kh, vh)
    merged = vit._merge_heads(att)
    proj, _ = ops.linear_fwd(merged, params["head.attn.wo"], params["head.attn.bo"])
    ref = (seq + proj).reshape(2, 4, 16)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_per_image_mode_is_batch_composition_independent(rng):
    params = make_head_params(16, random_out=True)
    a = rng.normal(size=(1, 4, 16))
    b = rng.normal(size=(3, 4, 16))
    solo, _ = head.cross_image_correlate_fwd(a, params, n_heads=4, cross=False)
    packed, _ = head.cross_image_correlate_fwd(np.concatenate([a, b]), params,
                                               n_heads=4, cross=False)
    np.testing.assert_allclose(solo[0], packed[0], atol=1e-12)


def test_finalize_unit_norm_and_scale_invariance(rng):
    tokens = rng.normal(size=(3, 4, 16))
    desc, _ = head.finalize_fwd(tokens)
    assert desc.shape == (3, 64)
    np.testing.assert_allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-6)
    desc10, _ = head.finalize_fwd(tokens * 10)
    np.testing.assert_allclose(desc, desc10, atol=1e-9)


def test_finalize_cosine_of_identical_inputs_is_one(rng):
    tokens = rng.normal(size=(1, 4, 16))
    d1, _ = head.finalize_fwd(tokens)
    d2, _ = head.finalize_fwd(tokens.copy())
    assert abs(float(d1[0] @ d2[0]) - 1.0) < 1e-12


def test_finalize_zero_vector_raises():
    with pytest.raises(head.DegenerateDescriptorError, match="degenerate descriptor"):
        head.finalize_fwd(np.zeros((1, 4, 16)))


def test_inference_descriptor_independent_of_batch_size(rng):
    """B=1 vs B=4 inference paths agree with cross-image attention off."""
    cfg = ModelConfig.toy()
    params = init_model(cfg, AblationFlags(), seed=5)
    params["head.attn.wo"] = np.random.default_rng(9).normal(size=(64, 64)) * 0.2
    images = rng.random((4, 64, 64, 3))
    batched, _ = model_forward(images, params, cfg)
    for i in range(4):
        solo, _ = model_forward(images[i:i + 1], params, cfg)
        assert np.abs(solo[0] - batched[i]).max() <= 1e-9
