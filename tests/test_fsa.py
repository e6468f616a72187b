"""Adapter tests: branch behavior, no-op initialization, lightweightness."""

import math

import numpy as np
import pytest

from lgcn import fsa, ops, spectral, vit
from lgcn.config import ModelConfig
from lgcn.params import draw


def toy_cfg():
    return ModelConfig.toy()


def make_params(cfg, seed=0, randomize=True):
    gen = np.random.default_rng(seed)
    params = draw(fsa.fsa_spec(cfg, "fsa.block0"), gen)
    if randomize:
        params["fsa.block0.fuse_w"] = gen.normal(size=params["fsa.block0.fuse_w"].shape) * 0.3
        params["fsa.block0.gains_log"] = gen.normal(size=params["fsa.block0.gains_log"].shape) * 0.3
        params["fsa.block0.dw_k"] = gen.normal(size=params["fsa.block0.dw_k"].shape) * 0.5
    return params


def test_spatial_branch_identity_kernel_pre_activation(rng):
    cfg = toy_cfg()
    x = rng.normal(size=(8, 8, cfg.adapter_dim))
    k = np.zeros((cfg.adapter_dim, 3, 3))
    k[:, 1, 1] = 1.0
    (y,), _ = fsa.spatial_branch_fwd(x[None], k)
    np.testing.assert_allclose(y, ops.gelu_fwd(x)[0], atol=1e-12)


def test_spatial_branch_channel_separability(rng):
    cfg = toy_cfg()
    k = rng.normal(size=(cfg.adapter_dim, 3, 3))
    x = rng.normal(size=(8, 8, cfg.adapter_dim))
    (y0,), _ = fsa.spatial_branch_fwd(x[None], k)
    x2 = x.copy()
    x2[:, :, 0] += 1.0
    (y1,), _ = fsa.spatial_branch_fwd(x2[None], k)
    np.testing.assert_array_equal(y0[:, :, 1:], y1[:, :, 1:])


def test_spatial_branch_matches_composed_ops(rng):
    cfg = toy_cfg()
    k = rng.normal(size=(cfg.adapter_dim, 3, 3))
    x = rng.normal(size=(8, 8, cfg.adapter_dim))
    y, _ = fsa.spatial_branch_fwd(x[None], k)
    ref = ops.gelu_fwd(ops.depthwise_conv2d_fwd(x[None], k, padding=1)[0])[0]
    assert np.abs(y - ref).max() < 1e-12


def test_fsa_zero_fusion_projection_is_noop(rng):
    cfg = toy_cfg()
    params = draw(fsa.fsa_spec(cfg, "fsa.block0"), np.random.default_rng(1))
    tokens = rng.normal(size=(2, 65, 64))
    res, _ = fsa.fsa_forward(tokens, params, "fsa.block0", cfg)
    assert np.abs(res).max() == 0.0


def test_fsa_zero_scale_gates_everything(rng):
    cfg = toy_cfg()
    params = make_params(cfg)
    params["fsa.block0.scale"] = np.array(0.0)
    tokens = rng.normal(size=(1, 65, 64))
    res, _ = fsa.fsa_forward(tokens, params, "fsa.block0", cfg)
    assert np.abs(res).max() == 0.0


def test_fsa_class_token_residual_is_zero(rng):
    cfg = toy_cfg()
    params = make_params(cfg)
    tokens = rng.normal(size=(2, 65, 64))
    res, _ = fsa.fsa_forward(tokens, params, "fsa.block0", cfg)
    np.testing.assert_array_equal(res[:, 0, :], 0.0)
    assert np.abs(res[:, 1:, :]).max() > 0


def test_fsa_token_count_check(rng):
    cfg = toy_cfg()
    params = make_params(cfg)
    with pytest.raises(ops.ShapeError, match="token count"):
        fsa.fsa_forward(rng.normal(size=(1, 10, 64)), params, "fsa.block0", cfg)


def test_fsa_matches_hand_composed_pipeline(rng):
    """Composition oracle: rebuild the adapter out of the tested primitives."""
    cfg = toy_cfg()
    params = make_params(cfg)
    tokens = rng.normal(size=(2, 65, 64))
    res, _ = fsa.fsa_forward(tokens, params, "fsa.block0", cfg)

    g, d, cr = cfg.grid, cfg.embed_dim, cfg.adapter_dim
    fmap = tokens[:, 1:, :].reshape(2, g, g, d)
    down = fmap @ params["fsa.block0.down_w"]
    sp = ops.gelu_fwd(ops.depthwise_conv2d_fwd(down, params["fsa.block0.dw_k"], padding=1)[0])[0]
    gains = np.exp(params["fsa.block0.gains_log"])[spectral._bin_rows(g, g)].reshape(g, g, cr)
    fr = np.fft.ifft2(gains * np.fft.fft2(down, axes=(1, 2)), axes=(1, 2)).real
    fused = np.concatenate([sp, fr], axis=-1) @ params["fsa.block0.fuse_w"]
    expected = fused * params["fsa.block0.scale"]
    assert np.abs(res[:, 1:, :].reshape(2, g, g, d) - expected).max() < 1e-10


@pytest.mark.parametrize("preset", ["toy", "paper"])
def test_adapter_is_lightweight(preset):
    """Adapter params stay under 15% of its (adapter-bearing) block."""
    cfg = ModelConfig.from_preset(preset)
    adapter = sum(math.prod(shape) for _, shape, _ in fsa.fsa_spec(cfg, "fsa.block0"))
    block = sum(math.prod(shape) for name, shape, _ in vit.vit_spec(cfg)
                if name.startswith("vit.block0."))
    assert adapter / (block + adapter) < 0.15
