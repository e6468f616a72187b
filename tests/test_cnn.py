"""Local-stream tests: stage shapes, alignment upsampler, linearity."""

import numpy as np
import pytest

from lgcn import cnn, vit
from lgcn.config import ModelConfig
from lgcn.params import draw


def test_toy_shape(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    fres, _ = cnn.cnn_forward(rng.random((2, 64, 64, 3)), params, cfg)
    assert fres.shape == (2, 4, 4, 96)


def test_paper_shape(rng):
    """Documentation test with random weights: 224x224x3 -> 7x7x1024."""
    cfg = ModelConfig.paper()
    params = draw(cnn.cnn_spec(cfg), rng)
    fres, _ = cnn.cnn_forward(rng.random((1, 224, 224, 3)), params, cfg)
    assert fres.shape == (1, 7, 7, 1024)


def test_zero_image_zero_bias_gives_zero_map(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    fres, _ = cnn.cnn_forward(np.zeros((1, 64, 64, 3)), params, cfg)
    np.testing.assert_array_equal(fres, 0.0)


def test_backward_without_image_gradient_keeps_weight_gradients(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    fres, cache = cnn.cnn_forward(rng.random((2, 64, 64, 3)), params, cfg)
    dy = rng.normal(size=fres.shape)
    full, limited = {}, {}
    assert cnn.cnn_backward(dy, cache, full).shape == (2, 64, 64, 3)
    dimg = cnn.cnn_backward(dy, cache, limited, image_grad=False)
    assert isinstance(dimg, np.ndarray) and dimg.size == 0
    assert list(limited) == list(full)
    for name in full:
        assert limited[name].tobytes() == full[name].tobytes()


def test_align_toy_trace(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    fres = rng.normal(size=(1, 4, 4, 96))
    out, cache = cnn.align_upsample(fres, params, cfg)
    assert out.shape == (1, 8, 8, 64)
    shapes = cnn.align_trace(cache)
    assert shapes[1][1:3] == (6, 6)   # intermediate resample
    assert shapes[2][1:3] == (6, 6)   # channel-mapping conv
    assert shapes[3][1:3] == (8, 8)   # final resample


def test_align_output_matches_vit_shape(rng):
    for cfg in (ModelConfig.toy(),
                ModelConfig(preset="toy", image_size=32, patch_size=8, embed_dim=16,
                            num_heads=2, depth=2, cnn_channels=8, cnn_grid=2, align_mid=3)):
        params = draw(cnn.cnn_spec(cfg), rng)
        vit_params = draw(vit.vit_spec(cfg), rng)
        image = rng.random((1, cfg.image_size, cfg.image_size, 3))
        fres, _ = cnn.cnn_forward(image, params, cfg)
        aligned, _ = cnn.align_upsample(fres, params, cfg)
        fvit, _ = vit.vit_forward(image, vit_params, cfg)
        assert aligned.shape == fvit.shape


def test_align_constant_preserved_through_identity_conv(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    d, c3 = cfg.embed_dim, cfg.cnn_channels
    w = np.zeros((d, c3, 3, 3))
    for i in range(d):
        w[i, i % c3, 1, 1] = 1.0  # center tap passes one matched channel through
    params["cnn.align.w"] = w
    params["cnn.align.b"] = np.zeros(d)
    fres = np.full((1, 4, 4, c3), 2.5)
    out, _ = cnn.align_upsample(fres, params, cfg)
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_align_linear_superposition_with_zero_bias(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    params["cnn.align.b"] = np.zeros(cfg.embed_dim)
    a = rng.normal(size=(1, 4, 4, 96))
    b = rng.normal(size=(1, 4, 4, 96))
    ya, _ = cnn.align_upsample(a, params, cfg)
    yb, _ = cnn.align_upsample(b, params, cfg)
    yab, _ = cnn.align_upsample(a + b, params, cfg)
    assert np.abs(yab - (ya + yb)).max() < 1e-9


def test_align_mid_must_sit_between_grids():
    with pytest.raises(Exception, match="align_mid"):
        ModelConfig(preset="toy", image_size=64, patch_size=8, embed_dim=64,
                    num_heads=4, depth=2, cnn_channels=96, cnn_grid=4, align_mid=12)


def test_stage_halving(rng):
    cfg = ModelConfig.toy()
    params = draw(cnn.cnn_spec(cfg), rng)
    from lgcn import ops
    x = rng.random((1, 64, 64, 3))
    s1, _ = ops.conv2d_fwd(x, params["cnn.stage1.w"], params["cnn.stage1.b"], stride=2, padding=1)
    assert s1.shape[1:3] == (32, 32)
    s2, _ = ops.conv2d_fwd(s1, params["cnn.stage2.w"], params["cnn.stage2.b"], stride=2, padding=1)
    assert s2.shape[1:3] == (16, 16)
    s3, _ = ops.conv2d_fwd(s2, params["cnn.stage3.w"], params["cnn.stage3.b"], stride=2, padding=1)
    assert s3.shape[1:3] == (8, 8)
