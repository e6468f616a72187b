"""Assembled-model tests: fusion variants, descriptor batching, heatmaps."""

import numpy as np
import pytest

from lgcn.config import AblationFlags, ModelConfig
from lgcn.heatmap import export_heatmaps, response_scalar
from lgcn.model import (compute_descriptors, descriptor_dim, fusion_of, init_model,
                        model_forward, stream_maps)
from lgcn.ppm import read_ppm


def tiny_cfg():
    return ModelConfig(preset="toy", image_size=32, patch_size=8, embed_dim=16,
                       num_heads=2, depth=2, cnn_channels=8, cnn_grid=2, align_mid=3)


@pytest.mark.parametrize("ablation,expected_fusion,dim_factor", [
    (AblationFlags(), "dfm", 4),
    (AblationFlags(disable_fsa=True), "dfm", 4),
    (AblationFlags(disable_cnn_stream=True), "vit-only", 4),
    (AblationFlags(disable_fsa=True, disable_dfm=True), "concat", 8),
])
def test_fusion_variants_produce_unit_descriptors(rng, ablation, expected_fusion, dim_factor):
    cfg = tiny_cfg()
    params = init_model(cfg, ablation, seed=0)
    assert fusion_of(params) == expected_fusion
    images = rng.random((3, 32, 32, 3))
    desc, tape = model_forward(images, params, cfg)
    assert tape.fusion == expected_fusion
    assert desc.shape == (3, dim_factor * cfg.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-9)
    assert desc.shape[1] == descriptor_dim(params)


def test_param_groups_match_ablation():
    cfg = tiny_cfg()
    full = init_model(cfg, AblationFlags(), seed=0)
    assert any(k.startswith("fsa.") for k in full)
    assert any(k.startswith("cnn.") for k in full)
    assert any(k.startswith("dfm.") for k in full)
    base = init_model(cfg, AblationFlags(disable_fsa=True, disable_cnn_stream=True), seed=0)
    assert not any(k.startswith(("fsa.", "cnn.", "dfm.")) for k in base)
    concat = init_model(cfg, AblationFlags(disable_fsa=True, disable_dfm=True), seed=0)
    assert not any(k.startswith("dfm.") for k in concat)
    assert concat["head.attn.wq"].shape == (32, 32)  # doubled channels


def test_init_deterministic():
    cfg = tiny_cfg()
    a = init_model(cfg, AblationFlags(), seed=11)
    b = init_model(cfg, AblationFlags(), seed=11)
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_sum_fusion_differs_from_dfm(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=1)
    images = rng.random((2, 32, 32, 3))
    summed = {n: v for n, v in params.items() if not n.startswith("dfm.")}
    assert fusion_of(summed) == "sum"
    d1, _ = model_forward(images, params, cfg)
    d2, _ = model_forward(images, summed, cfg)
    assert np.abs(d1 - d2).max() > 1e-9


def test_compute_descriptors_batching_consistent(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=2)
    images = rng.random((9, 32, 32, 3))
    one = compute_descriptors(images, params, cfg, batch_size=64)
    many = compute_descriptors(images, params, cfg, batch_size=2)
    np.testing.assert_allclose(one, many, atol=1e-12)


def test_compute_descriptors_threaded_matches(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=2)
    images = rng.random((8, 32, 32, 3))
    st = compute_descriptors(images, params, cfg, batch_size=2, threads=1)
    mt = compute_descriptors(images, params, cfg, batch_size=2, threads=2)
    np.testing.assert_array_equal(st, mt)


def test_stream_maps_names(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=3)
    maps = stream_maps(rng.random((32, 32, 3)), params, cfg)
    assert set(maps) == {"fvit", "fres", "omega", "fused"}
    g = cfg.grid
    for m in maps.values():
        assert m.shape[:2] == (g, g)
    assert (maps["omega"] > 0).all() and (maps["omega"] < 1).all()
    vit_params = {n: v for n, v in params.items() if not n.startswith(("cnn.", "dfm."))}
    vit_only = stream_maps(rng.random((32, 32, 3)), vit_params, cfg)
    assert set(vit_only) == {"fvit", "fused"}


def test_response_scalar_ranges(rng):
    fmap = rng.normal(size=(4, 4, 8))
    s = response_scalar("fvit", fmap)
    assert s.min() == 0.0 and s.max() == 1.0
    flat = response_scalar("fvit", np.ones((4, 4, 8)))
    np.testing.assert_array_equal(flat, 0.0)
    omega = response_scalar("omega", np.full((4, 4, 8), 0.25))
    np.testing.assert_allclose(omega, 0.25)


def test_export_heatmaps_writes_ppms(tmp_path, rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=4)
    image = rng.random((32, 32, 3))
    written = export_heatmaps(image, params, cfg, tmp_path)
    assert set(written) == {"fvit", "fres", "omega", "fused"}
    for path in written.values():
        img = read_ppm(path)
        assert img.shape == (32, 32, 3)  # grid upscaled back to image size
