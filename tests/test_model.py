"""Assembled-model tests: fusion variants, descriptor batching, heatmaps."""

import math

import numpy as np
import pytest

from lgcn.checkpoint import group_sha256
from lgcn.config import AblationFlags, ModelConfig
from lgcn.heatmap import export_heatmaps, response_scalar
from lgcn.model import (compute_descriptors, descriptor_dim, fusion_of, init_model,
                        model_backward, model_forward, param_spec, stream_maps)
from lgcn.params import trainable_names
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


@pytest.mark.parametrize("ablation", [AblationFlags(), AblationFlags(disable_dfm=True)],
                         ids=["dfm", "concat"])
@pytest.mark.parametrize("extra", [(), ("vit.block1.ln2.g", "vit.block1.attn.wq"), None],
                         ids=["frozen-backbone", "two-vit-weights", "every-name"])
def test_limited_backward_matches_full_path_bitwise(rng, ablation, extra):
    cfg = tiny_cfg()
    params = init_model(cfg, ablation, seed=3)
    for name in params:  # zero-initialised projections would hide most paths
        if name.endswith((".fuse_w", "head.attn.wo")):
            params[name] = rng.normal(size=params[name].shape) * 0.1
    images = rng.random((5, 32, 32, 3))
    desc, tape = model_forward(images, params, cfg, cross=True)
    ddesc = rng.normal(size=desc.shape)
    full: dict = {}
    model_backward(ddesc, tape, params, full)
    trainable = set(trainable_names(params, freeze_backbone=extra is not None)) | set(extra or ())
    grads: dict = {}
    model_backward(ddesc, tape, params, grads, trainable)
    assert set(grads) == trainable
    if extra == ():
        assert not any(n.startswith("vit.") for n in grads)
    for name in trainable:
        assert grads[name].tobytes() == full[name].tobytes(), name
    # The tape kept for the set serves the same backward, bit for bit.
    limited_desc, limited_tape = model_forward(images, params, cfg, cross=True,
                                               trainable=trainable)
    assert limited_desc.tobytes() == desc.tobytes()
    c_embed, block_caches, _ = limited_tape.c_vit
    if extra == ():  # frozen backbone: no patch cache, block 0 keeps its adapter's alone
        assert c_embed is None
        assert block_caches[0][:4] == (None,) * 4 and block_caches[0][4] is not None
    limited: dict = {}
    model_backward(ddesc, limited_tape, params, limited, trainable)
    assert set(limited) == trainable
    for name in trainable:
        assert limited[name].tobytes() == full[name].tobytes(), name


def _variant(fusion, rng):
    """tiny_cfg parameters of one fusion, with the zero-initialised projections drawn."""
    flags = {"dfm": AblationFlags(), "sum": AblationFlags(),
             "concat": AblationFlags(disable_dfm=True),
             "vit-only": AblationFlags(disable_cnn_stream=True)}[fusion]
    params = init_model(tiny_cfg(), flags, seed=4)
    if fusion == "sum":
        params = {n: v for n, v in params.items() if not n.startswith("dfm.")}
    for name in params:
        if name.endswith((".fuse_w", "head.attn.wo")):
            params[name] = rng.normal(size=params[name].shape) * 0.1
    assert fusion_of(params) == fusion
    return params


FUSIONS = ["vit-only", "concat", "sum", "dfm"]


@pytest.mark.parametrize("fusion", FUSIONS)
@pytest.mark.parametrize("batch", [1, 64])
def test_descriptors_without_tape_match_full_tape_bitwise(rng, fusion, batch):
    cfg = tiny_cfg()
    params = _variant(fusion, rng)
    images = rng.random((batch, 32, 32, 3))
    full, _ = model_forward(images, params, cfg)
    bare, tape = model_forward(images, params, cfg, trainable=set())
    assert compute_descriptors(images, params, cfg, batch_size=64).tobytes() == full.tobytes()
    assert bare.tobytes() == full.tobytes()
    c_embed, block_caches, _ = tape.c_vit
    assert c_embed is None and block_caches == [None] * cfg.depth
    assert (tape.c_cnn, tape.c_align, tape.c_dfm, tape.c_head) == (None,) * 4


@pytest.mark.parametrize("fusion", FUSIONS)
def test_stream_maps_match_full_tape_bitwise(rng, fusion):
    cfg = tiny_cfg()
    params = _variant(fusion, rng)
    image = rng.random((32, 32, 3))
    _, tape = model_forward(image[None], params, cfg)
    maps = stream_maps(image, params, cfg)
    expected = {"fvit": tape.fvit, "fres": tape.fres, "omega": tape.omega, "fused": tape.fused}
    assert set(maps) == {name for name, m in expected.items() if m is not None}
    for name, m in maps.items():
        assert m.tobytes() == expected[name][0].tobytes(), name


def test_tape_serves_only_the_backward_it_was_kept_for(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=0)
    trainable = set(trainable_names(params, freeze_backbone=True))
    desc, tape = model_forward(rng.random((2, 32, 32, 3)), params, cfg, trainable=trainable)
    for other in (None, set(), trainable | {"vit.patch.pos"}):
        with pytest.raises(ValueError, match="another trainable set"):
            model_backward(np.ones_like(desc), tape, params, {}, other)


def test_encode_keeps_no_tape():
    # 40 toy-preset images in one chunk: the full tape peaked at 216 MB here,
    # the largest op's transients alone take about 36 MB.
    import tracemalloc

    cfg = ModelConfig.toy()
    params = init_model(cfg, AblationFlags(), seed=0)
    images = np.random.default_rng(0).random((40, cfg.image_size, cfg.image_size, 3))
    tracemalloc.start()
    try:
        compute_descriptors(images, params, cfg, batch_size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, f"{peak / 1e6:.1f} MB"


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


# (disable_fsa, disable_cnn_stream, disable_dfm) -> toy preset at seed 0:
# (tensors, elements, group_sha256), then the paper preset's (tensors, elements).
# The digests pin the draw order and every drawn bit, so checkpoints written
# by earlier versions keep loading as the same model.
_INIT_PINS = {
    (False, False, False): (110, 377158, "93fcf3818cfa1b88b9242bc74ec3715bd05e2619ee0dfb96f1417c8bef33c020",
                            278, 113185998),
    (False, False, True): (104, 424436, "683736ca2440232e4ddc7e69a83655f389d0aea3b7da600e9205dca0b9c1f625",
                           272, 119971084),
    (False, True, False): (96, 267012, "be7836f982b7d8703affe33fe70ea3ba325ee3d13c87a3c7ab25a041ecad70e7",
                           264, 99904524),
    (True, False, False): (90, 343234, "7554469a0f3e1a2780cf7a478702923783a55950e2d5b8b5df61b9af6e38e6ed",
                           218, 101348034),
    (True, False, True): (84, 390512, "9191efc085c1d56fbce27b8b6b14475aab6663a45bc8fe6baea288a9b6a9b494",
                          212, 108133120),
    (True, True, False): (76, 233088, "a3bd6a33f09491a1ef747aadfc9efb2cf0b9340dd4745cee89e829183c3191eb",
                          204, 88066560),
}
for _fsa_off in (False, True):  # without a CNN stream the DFM flag changes nothing
    _INIT_PINS[(_fsa_off, True, True)] = _INIT_PINS[(_fsa_off, True, False)]
_ALL_FLAGS = sorted(_INIT_PINS)


@pytest.mark.parametrize("flags", _ALL_FLAGS, ids=str)
def test_init_model_bytes_are_pinned(flags):
    params = init_model(ModelConfig.toy(), AblationFlags(*flags), seed=0)
    tensors, elements, digest, _, _ = _INIT_PINS[flags]
    assert (len(params), sum(v.size for v in params.values())) == (tensors, elements)
    assert group_sha256(params) == digest


@pytest.mark.parametrize("flags", _ALL_FLAGS, ids=str)
def test_paper_spec_counts(flags):
    spec = param_spec(ModelConfig.paper(), AblationFlags(*flags))
    assert (len(spec), sum(math.prod(shape) for _, shape, _ in spec)) == _INIT_PINS[flags][3:]


@pytest.mark.parametrize("flags", _ALL_FLAGS, ids=str)
def test_init_model_follows_param_spec(flags):
    ablation = AblationFlags(*flags)
    params = init_model(ModelConfig.toy(), ablation, seed=0)
    assert [(n, v.shape) for n, v in params.items()] == \
        [(n, shape) for n, shape, _ in param_spec(ModelConfig.toy(), ablation)]


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
