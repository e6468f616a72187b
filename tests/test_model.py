"""Assembled-model tests: fusion variants, descriptor batching, heatmaps."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lgcn import cnn, model as model_mod, ops, spectral, vit
from lgcn.checkpoint import group_sha256
from lgcn.config import AblationFlags, ModelConfig
from lgcn.heatmap import export_heatmaps, response_scalar
from lgcn.model import (SUB_BATCH, compute_descriptors, descriptor_dim, fusion_of, init_model,
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


@pytest.mark.parametrize("ablation", [AblationFlags(), AblationFlags(disable_dfm=True),
                                      AblationFlags(disable_fsa=True),
                                      AblationFlags(disable_cnn_stream=True)],
                         ids=["dfm", "concat", "no-fsa", "vit-only"])
@pytest.mark.parametrize("limit", ["frozen-backbone", "every-name"])
def test_limited_backward_matches_full_path_bitwise(rng, ablation, limit):
    cfg = tiny_cfg()
    params = init_model(cfg, ablation, seed=3)
    for name in params:  # zero-initialised projections would hide most paths
        if name.endswith((".fuse_w", "head.attn.wo")):
            params[name] = rng.normal(size=params[name].shape) * 0.1
    images = rng.random((9, 32, 32, 3))  # two sub-batches
    desc, tape = model_forward(images, params, cfg, cross=True)
    ddesc = rng.normal(size=desc.shape)
    full: dict = {}
    model_backward(ddesc, tape, params, full)
    trainable = set(trainable_names(params, freeze_backbone=limit == "frozen-backbone"))
    # The tape kept for the set runs the limited backward, bit for bit.
    limited_desc, limited_tape = model_forward(images, params, cfg, cross=True,
                                               trainable=trainable)
    assert limited_desc.tobytes() == desc.tobytes()
    limited: dict = {}
    model_backward(ddesc, limited_tape, params, limited)
    assert set(limited) == trainable
    if limit == "frozen-backbone":
        # no vit.* gradient and no patch cache. With adapters, block 0 keeps its
        # adapter's cache alone and every block above keeps both; without them,
        # no block keeps anything and no fsa.* gradient exists.
        assert not any(n.startswith("vit.") for n in limited)
        adapters = not ablation.disable_fsa
        assert any(n.startswith("fsa.") for n in limited) == adapters
        for (c_embed, block_caches, _), *_ in limited_tape.streams:
            assert c_embed is None
            if adapters:
                assert block_caches[0][0] is None
                assert all(c_fsa is not None for _, c_fsa in block_caches)
                assert all(c_blk is not None for c_blk, _ in block_caches[1:])
            else:
                assert block_caches == [(None, None)] * cfg.depth
    for name in trainable:
        assert limited[name].tobytes() == full[name].tobytes(), name


def _variant(fusion, rng, cfg=None):
    """cfg (default tiny_cfg) parameters of one fusion, zero-initialised projections drawn."""
    flags = {"dfm": AblationFlags(), "concat": AblationFlags(disable_dfm=True),
             "vit-only": AblationFlags(disable_cnn_stream=True)}[fusion]
    params = init_model(cfg or tiny_cfg(), flags, seed=4)
    for name in params:
        if name.endswith((".fuse_w", "head.attn.wo")):
            params[name] = rng.normal(size=params[name].shape) * 0.1
    assert fusion_of(params) == fusion
    return params


FUSIONS = ["vit-only", "concat", "dfm"]


@pytest.mark.parametrize("limit", ["full-tape", "every-name", "frozen-backbone"])
def test_model_backward_computes_no_image_gradient(rng, monkeypatch, limit):
    cfg = tiny_cfg()
    params = _variant("dfm", rng)
    trainable = {"full-tape": None, "every-name": set(params),
                 "frozen-backbone": set(trainable_names(params, freeze_backbone=True))}[limit]
    images = rng.random((SUB_BATCH + 1, 32, 32, 3))
    returned = []
    for module, name in ((vit, "patch_embed_bwd"), (cnn, "cnn_backward")):
        def spy(*args, _original=getattr(module, name), **kwargs):
            out = _original(*args, **kwargs)
            returned.append(out)
            return out
        monkeypatch.setattr(module, name, spy)
    desc, tape = model_forward(images, params, cfg, cross=True, trainable=trainable)
    model_backward(rng.normal(size=desc.shape), tape, params, {})
    # a frozen backbone's tape never reaches the patch embedding
    assert len(returned) == len(tape.streams) * (1 if limit == "frozen-backbone" else 2)
    assert all(out.size == 0 for out in returned)
    # the ViT's own backward still returns the image gradient on a full tape
    fvit, c_vit = vit.vit_forward(images, params, cfg)
    dimages = vit.vit_backward(rng.normal(size=fvit.shape), c_vit, params, {})
    assert dimages.shape == images.shape and np.all(np.isfinite(dimages))


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
    assert len(tape.streams) == math.ceil(batch / SUB_BATCH) and tape.c_head is None
    for (c_embed, block_caches, _), *stream_caches in tape.streams:
        assert c_embed is None and block_caches == [(None, None)] * cfg.depth
        assert stream_caches == [None] * 3


@pytest.mark.parametrize("fusion", FUSIONS)
def test_stream_maps_match_full_tape_bitwise(rng, fusion):
    cfg = tiny_cfg()
    params = _variant(fusion, rng)
    image = rng.random((32, 32, 3))
    # the stream pass that keeps every cache, as the gradcheck path runs it
    _, *full = model_mod._streams_forward(image[None], params, cfg, fusion, keep=True,
                                          backbone=True)
    maps = stream_maps(image, params, cfg)
    expected = dict(zip(("fvit", "fres", "omega", "fused"), full))
    assert set(maps) == {name for name, m in expected.items() if m is not None}
    for name, m in maps.items():
        assert m.tobytes() == expected[name][0].tobytes(), name


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
    spec = list(param_spec(ModelConfig.paper(), AblationFlags(*flags)))
    assert (len(spec), sum(math.prod(shape) for _, shape, _ in spec)) == _INIT_PINS[flags][3:]


@pytest.mark.parametrize("flags", _ALL_FLAGS, ids=str)
def test_init_model_follows_param_spec(flags):
    ablation = AblationFlags(*flags)
    params = init_model(ModelConfig.toy(), ablation, seed=0)
    assert [(n, v.shape) for n, v in params.items()] == \
        [(n, shape) for n, shape, _ in param_spec(ModelConfig.toy(), ablation)]


def test_compute_descriptors_batching_consistent(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=2)
    images = rng.random((9, 32, 32, 3))
    one = compute_descriptors(images, params, cfg, batch_size=64)
    many = compute_descriptors(images, params, cfg, batch_size=2)
    np.testing.assert_allclose(one, many, atol=1e-12)


def test_descriptors_do_not_depend_on_the_batch(rng):
    cfg = ModelConfig.toy()
    params = _variant("dfm", rng, cfg)
    images = rng.random((64, cfg.image_size, cfg.image_size, 3))
    expected = compute_descriptors(images, params, cfg, batch_size=64)
    for batch in (1, SUB_BATCH, SUB_BATCH + 1):
        got = compute_descriptors(images, params, cfg, batch_size=batch)
        assert got.tobytes() == expected.tobytes(), batch


def test_step_gradients_do_not_depend_on_the_pool(rng, monkeypatch):
    cfg = ModelConfig.toy()
    params = _variant("dfm", rng, cfg)
    images = rng.random((2 * SUB_BATCH + 1, cfg.image_size, cfg.image_size, 3))
    trainable = set(trainable_names(params, freeze_backbone=True))
    ddesc = rng.normal(size=(images.shape[0], descriptor_dim(params)))

    def step():
        desc, tape = model_forward(images, params, cfg, cross=True, trainable=trainable)
        grads: dict = {}
        model_backward(ddesc, tape, params, grads)
        return desc, grads

    desc, grads = step()
    monkeypatch.setattr(model_mod, "_POOL", ThreadPoolExecutor(1))
    one_desc, one_grads = step()
    model_mod._POOL.shutdown()
    assert one_desc.tobytes() == desc.tobytes()
    assert list(one_grads) == list(grads)
    for name, g in grads.items():
        assert one_grads[name].tobytes() == g.tobytes(), name


def test_pool_sizes_itself_without_sched_getaffinity(rng, monkeypatch):
    """Hosts without os.sched_getaffinity size the pool by os.cpu_count()."""
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=0)
    images = rng.random((SUB_BATCH + 1, 32, 32, 3))
    desc = compute_descriptors(images, params, cfg)
    monkeypatch.setattr(model_mod, "_POOL", None)
    monkeypatch.delattr(model_mod.os, "sched_getaffinity")
    fallback = compute_descriptors(images, params, cfg)
    model_mod._POOL.shutdown()
    assert fallback.tobytes() == desc.tobytes()


def test_concurrent_encodes_share_the_cached_matrices(rng):
    cfg = tiny_cfg()
    params = _variant("dfm", rng)
    images = rng.random((SUB_BATCH + 1, 32, 32, 3))
    expected = compute_descriptors(images, params, cfg)
    spectral._dft_matrix.cache_clear()
    ops._resize_matrix.cache_clear()
    callers = 4  # more threads than a 2-core host has cores, besides the shared pool
    start = threading.Barrier(callers, timeout=60)

    def encode():
        start.wait()  # every caller reaches the emptied caches together
        return compute_descriptors(images, params, cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(callers) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(encode)
                                                      for _ in range(callers)]]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got.tobytes() == expected.tobytes()
    assert spectral._dft_matrix.cache_info().currsize and ops._resize_matrix.cache_info().currsize


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


def test_stream_maps_reject_non_finite_maps(rng):
    cfg = tiny_cfg()
    params = init_model(cfg, AblationFlags(), seed=3)
    for name in ("cnn.stage3.w", "cnn.align.w"):  # finite weights whose product overflows
        params[name] = params[name] * 1e200
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="stream_maps"):
        stream_maps(rng.random((32, 32, 3)), params, cfg)


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
