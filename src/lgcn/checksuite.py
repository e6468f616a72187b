"""Registered gradient checks for every operator and composite module.

Each entry builds a deterministic scalar function of named parameters and
runs it through grad_check. Operators go through `_op` and composite
modules through `_module`; both weight the output with fixed probe weights.
Small shapes are checked coordinate-by-coordinate; composite modules sample
a seeded subset of coordinates per tensor to stay within a desk-scale time
budget.
"""

from __future__ import annotations

import numpy as np

from . import cnn, dfm, fsa, head, model as model_mod, ops, spectral, trainer, vit
from .config import AblationFlags, ModelConfig
from .gradcheck import GradCheckReport, grad_check, probe_weights
from .params import draw

COMPOSITE_COORDS = 24


def micro_cfg() -> ModelConfig:
    """Smallest config that exercises every code path."""
    return ModelConfig(preset="toy", image_size=32, patch_size=8, embed_dim=16,
                       num_heads=2, depth=2, cnn_channels=8, cnn_grid=2, align_mid=3)


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(1000 + tag)


def _nudge(x, gap=0.05):
    """Push values away from 0 so kinked activations stay differentiable."""
    sign = np.where(x >= 0, 1.0, -1.0)
    return np.where(np.abs(x) < gap, sign * (gap + np.abs(x)), x)


def _probe(fn_fwd_bwd, params, name, sample=None):
    return grad_check(fn_fwd_bwd, params, name=name, max_coords_per_param=sample,
                      rng=np.random.default_rng(99))


def _as_tuple(grads):
    return grads if isinstance(grads, tuple) else (grads,)


def _redraw(params, key, gen, scale):
    """Replace a (zero-initialised) tensor with scaled normal draws."""
    params[key] = gen.normal(size=params[key].shape) * scale


def _op(name, fwd, bwd, inputs, **kw):
    """Check an operator over an ordered dict of inputs.

    fwd(*inputs, **kw) -> (y, cache); bwd(dy, cache) returns the inputs'
    gradients in the same order.
    """
    w = probe_weights(fwd(*inputs.values(), **kw)[0].shape)

    def fn(p):
        y, cache = fwd(*p.values(), **kw)
        return float((w * y).sum()), dict(zip(p, _as_tuple(bwd(w, cache))))

    return _probe(fn, inputs, name)


def _module(name, fwd, bwd, base, names, inputs, seed, sample=COMPOSITE_COORDS):
    """Check the parameters `names` of a module, then its ordered inputs.

    The checked parameters are merged over the fixed dict `base`.
    fwd(*inputs, params) -> (y, cache); bwd(dy, cache, params, grads) adds
    the parameter gradients to grads and returns the inputs' gradients.
    """
    w = probe_weights(fwd(*inputs.values(), base)[0].shape, seed=seed)

    def fn(p):
        full = {**base, **{k: p[k] for k in names}}
        y, cache = fwd(*(p[k] for k in inputs), full)
        grads: dict = {}
        grads.update(zip(inputs, _as_tuple(bwd(w, cache, full, grads))))
        return float((w * y).sum()), grads

    return _probe(fn, {**{k: base[k] for k in names}, **inputs}, name, sample)


def _check_linear():
    r = _rng(1)
    inputs = {"x": r.normal(size=(3, 5)), "w": r.normal(size=(5, 4)), "b": r.normal(size=4)}
    return _op("ops.linear", ops.linear_fwd, ops.linear_bwd, inputs)


def _check_activations():
    r = _rng(2)
    cases = [
        ("ops.relu", ops.relu_fwd, ops.relu_bwd, _nudge(r.normal(size=(4, 6)))),
        ("ops.gelu", ops.gelu_fwd, ops.gelu_bwd, r.normal(size=(4, 6))),
        ("ops.sigmoid", ops.sigmoid_fwd, ops.sigmoid_bwd, r.normal(size=(4, 6))),
        ("ops.softplus", ops.softplus_fwd, ops.softplus_bwd, r.normal(size=(4, 6))),
        ("ops.softmax", ops.softmax_fwd, ops.softmax_bwd, r.normal(size=(3, 5))),
        ("ops.l2_normalize", ops.l2_normalize_fwd, ops.l2_normalize_bwd,
         r.normal(size=(3, 5)) + 2.0),
    ]
    return [_op(name, fwd, bwd, {"x": x}) for name, fwd, bwd, x in cases]


def _check_layernorm():
    r = _rng(4)
    inputs = {"x": r.normal(size=(3, 4, 6)), "g": r.normal(size=6) + 1.0, "b": r.normal(size=6)}
    return _op("ops.layernorm", ops.layernorm_fwd, ops.layernorm_bwd, inputs)


def _check_conv(stride, name):
    r = _rng(5 + stride)
    inputs = {"x": r.normal(size=(2, 6, 6, 3)), "w": r.normal(size=(4, 3, 3, 3)),
              "b": r.normal(size=4)}
    return _op(name, ops.conv2d_fwd, ops.conv2d_bwd, inputs, stride=stride, padding=1)


def _check_depthwise():
    r = _rng(7)
    inputs = {"x": r.normal(size=(2, 5, 5, 3)), "k": r.normal(size=(3, 3, 3))}
    return _op("ops.depthwise_conv2d", ops.depthwise_conv2d_fwd, ops.depthwise_conv2d_bwd,
               inputs, padding=1)


def _check_bilinear():
    x = _rng(8).normal(size=(2, 5, 5, 2))
    return _op("ops.bilinear_resize", ops.bilinear_resize_fwd, ops.bilinear_resize_bwd,
               {"x": x}, out_h=8, out_w=7)


def _check_avgpool():
    x = _rng(9).normal(size=(2, 4, 4, 3))
    return _op("ops.avg_pool2d", ops.avg_pool2d_fwd, ops.avg_pool2d_bwd, {"x": x}, factor=2)


def _check_attention():
    r = _rng(10)
    inputs = {n: r.normal(size=(2, 4, 3)) for n in ("q", "k", "v")}
    return _op("ops.attention", ops.attention_fwd, ops.attention_bwd, inputs)


def _check_gem():
    x = _rng(11).normal(size=(2, 4, 4, 3))
    return _op("ops.gem_pool", ops.gem_pool_fwd, ops.gem_pool_bwd, {"x": x},
               regions=((slice(None), slice(None)),), p=3.0)


def _check_frequency_branch():
    r = _rng(15)
    x = r.normal(size=(4, 4, 3))[None]
    gains_log = r.normal(size=(4, 4, 3)) * 0.3
    w = probe_weights((4, 4, 3), seed=8)[None]

    def fn(p):
        gains = np.exp(p["gains_log"])
        y, cache = spectral.frequency_branch_fwd(p["x"], gains)
        dx, dgains = spectral.frequency_branch_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "gains_log": dgains * gains}

    return _probe(fn, {"x": x, "gains_log": gains_log}, "spectral.frequency_branch")


def _check_triplet():
    r = _rng(16)
    a, p_, n = (r.normal(size=(3, 6)) for _ in range(3))

    def fn(p):
        loss, cache = trainer.triplet_loss_fwd(p["a"], p["p"], p["n"], margin=0.5)
        da, dp, dn = trainer.triplet_loss_bwd(1.0, cache)
        return loss, {"a": da, "p": dp, "n": dn}

    return _probe(fn, {"a": a, "p": p_, "n": n}, "trainer.triplet_loss")


def _check_patch_embed():
    cfg = micro_cfg()
    r = _rng(17)
    params = draw(vit.vit_spec(cfg), r)
    names = ["vit.patch.proj_w", "vit.patch.proj_b", "vit.patch.pos", "vit.patch.cls"]
    image = r.random((2, cfg.image_size, cfg.image_size, 3))
    return _module("vit.patch_embed", lambda x, p: vit.patch_embed_fwd(x, p, cfg),
                   lambda dy, c, p, g: vit.patch_embed_bwd(dy, c, g),
                   params, names, {"image": image}, 9)


def _check_vit_block():
    cfg = micro_cfg()
    r = _rng(18)
    gen = np.random.default_rng(55)
    params = draw([*vit.vit_spec(cfg), *fsa.fsa_spec(cfg, "fsa.block0")], gen)
    # a zero fusion projection hides the adapter's interior from the check
    _redraw(params, "fsa.block0.fuse_w", gen, 0.1)
    tokens = r.normal(size=(2, 1 + cfg.grid ** 2, cfg.embed_dim))
    names = [k for k in params if k.startswith(("vit.block0", "fsa.block0"))]

    def fwd(x, p):  # the block and its adapter, as vit_forward joins them
        y, h2, c_blk = vit.vit_block_fwd(x, p, "vit.block0", cfg, True)
        ad, c_fsa = fsa.fsa_forward(h2, p, "fsa.block0", cfg)
        return y + ad, (c_blk, c_fsa)

    def bwd(dy, cache, p, grads):
        c_blk, c_fsa = cache
        return vit.vit_block_bwd(dy, c_blk, grads, dh2=fsa.fsa_backward(dy, c_fsa, p, grads))

    return _module("vit.block_with_fsa", fwd, bwd, params, names, {"tokens": tokens}, 10)


def _check_vit_full():
    cfg = micro_cfg()
    gen = np.random.default_rng(56)
    params = draw(vit.vit_spec(cfg), gen)
    for i in range(cfg.depth):
        params.update(draw(fsa.fsa_spec(cfg, f"fsa.block{i}"), gen))
        _redraw(params, f"fsa.block{i}.fuse_w", gen, 0.1)
    image = np.random.default_rng(57).random((1, cfg.image_size, cfg.image_size, 3))
    return _module("vit.two_block_with_adapters", lambda x, p: vit.vit_forward(x, p, cfg),
                   vit.vit_backward, params, list(params), {"image": image}, 11, sample=8)


def _check_fsa_forward():
    cfg = micro_cfg()
    gen = np.random.default_rng(58)
    params = draw(fsa.fsa_spec(cfg, "fsa.block0"), gen)
    _redraw(params, "fsa.block0.fuse_w", gen, 0.2)
    _redraw(params, "fsa.block0.gains_log", gen, 0.3)
    tokens = np.random.default_rng(59).normal(size=(2, 1 + cfg.grid ** 2, cfg.embed_dim))
    return _module("fsa.forward", lambda x, p: fsa.fsa_forward(x, p, "fsa.block0", cfg),
                   fsa.fsa_backward, params, list(params), {"tokens": tokens}, 12)


KINK_MARGIN = 2e-3  # keep central-difference windows clear of ReLU corners


def _bias_shift_for_margin(values: np.ndarray, margin: float) -> float:
    """Smallest bias shift placing every value outside (-margin, margin)."""
    v = np.sort(values.ravel())
    candidates = [1.1 * margin - v[0], -1.1 * margin - v[-1]]  # all-positive / all-negative
    gaps = v[1:] - v[:-1]
    mids = 0.5 * (v[1:] + v[:-1])
    candidates.extend(-mids[gaps > 2.2 * margin])
    shifted = [d for d in candidates if np.abs(v + d).min() > margin]
    return min(shifted, key=abs) if shifted else candidates[0]


def _open_kink_margins(params, images, cfg, gate=False, margin=KINK_MARGIN):
    """Nudge ReLU-feeding biases so the fixture sits away from every kink.

    Finite differences at eps=1e-4 are only meaningful where the function is
    locally smooth; this adjusts the check point, not the code under test.
    """
    x = images
    for i in (1, 2, 3):
        bname = f"cnn.stage{i}.b"
        y, _ = ops.conv2d_fwd(x, params[f"cnn.stage{i}.w"], params[bname],
                              stride=2, padding=1)
        shifts = np.array([_bias_shift_for_margin(y[..., c], margin)
                           for c in range(y.shape[-1])])
        params[bname] = params[bname] + shifts
        x = ops.relu_fwd(y + shifts)[0]
    if gate:
        fvit, _ = vit.vit_forward(images, params, cfg, tape=False)
        pooled, _ = ops.avg_pool2d_fwd(x, cfg.pool_factor)
        fres, _ = cnn.align_upsample(pooled, params, cfg)
        h1, _ = ops.linear_fwd(fvit + fres, params["dfm.w1"], params["dfm.b1"])
        shifts = np.array([_bias_shift_for_margin(h1[..., c], margin)
                           for c in range(h1.shape[-1])])
        params["dfm.b1"] = params["dfm.b1"] + shifts


def _check_cnn():
    cfg = micro_cfg()
    params = draw(cnn.cnn_spec(cfg), np.random.default_rng(60))
    names = [k for k in params if not k.startswith("cnn.align")]
    image = np.random.default_rng(61).random((1, cfg.image_size, cfg.image_size, 3))
    _open_kink_margins(params, image, cfg)
    return _module("cnn.forward", lambda x, p: cnn.cnn_forward(x, p, cfg),
                   lambda dy, c, p, g: cnn.cnn_backward(dy, c, g),
                   params, names, {"image": image}, 13)


def _check_align():
    cfg = micro_cfg()
    params = draw(cnn.cnn_spec(cfg), np.random.default_rng(62))
    fres = np.random.default_rng(63).normal(size=(2, cfg.cnn_grid, cfg.cnn_grid, cfg.cnn_channels))
    return _module("cnn.align_upsample", lambda x, p: cnn.align_upsample(x, p, cfg),
                   lambda dy, c, p, g: cnn.align_backward(dy, c, g),
                   params, ["cnn.align.w", "cnn.align.b"], {"fres": fres}, 14)


def _check_dfm():
    cfg = micro_cfg()
    params = draw(dfm.dfm_spec(cfg), np.random.default_rng(64))
    r = np.random.default_rng(65)
    maps = {n: r.normal(size=(2, cfg.grid, cfg.grid, cfg.embed_dim)) for n in ("fvit", "fres")}
    return _module("dfm.forward", dfm.dfm_forward, dfm.dfm_backward,
                   params, list(params), maps, 15)


def _check_head():
    cfg = micro_cfg()
    gen = np.random.default_rng(66)
    params = draw(head.head_spec(cfg.embed_dim), gen)
    _redraw(params, "head.attn.wo", gen, 0.2)
    fmap = np.random.default_rng(67).normal(size=(2, cfg.grid, cfg.grid, cfg.embed_dim))
    return _module("head.forward", lambda x, p: head.head_forward(x, p, cfg.num_heads, cross=True),
                   lambda dy, c, p, g: head.head_backward(dy, c, g),
                   params, list(params), {"fmap": fmap}, 16)


def _check_end_to_end(name, batch, sample):
    cfg = micro_cfg()
    params = model_mod.init_model(cfg, AblationFlags(), seed=68)
    for i in range(cfg.depth):
        _redraw(params, f"fsa.block{i}.fuse_w", np.random.default_rng(70 + i), 0.1)
    _redraw(params, "head.attn.wo", np.random.default_rng(80), 0.2)
    images = np.random.default_rng(69).random((batch, cfg.image_size, cfg.image_size, 3))
    _open_kink_margins(params, images, cfg, gate=True)
    return _module(name, lambda p: model_mod.model_forward(images, p, cfg, cross=True),
                   model_mod.model_backward, params, list(params), {}, 17, sample=sample)


def build_suite(scope: str = "all"):
    """Resolve a scope name to the list of (name, runner) checks."""
    checks = [
        ("ops.linear", _check_linear),
        ("ops.activations", _check_activations),
        ("ops.layernorm", _check_layernorm),
        ("ops.conv2d_stride1", lambda: _check_conv(1, "ops.conv2d_stride1")),
        ("ops.conv2d_stride2", lambda: _check_conv(2, "ops.conv2d_stride2")),
        ("ops.depthwise_conv2d", _check_depthwise),
        ("ops.bilinear_resize", _check_bilinear),
        ("ops.avg_pool2d", _check_avgpool),
        ("ops.attention", _check_attention),
        ("ops.gem_pool", _check_gem),
        ("spectral.frequency_branch", _check_frequency_branch),
        ("trainer.triplet_loss", _check_triplet),
        ("vit.patch_embed", _check_patch_embed),
        ("vit.block_with_fsa", _check_vit_block),
        ("vit.two_block_with_adapters", _check_vit_full),
        ("fsa.forward", _check_fsa_forward),
        ("cnn.forward", _check_cnn),
        ("cnn.align_upsample", _check_align),
        ("dfm.forward", _check_dfm),
        ("head.forward", _check_head),
        ("model.end_to_end", lambda: _check_end_to_end("model.end_to_end", 2, 6)),
        # Two sub-batches: audits the split backward and its in-order gradient sum.
        ("model.split_batch",
         lambda: _check_end_to_end("model.split_batch", model_mod.SUB_BATCH + 1, 2)),
    ]
    if scope != "all":
        checks = [(n, f) for n, f in checks if n.split(".")[0] == scope]
        if not checks:
            raise ValueError(f"unknown gradcheck scope {scope!r}")
    return checks


def run_suite(scope: str = "all") -> list[GradCheckReport]:
    reports: list[GradCheckReport] = []
    for _, runner in build_suite(scope):
        out = runner()
        reports.extend(out if isinstance(out, list) else [out])
    return reports
