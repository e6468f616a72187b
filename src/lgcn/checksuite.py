"""Registered gradient checks for every operator and composite module.

Each entry builds a deterministic scalar function of named parameters and
runs it through grad_check. Small shapes are checked coordinate-by-
coordinate; composite modules sample a seeded subset of coordinates per
tensor to stay within a desk-scale time budget.
"""

from __future__ import annotations

import numpy as np

from . import cnn, dfm, fsa, head, model as model_mod, ops, spectral, trainer, vit
from .config import AblationFlags, ModelConfig
from .gradcheck import GradCheckReport, grad_check, probe_weights

COMPOSITE_COORDS = 24

SCOPE_ALIASES = {
    "tensor_core": "ops",
    "vit_branch": "vit",
    "fsa_adapter": "fsa",
    "cnn_branch": "cnn",
    "descriptor_head": "head",
    "end_to_end": "model",
    "retrieval_eval": "trainer",
}


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


def _probe(fn_fwd_bwd, params, name, eps, tol, sample=None):
    return grad_check(fn_fwd_bwd, params, eps=eps, tol=tol, name=name,
                      max_coords_per_param=sample, rng=np.random.default_rng(99))


def _simple(op_fwd, op_bwd, x, name, eps, tol, **kw):
    w = probe_weights(op_fwd(x, **kw)[0].shape)

    def fn(p):
        y, cache = op_fwd(p["x"], **kw)
        loss = float((w * y).sum())
        return loss, {"x": op_bwd(w, cache)}

    return _probe(fn, {"x": x}, name, eps, tol)


def _check_linear(eps, tol):
    r = _rng(1)
    x, wgt, b = r.normal(size=(3, 5)), r.normal(size=(5, 4)), r.normal(size=4)
    w = probe_weights((3, 4))

    def fn(p):
        y, cache = ops.linear_fwd(p["x"], p["w"], p["b"])
        dx, dw, db = ops.linear_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "w": dw, "b": db}

    return _probe(fn, {"x": x, "w": wgt, "b": b}, "ops.linear", eps, tol)


def _check_activations(eps, tol):
    reports = []
    r = _rng(2)
    x = _nudge(r.normal(size=(4, 6)))
    reports.append(_simple(ops.relu_fwd, ops.relu_bwd, x, "ops.relu", eps, tol))
    reports.append(_simple(ops.gelu_fwd, ops.gelu_bwd, r.normal(size=(4, 6)), "ops.gelu", eps, tol))
    reports.append(_simple(ops.sigmoid_fwd, ops.sigmoid_bwd, r.normal(size=(4, 6)), "ops.sigmoid", eps, tol))
    reports.append(_simple(ops.softplus_fwd, ops.softplus_bwd, r.normal(size=(4, 6)), "ops.softplus", eps, tol))
    reports.append(_simple(ops.softmax_fwd, ops.softmax_bwd, r.normal(size=(3, 5)), "ops.softmax", eps, tol))
    reports.append(_simple(ops.l2_normalize_fwd, ops.l2_normalize_bwd,
                           r.normal(size=(3, 5)) + 2.0, "ops.l2_normalize", eps, tol))
    return reports


def _check_layernorm(eps, tol):
    r = _rng(4)
    x, g, b = r.normal(size=(3, 4, 6)), r.normal(size=6) + 1.0, r.normal(size=6)
    w = probe_weights((3, 4, 6))

    def fn(p):
        y, cache = ops.layernorm_fwd(p["x"], p["g"], p["b"])
        dx, dg, db = ops.layernorm_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "g": dg, "b": db}

    return _probe(fn, {"x": x, "g": g, "b": b}, "ops.layernorm", eps, tol)


def _check_conv(eps, tol, stride, name):
    r = _rng(5 + stride)
    x = r.normal(size=(2, 6, 6, 3))
    wgt = r.normal(size=(4, 3, 3, 3))
    b = r.normal(size=4)
    y0, _ = ops.conv2d_fwd(x, wgt, b, stride=stride, padding=1)
    w = probe_weights(y0.shape)

    def fn(p):
        y, cache = ops.conv2d_fwd(p["x"], p["w"], p["b"], stride=stride, padding=1)
        dx, dw, db = ops.conv2d_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "w": dw, "b": db}

    return _probe(fn, {"x": x, "w": wgt, "b": b}, name, eps, tol)


def _check_depthwise(eps, tol):
    r = _rng(7)
    x = r.normal(size=(2, 5, 5, 3))
    k = r.normal(size=(3, 3, 3))
    y0, _ = ops.depthwise_conv2d_fwd(x, k, padding=1)
    w = probe_weights(y0.shape)

    def fn(p):
        y, cache = ops.depthwise_conv2d_fwd(p["x"], p["k"], padding=1)
        dx, dk = ops.depthwise_conv2d_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "k": dk}

    return _probe(fn, {"x": x, "k": k}, "ops.depthwise_conv2d", eps, tol)


def _check_bilinear(eps, tol):
    r = _rng(8)
    x = r.normal(size=(2, 5, 5, 2))
    return _simple(ops.bilinear_resize_fwd, ops.bilinear_resize_bwd, x,
                   "ops.bilinear_resize", eps, tol, out_h=8, out_w=7)


def _check_avgpool(eps, tol):
    r = _rng(9)
    x = r.normal(size=(2, 4, 4, 3))
    return _simple(ops.avg_pool2d_fwd, ops.avg_pool2d_bwd, x, "ops.avg_pool2d", eps, tol, factor=2)


def _check_attention(eps, tol):
    r = _rng(10)
    q, k, v = (r.normal(size=(2, 4, 3)) for _ in range(3))
    y0, _ = ops.attention_fwd(q, k, v)
    w = probe_weights(y0.shape)

    def fn(p):
        y, cache = ops.attention_fwd(p["q"], p["k"], p["v"])
        dq, dk, dv = ops.attention_bwd(w, cache)
        return float((w * y).sum()), {"q": dq, "k": dk, "v": dv}

    return _probe(fn, {"q": q, "k": k, "v": v}, "ops.attention", eps, tol)


def _check_gem(eps, tol):
    r = _rng(11)
    x = r.normal(size=(2, 4, 4, 3))
    w = probe_weights((2, 3))

    def fn(p):
        y, cache = ops.gem_pool_fwd(p["x"], p=3.0, axes=(1, 2))
        return float((w * y).sum()), {"x": ops.gem_pool_bwd(w, cache)}

    return _probe(fn, {"x": x}, "ops.gem_pool", eps, tol)


def _check_dft(eps, tol):
    r = _rng(12)
    x = r.normal(size=(4, 4, 2))
    wre = probe_weights((4, 4, 2), seed=5)
    wim = probe_weights((4, 4, 2), seed=6)

    def fn(p):
        grid, cache = spectral.dft2d_fwd(p["x"])
        loss = float((wre * grid.re).sum() + (wim * grid.im).sum())
        dx = spectral.dft2d_bwd(spectral.ComplexGrid(wre, wim), cache)
        return loss, {"x": dx}

    return _probe(fn, {"x": x}, "spectral.dft2d", eps, tol)


def _check_idft(eps, tol):
    r = _rng(13)
    re, im = r.normal(size=(4, 4, 2)), r.normal(size=(4, 4, 2))
    w = probe_weights((4, 4, 2), seed=7)

    def fn(p):
        y, cache = spectral.idft2d_fwd(spectral.ComplexGrid(p["re"], p["im"]))
        dgrid = spectral.idft2d_bwd(w, cache)
        return float((w * y).sum()), {"re": dgrid.re, "im": dgrid.im}

    return _probe(fn, {"re": re, "im": im}, "spectral.idft2d", eps, tol)


def _check_frequency_branch(eps, tol):
    r = _rng(15)
    x = r.normal(size=(4, 4, 3))
    gains_log = r.normal(size=(4, 4, 3)) * 0.3
    w = probe_weights((4, 4, 3), seed=8)

    def fn(p):
        gains = np.exp(p["gains_log"])
        y, cache = fsa.frequency_branch_fwd(p["x"], gains)
        dx, dgains = fsa.frequency_branch_bwd(w, cache)
        return float((w * y).sum()), {"x": dx, "gains_log": dgains * gains}

    return _probe(fn, {"x": x, "gains_log": gains_log}, "spectral.frequency_branch", eps, tol)


def _check_triplet(eps, tol):
    r = _rng(16)
    a, p_, n = (r.normal(size=(3, 6)) for _ in range(3))

    def fn(p):
        loss, cache = trainer.triplet_loss_fwd(p["a"], p["p"], p["n"], margin=0.5)
        da, dp, dn = trainer.triplet_loss_bwd(1.0, cache)
        return loss, {"a": da, "p": dp, "n": dn}

    return _probe(fn, {"a": a, "p": p_, "n": n}, "trainer.triplet_loss", eps, tol)


def _check_patch_embed(eps, tol):
    cfg = micro_cfg()
    r = _rng(17)
    params = vit.init_vit_params(cfg, r)
    x = r.random((2, cfg.image_size, cfg.image_size, 3))
    names = ["vit.patch.proj_w", "vit.patch.proj_b", "vit.patch.pos", "vit.patch.cls"]
    w = probe_weights((2, 1 + cfg.grid ** 2, cfg.embed_dim), seed=9)

    def fn(p):
        full = {**params, **{k: p[k] for k in names}}
        tokens, cache = vit.patch_embed_fwd(p["image"], full, cfg)
        grads: dict = {}
        dimg = vit.patch_embed_bwd(w, cache, grads)
        grads["image"] = dimg
        return float((w * tokens).sum()), grads

    checked = {k: params[k] for k in names}
    checked["image"] = x
    return _probe(fn, checked, "vit.patch_embed", eps, tol, sample=COMPOSITE_COORDS)


def _check_vit_block(eps, tol):
    cfg = micro_cfg()
    r = _rng(18)
    params = {}
    gen = np.random.default_rng(55)
    params.update(vit.init_vit_params(cfg, gen))
    params.update(fsa.init_fsa_params(cfg, gen, "fsa.block0"))
    # a zero fusion projection hides the adapter's interior from the check
    params["fsa.block0.fuse_w"] = gen.normal(size=params["fsa.block0.fuse_w"].shape) * 0.1
    tokens = r.normal(size=(2, 1 + cfg.grid ** 2, cfg.embed_dim))
    w = probe_weights(tokens.shape, seed=10)
    block_names = [k for k in params if k.startswith(("vit.block0", "fsa.block0"))]

    def fn(p):
        full = {**params, **{k: p[k] for k in block_names}}
        y, cache = vit.vit_block_fwd(p["tokens"], full, "vit.block0", cfg, "fsa.block0")
        grads: dict = {}
        dtok = vit.vit_block_bwd(w, cache, full, grads)
        grads["tokens"] = dtok
        return float((w * y).sum()), grads

    checked = {k: params[k] for k in block_names}
    checked["tokens"] = tokens
    return _probe(fn, checked, "vit.block_with_fsa", eps, tol, sample=COMPOSITE_COORDS)


def _check_vit_full(eps, tol):
    cfg = micro_cfg()
    gen = np.random.default_rng(56)
    params = vit.init_vit_params(cfg, gen)
    for i in range(cfg.depth):
        params.update(fsa.init_fsa_params(cfg, gen, f"fsa.block{i}"))
        params[f"fsa.block{i}.fuse_w"] = gen.normal(
            size=params[f"fsa.block{i}.fuse_w"].shape) * 0.1
    image = np.random.default_rng(57).random((1, cfg.image_size, cfg.image_size, 3))
    w = probe_weights((1, cfg.grid, cfg.grid, cfg.embed_dim), seed=11)

    def fn(p):
        full = dict(p)
        full.pop("image")
        fmap, cache = vit.vit_forward(p["image"], full, cfg, adapters_enabled=True)
        grads: dict = {}
        dimg = vit.vit_backward(w, cache, full, grads)
        grads["image"] = dimg
        return float((w * fmap).sum()), grads

    checked = dict(params)
    checked["image"] = image
    return _probe(fn, checked, "vit.two_block_with_adapters", eps, tol, sample=8)


def _check_fsa_forward(eps, tol):
    cfg = micro_cfg()
    gen = np.random.default_rng(58)
    params = fsa.init_fsa_params(cfg, gen, "fsa.block0")
    params["fsa.block0.fuse_w"] = gen.normal(size=params["fsa.block0.fuse_w"].shape) * 0.2
    params["fsa.block0.gains_log"] = gen.normal(size=params["fsa.block0.gains_log"].shape) * 0.3
    tokens = np.random.default_rng(59).normal(size=(2, 1 + cfg.grid ** 2, cfg.embed_dim))
    w = probe_weights(tokens.shape, seed=12)

    def fn(p):
        full = dict(p)
        full.pop("tokens")
        y, cache = fsa.fsa_forward(p["tokens"], full, "fsa.block0", cfg)
        grads: dict = {}
        dtok = fsa.fsa_backward(w, cache, full, grads)
        grads["tokens"] = dtok
        return float((w * y).sum()), grads

    checked = dict(params)
    checked["tokens"] = tokens
    return _probe(fn, checked, "fsa.forward", eps, tol, sample=COMPOSITE_COORDS)


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
        fvit, _ = vit.vit_forward(images, params, cfg, adapters_enabled=True)
        pooled, _ = ops.avg_pool2d_fwd(x, cfg.pool_factor)
        fres, _ = cnn.align_upsample(pooled, params, cfg)
        h1, _ = ops.linear_fwd(fvit + fres, params["dfm.w1"], params["dfm.b1"])
        shifts = np.array([_bias_shift_for_margin(h1[..., c], margin)
                           for c in range(h1.shape[-1])])
        params["dfm.b1"] = params["dfm.b1"] + shifts


def _check_cnn(eps, tol):
    cfg = micro_cfg()
    gen = np.random.default_rng(60)
    params = cnn.init_cnn_params(cfg, gen)
    stage_names = [k for k in params if not k.startswith("cnn.align")]
    image = np.random.default_rng(61).random((1, cfg.image_size, cfg.image_size, 3))
    _open_kink_margins(params, image, cfg)
    y0, _ = cnn.cnn_forward(image, params, cfg)
    w = probe_weights(y0.shape, seed=13)

    def fn(p):
        full = {**params, **{k: p[k] for k in stage_names}}
        y, cache = cnn.cnn_forward(p["image"], full, cfg)
        grads: dict = {}
        dimg = cnn.cnn_backward(w, cache, grads)
        grads["image"] = dimg
        return float((w * y).sum()), {k: grads[k] for k in stage_names} | {"image": grads["image"]}

    checked = {k: params[k] for k in stage_names}
    checked["image"] = image
    return _probe(fn, checked, "cnn.forward", eps, tol, sample=COMPOSITE_COORDS)


def _check_align(eps, tol):
    cfg = micro_cfg()
    gen = np.random.default_rng(62)
    params = cnn.init_cnn_params(cfg, gen)
    fres = np.random.default_rng(63).normal(size=(2, cfg.cnn_grid, cfg.cnn_grid, cfg.cnn_channels))
    w = probe_weights((2, cfg.grid, cfg.grid, cfg.embed_dim), seed=14)

    def fn(p):
        full = {**params, "cnn.align.w": p["cnn.align.w"], "cnn.align.b": p["cnn.align.b"]}
        y, cache = cnn.align_upsample(p["fres"], full, cfg)
        grads: dict = {}
        dfres = cnn.align_backward(w, cache, grads)
        grads["fres"] = dfres
        return float((w * y).sum()), grads

    checked = {"cnn.align.w": params["cnn.align.w"], "cnn.align.b": params["cnn.align.b"],
               "fres": fres}
    return _probe(fn, checked, "cnn.align_upsample", eps, tol, sample=COMPOSITE_COORDS)


def _check_dfm(eps, tol, mode):
    cfg = micro_cfg()
    gen = np.random.default_rng(64)
    params = dfm.init_dfm_params(cfg, gen)
    r = np.random.default_rng(65)
    fvit = r.normal(size=(2, cfg.grid, cfg.grid, cfg.embed_dim))
    fres = r.normal(size=(2, cfg.grid, cfg.grid, cfg.embed_dim))
    w = probe_weights(fvit.shape, seed=15)

    def fn(p):
        full = {k: p[k] for k in params}
        y, cache = dfm.dfm_forward(p["fvit"], p["fres"], full, mode)
        grads: dict = {}
        dfvit, dfres = dfm.dfm_backward(w, cache, full, grads)
        grads["fvit"] = dfvit
        grads["fres"] = dfres
        return float((w * y).sum()), grads

    checked = dict(params)
    checked.update({"fvit": fvit, "fres": fres})
    return _probe(fn, checked, f"dfm.forward_{mode.replace('-', '_')}", eps, tol,
                  sample=COMPOSITE_COORDS)


def _check_head(eps, tol):
    cfg = micro_cfg()
    gen = np.random.default_rng(66)
    params = head.init_head_params(gen, cfg.embed_dim)
    params["head.attn.wo"] = gen.normal(size=params["head.attn.wo"].shape) * 0.2
    fmap = np.random.default_rng(67).normal(size=(2, cfg.grid, cfg.grid, cfg.embed_dim))
    w = probe_weights((2, head.NUM_REGIONS * cfg.embed_dim), seed=16)

    def fn(p):
        full = dict(p)
        full.pop("fmap")
        desc, cache = head.head_forward(p["fmap"], full, cfg.num_heads, cross=True)
        grads: dict = {}
        dmap = head.head_backward(w, cache, grads)
        grads["fmap"] = dmap
        return float((w * desc).sum()), grads

    checked = dict(params)
    checked["fmap"] = fmap
    return _probe(fn, checked, "head.forward", eps, tol, sample=COMPOSITE_COORDS)


def _check_end_to_end(eps, tol):
    cfg = micro_cfg()
    ablation = AblationFlags()
    params = model_mod.init_model(cfg, ablation, seed=68)
    for i in range(cfg.depth):
        params[f"fsa.block{i}.fuse_w"] = np.random.default_rng(70 + i).normal(
            size=params[f"fsa.block{i}.fuse_w"].shape) * 0.1
    params["head.attn.wo"] = np.random.default_rng(80).normal(
        size=params["head.attn.wo"].shape) * 0.2
    images = np.random.default_rng(69).random((2, cfg.image_size, cfg.image_size, 3))
    _open_kink_margins(params, images, cfg, gate=True)
    w = probe_weights((2, model_mod.descriptor_dim(cfg, "dfm")), seed=17)

    def fn(p):
        desc, tape = model_mod.model_forward(images, p, cfg, "dfm", True, cross=True)
        grads: dict = {}
        model_mod.model_backward(w, tape, p, grads)
        return float((w * desc).sum()), grads

    return _probe(fn, dict(params), "model.end_to_end", eps, tol, sample=6)


def build_suite(scope: str = "all"):
    """Resolve a scope name to the list of (name, runner) checks."""
    scope = SCOPE_ALIASES.get(scope, scope)
    checks = [
        ("ops.linear", _check_linear),
        ("ops.activations", _check_activations),
        ("ops.layernorm", _check_layernorm),
        ("ops.conv2d_stride1", lambda e, t: _check_conv(e, t, 1, "ops.conv2d_stride1")),
        ("ops.conv2d_stride2", lambda e, t: _check_conv(e, t, 2, "ops.conv2d_stride2")),
        ("ops.depthwise_conv2d", _check_depthwise),
        ("ops.bilinear_resize", _check_bilinear),
        ("ops.avg_pool2d", _check_avgpool),
        ("ops.attention", _check_attention),
        ("ops.gem_pool", _check_gem),
        ("spectral.dft2d", _check_dft),
        ("spectral.idft2d", _check_idft),
        ("spectral.frequency_branch", _check_frequency_branch),
        ("trainer.triplet_loss", _check_triplet),
        ("vit.patch_embed", _check_patch_embed),
        ("vit.block_with_fsa", _check_vit_block),
        ("vit.two_block_with_adapters", _check_vit_full),
        ("fsa.forward", _check_fsa_forward),
        ("cnn.forward", _check_cnn),
        ("cnn.align_upsample", _check_align),
        ("dfm.forward_paper_text", lambda e, t: _check_dfm(e, t, "paper-text")),
        ("dfm.forward_verbatim_eq5", lambda e, t: _check_dfm(e, t, "verbatim-eq5")),
        ("head.forward", _check_head),
        ("model.end_to_end", _check_end_to_end),
    ]
    if scope != "all":
        checks = [(n, f) for n, f in checks if n.split(".")[0] == scope]
        if not checks:
            raise ValueError(f"unknown gradcheck scope {scope!r}")
    return checks


def run_suite(scope: str = "all", eps: float = 1e-4, tol: float = 1e-4) -> list[GradCheckReport]:
    reports: list[GradCheckReport] = []
    for _, runner in build_suite(scope):
        out = runner(eps, tol)
        reports.extend(out if isinstance(out, list) else [out])
    return reports
