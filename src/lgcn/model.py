"""Full image-to-descriptor model: stream construction, fusion, and backprop."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cnn, dfm, head, vit
from .config import AblationFlags, ModelConfig
from .fsa import init_fsa_params


def fusion_of(params) -> str:
    """The fusion a parameter dict encodes: the inverse of init_model.

    No CNN stream is "vit-only" and a DFM group is "dfm". Otherwise the head
    width decides: the two streams' channels side by side is "concat", one
    stream's worth is "sum" (the DFM dropped from a gated model at eval time).
    """
    groups = {name.split(".", 1)[0] for name in params}
    if "cnn" not in groups:
        return "vit-only"
    if "dfm" in groups:
        return "dfm"
    concat = params["head.attn.wq"].shape[0] == 2 * params["cnn.align.w"].shape[0]
    return "concat" if concat else "sum"


def descriptor_dim(params) -> int:
    return head.NUM_REGIONS * params["head.attn.wq"].shape[0]


def init_model(cfg: ModelConfig, ablation: AblationFlags, seed: int) -> dict:
    """Seeded parameter construction; insertion order is the archive order.

    The flags pick the parameter groups, and the groups are the variant:
    every forward reads its fusion from them (see fusion_of).
    """
    rng = np.random.default_rng(seed)
    params = {}
    params.update(vit.init_vit_params(cfg, rng))
    if not ablation.disable_fsa:
        for i in range(cfg.depth):
            params.update(init_fsa_params(cfg, rng, f"fsa.block{i}"))
    cnn_stream = not ablation.disable_cnn_stream
    if cnn_stream:
        params.update(cnn.init_cnn_params(cfg, rng))
        if not ablation.disable_dfm:
            params.update(dfm.init_dfm_params(cfg, rng))
    concat = cnn_stream and ablation.disable_dfm
    params.update(head.init_head_params(rng, (2 if concat else 1) * cfg.embed_dim))
    return params


@dataclass
class ModelTape:
    """Forward caches plus the intermediate maps the diagnostics read."""

    c_vit: object
    c_cnn: object
    c_align: object
    c_dfm: object
    c_head: object
    fusion: str
    fvit: np.ndarray
    fres: np.ndarray | None
    omega: np.ndarray | None
    fused: np.ndarray


def model_forward(images, params, cfg: ModelConfig, cross: bool = False):
    """images (B, S, S, 3) -> unit descriptors (B, D_out) plus the tape.

    The variant is the parameter groups present (fusion_of). cross=True turns
    on cross-image attention in the head (training mode); inference keeps
    images independent.
    """
    fusion = fusion_of(params)
    fvit, c_vit = vit.vit_forward(images, params, cfg)
    c_cnn = c_align = c_dfm = None
    fres = omega = None
    if fusion == "vit-only":
        fused = fvit
    else:
        fres_raw, c_cnn = cnn.cnn_forward(images, params, cfg)
        fres, c_align = cnn.align_upsample(fres_raw, params, cfg)
        if fusion == "dfm":
            fused, c_dfm = dfm.dfm_forward(fvit, fres, params, cfg.dfm_mode)
            omega = c_dfm[2]
        elif fusion == "concat":
            fused = np.concatenate([fvit, fres], axis=-1)
        else:  # sum: the DFM group dropped at eval time
            fused = fvit + fres
    desc, c_head = head.head_forward(fused, params, cfg.num_heads, cross)
    tape = ModelTape(c_vit, c_cnn, c_align, c_dfm, c_head, fusion, fvit, fres, omega, fused)
    return desc, tape


def model_backward(ddesc, tape: ModelTape, params, grads):
    """Backpropagate descriptor gradients into the grads dict."""
    dfused = head.head_backward(ddesc, tape.c_head, grads)
    if tape.fusion == "vit-only":
        dfvit, dfres = dfused, None
    elif tape.fusion == "dfm":
        dfvit, dfres = dfm.dfm_backward(dfused, tape.c_dfm, params, grads)
    elif tape.fusion == "concat":
        d = tape.fvit.shape[-1]
        dfvit, dfres = dfused[..., :d], dfused[..., d:]
    else:
        dfvit, dfres = dfused, dfused
    if dfres is not None:
        dfres_raw = cnn.align_backward(dfres, tape.c_align, grads)
        cnn.cnn_backward(dfres_raw, tape.c_cnn, grads)
    vit.vit_backward(dfvit, tape.c_vit, params, grads)


def compute_descriptors(images, params, cfg: ModelConfig, batch_size: int = 64,
                        threads: int = 1) -> np.ndarray:
    """Inference descriptors for a stack of images, batched, no cross talk."""
    n = images.shape[0]
    chunks = [images[i:i + batch_size] for i in range(0, n, batch_size)]

    def run(chunk):
        desc, _ = model_forward(chunk, params, cfg)
        return desc

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(run, chunks))
    else:
        outs = [run(c) for c in chunks]
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, descriptor_dim(params)))


def stream_maps(image, params, cfg: ModelConfig) -> dict:
    """Named per-stream maps for one image, for heatmap export."""
    _, tape = model_forward(image[None], params, cfg)
    maps = {"fvit": tape.fvit[0], "fused": tape.fused[0]}
    if tape.fres is not None:
        maps["fres"] = tape.fres[0]
    if tape.omega is not None:
        maps["omega"] = tape.omega[0]
    return maps
