"""Full image-to-descriptor model: stream construction, fusion, and backprop."""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cnn, dfm, fsa, head, vit
from .config import AblationFlags, ModelConfig
from .params import BACKBONE_PREFIX, acc_grad, draw


def fusion_of(params) -> str:
    """The fusion a parameter dict encodes: the inverse of param_spec.

    No CNN stream is "vit-only", a DFM group is "dfm", and a CNN stream
    without one is "concat".
    """
    groups = {name.split(".", 1)[0] for name in params}
    if "cnn" not in groups:
        return "vit-only"
    return "dfm" if "dfm" in groups else "concat"


def descriptor_dim(params) -> int:
    return head.NUM_REGIONS * params["head.attn.wq"].shape[0]


# The parameter groups each ablation flag leaves out: param_spec never lists
# them, and eval/heatmap drop them from a checkpoint.
DROPPED_GROUPS = {"disable_fsa": ("fsa.",), "disable_cnn_stream": ("cnn.", "dfm."),
                  "disable_dfm": ("dfm.",)}


def dropped_groups(flags) -> tuple[str, ...]:
    """Name prefixes of the groups that flags (AblationFlags or parsed args) leave out."""
    return tuple(prefix for flag, prefixes in DROPPED_GROUPS.items() if getattr(flags, flag)
                 for prefix in prefixes)


def param_spec(cfg: ModelConfig, ablation: AblationFlags):
    """The variant's (name, shape, initialiser) entries, in archive order, made as they are read.

    The flags pick the groups, and every forward reads its fusion from them (fusion_of)."""
    concat = not ablation.disable_cnn_stream and ablation.disable_dfm
    spec = itertools.chain(
        vit.vit_spec(cfg),
        (entry for i in range(cfg.depth) for entry in fsa.fsa_spec(cfg, f"fsa.block{i}")),
        cnn.cnn_spec(cfg), dfm.dfm_spec(cfg), head.head_spec((2 if concat else 1) * cfg.embed_dim))
    drop = dropped_groups(ablation)
    return (entry for entry in spec if not entry[0].startswith(drop))


def init_model(cfg: ModelConfig, ablation: AblationFlags, seed: int) -> dict:
    """Seeded parameters of the variant that param_spec lists."""
    return draw(param_spec(cfg, ablation), np.random.default_rng(seed))


# Images per stream pass. Each image's work ends at `fused`, so sub-batches run
# on the pool and only the head sees the whole batch. A constant, so neither
# the pool's size nor the host moves a byte.
SUB_BATCH = 8

_POOL = None
_POOL_LOCK = threading.Lock()


def _map(fn, items) -> list:
    """[fn(x) for x in items], on the shared pool when there is more than one."""
    global _POOL
    if len(items) == 1:
        return [fn(items[0])]
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0))
                                       if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return list(_POOL.map(fn, items))


@dataclass
class ModelTape:
    """The forward caches model_backward reads.

    streams holds one (c_vit, c_cnn, c_align, c_dfm) per sub-batch.
    """

    streams: list
    c_head: object
    fusion: str


def _streams_forward(images, params, cfg: ModelConfig, fusion: str, keep: bool, backbone: bool):
    """One sub-batch through both streams: (caches, fvit, fres, omega, fused)."""
    fvit, c_vit = vit.vit_forward(images, params, cfg, keep, backbone)
    c_cnn = c_align = c_dfm = None
    fres = omega = None
    if fusion == "vit-only":
        fused = fvit
    else:
        fres_raw, c_cnn = cnn.cnn_forward(images, params, cfg, keep)
        fres, c_align = cnn.align_upsample(fres_raw, params, cfg)
        if fusion == "dfm":
            fused, c_dfm = dfm.dfm_forward(fvit, fres, params)
            omega = c_dfm[2]
        else:
            fused = np.concatenate([fvit, fres], axis=-1)
    if not keep:
        c_align = c_dfm = None
    return (c_vit, c_cnn, c_align, c_dfm), fvit, fres, omega, fused


def model_forward(images, params, cfg: ModelConfig, cross: bool = False, trainable=None):
    """images (B, S, S, 3) -> unit descriptors (B, D_out) plus the tape.

    The variant is the parameter groups present (fusion_of). The streams run
    in SUB_BATCH-image sub-batches, then the head on the whole batch.
    cross=True turns on cross-image attention in the head (training mode);
    inference keeps images independent. The tape keeps only the caches
    model_backward reads, and trainable (None: every name) decides them by
    two facts: an empty set keeps no tape, and a set without a vit.* name
    freezes the backbone, whose tape vit.vit_forward trims.
    """
    fusion = fusion_of(params)
    keep = trainable is None or bool(trainable)
    backbone = trainable is None or any(n.startswith(BACKBONE_PREFIX) for n in trainable)
    # An empty batch is one empty sub-batch.
    subs = [images[i:i + SUB_BATCH] for i in range(0, max(images.shape[0], 1), SUB_BATCH)]
    outs = _map(lambda x: _streams_forward(x, params, cfg, fusion, keep, backbone), subs)
    fused = outs[0][4] if len(outs) == 1 else np.concatenate([o[4] for o in outs])
    desc, c_head = head.head_forward(fused, params, cfg.num_heads, cross)
    return desc, ModelTape([o[0] for o in outs], c_head if keep else None, fusion)


def _streams_backward(dfused, caches, fusion: str, params) -> dict:
    """One sub-batch's parameter gradients, in a dict of its own."""
    c_vit, c_cnn, c_align, c_dfm = caches
    grads: dict = {}
    if fusion == "vit-only":
        dfvit, dfres = dfused, None
    elif fusion == "dfm":
        dfvit, dfres = dfm.dfm_backward(dfused, c_dfm, params, grads)
    else:
        d = dfused.shape[-1] // 2
        dfvit, dfres = dfused[..., :d], dfused[..., d:]
    if dfres is not None:
        dfres_raw = cnn.align_backward(dfres, c_align, grads)
        cnn.cnn_backward(dfres_raw, c_cnn, grads, image_grad=False)
    vit.vit_backward(dfvit, c_vit, params, grads, image_grad=False)
    return grads


def model_backward(ddesc, tape: ModelTape, params, grads):
    """Backpropagate descriptor gradients into the grads dict.

    The tape decides the gradients: a full tape gives every parameter's,
    and a frozen backbone's tape every one but the vit.* weights', bitwise
    those of the full tape. No image gradient is computed. The head runs
    once; the sub-batches run on the pool and their gradients are added in
    sub-batch order.
    """
    dfused = head.head_backward(ddesc, tape.c_head, grads)
    parts = _map(lambda i: _streams_backward(dfused[i * SUB_BATCH:(i + 1) * SUB_BATCH],
                                             tape.streams[i], tape.fusion, params),
                 range(len(tape.streams)))
    for part in parts:
        for name, g in part.items():
            acc_grad(grads, name, g)


def compute_descriptors(images, params, cfg: ModelConfig, batch_size: int = 64) -> np.ndarray:
    """Inference descriptors for a stack of images, batched, no cross talk."""
    outs = [model_forward(images[i:i + batch_size], params, cfg, trainable=set())[0]
            for i in range(0, images.shape[0], batch_size)]
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, descriptor_dim(params)))


def stream_maps(image, params, cfg: ModelConfig) -> dict:
    """Named per-stream maps for one image, for heatmap export."""
    _, fvit, fres, omega, fused = _streams_forward(image[None], params, cfg, fusion_of(params),
                                                   keep=False, backbone=False)
    maps = {"fvit": fvit, "fres": fres, "omega": omega, "fused": fused}
    maps = {name: m[0] for name, m in maps.items() if m is not None}
    bad = [name for name, m in maps.items() if not np.all(np.isfinite(m))]
    if bad:
        raise FloatingPointError(f"stream_maps: the {', '.join(bad)} maps hold NaN or "
                                 "infinite values; the weights overflow the forward")
    return maps
