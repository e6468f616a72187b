"""Full image-to-descriptor model: stream construction, fusion, and backprop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cnn, dfm, fsa, head, vit
from .config import AblationFlags, ModelConfig
from .params import draw


def fusion_of(params) -> str:
    """The fusion a parameter dict encodes: the inverse of param_spec.

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


# The parameter groups each ablation flag leaves out: param_spec never lists
# them, and eval/heatmap drop them from a checkpoint.
DROPPED_GROUPS = {"disable_fsa": ("fsa.",), "disable_cnn_stream": ("cnn.", "dfm."),
                  "disable_dfm": ("dfm.",)}


def dropped_groups(flags) -> tuple[str, ...]:
    """Name prefixes of the groups that flags (AblationFlags or parsed args) leave out."""
    return tuple(prefix for flag, prefixes in DROPPED_GROUPS.items() if getattr(flags, flag)
                 for prefix in prefixes)


def param_spec(cfg: ModelConfig, ablation: AblationFlags) -> list:
    """The variant's (name, shape, initialiser) list, in archive order.

    The flags pick the groups, and every forward reads its fusion from them (fusion_of)."""
    concat = not ablation.disable_cnn_stream and ablation.disable_dfm
    spec = [*vit.vit_spec(cfg),
            *(entry for i in range(cfg.depth) for entry in fsa.fsa_spec(cfg, f"fsa.block{i}")),
            *cnn.cnn_spec(cfg), *dfm.dfm_spec(cfg),
            *head.head_spec((2 if concat else 1) * cfg.embed_dim)]
    drop = dropped_groups(ablation)
    return [entry for entry in spec if not entry[0].startswith(drop)]


def init_model(cfg: ModelConfig, ablation: AblationFlags, seed: int) -> dict:
    """Seeded parameters of the variant that param_spec lists."""
    return draw(param_spec(cfg, ablation), np.random.default_rng(seed))


@dataclass
class ModelTape:
    """Forward caches plus the intermediate maps the diagnostics read.

    trainable is the set the caches were kept for (None: every cache).
    """

    trainable: set | None
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


def model_forward(images, params, cfg: ModelConfig, cross: bool = False, trainable=None):
    """images (B, S, S, 3) -> unit descriptors (B, D_out) plus the tape.

    The variant is the parameter groups present (fusion_of). cross=True turns
    on cross-image attention in the head (training mode); inference keeps
    images independent. The tape keeps only the caches model_backward reads
    under the same trainable: None keeps all of them (the gradcheck path), a
    set none of the frozen ViT prefix's (vit.first_trained_block), and an
    empty set none at all. fvit, fres, omega and fused are always kept.
    """
    fusion = fusion_of(params)
    keep = trainable is None or bool(trainable)
    fvit, c_vit = vit.vit_forward(images, params, cfg, trainable)
    c_cnn = c_align = c_dfm = None
    fres = omega = None
    if fusion == "vit-only":
        fused = fvit
    else:
        fres_raw, c_cnn = cnn.cnn_forward(images, params, cfg, keep)
        fres, c_align = cnn.align_upsample(fres_raw, params, cfg)
        if fusion == "dfm":
            fused, c_dfm = dfm.dfm_forward(fvit, fres, params, cfg.dfm_mode)
            omega = c_dfm[2]
        elif fusion == "concat":
            fused = np.concatenate([fvit, fres], axis=-1)
        else:  # sum: the DFM group dropped at eval time
            fused = fvit + fres
    desc, c_head = head.head_forward(fused, params, cfg.num_heads, cross)
    if not keep:
        c_align = c_dfm = c_head = None
    tape = ModelTape(trainable, c_vit, c_cnn, c_align, c_dfm, c_head, fusion, fvit, fres, omega,
                     fused)
    return desc, tape


def model_backward(ddesc, tape: ModelTape, params, grads, trainable=None):
    """Backpropagate descriptor gradients into the grads dict.

    trainable=None computes every parameter's gradient and both streams'
    image gradients (the gradcheck path). Given the set of trainable names,
    frozen vit.* weights get no gradient and neither stream computes an image
    gradient (vit.vit_backward, cnn.cnn_backward); the gradients it does
    compute are bitwise those of the full path. The tape must come from
    model_forward with trainable=None or with this same set.
    """
    if tape.trainable is not None and tape.trainable != trainable:
        raise ValueError("model_backward: the tape was kept for another trainable set")
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
        cnn.cnn_backward(dfres_raw, tape.c_cnn, grads, image_grad=trainable is None)
    vit.vit_backward(dfvit, tape.c_vit, params, grads, trainable)


def compute_descriptors(images, params, cfg: ModelConfig, batch_size: int = 64) -> np.ndarray:
    """Inference descriptors for a stack of images, batched, no cross talk."""
    outs = [model_forward(images[i:i + batch_size], params, cfg, trainable=set())[0]
            for i in range(0, images.shape[0], batch_size)]
    return np.concatenate(outs, axis=0) if outs else np.zeros((0, descriptor_dim(params)))


def stream_maps(image, params, cfg: ModelConfig) -> dict:
    """Named per-stream maps for one image, for heatmap export."""
    _, tape = model_forward(image[None], params, cfg, trainable=set())
    maps = {"fvit": tape.fvit[0], "fused": tape.fused[0]}
    if tape.fres is not None:
        maps["fres"] = tape.fres[0]
    if tape.omega is not None:
        maps["omega"] = tape.omega[0]
    return maps
