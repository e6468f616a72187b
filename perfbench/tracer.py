"""Per-layer tracing from outside the program, by rebinding module attributes.

Each entry of LAYERS names a function binding the program calls through
(a module attribute, or a method on a class) and the span it is charged to.
A function imported into several modules has one binding per module, and
each binding the program calls through is listed: `vit.attn.*` therefore
also holds the head's attention (`head` calls `mhsa_fwd`/`mhsa_bwd` through
its own imports), and `head.fwd/bwd` only the head's other work. Installing
replaces every binding with a timing wrapper; uninstalling puts the original
objects back.

A span's self time is its duration minus the time covered by its traced
children. Self times are summed per (phase, span), so the workload can
separate set-up from timed rounds.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span). Order matters only for readability.
LAYERS = [
    ("lgcn.synthworld", "generate_world", "synthworld.render"),
    ("lgcn.synthworld", "write_ppm", "ppm.write"),
    ("lgcn.synthworld", "save_manifest", "retrieval.manifest"),
    ("lgcn.dataset", "load_dataset", "dataset.load"),
    ("lgcn.dataset", "read_ppm", "ppm.read"),
    ("lgcn.dataset", "load_manifest", "retrieval.manifest"),
    ("lgcn.retrieval", "load_manifest", "retrieval.manifest"),
    ("lgcn.retrieval", "save_manifest", "retrieval.manifest"),
    ("lgcn.model", "init_model", "model.init"),
    ("lgcn.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("lgcn.trainer", "save_checkpoint", "checkpoint.save"),
    ("lgcn.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("lgcn.checkpoint", "save_descriptors", "checkpoint.desc_io"),
    ("lgcn.checkpoint", "load_descriptors", "checkpoint.desc_io"),
    ("lgcn.model", "compute_descriptors", "model.encode"),
    ("lgcn.model", "model_forward", "model.fwd"),
    ("lgcn.model", "model_backward", "model.bwd"),
    ("lgcn.vit", "patch_embed_fwd", "vit.patch.fwd"),
    ("lgcn.vit", "patch_embed_bwd", "vit.patch.bwd"),
    ("lgcn.vit", "vit_block_fwd", "vit.block.fwd"),
    ("lgcn.vit", "vit_block_bwd", "vit.block.bwd"),
    ("lgcn.vit", "mhsa_fwd", "vit.attn.fwd"),
    ("lgcn.vit", "mhsa_bwd", "vit.attn.bwd"),
    ("lgcn.head", "mhsa_fwd", "vit.attn.fwd"),
    ("lgcn.head", "mhsa_bwd", "vit.attn.bwd"),
    ("lgcn.vit", "ffn_fwd", "vit.ffn.fwd"),
    ("lgcn.vit", "ffn_bwd", "vit.ffn.bwd"),
    ("lgcn.fsa", "fsa_forward", "fsa.fwd"),
    ("lgcn.fsa", "fsa_backward", "fsa.bwd"),
    ("lgcn.cnn", "cnn_forward", "cnn.stages.fwd"),
    ("lgcn.cnn", "cnn_backward", "cnn.stages.bwd"),
    ("lgcn.cnn", "align_upsample", "cnn.align.fwd"),
    ("lgcn.cnn", "align_backward", "cnn.align.bwd"),
    ("lgcn.dfm", "dfm_forward", "dfm.fwd"),
    ("lgcn.dfm", "dfm_backward", "dfm.bwd"),
    ("lgcn.head", "head_forward", "head.fwd"),
    ("lgcn.head", "head_backward", "head.bwd"),
    ("lgcn.ops", "gelu_fwd", "ops.gelu.fwd"),
    ("lgcn.ops", "bilinear_resize_bwd", "ops.bilinear.bwd"),
    ("lgcn.trainer", "train", "trainer.train"),
    ("lgcn.trainer", "triplet_loss_fwd", "trainer.loss"),
    ("lgcn.trainer", "triplet_loss_bwd", "trainer.loss"),
    ("lgcn.trainer", "Adam.step", "trainer.adam"),
    ("lgcn.trainer", "mine_triplets", "trainer.mine"),
    ("lgcn.trainer", "_pair_masks", "trainer.pair_masks"),
    ("lgcn.trainer", "geodistance_matrix", "retrieval.geodist"),
    ("lgcn.trainer", "search", "retrieval.search"),
    ("lgcn.retrieval", "search", "retrieval.search"),
    ("lgcn.trainer", "recall_at_n", "retrieval.recall"),
    ("lgcn.retrieval", "recall_at_n", "retrieval.recall"),
    ("lgcn.retrieval", "ground_truth_sets", "retrieval.ground_truth"),
    ("lgcn.retrieval", "geodistance_matrix", "retrieval.geodist"),
]

# Spans charged per set-up rather than per timed item.
SETUP_SPANS = ("synthworld.render", "ppm.write", "ppm.read", "retrieval.manifest",
               "dataset.load", "model.init", "checkpoint.load", "checkpoint.desc_io")
SPANS = list(dict.fromkeys(span for _, _, span in LAYERS))

BACKBONE_PREFIX = "vit."  # frozen by default; its gradients are never applied


def resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Replaces attributes with wrappers and restores the originals, last first."""

    def __init__(self):
        self._saved = []

    def wrap(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = resolve(module, path)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Self time per (phase, span) plus the counters the per-layer ratios need."""

    def __init__(self):
        self.phase = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[float] = []  # time covered by children of each open span
        self._patcher = Patcher()

    def install(self) -> None:
        for module, path, span in LAYERS:
            observe = _OBSERVERS.get((module, path))
            self._patcher.wrap(module, path,
                               lambda fn, s=span, o=observe: self._wrapper(fn, s, o))

    def uninstall(self) -> None:
        self._patcher.restore()

    def add_child_time(self, seconds: float) -> None:
        """Charge time spent outside the program (a probe) to no span."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrapper(self, fn, span, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                if self.phase is not None:
                    self.self_s[(self.phase, span)] += dur - child
            if observe is not None and self.phase is not None:
                observe(self.counts, self.phase, args, result)
            return result

        return traced


def _count_encoded(counts, phase, args, result):
    counts[(phase, "images_encoded")] += args[0].shape[0]


def _count_param_grads(counts, phase, args, result):
    grads = args[3]
    counts[(phase, "grad_elems")] += sum(g.size for g in grads.values())
    counts[(phase, "grad_useful")] += sum(g.size for n, g in grads.items()
                                          if not n.startswith(BACKBONE_PREFIX))


def _count_image_grad(counts, phase, args, result):
    # The image gradient leaving a stream is computed and then dropped.
    counts[(phase, "grad_elems")] += result.size


def _count_hinge(counts, phase, args, result):
    _, (_, _, _, active, rows) = result
    counts[(phase, "hinge_active")] += int(active.sum())
    counts[(phase, "hinge_rows")] += rows


# Counters read at the same boundaries the spans time, keyed by binding.
_OBSERVERS = {
    ("lgcn.model", "compute_descriptors"): _count_encoded,
    ("lgcn.model", "model_backward"): _count_param_grads,
    ("lgcn.vit", "patch_embed_bwd"): _count_image_grad,
    ("lgcn.cnn", "cnn_backward"): _count_image_grad,
    ("lgcn.trainer", "triplet_loss_fwd"): _count_hinge,
}
