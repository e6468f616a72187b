"""Parameter-dict helpers: spec drawing, gradient accumulation, freezing groups."""

from __future__ import annotations

import numpy as np

from . import ops

BACKBONE_PREFIX = "vit."


def acc_grad(grads: dict, name: str, g: np.ndarray) -> None:
    """Accumulate into grads[name] (parameters can feed several paths)."""
    if name in grads:
        grads[name] = grads[name] + g
    else:
        grads[name] = g


def linear_grads(dy, cache, grads: dict, w_name: str, b_name=None, weights=True, inputs=True):
    """dx of a linear layer; with weights, its weight and bias (if any) gradients go to grads."""
    dx, dw, db = ops.linear_bwd(dy, cache, inputs, weights)
    if weights:
        acc_grad(grads, w_name, dw)
        if db is not None:
            acc_grad(grads, b_name, db)
    return dx


def normal(std=0.02):
    """Initialiser: N(0, std^2) draws."""
    return lambda rng, shape: rng.normal(0.0, std, size=shape)


def he(fan_in, gain):
    """Initialiser: He-normal draws times gain (folded into the std, it moves the last bit)."""
    return lambda rng, shape: rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape) * gain


def const(value):
    """Initialiser that fills the shape with value and draws nothing."""
    return lambda rng, shape: np.full(shape, float(value))


ZEROS = const(0.0)
ONES = const(1.0)


def draw(spec, rng) -> dict:
    """The parameter dict of an ordered (name, shape, initialiser) spec.

    Initialisers run in spec order and only the random ones consume rng.
    """
    return {name: init(rng, shape) for name, shape, init in spec}


def trainable_names(params: dict, freeze_backbone: bool) -> list[str]:
    if not freeze_backbone:
        return list(params)
    return [n for n in params if not n.startswith(BACKBONE_PREFIX)]
