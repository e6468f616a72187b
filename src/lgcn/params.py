"""Parameter-dict helpers: init, gradient accumulation, freezing groups."""

from __future__ import annotations

import numpy as np

BACKBONE_PREFIX = "vit."


def acc_grad(grads: dict, name: str, g: np.ndarray) -> None:
    """Accumulate into grads[name] (parameters can feed several paths)."""
    if name in grads:
        grads[name] = grads[name] + g
    else:
        grads[name] = g


def normal_init(rng: np.random.Generator, shape, std=0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape)


def he_init(rng: np.random.Generator, shape, fan_in) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def scalar(value: float) -> np.ndarray:
    return np.array(float(value), dtype=np.float64)


def wants(trainable, *names) -> bool:
    """Whether a backward limited to `trainable` (None: every name) needs one of names."""
    return trainable is None or not trainable.isdisjoint(names)


def wants_group(trainable, *prefixes) -> bool:
    """Whether `trainable` (None: every name) holds a name under one of prefixes."""
    return trainable is None or any(n.startswith(prefixes) for n in trainable)


def trainable_names(params: dict, freeze_backbone: bool) -> list[str]:
    if not freeze_backbone:
        return list(params)
    return [n for n in params if not n.startswith(BACKBONE_PREFIX)]
