"""Per-stream response maps rendered to PPM files."""

from __future__ import annotations

import os

import numpy as np

from .model import stream_maps
from .ppm import colormap, upscale_nearest, write_ppm

STREAM_FILES = {"fvit": "fvit.ppm", "fres": "fres.ppm", "omega": "omega.ppm",
                "fused": "fused.ppm"}


def response_scalar(name: str, fmap: np.ndarray) -> np.ndarray:
    """Reduce a (G, G, C) map to a scalar field in [0, 1].

    Gate weights are already in (0, 1) and are shown as their channel mean;
    other streams show the channel L2 norm, min-max normalized.
    """
    if name == "omega":
        return fmap.mean(axis=-1)
    mag = np.sqrt((fmap ** 2).sum(axis=-1))
    span = mag.max() - mag.min()
    if span == 0.0:
        return np.zeros_like(mag)
    return (mag - mag.min()) / span


def export_heatmaps(image, params, cfg, out_dir) -> dict:
    """Write one PPM per available stream; returns {stream: path}."""
    os.makedirs(out_dir, exist_ok=True)
    maps = stream_maps(image, params, cfg)
    factor = max(1, cfg.image_size // cfg.grid)
    written = {}
    for name, fmap in maps.items():
        scalar = response_scalar(name, fmap)
        rgb = upscale_nearest(colormap(scalar), factor)
        path = os.path.join(out_dir, STREAM_FILES[name])
        write_ppm(path, rgb)
        written[name] = path
    return written
