"""Load a generated dataset directory: manifest plus image stack."""

from __future__ import annotations

import os

import numpy as np

from .ppm import read_ppm
from .retrieval import ManifestError, ManifestRecord, load_manifest


def load_dataset(data_dir) -> tuple[list[ManifestRecord], np.ndarray]:
    """Read manifest.csv and every referenced image, in record order."""
    manifest_path = os.path.join(data_dir, "manifest.csv")
    records = load_manifest(manifest_path)
    if not records:
        raise ManifestError(f"{manifest_path}: no records")
    paths = [os.path.join(data_dir, r.path) for r in records]
    images = [read_ppm(p) for p in paths]
    for path, image in zip(paths, images):
        if image.shape != images[0].shape:
            raise ValueError(f"{path}: image is {image.shape[1]}x{image.shape[0]}, but "
                             f"{paths[0]} is {images[0].shape[1]}x{images[0].shape[0]}")
    return records, np.stack(images)
