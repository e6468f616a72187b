"""Binary PPM (P6) read/write and a fixed colormap for diagnostics."""

from __future__ import annotations

import numpy as np

from .checkpoint import atomic_write


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0, 1] as an 8-bit binary PPM."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm: expected (H, W, 3), got {image.shape}")
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with atomic_write(path, "wb") as fh:
        fh.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into an (H, W, 3) float64 image in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos] in b" \t\r\n":
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and raw[pos] not in b" \t\r\n":
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6)")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise ValueError(f"{path}: PPM header fields are not integers: "
                         f"{b' '.join(fields[1:])!r}") from None
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    size = width * height * 3
    if width < 1 or height < 1 or len(raw) - pos < size:
        raise ValueError(f"{path}: a {width}x{height} PPM needs {size} pixel bytes, "
                         f"found {max(len(raw) - pos, 0)}")
    data = np.frombuffer(raw, dtype=np.uint8, count=size, offset=pos)
    return data.reshape(height, width, 3).astype(np.float64) / 255.0


# Piecewise-linear gradient: dark blue -> teal -> yellow -> warm red.
_STOPS = np.array([
    [0.05, 0.03, 0.35],
    [0.05, 0.55, 0.55],
    [0.95, 0.90, 0.10],
    [0.90, 0.15, 0.10],
])


def colormap(values: np.ndarray) -> np.ndarray:
    """Map scalars in [0, 1] to RGB via the fixed gradient."""
    if not np.all(np.isfinite(values)):
        raise ValueError("colormap: values hold NaN or infinite entries")
    v = np.clip(values, 0.0, 1.0)
    pos = v * (len(_STOPS) - 1)
    lo = np.minimum(np.floor(pos).astype(int), len(_STOPS) - 2)
    frac = (pos - lo)[..., None]
    return _STOPS[lo] * (1 - frac) + _STOPS[lo + 1] * frac


def upscale_nearest(image: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(image, factor, axis=0), factor, axis=1)
