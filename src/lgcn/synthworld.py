"""Deterministic synthetic place world: geotagged multi-condition renderings.

Each place is a seeded arrangement of rectangles ("buildings"), periodic
stripe bands ("roads"), and soft blobs ("vegetation") on a gradient
background, rendered on a canvas wider than the output so that viewpoint
shifts are genuine crops rather than wrap-arounds. Places sit on a grid
with 60 m spacing and per-view geotags jitter at most 4.5 m, so the
10 m / 25 m mining thresholds are always unambiguous.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .ppm import write_ppm
from .retrieval import EARTH_RADIUS_M, ManifestRecord, save_manifest

PLACE_SPACING_M = 60.0
GEOTAG_JITTER_M = 4.5
MAX_VIEW_OFFSET = 0.2
BASE_LAT = 37.0
BASE_LON = -122.0
# render_view places occluders of up to 18 px below the top third of the
# image, which needs size - 18 > size // 3
MIN_IMAGE_SIZE = 28

N_RECTS = 6
N_BLOBS = 5
N_STRIPE_FIELDS = 3
SIGNATURE_LEN = 6 + N_RECTS * 6 + N_STRIPE_FIELDS * 3 + N_BLOBS * 6 + 2


@dataclass
class PlaceSpec:
    place_id: str
    lat: float
    lon: float
    signature: np.ndarray  # uniform [0,1) vector driving the rendered geometry


@dataclass
class ViewCondition:
    offset: float        # horizontal viewpoint shift, fraction of image width
    gain: float
    bias: float
    noise_sigma: float
    tint: np.ndarray     # per-channel multiplier
    noise_seed: int
    n_occluders: int = 0  # transient high-contrast distractors ("vehicles")
    occluder_seed: int = 0

    def __post_init__(self):
        if not (-MAX_VIEW_OFFSET <= self.offset <= MAX_VIEW_OFFSET):
            raise ValueError(f"viewpoint offset {self.offset} out of range")


def make_place(world_seed: int, index: int, lat: float, lon: float) -> PlaceSpec:
    rng = np.random.default_rng([world_seed, index])
    return PlaceSpec(f"place{index:04d}", lat, lon, rng.random(SIGNATURE_LEN))


def sample_condition(world_seed: int, place_index: int, view_index: int) -> ViewCondition:
    """Per-view condition draw. Ranges are calibrated so raw-pixel matching
    degrades visibly while metric learning can still recover invariance at
    desk scale (a handful of epochs on a few hundred places)."""
    rng = np.random.default_rng([world_seed, place_index, view_index, 7])
    return ViewCondition(
        offset=float(rng.uniform(-0.015, 0.015)),
        gain=float(rng.uniform(0.93, 1.06)),
        bias=float(rng.uniform(-0.025, 0.035)),
        noise_sigma=float(rng.uniform(0.008, 0.025)),
        tint=rng.uniform(0.94, 1.06, size=3),
        noise_seed=int(rng.integers(0, 2**31)),
        n_occluders=1,
        occluder_seed=int(rng.integers(0, 2**31)),
    )


def _render_canvas(sig: np.ndarray, height: int, width: int) -> np.ndarray:
    """Rasterize the structural signature on an extra-wide canvas.

    Every place shares the same gross composition (banded facades over a
    mid-gray sky, striped road texture, a few vegetation blobs); identity
    lives in fine geometry: positions inside bands, stripe phase, widths,
    heights. Pixel distances between places are large while globally pooled
    statistics stay close, so raw features cannot shortcut retrieval.
    """
    s = iter(sig)

    def take(n):
        return np.array([next(s) for _ in range(n)])

    ys = np.linspace(0.0, 1.0, height)[:, None, None]
    c_top = 0.46 + 0.08 * take(3)
    c_bot = 0.46 + 0.08 * take(3)
    img = c_top * (1 - ys) + c_bot * ys
    img = np.broadcast_to(img, (height, width, 3)).copy()

    yy = np.arange(height)[:, None] / height
    xx = np.arange(width)[None, :] / height

    band_h = height // N_STRIPE_FIELDS
    for k in range(N_STRIPE_FIELDS):
        phase0, g, b = take(3)
        # Texture fields share orientation, period, and duty across every
        # place: pooled texture statistics are place-independent, and only
        # the PHASE (plus a slight color cast) identifies a place. Phase is
        # invisible to globally pooled features yet moves many pixels. Each
        # field owns one horizontal band so the phase mass never overpaints.
        theta = (0.12, 0.5, 0.85)[k] * math.pi
        period = (0.11, 0.08, 0.14)[k]
        phase = (xx * math.cos(theta) + yy * math.sin(theta) + phase0 * period) % period
        mask = np.zeros((height, width, 1), dtype=bool)
        rows = slice(k * band_h, height if k == N_STRIPE_FIELDS - 1 else (k + 1) * band_h)
        mask[rows] = (phase < period * 0.5)[rows][..., None]
        shade = (0.06, 0.92, 0.1)[k]
        color = np.clip(np.full(3, shade) + 0.03 * np.array([g, b, g * b]), 0, 1)
        img = np.where(mask, 0.15 * img + 0.85 * color, img)

    band = width / N_RECTS
    for k in range(N_RECTS):
        jx, w, h, r, g, b = take(6)
        x0 = int(band * (k + 0.08 + 0.84 * jx))
        half_w = max(2, int((0.55 + 0.25 * w) * band / 2))
        top_y = int((0.26 + 0.3 * (1 - h)) * height)
        # alternating facade shades, fixed for every place: only geometry
        # (position, width, height) and a small color jitter identify a place
        base = 0.06 if k % 2 == 0 else 0.88
        color = np.clip(base + 0.04 * np.array([r, g, b]), 0.0, 1.0)
        img[top_y:, max(0, x0 - half_w):min(width, x0 + half_w), :] = color

    for _ in range(N_BLOBS):
        cx, cy, rad, r, g, b = take(6)
        center_x = cx * width / height
        center_y = 0.4 + 0.6 * cy
        radius = 0.03 + 0.07 * rad
        d2 = (xx - center_x) ** 2 + (yy - center_y) ** 2
        alpha = np.exp(-d2 / (2 * radius ** 2))[..., None]
        color = np.array([0.14 + 0.08 * r, 0.38 + 0.14 * g, 0.14 + 0.08 * b])
        img = (1 - 0.8 * alpha) * img + 0.8 * alpha * color

    return np.clip(img, 0.0, 1.0)


def render_view(place: PlaceSpec, cond: ViewCondition, size: int) -> np.ndarray:
    """Deterministic (size, size, 3) rendering in [0, 1]."""
    margin = math.ceil(MAX_VIEW_OFFSET * size)
    canvas = _render_canvas(place.signature, size, size + 2 * margin)
    shift = int(round(cond.offset * size))
    x0 = margin + shift
    img = np.array(canvas[:, x0:x0 + size, :])
    if cond.n_occluders:
        occ = np.random.default_rng(cond.occluder_seed)
        for _ in range(cond.n_occluders):
            side = int(occ.integers(14, 19))
            oy = int(occ.integers(size // 3, size - side))
            ox = int(occ.integers(0, size - side))
            shade = 0.02 if occ.random() < 0.5 else 0.95
            img[oy:oy + side, ox:ox + side, :] = shade + 0.04 * occ.random(3)
    img = img * cond.tint
    if cond.noise_sigma > 0:
        noise = np.random.default_rng(cond.noise_seed).normal(0.0, cond.noise_sigma, img.shape)
        img = img + noise
    img = img * cond.gain + cond.bias
    return np.clip(img, 0.0, 1.0)


def _meters_to_degrees(dx_m: float, dy_m: float, lat: float) -> tuple[float, float]:
    dlat = dy_m / EARTH_RADIUS_M * 180.0 / math.pi
    dlon = dx_m / (EARTH_RADIUS_M * math.cos(math.radians(lat))) * 180.0 / math.pi
    return dlat, dlon


def generate_world(seed: int, n_places: int, views_per_place: int, out_dir,
                   image_size: int = 64):
    """Render a world to out_dir/images plus out_dir/manifest.csv.

    Returns the manifest records. Per place, the first half of the views is
    the database split and the rest are queries. A negative seed, or a count
    or an image size below its minimum, raises ConfigError.
    """
    for what, value, least in (("seed", seed, 0), ("places", n_places, 2),
                               ("views per place", views_per_place, 1),
                               ("image size", image_size, MIN_IMAGE_SIZE)):
        if value < least:
            raise ConfigError(f"{what} must be >= {least}, got {value}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    grid_side = math.ceil(math.sqrt(n_places))
    records = []
    n_db = (views_per_place + 1) // 2
    for idx in range(n_places):
        row, col = divmod(idx, grid_side)
        dlat, dlon = _meters_to_degrees(col * PLACE_SPACING_M, row * PLACE_SPACING_M, BASE_LAT)
        place = make_place(seed, idx, BASE_LAT + dlat, BASE_LON + dlon)
        for v in range(views_per_place):
            cond = sample_condition(seed, idx, v)
            img = render_view(place, cond, image_size)
            rel = f"images/p{idx:04d}_v{v}.ppm"
            write_ppm(os.path.join(out_dir, rel), img)
            jr = np.random.default_rng([seed, idx, v, 11])
            ang = jr.uniform(0, 2 * math.pi)
            rad = jr.uniform(0, GEOTAG_JITTER_M)
            jlat, jlon = _meters_to_degrees(rad * math.cos(ang), rad * math.sin(ang), place.lat)
            records.append(ManifestRecord(
                id=f"p{idx:04d}_v{v}",
                path=rel,
                lat=place.lat + jlat,
                lon=place.lon + jlon,
                place_id=place.place_id,
                split="database" if v < n_db else "query",
            ))
    save_manifest(records, os.path.join(out_dir, "manifest.csv"))
    return records
