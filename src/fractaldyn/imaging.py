"""Deterministic image and sidecar output.

Images are binary P6 pixmaps (maxval 255, row-major, top-left origin):
byte-identical output for identical fields on any platform. Escape
colors are normalized per image by the largest observed escape index, so
every plate uses its full ramp; Bounded cells are black and Invalid
cells a reserved magenta that no escape ramp produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import OrbitStatus, RasterField

INVALID_RGB = (255, 0, 255)

def _ramp(u: np.ndarray, stops) -> np.ndarray:
    """Piecewise-linear interpolation of rgb stops at u in [0, 1]."""
    pos = np.array([p for p, _ in stops])
    rgb = np.array([c for _, c in stops], dtype=float)
    out = np.empty(u.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        out[..., ch] = np.rint(np.interp(u, pos, rgb[:, ch])).astype(np.uint8)
    return out


@dataclass(frozen=True)
class PaletteRule:
    """Total map from orbit results to RGB: Bounded -> black, Invalid ->
    magenta, Escaped(n) -> a color monotone in n (normalized per image).

    ``stops`` are the escape ramp's gradient stops (position, rgb), with
    positions strictly increasing from 0 to 1."""

    name: str
    stops: tuple

    def colorize(self, field: RasterField) -> np.ndarray:
        status = field.status
        escaped = status == OrbitStatus.ESCAPED
        n_max = int(field.escape_iter[escaped].max()) if escaped.any() else 0
        u = (field.escape_iter.astype(float) + 1.0) / (n_max + 1.0)

        img = np.zeros(status.shape + (3,), dtype=np.uint8)
        img[escaped] = _ramp(u, self.stops)[escaped]
        img[status == OrbitStatus.INVALID] = INVALID_RGB
        return img


_BLACK, _WHITE = (0, 0, 0), (255, 255, 255)
PALETTES = {rule.name: rule for rule in (
    PaletteRule("grayscale", ((0.0, _BLACK), (1.0, _WHITE))),
    PaletteRule("classic", (
        (0.0, (10, 10, 90)),
        (0.35, (40, 120, 200)),
        (0.65, (120, 220, 230)),
        (1.0, _WHITE),
    )),
    PaletteRule("mono", ((0.0, _WHITE), (1.0, _WHITE))),
)}


def get_palette(name: str) -> PaletteRule:
    try:
        return PALETTES[name]
    except KeyError:
        raise ValueError(f"unknown palette {name!r}") from None


def write_image(field: RasterField, palette: PaletteRule, path) -> None:
    """Write the field as a binary P6 pixmap."""
    img = palette.colorize(field)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_metadata(config_dict: dict, stats: dict, path) -> None:
    """Write the run's sidecar: the fully resolved config plus run
    statistics (wall time, bounded-cell counts, any metrics computed)."""
    doc = {"config": _jsonable(config_dict), "stats": _jsonable(stats)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
