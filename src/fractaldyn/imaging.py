"""Deterministic image and sidecar output.

Images are binary P6 pixmaps (maxval 255, row-major, top-left origin):
byte-identical output for identical fields on any platform. Escape
colors are normalized per image by the largest observed escape index, so
every plate uses its full ramp; Bounded cells are black and Invalid
cells a reserved magenta that no escape ramp produces. Each frame is one
lookup into a table with a row per escape index, so the ramp runs once
per index, not per cell, over at most max_iter rows (see ``colorize``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import _TILE_CELLS, OrbitStatus, RasterField

INVALID_RGB = (255, 0, 255)


@dataclass(frozen=True)
class PaletteRule:
    """Total map from orbit results to RGB: Bounded -> black, Invalid ->
    magenta, Escaped(n) -> a color monotone in n (normalized per image).

    ``stops`` are the escape ramp's gradient stops (position, rgb), with
    positions strictly increasing from 0.0 to 1.0 and rgb integers in
    0..255; other stops raise ``ValueError``."""

    name: str
    stops: tuple

    def __post_init__(self):
        pos = [p for p, _ in self.stops]
        if pos[:1] != [0.0] or pos[-1] != 1.0 or not all(a < b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"palette {self.name!r}: positions must rise strictly from 0 to 1")
        if not all(len(rgb) == 3 and all(isinstance(v, (int, np.integer)) and 0 <= v <= 255
                                         for v in rgb) for _, rgb in self.stops):
            raise ValueError(f"palette {self.name!r}: rgb must be integers in 0..255")

    def colorize(self, field: RasterField) -> np.ndarray:
        """RGB image (px_h, px_w, 3) as one ``take`` from a table: the ramp at
        u = (k + 1) / (hi + 1) for each escape index k in [lo, hi], the range
        over Escaped cells, then a black (Bounded) and a magenta (Invalid) row.
        A ramp row that rounds to black is drawn (1, 1, 1) instead.
        Fields the package makes have escape indices in [0, max_iter), so the
        table has at most max_iter ramp rows, no more than the kernel ran;
        a negative index raises ValueError. Row indices are formed and
        looked up one tile of _TILE_CELLS cells at a time, straight into
        the image, so the only frame-sized temporaries are bytes and the
        escape indices of the Escaped cells."""
        escaped = field.status == OrbitStatus.ESCAPED
        k = field.escape_iter[escaped]
        lo, hi = (int(k.min()), int(k.max())) if k.size else (1, 0)  # empty ramp, n_max 0
        if lo < 0:
            raise ValueError(f"escape indices must be >= 0, got {lo}")
        u = (np.arange(lo, hi + 1).astype(float) + 1.0) / (hi + 1.0)
        pos, rgb = zip(*self.stops)
        ramp = np.rint(np.stack([np.interp(u, pos, channel) for channel in zip(*rgb)], axis=-1))
        ramp[~ramp.any(axis=-1)] = 1  # one step off black, so no Escaped cell looks Bounded
        table = np.concatenate([ramp, [(0, 0, 0), INVALID_RGB]]).astype(np.uint8)
        status, k, escaped = (a.reshape(-1) for a in (field.status, field.escape_iter, escaped))
        image = np.empty(field.status.shape + (3,), dtype=np.uint8)
        pixels = image.reshape(-1, 3)
        for start in range(0, status.size, _TILE_CELLS):
            tile = slice(start, start + _TILE_CELLS)
            code = np.where(escaped[tile], k[tile] - lo,
                            np.where(status[tile] == OrbitStatus.INVALID, u.size + 1, u.size))
            table.take(code, axis=0, out=pixels[tile])
        return image


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
        fh.write(memoryview(img))  # the image's own bytes, not a copy


def _jsonable(value):
    """``json.dump`` fallback: complex -> [re, im], numpy arrays and scalars
    -> Python lists and numbers; json encodes dicts, lists and tuples."""
    return [value.real, value.imag] if isinstance(value, complex) else value.tolist()


def write_metadata(config_dict: dict, stats: dict, path) -> None:
    """Write the run's sidecar: the fully resolved config plus run
    statistics (wall time, bounded-cell counts, any metrics computed)."""
    doc = {"config": config_dict, "stats": stats}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
