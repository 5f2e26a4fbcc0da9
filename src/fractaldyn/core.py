"""Raster windows of the complex plane and per-pixel orbit storage.

A window is sampled at pixel centers. Pixel (0, 0) is the top-left corner
of the window (minimum real part, maximum imaginary part); the column
index i grows with the real part and the row index j grows downward,
decreasing the imaginary part. Offsets from the window center are
half-integer multiples of the pixel pitch, which are exact in binary
floating point: on an origin-centered grid the sample points come in
exact +/-z pairs, so symmetric sets rasterize symmetrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# cells per tile of all per-cell work (orbit kernel, map and flow evaluation,
# forward splat): a tile's temporaries fit a core's L2 whatever the frame size
_TILE_CELLS = 32768


class DomainError(ValueError):
    """A point lies outside a map's or flow's valid domain."""


def require_finite(z: complex, name: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def _apart(n: int, size: float, mid: float) -> bool:
    """Whether the n centers mid +- (i + 0.5 - n/2) * pitch, pitch = size / n,
    as GridSpec.axes() forms them, are sure to be strictly monotone. Below
    2^52 centers the offsets i + 0.5 - n/2 are exact; each product is then
    off by at most ulp(w)/2 and each sum by at most ulp(m)/2, w and m being
    the outermost product and center, so neighbours, |pitch| apart before
    rounding, stay apart when |pitch| > ulp(w) + ulp(m). At a smaller pitch,
    at most two float spacings at the window's edge, centers meet or nearly."""
    if n >= 2 ** 52:
        return False
    pitch = size / n
    w = (n / 2 - 0.5) * pitch
    return n == 1 or pitch > math.ulp(w) + math.ulp(max(abs(mid - w), abs(mid + w)))


def evaluate(fn, z, what: str):
    """fn(z) for an elementwise map fn of complex128 arrays that returns
    NaN where it is undefined, run with floating-point warnings off. An
    ndarray keeps those NaN entries; fn runs on each contiguous tile of
    _TILE_CELLS flat cells into one output, so any tile size gives the same
    result. A scalar must be finite, goes through a one-element array and
    raises DomainError there."""
    if isinstance(z, np.ndarray):
        flat = np.asarray(z, dtype=np.complex128).reshape(-1)
        out = np.empty(flat.size, dtype=np.complex128)
        with np.errstate(all="ignore"):
            for lo in range(0, flat.size, _TILE_CELLS):
                out[lo:lo + _TILE_CELLS] = fn(flat[lo:lo + _TILE_CELLS])
        return out.reshape(z.shape)
    z = require_finite(z, "z")
    w = complex(evaluate(fn, np.array([z]), what)[0])
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"{what} undefined at {z}")
    return w


class OrbitStatus(IntEnum):
    BOUNDED = 0
    ESCAPED = 1
    INVALID = 2


@dataclass(frozen=True)
class OrbitResult:
    """Boundedness verdict for one seed.

    ``escape_iter`` is the first orbit index whose magnitude exceeded the
    escape radius (None unless escaped); ``last_magnitude`` is the
    magnitude at escape, or the final orbit magnitude for bounded seeds.
    """

    status: OrbitStatus
    escape_iter: int | None
    last_magnitude: float

    @classmethod
    def bounded(cls, magnitude: float) -> "OrbitResult":
        return cls(OrbitStatus.BOUNDED, None, float(magnitude))

    @classmethod
    def escaped(cls, iteration: int, magnitude: float) -> "OrbitResult":
        return cls(OrbitStatus.ESCAPED, int(iteration), float(magnitude))

    @classmethod
    def invalid(cls) -> "OrbitResult":
        return cls(OrbitStatus.INVALID, None, 0.0)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular window of the plane discretized to px_w x px_h pixels."""

    center: complex
    width: float
    height: float
    px_w: int
    px_h: int

    def __post_init__(self):
        require_finite(self.center, "center")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not (self.height > 0 and math.isfinite(self.height)):
            raise ValueError(f"height must be positive and finite, got {self.height}")
        if self.px_w < 1 or self.px_h < 1:
            raise ValueError("pixel counts must be >= 1")
        for name, n, size, mid in (("column", self.px_w, self.width, self.center.real),
                                   ("row", self.px_h, self.height, self.center.imag)):
            if not _apart(n, size, mid):
                raise ValueError(f"{name} centers collapse: {n} pixels over {size:.3g} "
                                 f"are too fine for the float spacing at {mid:.17g}")

    @property
    def dx(self) -> float:
        return self.width / self.px_w

    @property
    def dy(self) -> float:
        return self.height / self.px_h

    @property
    def half_pixel_diag(self) -> float:
        return math.hypot(self.dx, self.dy) / 2.0

    def point_of(self, i: int, j: int) -> complex:
        """Center of pixel (i, j); i indexes columns, j rows (top-down)."""
        if not (0 <= i < self.px_w and 0 <= j < self.px_h):
            raise IndexError(f"pixel ({i}, {j}) outside {self.px_w}x{self.px_h} grid")
        re = self.center.real + (i + 0.5 - self.px_w / 2) * self.dx
        im = self.center.imag - (j + 0.5 - self.px_h / 2) * self.dy
        return complex(re, im)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The real parts of the column centers and the imaginary parts of
        the row centers, with point_of's arithmetic."""
        xs = (np.arange(self.px_w) + 0.5 - self.px_w / 2) * self.dx + self.center.real
        ys = self.center.imag - (np.arange(self.px_h) + 0.5 - self.px_h / 2) * self.dy
        return xs, ys

    def points(self) -> np.ndarray:
        """All pixel centers as a (px_h, px_w) complex array, row-major.

        Entry [j, i] is xs[i] + (1j * ys)[j] from axes(), so entries match
        point_of bitwise.
        """
        xs, ys = self.axes()
        return xs[np.newaxis, :] + 1j * ys[:, np.newaxis]

    def _pixel_coords(self, re, im):
        """Pixel coordinates (u, v) of the points re + i*im, where pixel
        (i, j) spans [i, i+1) x [j, j+1) (the last column and row also take
        u = px_w and v = px_h). Each is a subtraction, a division
        by the pitch and an addition, each rounded monotonically, so u never
        decreases as re grows and v never decreases as im falls."""
        return ((re - self.center.real) / self.dx + self.px_w / 2,
                (self.center.imag - im) / self.dy + self.px_h / 2)

    def pixel_of(self, z: complex) -> tuple[int, int] | None:
        """Pixel whose center is nearest to z, or None outside the window."""
        z = require_finite(z, "z")
        u, v = self._pixel_coords(z.real, z.imag)
        if not (0.0 <= u <= self.px_w and 0.0 <= v <= self.px_h):
            return None
        i = min(int(u), self.px_w - 1)
        j = min(int(v), self.px_h - 1)
        return i, j

    def pixels_hit(self, z: np.ndarray) -> np.ndarray:
        """Flat indices j * px_w + i of the pixels pixel_of gives for the
        points of z in the window. NaN and inf fail the bound tests, and
        truncation is floor on u, v >= 0, so only in-window points are
        indexed."""
        with np.errstate(over="ignore", invalid="ignore"):
            u, v = self._pixel_coords(z.real, z.imag)
            inside = (u >= 0.0) & (u <= self.px_w) & (v >= 0.0) & (v <= self.px_h)
        i = np.minimum(u[inside].astype(np.int64), self.px_w - 1)
        j = np.minimum(v[inside].astype(np.int64), self.px_h - 1)
        return j * self.px_w + i

    def affine_image(self, a: complex, b: complex, pad: float = 1.0) -> "GridSpec":
        """Axis-aligned window containing the image under z -> a*z + b.

        For non-real a the image rectangle is rotated; this returns the grid
        scaled by |a| about the mapped center, optionally padded.
        """
        a = complex(a)
        if a == 0:
            raise ValueError("a must be nonzero")
        s = abs(a) * pad
        return GridSpec(a * self.center + b, self.width * s, self.height * s,
                        self.px_w, self.px_h)


@dataclass
class RasterField:
    """Per-pixel orbit results over a grid, stored as parallel arrays of
    shape (px_h, px_w) indexed [j, i]."""

    grid: GridSpec
    status: np.ndarray
    escape_iter: np.ndarray
    last_magnitude: np.ndarray

    def __post_init__(self):
        shape = (self.grid.px_h, self.grid.px_w)
        for name in ("status", "escape_iter", "last_magnitude"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @classmethod
    def filled(cls, grid: GridSpec, status: int = OrbitStatus.ESCAPED) -> "RasterField":
        shape = (grid.px_h, grid.px_w)
        return cls(
            grid=grid,
            status=np.full(shape, status, dtype=np.uint8),
            escape_iter=np.zeros(shape, dtype=np.int32),
            last_magnitude=np.zeros(shape, dtype=np.float64),
        )

    def bounded_mask(self) -> np.ndarray:
        return self.status == OrbitStatus.BOUNDED

    def invalid_mask(self) -> np.ndarray:
        return self.status == OrbitStatus.INVALID

    def bounded_count(self) -> int:
        return int(self.bounded_mask().sum())

    def cell(self, i: int, j: int) -> OrbitResult:
        """Orbit result at pixel (i, j) (column i, row j)."""
        if not (0 <= i < self.grid.px_w and 0 <= j < self.grid.px_h):
            raise IndexError(f"pixel ({i}, {j}) out of range")
        s = OrbitStatus(int(self.status[j, i]))
        if s == OrbitStatus.ESCAPED:
            return OrbitResult.escaped(int(self.escape_iter[j, i]),
                                       float(self.last_magnitude[j, i]))
        if s == OrbitStatus.INVALID:
            return OrbitResult.invalid()
        return OrbitResult.bounded(float(self.last_magnitude[j, i]))
