"""Raster verification metrics: box-counting dimension, mask comparison,
and the runner-and-tortoise line diagrams.

Box counting is the computable stand-in for Hausdorff dimension: cover
the Bounded cells with grid-aligned boxes of dyadic pixel size eps and
fit the slope of log N(eps) against log(1/eps). The slope is exact for
the calibration masks (filled square -> 2, straight line -> 1) and is
preserved under bi-Lipschitz images up to rasterization noise, which is
what the dimension-invariance checks exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, OrbitStatus, RasterField


class EmptyMaskError(ValueError):
    """Box counting needs at least one Bounded cell."""


class InsufficientScalesError(ValueError):
    """Fewer than 3 dyadic box sizes fit between the given bounds."""


class MasksUndefinedError(ValueError):
    """Mask comparison is undefined when both masks are empty."""


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    r_squared: float
    scales_used: tuple[int, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class MaskComparison:
    jaccard: float
    hausdorff_px: float


@dataclass(frozen=True)
class ZenoDiagram:
    """Vertical-line diagram of a geometric pursuit: line i has height
    heights[i] at time times[i], each height half the previous one."""

    times: tuple[float, ...]
    heights: tuple[float, ...]


def _box_count(mask: np.ndarray, size: int) -> int:
    h, w = mask.shape
    ph = (size - h % size) % size
    pw = (size - w % size) % size
    if ph or pw:
        mask = np.pad(mask, ((0, ph), (0, pw)), constant_values=False)
    hh, ww = mask.shape
    blocks = mask.reshape(hh // size, size, ww // size, size)
    return int(blocks.any(axis=(1, 3)).sum())


def _box_range(px_w: int, px_h: int, min_box: int | None = None,
               max_box: int | None = None) -> tuple[int, int, tuple[int, ...]]:
    """min_box, max_box and the dyadic box sizes between them that box
    counting fits over on a px_w x px_h raster. min_box defaults to 2 and
    max_box to a quarter of the shorter side. ValueError unless 2 <= min_box
    < max_box <= min(px_w, px_h) / 4 and at least 3 sizes fit."""
    side = min(px_w, px_h) // 4
    min_box = 2 if min_box is None else min_box
    max_box = side if max_box is None else max_box
    if not (2 <= min_box < max_box):
        raise ValueError("need 2 <= min_box < max_box")
    if max_box > side:
        raise ValueError("max_box must be <= min(px_w, px_h) / 4")
    sizes = tuple(2 ** e for e in range(max_box.bit_length()) if 2 ** e >= min_box)
    if len(sizes) < 3:
        raise InsufficientScalesError(
            f"only {len(sizes)} dyadic sizes in [{min_box}, {max_box}]")
    return min_box, max_box, sizes


def box_counting_dimension(mask: RasterField, min_box: int, max_box: int) -> DimensionEstimate:
    """Least-squares slope of log N(eps) vs log(1/eps) over dyadic box
    sizes in [min_box, max_box], counted over the Bounded cells."""
    sizes = _box_range(mask.grid.px_w, mask.grid.px_h, min_box, max_box)[2]
    bounded = mask.bounded_mask()
    if not bounded.any():
        raise EmptyMaskError("mask has no Bounded cells")

    counts = [_box_count(bounded, s) for s in sizes]
    x = np.log(1.0 / np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return DimensionEstimate(float(slope), r2, sizes, tuple(counts))


def compare_masks(a: RasterField, b: RasterField) -> MaskComparison:
    """Jaccard index and symmetric pixel-set Hausdorff distance between the
    Bounded masks, with cells Invalid in either field excluded from both.

    Distances are Euclidean in pixel-index space. Raises
    MasksUndefinedError when both masks are empty; if exactly one is
    empty, jaccard is 0 and hausdorff_px is infinite.
    """
    # imported here so that importing the package does not load scipy
    from scipy.ndimage import distance_transform_edt
    if (a.grid.px_w, a.grid.px_h) != (b.grid.px_w, b.grid.px_h):
        raise ValueError("grids must have identical pixel dimensions")
    valid = ~(a.invalid_mask() | b.invalid_mask())
    ma = a.bounded_mask() & valid
    mb = b.bounded_mask() & valid
    na = int(ma.sum())
    nb = int(mb.sum())
    if na == 0 and nb == 0:
        raise MasksUndefinedError("both masks are empty")
    if na == 0 or nb == 0:
        return MaskComparison(0.0, math.inf)

    inter = int((ma & mb).sum())
    union = na + nb - inter
    jaccard = inter / union

    # Exact Euclidean distance transforms (Maurer et al. 2003): each cell's
    # distance to the nearest cell of the other mask. Every cell of either
    # mask lies in the bounding box of their union, so the transforms run
    # over that box alone with the same distances.
    union = ma | mb
    rows, cols = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    ma, mb = ma[box], mb[box]
    d_ab = distance_transform_edt(~mb)[ma].max()
    d_ba = distance_transform_edt(~ma)[mb].max()
    return MaskComparison(float(jaccard), float(max(d_ab, d_ba)))


def zeno_states(d0: float, t1: float, n: int, i0: int) -> ZenoDiagram:
    """Moments and gap heights of the constant-speed pursuit: starting gap
    d0 halves at each observation, t_i = t1*(2 - 2^(1-i)), d_i = d0*2^(-i),
    for i = i0 .. i0+n-1. The times accumulate at 2*t1."""
    if not (d0 > 0 and t1 > 0):
        raise ValueError("d0 and t1 must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if i0 < 0:
        raise ValueError("i0 must be >= 0")
    idx = range(i0, i0 + n)
    times = tuple(t1 * (2.0 - 2.0 ** (1 - i)) for i in idx)
    heights = tuple(d0 * 2.0 ** (-i) for i in idx)
    return ZenoDiagram(times, heights)


def _zeno_window(diagram: ZenoDiagram, px_w: int, px_h: int) -> GridSpec:
    """The window rasterize_zeno draws the diagram in: x spans [t_{i0},
    accumulation point], y spans [0, first height]. ValueError where that
    is not a GridSpec (say the first two times round to one float)."""
    times = diagram.times
    if len(times) < 2:
        raise ValueError("need at least 2 lines to infer the window")
    # The accumulation point equals t_i + 2*(t_{i+1} - t_i) for every i.
    t_max = 2.0 * times[1] - times[0]
    t0 = times[0]
    h = diagram.heights[0]
    return GridSpec(complex((t0 + t_max) / 2, h / 2), t_max - t0, h, px_w, px_h)


def rasterize_zeno(diagram: ZenoDiagram, px_w: int, px_h: int) -> RasterField:
    """Render the diagram's vertical lines, one pixel wide, as a Bounded
    mask in _zeno_window."""
    grid = _zeno_window(diagram, px_w, px_h)
    field = RasterField.filled(grid, OrbitStatus.ESCAPED)
    ys = grid.axes()[1]
    for t, d in zip(diagram.times, diagram.heights):
        hit = grid.pixel_of(complex(t, grid.center.imag))
        if hit is not None:
            field.status[ys <= d, hit[0]] = OrbitStatus.BOUNDED
    return field
