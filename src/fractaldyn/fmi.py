"""Mapped-fractal iterations and the forward-image cross-check.

The conjugated iteration z -> f(F(f^{-1}(z))) with F(z) = z^2 + c has the
same boundedness verdicts as the plain iteration run on the pulled-back
seed, so every pixel is classified by evaluating f^{-1} once at its
center and iterating z^2 + c from there. The escape index of that
pulled-back orbit is kept as the divergence-rate datum, and escape is
always tested against the pullback-plane radius: for maps with bounded
range the image-plane magnitudes may stay small even when the underlying
orbit diverges.

forward_image is the independent route to the same set: it pushes every
Bounded source pixel through f with stratified supersampling and splats
onto nearest destination pixels, one sub-pixel offset of one shared tile
of centers (core._TILE_CELLS) at a time, skipping the cells the map
proves land outside the destination window. When f stretches distances
by at most l2, supersampling at source pitch / s keeps the splat spacing
below the destination pitch whenever l2 * src_pitch / s <= dst_pitch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _TILE_CELLS, GridSpec, OrbitStatus, RasterField, require_finite
from .fji import IterParams, classify_grid, render_julia
from .maps import MapSpec, eval_forward, eval_inverse


def fmi_julia(grid: GridSpec, c: complex, m: MapSpec, params: IterParams = IterParams(),
              threads: int = 1) -> RasterField:
    """Image of the filled Julia set under m.

    Each pixel center is pulled back through the inverse map and
    classified; pixels whose pullback leaves the map's domain are Invalid.
    With the identity map this reproduces render_julia cell for cell.
    """
    c = require_finite(c, "c")
    w0 = eval_inverse(m, grid.points())
    status, iters, mags = classify_grid(w0, c, params, threads)
    return RasterField(grid, status, iters, mags)


def fmi_mandelbrot(grid: GridSpec, m: MapSpec, params: IterParams = IterParams(),
                   threads: int = 1) -> RasterField:
    """Image of the Mandelbrot set under m: each pixel's pullback becomes
    the parameter of the orbit of 0."""
    c = eval_inverse(m, grid.points())
    status, iters, mags = classify_grid(np.complex128(0), c, params, threads)
    return RasterField(grid, status, iters, mags)


def forward_image(src_field: RasterField, m: MapSpec, dst_grid: GridSpec,
                  supersample: int = 3) -> RasterField:
    """Push the Bounded cells of src_field through f onto dst_grid.

    Every Bounded source pixel contributes supersample^2 stratified sample
    points (a regular subgrid of its cell); each sample that stays in f's
    domain marks the nearest destination pixel Bounded. Unmarked cells are
    Escaped(0). Marking is idempotent, so overlapping splats are harmless
    and each tile's sub-pixel offsets are splatted in passes of their own.
    Cells that m._misses proves land wholly outside the window are dropped
    first; every other sample is the same elementwise evaluation as before,
    so the mask is the one splatting every cell gives.
    """
    if supersample < 1:
        raise ValueError("supersample must be >= 1")
    out = RasterField.filled(dst_grid, OrbitStatus.ESCAPED)

    src = src_field.grid
    centers = src.points()[src_field.bounded_mask()]
    # the window widened by one destination pixel, which absorbs pixels_hit's rounding
    half_w, half_h = dst_grid.width / 2 + dst_grid.dx, dst_grid.height / 2 + dst_grid.dy
    c = dst_grid.center
    box = (c.real - half_w, c.real + half_w, c.imag - half_h, c.imag + half_h)

    marks = out.status.reshape(-1)
    off = (np.arange(supersample) + 0.5) / supersample - 0.5
    for lo in range(0, centers.size, _TILE_CELLS):
        tile = centers[lo:lo + _TILE_CELLS]
        tile = tile[~m._misses(tile, src.half_pixel_diag, box)]
        for oy in off * src.dy:
            for ox in off * src.dx:
                img = eval_forward(m, tile + complex(ox, oy))
                marks[dst_grid.pixels_hit(img)] = OrbitStatus.BOUNDED
    return out


@dataclass
class DiscreteTrajectory:
    """Frames of a map-iterated fractal, by both construction routes.

    pullback[k] classifies each pixel through the k-fold inverse map;
    pushforward[k] is the k-fold forward_image of the starting frame.
    Element 0 of both is the plain Julia render.
    """

    pullback: list[RasterField]
    pushforward: list[RasterField]


def discrete_trajectory(c: complex, m: MapSpec, k_max: int, grid: GridSpec,
                        params: IterParams = IterParams(), supersample: int = 3,
                        threads: int = 1) -> DiscreteTrajectory:
    """Iterate a Julia set under a map: frame k is the k-fold image.

    Pullback frames apply eval_inverse k times (principal branches at each
    step) before orbit classification; pixels whose pullback chain leaves
    the map's domain are Invalid. Pushforward frames re-splat the previous
    frame through forward_image as an independent cross-check.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    c = require_finite(c, "c")

    frame0 = render_julia(grid, c, params, threads)
    pullback = [frame0]
    pushforward = [frame0]

    w = grid.points()
    for _ in range(k_max):
        w = eval_inverse(m, w)
        status, iters, mags = classify_grid(w, c, params, threads)
        pullback.append(RasterField(grid, status, iters, mags))
        pushforward.append(forward_image(pushforward[-1], m, grid, supersample))
    return DiscreteTrajectory(pullback, pushforward)
