"""Mapped-fractal iterations and the forward-image cross-check.

The conjugated iteration z -> f(F(f^{-1}(z))) with F(z) = z^2 + c has the
same boundedness verdicts as the plain iteration run on the pulled-back
seed, so every pixel is classified by evaluating f^{-1} once at its
center and iterating z^2 + c from there: fji's one pullback render,
_render, with eval_inverse as the pullback. The escape index of that
pulled-back orbit is kept as the divergence-rate datum, and escape is
always tested against the pullback-plane radius: for maps with bounded
range the image-plane magnitudes may stay small even when the underlying
orbit diverges.

forward_image is the independent route to the same set: it pushes every
Bounded source pixel through f with stratified supersampling and splats
onto nearest destination pixels, one sub-pixel offset of one shared tile
of centers (core._TILE_CELLS) at a time. Where the map states a stretch
bound (MapSpec._lipschitz) it skips the samples that bound proves could
only mark pixels that are marked already or lie outside the window. When
f stretches distances by at most l2, supersampling at source pitch / s
keeps the splat spacing below the destination pitch whenever
l2 * src_pitch / s <= dst_pitch. discrete_trajectory runs both routes k
times over and yields their frames a pair at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .core import _TILE_CELLS, GridSpec, OrbitStatus, RasterField, require_finite
from .fji import IterParams, _render, classify_grid, render_julia
from .maps import _ROUNDING, MapSpec, eval_forward, eval_inverse

_BLOCK = 4  # side, in source pixels, of the blocks the cull tests with one evaluation each


def fmi_julia(grid: GridSpec, c: complex, m: MapSpec,
              params: IterParams = IterParams()) -> RasterField:
    """Image of the filled Julia set under m.

    Each pixel center is pulled back through the inverse map and
    classified; pixels whose pullback leaves the map's domain are Invalid.
    With the identity map this reproduces render_julia cell for cell.
    """
    return _render(grid, params, lambda w: eval_inverse(m, w), c)


def fmi_mandelbrot(grid: GridSpec, m: MapSpec, params: IterParams = IterParams()) -> RasterField:
    """Image of the Mandelbrot set under m: each pixel's pullback becomes
    the parameter of the orbit of 0."""
    return _render(grid, params, lambda w: eval_inverse(m, w))


def _offset_groups(s: int) -> list:
    """The s x s sub-pixel offset indices split into at most 2 x 2 groups of
    adjacent ones: (representative, other members) per group, indices as
    (x, y). The representative is the member nearest the group's centre."""
    runs = [r for r in (range((s + 1) // 2), range((s + 1) // 2, s)) if r]
    groups = []
    for ry in runs:
        for rx in runs:
            rep = (rx[(len(rx) - 1) // 2], ry[(len(ry) - 1) // 2])
            groups.append((rep, [(i, j) for j in ry for i in rx if (i, j) != rep]))
    return groups


def _covered(marks: np.ndarray, grid: GridSpec, img: np.ndarray, radius: np.ndarray):
    """True where every point within radius of img lies outside grid's
    window, or in pixels that are all marked already and span at most
    3 x 3. NaN never counts as covered."""
    if not np.isfinite(radius).any():
        return np.zeros(img.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # widened so that the rounded corners lie outside the exact disc's box;
        # radius + _ROUNDING * (radius + |img|), formed in place
        r = np.abs(img)
        r += radius
        r *= _ROUNDING
        r += radius
        u_lo, v_hi = grid._pixel_coords(img.real - r, img.imag - r)
        u_hi, v_lo = grid._pixel_coords(img.real + r, img.imag + r)
        covered = (u_hi < 0) | (u_lo > grid.px_w) | (v_hi < 0) | (v_lo > grid.px_h)
        # pixels_hit indexes only u in [0, px_w] and v in [0, px_h]
        np.maximum(u_lo, 0.0, out=u_lo)
        np.maximum(v_lo, 0.0, out=v_lo)
        np.minimum(u_hi, grid.px_w, out=u_hi)
        np.minimum(v_hi, grid.px_h, out=v_hi)
        near = np.flatnonzero(~covered & (u_hi - u_lo < 3) & (v_hi - v_lo < 3))
    i0, i1, j0, j1 = (np.minimum(a[near].astype(np.int64), n - 1) for a, n in (
        (u_lo, grid.px_w), (u_hi, grid.px_w), (v_lo, grid.px_h), (v_hi, grid.px_h)))
    full = (i1 - i0 <= 2) & (j1 - j0 <= 2)
    for dj in range(3):
        for di in range(3):
            cell = np.minimum(j0 + dj, j1) * grid.px_w + np.minimum(i0 + di, i1)
            full &= marks[cell] == OrbitStatus.BOUNDED
    covered[near[full]] = True
    return covered


def _radius(m: MapSpec, z: np.ndarray, reach: float) -> np.ndarray:
    """Per z, how far from the computed image of z the computed images of
    the points within reach of it can lie, by m._lipschitz."""
    # allows for rounding in forming the points and in reach itself
    rho = reach + _ROUNDING * (reach + np.abs(z))
    return m._lipschitz(z, rho) * rho


def _cull(m: MapSpec, src: GridSpec, flat: np.ndarray, marks: np.ndarray,
          dst_grid: GridSpec) -> np.ndarray:
    """The cells of flat, flat indices into src, that may still mark a new
    pixel. f is evaluated once per _BLOCK x _BLOCK block of source pixels
    holding one of them, at the block's centre z; every sample of the
    block lies within _BLOCK half-diagonals of z, so its computed image
    lies in the disc _radius gives around f(z), and the block's cells are
    dropped where _covered proves that disc holds no unmarked pixel of
    the window."""
    per_row = -(-src.px_w // _BLOCK)
    row, col = np.divmod(flat, src.px_w)
    blocks, which = np.unique(row // _BLOCK * per_row + col // _BLOCK, return_inverse=True)
    row, col = np.divmod(blocks, per_row)
    half = _BLOCK / 2
    z = ((col * _BLOCK + half - src.px_w / 2) * src.dx + src.center.real
         + 1j * (src.center.imag - (row * _BLOCK + half - src.px_h / 2) * src.dy))
    radius = _radius(m, z, _BLOCK * src.half_pixel_diag)
    return flat[~_covered(marks, dst_grid, eval_forward(m, z), radius)[which]]


def forward_image(src_field: RasterField, m: MapSpec, dst_grid: GridSpec,
                  supersample: int = 3) -> RasterField:
    """Push the Bounded cells of src_field through f onto dst_grid.

    Every Bounded source pixel contributes supersample^2 stratified sample
    points (a regular subgrid of its cell); each sample that stays in f's
    domain marks the nearest destination pixel Bounded. Unmarked cells are
    Escaped(0). Marking is idempotent, so overlapping splats are harmless
    and each tile's sub-pixel offsets are splatted in passes of their own.
    Each tile's centers are formed from their flat indices with points()'s
    arithmetic, so no frame-sized array of points is built.

    Where m._lipschitz bounds f's stretch, samples that cannot mark a new
    pixel are never evaluated. With L from m._lipschitz, the computed
    images of the points within d of an evaluated point lie within L * d
    of its computed image w, and where _covered finds that disc's pixels
    outside the window or all marked already, none of those points is
    evaluated. _cull applies this to each tile's cells, one disc per block
    of source pixels. Then the offsets are split into at most 2 x 2 groups
    (_offset_groups): each group's representative is splatted for every
    kept cell, and a group's other members, all within d of the
    representative, only for the cells whose representative's disc is not
    covered. Where m._lipschitz is None every sample of every cell is
    evaluated. Marks only grow, and every evaluated sample is the same
    elementwise evaluation as before, so the mask is the one splatting
    every sample of every cell gives.
    """
    if supersample < 1:
        raise ValueError("supersample must be >= 1")
    out = RasterField.filled(dst_grid, OrbitStatus.ESCAPED)

    src = src_field.grid
    cells = np.flatnonzero(src_field.bounded_mask())
    col_re, row_im = src.axes()
    marks = out.status.reshape(-1)
    off = (np.arange(supersample) + 0.5) / supersample - 0.5
    xs, ys = off * src.dx, off * src.dy
    groups = _offset_groups(supersample)
    for lo in range(0, cells.size, _TILE_CELLS):
        flat = cells[lo:lo + _TILE_CELLS]
        if m._lipschitz is not None:
            flat = _cull(m, src, flat, marks, dst_grid)
        tile = col_re[flat % src.px_w] + (1j * row_im)[flat // src.px_w]  # as points() forms them
        images = []
        for (rx, ry), _ in groups:
            images.append(eval_forward(m, tile + complex(xs[rx], ys[ry])))
            marks[dst_grid.pixels_hit(images[-1])] = OrbitStatus.BOUNDED
        for ((rx, ry), members), img in zip(groups, images):
            if not members:
                continue
            rest = tile
            if m._lipschitz is not None:
                reach = max(math.hypot(xs[i] - xs[rx], ys[j] - ys[ry]) for i, j in members)
                radius = _radius(m, tile + complex(xs[rx], ys[ry]), reach)
                rest = tile[~_covered(marks, dst_grid, img, radius)]
            for i, j in members:
                hit = dst_grid.pixels_hit(eval_forward(m, rest + complex(xs[i], ys[j])))
                marks[hit] = OrbitStatus.BOUNDED
    return out


def discrete_trajectory(c: complex, m: MapSpec, k_max: int, grid: GridSpec,
                        params: IterParams = IterParams(),
                        supersample: int = 3) -> Iterator[tuple[RasterField, RasterField]]:
    """Iterate a Julia set under a map: frame k is the k-fold image, by both
    construction routes. Yields k_max + 1 pairs (pullback, pushforward) one
    at a time; pair 0 is the plain Julia render twice. A bad k_max or c
    raises ValueError at the call.

    Pullback frames apply eval_inverse k times (principal branches at each
    step) before orbit classification; pixels whose pullback chain leaves
    the map's domain are Invalid. Pushforward frames re-splat the previous
    frame through forward_image as an independent cross-check. Only the last
    pair and the pulled-back centers are kept from one pair to the next.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _trajectory(require_finite(c, "c"), m, k_max, grid, params, supersample)


def _trajectory(c, m, k_max, grid, params, supersample):
    pull = push = render_julia(grid, c, params)
    w = grid.points()
    for _ in range(k_max):
        yield pull, push
        w = eval_inverse(m, w)
        pull = RasterField(grid, *classify_grid(w, c, params))
        push = forward_image(push, m, grid, supersample)
    del w  # the last pair is written without the centers
    yield pull, push
