"""Escape-time orbit classification for z -> z^2 + c.

A seed is Bounded when its orbit magnitude never exceeds the escape
radius within the iteration budget, Escaped(n) when |z_n| first exceeds
it at index n (the seed itself counts as index 0). With radius >=
max(2, |c|) escape is permanent, so the escape index is well defined;
the CLI rejects a fixed c with |c| above the radius.
Magnitudes are compared squared to avoid overflow in the final hypot;
arithmetic overflow to a non-finite value reads as an escape at that
index.

The array kernel classify_grid stops a cell as soon as its orbit returns
exactly to an earlier floating-point value (periodicity checking, after
Brent's cycle detection). Such an orbit cycles through values that all
passed the escape test, so the cell is Bounded, and its last magnitude
is read off the cycle: the output is bit-identical to running every
cell for the full budget, only faster inside the set. It walks the cells
in fixed tiles, so its working memory is a tile's, not the frame's, and a
single Julia parameter stays a scalar; neither changes any cell's
arithmetic, so neither changes the output. For |c| within a rounding
margin of r^2 - r an orbit past the radius never comes back (Milnor,
Dynamics in One Complex Variable, section 9), so a tile whose orbits still
running after 8 steps all have such a c tests for escape once per 8 steps
and re-walks a failed block for the exact escape index, with the same
output.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import _TILE_CELLS, GridSpec, OrbitResult, OrbitStatus, RasterField, require_finite

DEFAULT_MAX_ITER = 500
DEFAULT_ESCAPE_RADIUS = 2.0
_CYCLE_CHECK_EVERY = 8  # iterations between periodicity checks


@dataclass(frozen=True)
class IterParams:
    max_iter: int = DEFAULT_MAX_ITER
    escape_radius: float = DEFAULT_ESCAPE_RADIUS

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # under 2 a bounded orbit can pass the radius, so part of the set reads Escaped
        if not (self.escape_radius >= 2 and math.isfinite(self.escape_radius)):
            raise ValueError("escape_radius must be >= 2 and finite")


def classify_orbit(z0: complex, c: complex, params: IterParams = IterParams()) -> OrbitResult:
    """Classify one seed by direct iteration (scalar reference path)."""
    z = require_finite(z0, "z0")
    c = require_finite(c, "c")
    r2 = params.escape_radius * params.escape_radius
    for n in range(params.max_iter):
        m2 = z.real * z.real + z.imag * z.imag
        if m2 > r2 or not math.isfinite(m2):
            return OrbitResult.escaped(n, math.sqrt(m2) if m2 == m2 else math.inf)
        z = z * z + c
    m2 = z.real * z.real + z.imag * z.imag
    return OrbitResult.bounded(math.sqrt(m2) if m2 == m2 else math.inf)


def classify_grid(z0, c, params: IterParams, threads: int = 1):
    """Classify seeds z0 with parameters c, broadcast together; returns
    (status, iters, mags) in that shape. Non-finite seeds or parameters
    mark the cell Invalid.

    The flat cells are walked in contiguous tiles of _TILE_CELLS, each run
    to completion before the next, so every temporary of the loop stays in
    a core's cache and the working memory is a tile's, not the frame's.
    One worker runs the tiles in the caller's thread; more take them from
    a thread pool, at most one per tile and one per CPU in the process's
    affinity mask (os.cpu_count() where the OS keeps none). A 0-d c stays
    a scalar: only z0 is broadcast, and each step adds the one c. Each
    cell's arithmetic (the same out-of-place z*z + c, escape test and
    cycle checks) depends neither on its tile nor on its thread, so the
    output is identical for any tile size and thread count.

    Periodicity checking (Brent's cycle detection): each active cell's z
    is saved at iterations 8, 16, 32, ... and, every 8 iterations after
    the first save, compared with the saved value after the escape test.
    z -> z*z + c is a function of z in floating point, so a cell whose z
    equals its saved value (a signed-zero mismatch changes no magnitude)
    repeats a cycle of values that all passed the escape test: it is
    Bounded. It is finished with (max_iter - n) mod p more steps, p being
    the iterations since the save; they land on the value the full budget
    ends on, so its last magnitude, and the whole output, equal a run
    without the check bit for bit.

    Block escape tests: every tile tests m2 <= r2 at indices 0 to 8. If
    the cells still active after the test at 8 all have |c| <= c_bound =
    r2 - r - 1e-9*r2 (r2 the capped r*r), it then tests only at multiples
    of 8 and at max_iter - 1, and just steps z*z + c in between; otherwise
    it tests every index. (At r = 2 a Mandelbrot cell with |c| > 2 has
    escaped at index 1, so parameter-plane tiles block too.) A cell that
    fails a test is re-walked from its z at the previous test (kept by
    reference, as the steps are out of place) for its first failing index
    and its m2 there. That equals testing every index bit for bit, because
    for such a c a failed test stays failed (u = 2**-53, the unit
    roundoff):
    - a computed m2 > r2 means |z|^2 > r2(1 - 3u), since m2 rounds up by
      at most (1 + u)^2 and r2 is at least r^2(1 - u) or the capped max;
    - the computed z*z + c is within 5u(|z|^2 + |c|) of the exact one, so
      its modulus is at least r2(1 - 3u)(1 - 5u) - c_bound(1 + 5u) > r +
      0.99e-9*r2 >= r(1 + 1.98e-9), and its m2 > r^2(1 + u) >= r2: the
      next test fails too, as does every later one;
    - an overflow makes z non-finite, and inf and NaN never return to
      finite: the real part x*x - y*y + Re c is then an infinity or NaN;
    - every step and every re-walk is the same out-of-place z*z + c, whose
      rounding does not depend on the array's length, so a re-walk retraces
      the z and m2 of the loop exactly. Cycle checks and saves fall on
      multiples of 8, which are tested, so they see the same cells."""
    z0, c = (np.asarray(a, dtype=np.complex128) for a in (z0, c))
    shape = np.broadcast_shapes(z0.shape, c.shape)
    z0 = np.broadcast_to(z0, shape).reshape(-1)
    c = np.broadcast_to(c, shape).reshape(-1) if c.ndim else c[()]  # a 0-d c stays a scalar
    n_cells = z0.size
    status = np.full(n_cells, OrbitStatus.BOUNDED, dtype=np.uint8)
    iters = np.zeros(n_cells, dtype=np.int32)
    mags = np.zeros(n_cells, dtype=np.float64)
    # capped so that ~(m2 <= r2) still reads an infinite m2 as an escape
    r2 = min(params.escape_radius * params.escape_radius, sys.float_info.max)
    # escape past r is permanent for |c| <= r^2 - r; the margin covers rounding
    c_bound = r2 - params.escape_radius - 1e-9 * r2
    last = params.max_iter - 1

    def run(lo):
        tile = slice(lo, lo + _TILE_CELLS)
        status_t, iters_t, mags_t = status[tile], iters[tile], mags[tile]
        c_t = c[tile] if c.ndim else c
        finite = np.isfinite(z0[tile]) & np.isfinite(c_t)
        status_t[~finite] = OrbitStatus.INVALID
        active = np.flatnonzero(finite)
        saved = np.empty(finite.size, dtype=np.complex128)
        z = z0[tile][active]
        cc = c_t[active] if c.ndim else c
        saved_n = tested = 0
        block = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(params.max_iter):
                if active.size == 0:
                    break
                if n > _CYCLE_CHECK_EVERY and n % block and n != last:
                    z = z * z + cc  # untested: a failed test would stay failed
                    continue
                m2 = z.real * z.real + z.imag * z.imag
                esc = ~(m2 <= r2)  # NaN and inf escape too
                done = esc
                if n % _CYCLE_CHECK_EVERY == 0 and saved_n:
                    cyc = z == saved[active]
                    if cyc.any():
                        # the full budget ends this many steps past z_n, on the cycle
                        steps = (params.max_iter - n) % (n - saved_n)
                        m2c = m2[cyc]
                        if steps:
                            zc, cyc_c = z[cyc], cc[cyc] if c.ndim else c
                            for _ in range(steps):
                                zc = zc * zc + cyc_c
                            m2c = zc.real * zc.real + zc.imag * zc.imag
                        mags_t[active[cyc]] = np.sqrt(m2c)
                        done = esc | cyc
                if done.any():
                    hit = active[esc]
                    hit_n, hit_m2 = n, m2[esc]
                    if n - tested > 1 and hit.size:
                        # re-walk from the last test, which they passed, to the first failed one
                        zr, cr = z_tested[esc], cc[esc] if c.ndim else c
                        walked = []
                        for _ in range(n - tested - 1):
                            zr = zr * zr + cr
                            walked.append(zr.real * zr.real + zr.imag * zr.imag)
                        walked = np.stack(walked + [hit_m2])
                        first = np.argmax(~(walked <= r2), axis=0)
                        hit_n = tested + 1 + first
                        hit_m2 = walked[first, np.arange(hit.size)]
                    status_t[hit] = OrbitStatus.ESCAPED
                    iters_t[hit] = hit_n
                    ms = np.sqrt(hit_m2)
                    mags_t[hit] = np.where(np.isnan(ms), np.inf, ms)
                    keep = ~done
                    active = active[keep]
                    z = z[keep]
                    if c.ndim:
                        cc = cc[keep]
                if n & (n - 1) == 0 and n >= _CYCLE_CHECK_EVERY:
                    saved[active] = z
                    saved_n = n
                if n == _CYCLE_CHECK_EVERY:  # blocks, if escape is permanent for all cells left
                    block = _CYCLE_CHECK_EVERY if np.abs(cc).max(initial=0) <= c_bound else 1
                if block > 1 and n >= _CYCLE_CHECK_EVERY:
                    # untested steps follow; kept by reference, as they are out of place
                    # (kept at every step, the extra live array slows tiles of block 1)
                    z_tested = z
                tested = n
                # not in place: numpy's in-place complex square rounds differently at length 1
                z = z * z + cc
            if active.size:
                m2 = z.real * z.real + z.imag * z.imag
                mags_t[active] = np.sqrt(m2)

    tiles = range(0, n_cells, _TILE_CELLS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(threads, cpus or 1, len(tiles)))
    if workers == 1:
        for lo in tiles:
            run(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, tiles))
    return status.reshape(shape), iters.reshape(shape), mags.reshape(shape)


def _render(grid: GridSpec, params: IterParams, threads: int, pull=lambda w: w,
            c: complex | None = None) -> RasterField:
    """The pullback render: each pixel center, passed through pull, is the
    seed under c or, with c None, the parameter of the orbit of 0."""
    c = None if c is None else require_finite(c, "c")
    w = pull(grid.points())
    z0, c = (np.complex128(0), w) if c is None else (w, c)
    return RasterField(grid, *classify_grid(z0, c, params, threads))


def render_julia(grid: GridSpec, c: complex, params: IterParams = IterParams(),
                 threads: int = 1) -> RasterField:
    """Filled Julia raster: pixel (i, j) classifies its center as the seed."""
    return _render(grid, params, threads, c=c)


def render_mandelbrot(grid: GridSpec, params: IterParams = IterParams(),
                      threads: int = 1) -> RasterField:
    """Mandelbrot raster: pixel (i, j) classifies the orbit of 0 with its
    center as the parameter."""
    return _render(grid, params, threads)


def extract_boundary(field: RasterField) -> RasterField:
    """Keep Bounded cells that touch a non-Bounded 4-neighbor or the window
    edge; everything else becomes Escaped(0). Invalid cells stay Invalid."""
    bounded = field.bounded_mask()
    padded = np.pad(bounded, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1] &
                padded[1:-1, :-2] & padded[1:-1, 2:])
    keep = bounded & ~interior

    status = np.where(keep, np.uint8(OrbitStatus.BOUNDED), np.uint8(OrbitStatus.ESCAPED))
    status[field.invalid_mask()] = OrbitStatus.INVALID
    mags = np.where(keep, field.last_magnitude, 0.0)
    return RasterField(field.grid, status, np.zeros_like(field.escape_iter), mags)
