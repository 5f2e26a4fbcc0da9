import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaldyn.analysis import compare_masks
from fractaldyn.core import GridSpec, OrbitStatus, RasterField
from fractaldyn.fji import IterParams, classify_grid, render_julia, render_mandelbrot
from fractaldyn.flows import LimitCycle, NumericRK4, fmi_flow_julia, flow_inverse
from fractaldyn.fmi import (_covered, _cull, _offset_groups, discrete_trajectory, fmi_julia,
                            fmi_mandelbrot, forward_image)
from fractaldyn.maps import (Affine, ArccosReciprocal, ArcsinRoot5, FlowMap, Identity,
                             QuadraticParam, ReciprocalSqrt, eval_forward, eval_inverse)

from conftest import analytic_disk

P = IterParams(400, 2.0)


def fields_equal(a, b):
    return (np.array_equal(a.status, b.status)
            and np.array_equal(a.escape_iter, b.escape_iter)
            and np.array_equal(a.last_magnitude, b.last_magnitude))


# Each renderer against classify_grid on its pulled-back centers: seeds under c
# for the Julia renderers, parameters of the orbit of 0 for the Mandelbrot ones.
# ReciprocalSqrt's inverse has poles at +-i, both pixel centers of this grid,
# and the limit cycle's inverse flow blows up in its corners, past radius 2.1.
PIN_GRID = GridSpec(0j, 4.25, 4.25, 17, 17)
PIN_C = -0.12 + 0.75j
PIN_MAP, PIN_AFFINE, PIN_FLOW = ReciprocalSqrt(), Affine(0.5 + 0.25j, 0.1), LimitCycle()
PIN_RENDERERS = {
    "render_julia": (lambda g: render_julia(g, PIN_C, P),
                     lambda w: classify_grid(w, PIN_C, P)),
    "render_mandelbrot": (lambda g: render_mandelbrot(g, P),
                          lambda w: classify_grid(np.complex128(0), w, P)),
    "fmi_julia": (lambda g: fmi_julia(g, PIN_C, PIN_MAP, P),
                  lambda w: classify_grid(eval_inverse(PIN_MAP, w), PIN_C, P)),
    "fmi_mandelbrot": (lambda g: fmi_mandelbrot(g, PIN_AFFINE, P),
                       lambda w: classify_grid(np.complex128(0), eval_inverse(PIN_AFFINE, w), P)),
    "fmi_flow_julia": (lambda g: fmi_flow_julia(g, PIN_C, PIN_FLOW, 0.3, P),
                       lambda w: classify_grid(flow_inverse(PIN_FLOW, w, 0.3), PIN_C, P)),
}


@pytest.mark.parametrize("name", list(PIN_RENDERERS))
def test_renderer_equals_the_kernel_on_its_pulled_back_centers(name):
    render, kernel = PIN_RENDERERS[name]
    field = render(PIN_GRID)
    expected = kernel(PIN_GRID.points())
    for got, want in zip((field.status, field.escape_iter, field.last_magnitude), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert field.grid == PIN_GRID
    if name in ("fmi_julia", "fmi_flow_julia"):
        assert field.invalid_mask().sum() > 0


def test_identity_fmi_julia_equals_render(basilica_512):
    assert fields_equal(fmi_julia(basilica_512.grid, -1 + 0j, Identity(), P), basilica_512)


def test_identity_fmi_mandelbrot_equals_render():
    grid = GridSpec(-0.6 + 0j, 3.0, 3.0, 128, 128)
    assert fields_equal(fmi_mandelbrot(grid, Identity(), P), render_mandelbrot(grid, P))


def test_fmi_julia_affine_doubles_unit_disk():
    # pullback classification of f(z)=2z on K_0 marks exactly |z| <= 2
    grid = GridSpec(0j, 5.0, 5.0, 256, 256)
    cmp = compare_masks(fmi_julia(grid, 0j, Affine(2, 0), P), analytic_disk(grid, 2.0))
    assert cmp.jaccard >= 0.98
    assert cmp.hausdorff_px <= 2.0


def test_fmi_mandelbrot_affine_shift():
    # f(c) = c + 1 pulls back to c - 1: bounded at 0 (-1 in M), escaped at 2
    grid = GridSpec(1 + 0j, 4.0, 2.0, 4, 1)
    assert [complex(z) for z in grid.points()[0]] == [-0.5, 0.5, 1.5, 2.5]
    grid = GridSpec(1 + 0j, 4.0, 2.0, 2, 1)
    assert [complex(z) for z in grid.points()[0]] == [0, 2]
    field = fmi_mandelbrot(grid, Affine(1, 1), P)
    assert field.cell(0, 0).status == OrbitStatus.BOUNDED
    assert field.cell(1, 0).status == OrbitStatus.ESCAPED


def test_fmi_marks_pole_pixels_invalid():
    # arccos(1/z - 1) inverse has poles where cos w = -1: window around pi
    grid = GridSpec(np.pi + 0j, 0.2, 0.2, 33, 33)
    field = fmi_julia(grid, -1 + 0j, ArccosReciprocal(), P)
    assert field.invalid_mask().sum() > 0


def test_forward_image_identity_same_grid(basilica_512):
    out = forward_image(basilica_512, Identity(), basilica_512.grid, supersample=1)
    assert np.array_equal(out.bounded_mask(), basilica_512.bounded_mask())
    # unmarked cells read Escaped(0)
    esc = ~out.bounded_mask()
    assert np.all(out.status[esc] == OrbitStatus.ESCAPED)
    assert np.all(out.escape_iter[esc] == 0)


def test_forward_image_affine_disk():
    grid = GridSpec(0j, 3.0, 3.0, 256, 256)
    k0 = render_julia(grid, 0j, P)
    dst = GridSpec(0j, 5.0, 5.0, 256, 256)
    out = forward_image(k0, Affine(2, 0), dst, supersample=3)
    cmp = compare_masks(out, analytic_disk(dst, 2.0))
    assert cmp.jaccard >= 0.95
    assert cmp.hausdorff_px <= 2.0


def test_forward_image_empty_source():
    grid = GridSpec(0j, 2.0, 2.0, 16, 16)
    empty = render_julia(grid, 4 + 4j, IterParams(10, 2.0))  # everything escapes
    assert empty.bounded_count() == 0
    out = forward_image(empty, Identity(), grid)
    assert out.bounded_count() == 0


def test_forward_image_validates_supersample(basilica_512):
    with pytest.raises(ValueError):
        forward_image(basilica_512, Identity(), basilica_512.grid, supersample=0)


def test_forward_image_skips_domain_error_samples():
    # source content around the arccos pole at 0 is skipped, not an error
    grid = GridSpec(0j, 1.0, 1.0, 9, 9)
    k0 = render_julia(grid, 0j, P)
    out = forward_image(k0, ArccosReciprocal(), GridSpec(1.5 + 0j, 3.0, 3.0, 64, 64))
    assert out.bounded_count() > 0


def splat_reference(src_field, m, dst_grid, supersample):
    """forward_image written as one array of all N * supersample^2 samples."""
    out = RasterField.filled(dst_grid, OrbitStatus.ESCAPED)
    bounded = src_field.bounded_mask()
    if not bounded.any():
        return out
    jj, ii = np.nonzero(bounded)
    src = src_field.grid
    centers = src.points()[jj, ii]
    s = supersample
    off = (np.arange(s) + 0.5) / s - 0.5
    off_x, off_y = np.meshgrid(off * src.dx, off * src.dy)
    offsets = (off_x + 1j * off_y).reshape(-1)
    pts = (centers[:, np.newaxis] + offsets[np.newaxis, :]).reshape(-1)
    img = eval_forward(m, pts)
    # nearest pixel of every sample at once, by floor and clip
    with np.errstate(invalid="ignore", over="ignore"):
        u = (img.real - dst_grid.center.real) / dst_grid.dx + dst_grid.px_w / 2
        v = (dst_grid.center.imag - img.imag) / dst_grid.dy + dst_grid.px_h / 2
        inside = (u >= 0.0) & (u <= dst_grid.px_w) & (v >= 0.0) & (v <= dst_grid.px_h)
    inside &= np.isfinite(img.real) & np.isfinite(img.imag)
    di = np.clip(np.floor(np.where(inside, u, 0.0)).astype(np.int64), 0, dst_grid.px_w - 1)
    dj = np.clip(np.floor(np.where(inside, v, 0.0)).astype(np.int64), 0, dst_grid.px_h - 1)
    out.status[dj[inside], di[inside]] = OrbitStatus.BOUNDED
    return out


def source_masks():
    """(name, source field) pairs. The grids have an odd pixel count, so
    the origin-centered one has a sample exactly at the arccos pole."""
    grid = GridSpec(0.6 + 0.3j, 1.2, 0.9, 25, 25)
    shape = (grid.px_h, grid.px_w)
    single = np.zeros(shape, dtype=bool)
    single[11, 7] = True
    edge = np.zeros(shape, dtype=bool)
    edge[[0, -1], :] = edge[:, [0, -1]] = True
    masks = {"empty": np.zeros(shape, dtype=bool), "single": single, "edge": edge,
             "random30": np.random.default_rng(0).random(shape) < 0.3}
    for name, mask in masks.items():
        field = RasterField.filled(grid, OrbitStatus.ESCAPED)
        field.status[mask] = OrbitStatus.BOUNDED
        yield name, field
    yield "pole", RasterField.filled(GridSpec(0j, 1.2, 0.9, 25, 25), OrbitStatus.BOUNDED)


def window_over_image(m, grid):
    """A 32x32 destination window over the middle 98% of the finite images
    of the grid's pixel centers, so some samples land outside it."""
    img = eval_forward(m, grid.points().reshape(-1))
    img = img[np.isfinite(img)]
    re0, re1 = np.percentile(img.real, [1, 99])
    im0, im1 = np.percentile(img.imag, [1, 99])
    return GridSpec(complex(re0 + re1, im0 + im1) / 2, max(re1 - re0, 1e-3),
                    max(im1 - im0, 1e-3), 32, 32)


SPLAT_MAPS = pytest.mark.parametrize("m", [
    Identity(), Affine(2, 1), Affine(-0.3 + 1.2j, 0.5j), ArccosReciprocal(), ArcsinRoot5(),
    ReciprocalSqrt(), QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j),
    FlowMap(LimitCycle(), 0.5), FlowMap(NumericRK4(LimitCycle(), 1e-2), 0.5),
], ids=lambda m: m.kind if m.kind != "flow" else f"flow-{m.flow.kind}")


@SPLAT_MAPS
def test_forward_image_equals_single_array_reference(m):
    for name, src in source_masks():
        dst = window_over_image(m, src.grid)
        for s in (1, 2, 3, 8):
            out = forward_image(src, m, dst, supersample=s)
            assert fields_equal(out, splat_reference(src, m, dst, s)), (name, s)


@SPLAT_MAPS
def test_forward_image_tile_size_does_not_change_the_splat(m, monkeypatch):
    if isinstance(getattr(m, "flow", None), NumericRK4):
        m = FlowMap(NumericRK4(LimitCycle(), 0.1), m.t)  # 5 steps keep one-cell tiles quick
    for name, src in source_masks():
        dst = window_over_image(m, src.grid)
        ref = splat_reference(src, m, dst, 3)
        for tile in (1, 97, src.grid.px_w * src.grid.px_h):  # one cell, a prime, the input
            monkeypatch.setattr("fractaldyn.fmi._TILE_CELLS", tile)
            assert fields_equal(forward_image(src, m, dst, supersample=3), ref), (name, tile)


def test_forward_image_memory_does_not_grow_with_supersample():
    # a fully Bounded source: s^2 samples per cell held at once would make
    # the s = 8 peak some 40 times the s = 1 peak
    src = RasterField.filled(GridSpec(0.5 + 0.5j, 1.0, 1.0, 256, 256), OrbitStatus.BOUNDED)
    dst = GridSpec(1.5 + 0j, 3.0, 3.0, 256, 256)

    def peak(s):
        tracemalloc.start()
        try:
            forward_image(src, ArccosReciprocal(), dst, supersample=s)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) <= 2 * peak(1)


def test_forward_image_of_a_sparse_source_builds_no_frame_of_points():
    # 1024^2 cells, 81 of them Bounded: the frame's complex centers would be 16.8 MB
    src = RasterField.filled(GridSpec(0j, 2.0, 2.0, 1024, 1024), OrbitStatus.ESCAPED)
    src.status[500:509, 700:709] = OrbitStatus.BOUNDED
    dst = GridSpec(0j, 2.0, 2.0, 64, 64)
    tracemalloc.start()
    try:
        out = forward_image(src, Affine(0.5 + 0.5j, 0.1), dst, supersample=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < src.status.size * 16 / 8
    assert fields_equal(out, splat_reference(src, Affine(0.5 + 0.5j, 0.1), dst, 3))


def arccos_windows():
    """Destination windows of every shape the cull has to handle: anywhere,
    reaching u <= 0 or u >= pi, thin strips around v = 0, and far from the
    image, at 1 to 48 pixels a side."""
    span = st.floats(1e-3, 4.0)
    px = st.integers(1, 48)

    def window(re, im, height=span):
        return st.builds(GridSpec, st.builds(complex, re, im), span, height, px, px)

    return st.one_of(
        window(st.floats(-1.0, 4.5), st.floats(-4.0, 4.0)),
        window(st.floats(-0.3, 0.3), st.floats(-1.0, 1.0)),
        window(st.floats(2.9, 3.4), st.floats(-1.0, 1.0)),
        window(st.floats(0.0, 3.0), st.just(0.0), st.floats(1e-9, 1e-4)),
        window(st.floats(10.0, 20.0), st.floats(50.0, 800.0)),
    )


def arccos_source(rng, dst, pitch, where):
    """A 30 x 30 source grid at about the given pitch around a point near the
    preimage of dst widened by 0.3 (so many blocks straddle its edge), near
    the pole at 0, near the cut's end at 1/2, or anywhere."""
    if where == "near":
        w = dst.center + complex(rng.uniform(-dst.width / 2 - 0.3, dst.width / 2 + 0.3),
                                 rng.uniform(-dst.height / 2 - 0.3, dst.height / 2 + 0.3))
        with np.errstate(all="ignore"):
            center = complex(1.0 / (1.0 + np.cos(w)))
        if not math.isfinite(abs(center)):
            center = 0j
    else:
        base = {"pole": 0j, "half": 0.5 + 0j, "anywhere": complex(*rng.uniform(-3, 3, 2))}[where]
        center = base + complex(*rng.uniform(-15, 15, 2)) * pitch
    return GridSpec(center, 30 * pitch, 30 * pitch * rng.uniform(0.5, 2.0), 30, 30)


def disc_offsets(radius, rng, n):
    """Per center: the s^2 sub-pixel offsets, s = 1..8, of a square pixel
    with half diagonal radius (added to the center as forward_image adds
    them), then 256 random points of the disc; shape (n, 460)."""
    d = radius * math.sqrt(2.0)
    lattice = [ox + 1j * oy for s in range(1, 9) for ox in ((np.arange(s) + 0.5) / s - 0.5) * d
               for oy in ((np.arange(s) + 0.5) / s - 0.5) * d]
    rho = radius * np.sqrt(rng.uniform(0, 1, (n, 256)))
    disc = rho * np.exp(2j * np.pi * rng.uniform(0, 1, (n, 256)))
    return np.concatenate([np.broadcast_to(lattice, (n, len(lattice))), disc], axis=1)


@settings(max_examples=200, deadline=None)
@given(dst=arccos_windows(), pitch=st.floats(1e-6, 0.05), marked=st.sampled_from([0.0, 0.5, 0.9]),
       where=st.sampled_from(["near", "pole", "half", "anywhere"]),
       seed=st.integers(0, 2**32 - 1))
def test_arccos_block_cull_is_sound(dst, pitch, marked, where, seed):
    # a cell the cull drops has no sample, lattice or random, whose computed
    # image lands in a pixel of the window that is not marked already
    m = ArccosReciprocal()
    rng = np.random.default_rng(seed)
    src = arccos_source(rng, dst, pitch, where)
    marks = np.where(rng.random(dst.px_w * dst.px_h) < marked, OrbitStatus.BOUNDED,
                     OrbitStatus.ESCAPED).astype(np.uint8)
    flat = np.flatnonzero(rng.random(src.px_w * src.px_h) < 0.6)
    kept = _cull(m, src, flat, marks, dst)
    assert np.array_equal(kept, flat[np.isin(flat, kept)])
    dropped = np.setdiff1d(flat, kept)
    col_re, row_im = src.axes()
    centers = col_re[dropped % src.px_w] + (1j * row_im)[dropped // src.px_w]
    lattice = [complex(x, y) for s in range(1, 9) for x in ((np.arange(s) + 0.5) / s - 0.5) * src.dx
               for y in ((np.arange(s) + 0.5) / s - 0.5) * src.dy]
    inside = rng.uniform(-0.5, 0.5, (2, 256))
    offsets = np.concatenate([lattice, inside[0] * src.dx + 1j * inside[1] * src.dy])
    hits = dst.pixels_hit(eval_forward(m, (centers[:, np.newaxis] + offsets).reshape(-1)))
    assert np.all(marks[hits] == OrbitStatus.BOUNDED), (src, dst)


@pytest.mark.parametrize("dst", [
    GridSpec(2.2 + 0j, 1.4, 2.4, 48, 64),            # the verify workload's arccos window
    GridSpec(0.1 + 0j, 0.4, 1.0, 32, 40),            # reaches u < 0
    GridSpec(complex(math.pi - 0.1, 0.3), 0.4, 1.0, 32, 40),  # reaches u > pi
    GridSpec(1.5 + 0j, 3.0, 0.02, 64, 8),            # a thin strip around v = 0
    GridSpec(0.8 + 1.2j, 0.5, 0.5, 32, 32),
], ids=["verify", "u_below_0", "u_above_pi", "strip", "corner"])
def test_forward_image_with_the_arccos_cull_equals_reference(dst):
    # windows where the cull drops some cells and keeps others
    m = ArccosReciprocal()
    for src in (RasterField.filled(GridSpec(0j, 3.0, 3.0, 65, 65), OrbitStatus.BOUNDED),
                render_julia(GridSpec(0j, 3.0, 3.0, 96, 96), 0.25j, P)):
        assert 0 < kept_cells(m, src, dst) < src.bounded_count()
        for s in (1, 3, 8):
            assert fields_equal(forward_image(src, m, dst, supersample=s),
                                splat_reference(src, m, dst, s)), s


@pytest.fixture(scope="module")
def fmt_arccos():
    """The verify workload's arccos leg: source field and destination grid."""
    src = render_julia(GridSpec(0j, 3.0, 3.0, 1024, 1024), 0.25j, IterParams(500, 2.0))
    return src, GridSpec(2.2 + 0j, 1.4, 2.4, 512, 512)


def test_fmt_arccos_geometry_culls_most_bounded_cells(fmt_arccos):
    # if the cull stopped dropping cells the splat would still be right but
    # some four times slower
    src, dst = fmt_arccos
    assert kept_cells(ArccosReciprocal(), src, dst) <= 0.30 * src.bounded_count()


def counted_samples(monkeypatch):
    """A list that collects the size of every eval_forward call forward_image makes."""
    sizes = []

    def counting(m, z):
        sizes.append(z.size)
        return eval_forward(m, z)

    monkeypatch.setattr("fractaldyn.fmi.eval_forward", counting)
    return sizes


def kept_cells(m, src, dst):
    """The Bounded cells of src the cull keeps against an unmarked destination."""
    cells = np.flatnonzero(src.bounded_mask())
    if m._lipschitz is None:
        return cells.size
    unmarked = np.full(dst.px_w * dst.px_h, OrbitStatus.ESCAPED, dtype=np.uint8)
    return _cull(m, src.grid, cells, unmarked, dst).size


def test_fmt_arccos_geometry_evaluates_few_samples(fmt_arccos, monkeypatch):
    # nearly every sample of the kept cells would re-mark a marked pixel; if
    # the group skip stopped firing the splat would be some five times slower.
    # The cull's block-centre evaluations count too
    src, dst = fmt_arccos
    m = ArccosReciprocal()
    sizes = counted_samples(monkeypatch)
    forward_image(src, m, dst, supersample=8)
    assert sum(sizes) <= 0.10 * 64 * kept_cells(m, src, dst)


@pytest.mark.parametrize("img, radius, marked, expected", [
    (2.5 + 5.5j, 0.4, [(2, 2)], True),
    (2.5 + 5.5j, 0.4, [], False),
    (2.5 + 5.5j, 1.4, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)], True),
    (2.5 + 5.5j, 1.4, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)][:-1], False),
    (2.2 + 5.5j, 1.3, [(i, j) for i in (0, 1, 2) for j in (1, 2, 3)], False),  # reaches i = 3
    (-5 + 5j, 1.0, [], True),                   # wholly left of the window
    (0.3 + 5.5j, 0.45, [(0, 2)], True),         # partly left of it
    (complex(np.nan, 5.5), 0.4, [(2, 2)], False),
    (2.5 + 5.5j, np.inf, [(i, j) for i in range(8) for j in range(8)], False),
], ids=["one_pixel", "unmarked", "3x3", "3x3_less_one", "4_wide", "outside", "edge", "nan",
        "no_bound"])
def test_covered_needs_every_pixel_the_disc_can_reach_marked(img, radius, marked, expected):
    # on this grid pixel (i, j) spans re in [i, i + 1) and im in (7 - j, 8 - j]
    grid = GridSpec(4 + 4j, 8.0, 8.0, 8, 8)
    marks = np.full(64, OrbitStatus.ESCAPED, dtype=np.uint8)
    for i, j in marked:
        marks[j * 8 + i] = OrbitStatus.BOUNDED
    assert _covered(marks, grid, np.array([img]), np.array([radius]))[0] == expected


def test_offset_groups_cover_every_offset_once():
    for s in range(1, 10):
        groups = _offset_groups(s)
        assert len(groups) == min(s, 2) ** 2
        seen = [rep for rep, _ in groups] + [p for _, members in groups for p in members]
        assert sorted(seen) == [(i, j) for i in range(s) for j in range(s)]


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(
    st.builds(complex, st.floats(-3.0, 0.5), st.floats(-0.05, 0.05)),     # near the cut
    st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),          # near the pole
              st.floats(0.0, 0.05), st.floats(0.0, 2 * math.pi)),
    st.builds(lambda r, t: 0.5 + r * complex(math.cos(t), math.sin(t)),    # near z = 1/2
              st.floats(0.0, 0.05), st.floats(0.0, 2 * math.pi)),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),        # anywhere
    st.builds(complex, st.floats(0.5, 3.0), st.floats(-3.0, 3.0)),         # right of the cut
), rho=st.floats(1e-6, 0.5), seed=st.integers(0, 2**32 - 1))
def test_arccos_lipschitz_is_sound(z, rho, seed):
    # the computed image of every point of the disc lies within L * rho of the
    # computed image of its center; L is inf where the disc reaches the pole
    # or the cut, real z <= 1/2, and finite well away from them
    m = ArccosReciprocal()
    lip = float(m._lipschitz(np.array([z]), rho)[0])
    to_cut = abs(z.imag) if z.real <= 0.5 else abs(z - 0.5)
    if to_cut <= rho:
        assert lip == math.inf
    if to_cut > 2 * rho:
        assert math.isfinite(lip)
    if lip == math.inf:
        return
    rng = np.random.default_rng(seed)
    rim = rho * (1 - 1e-9) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    disc = np.concatenate([disc_offsets(rho, rng, 1)[0], rim])
    w = eval_forward(m, z + disc)
    w0 = eval_forward(m, np.array([z]))[0]
    ok = np.isfinite(w)
    assert np.isfinite(w0) and ok.any()
    assert np.all(np.abs(w[ok] - w0) <= lip * rho), (z, rho, lip)


JULIA_48 = GridSpec(0j, 3.0, 3.0, 48, 48)
# the arccos image of SQUARE_16 lies in [1.86, 2.14] x [0.38, 0.65]
SQUARE_16 = GridSpec(1 + 1j, 0.5, 0.5, 16, 16)


@pytest.mark.parametrize("m, src_grid, dst, fires", [
    (ArccosReciprocal(), JULIA_48, GridSpec(2.2 + 0j, 1.4, 2.4, 48, 64), True),
    (ArccosReciprocal(), JULIA_48, GridSpec(0.8 + 1.2j, 0.5, 0.5, 32, 32), True),
    (ArccosReciprocal(), JULIA_48, GridSpec(0.1 + 0j, 0.4, 1.0, 32, 40), True),
    (ArccosReciprocal(), SQUARE_16, GridSpec(2.0 + 0.52j, 0.6, 0.6, 64, 64), True),
    (ArccosReciprocal(), SQUARE_16, GridSpec(2.0 + 0.52j, 0.6, 0.6, 512, 512), False),
    (Affine(2, 1), JULIA_48, GridSpec(1 + 0j, 6.0, 6.0, 48, 48), False),
], ids=["verify", "corner", "u_below_0", "coarse", "fine", "no_bound"])
def test_forward_image_with_the_group_skip_equals_reference(m, src_grid, dst, fires,
                                                             monkeypatch):
    # windows where the skip drops some members' samples, and where the
    # destination pixels are too fine (or the map has no bound) for it to
    if src_grid is SQUARE_16:
        src = RasterField.filled(src_grid, OrbitStatus.BOUNDED)
    else:
        src = render_julia(src_grid, 0.25j, P)
    kept = kept_cells(m, src, dst)
    for s in (1, 2, 3, 8):
        sizes = counted_samples(monkeypatch)
        out = forward_image(src, m, dst, supersample=s)
        assert fields_equal(out, splat_reference(src, m, dst, s)), s
        assert (sum(sizes) < s * s * kept) == (fires and s > 2), (s, sum(sizes), kept)


def test_maps_without_lipschitz_drop_nothing(monkeypatch):
    # every image lands far outside the window: arccos, with a stretch bound,
    # evaluates only its 4 block centres, the others every sample
    src = RasterField.filled(GridSpec(2 + 2j, 1.0, 1.0, 8, 8), OrbitStatus.BOUNDED)
    far = GridSpec(100 + 100j, 1.0, 1.0, 8, 8)
    for m, evaluated in ((ArccosReciprocal(), 4), (Identity(), 576), (Affine(2, 1), 576),
                         (ArcsinRoot5(), 576), (ReciprocalSqrt(), 576)):
        sizes = counted_samples(monkeypatch)
        assert forward_image(src, m, far, supersample=3).bounded_count() == 0
        assert sum(sizes) == evaluated, m.kind


def test_fmt_equality_affine_on_aligned_image_grid(basilica_512):
    m = Affine(2, 1)
    dst = basilica_512.grid.affine_image(2, 1)
    fwd = forward_image(basilica_512, m, dst, supersample=3)
    fmi = fmi_julia(dst, -1 + 0j, m, P)
    cmp = compare_masks(fwd, fmi)
    assert cmp.jaccard >= 0.95
    assert cmp.hausdorff_px <= 2.0


def test_discrete_trajectory_k0_is_render(basilica_512):
    pullback, pushforward = zip(*discrete_trajectory(-1 + 0j, Affine(0.5, 0), 0,
                                                     basilica_512.grid, P))
    assert len(pullback) == 1 and len(pushforward) == 1
    assert fields_equal(pullback[0], basilica_512)


def test_discrete_trajectory_rejects_negative_k():
    with pytest.raises(ValueError):
        discrete_trajectory(0j, Identity(), -1, GridSpec(0j, 2, 2, 8, 8), P)


def test_discrete_trajectory_rejects_nonfinite_c_at_the_call():
    # raised by the call itself, before any pair is drawn
    with pytest.raises(ValueError):
        discrete_trajectory(complex(math.nan, 0), Identity(), 2, GridSpec(0j, 2, 2, 8, 8), P)


def test_semigroup_pullback_equals_iterated_map(basilica_512):
    # halving map composes exactly in floating point to z -> 0.5^k z, so
    # frames match bitwise
    pullback, _ = zip(*discrete_trajectory(-1 + 0j, Affine(0.5, 0), 4, basilica_512.grid, P))
    for k in (1, 2, 4):
        assert fields_equal(pullback[k],
                            fmi_julia(basilica_512.grid, -1 + 0j, Affine(0.5 ** k, 0), P))


def test_trajectory_self_similarity_after_rescaling():
    # frame k on a window shrunk by 0.5^k reproduces frame 0's mask
    grid = GridSpec(0j, 3.4, 3.4, 256, 256)
    base = render_julia(grid, -1 + 0j, P)
    m = Affine(0.5, 0)
    for k in (1, 3, 5):
        pullback, _ = zip(*discrete_trajectory(-1 + 0j, m, k, grid.affine_image(0.5 ** k, 0), P,
                                               supersample=1))
        cmp = compare_masks(pullback[k], base)
        assert cmp.jaccard >= 0.9


def test_pullback_pushforward_agree_for_lattice_isometry():
    # a quarter turn maps the pixel lattice to itself: both routes agree
    # exactly at every k, because no resampling dilation accumulates
    grid = GridSpec(0j, 4.2, 4.2, 256, 256)
    pullback, pushforward = zip(*discrete_trajectory(-1 + 0j, Affine(1j, 0), 5, grid, P,
                                                     supersample=3))
    for k in range(6):
        cmp = compare_masks(pullback[k], pushforward[k])
        assert cmp.jaccard >= 0.95


def test_quadratic_trajectory_runs_and_reports_both_routes():
    c = -0.175 - 0.655j
    m = QuadraticParam(0.6, 0.02 - 0.02j, c)
    grid = GridSpec(0j, 3.2, 3.2, 128, 128)
    pullback, pushforward = zip(*discrete_trajectory(c, m, 5, grid, IterParams(150, 2.0),
                                                     supersample=3))
    assert len(pullback) == 6 and len(pushforward) == 6
    # the pushforward route keeps content even where the principal-branch
    # pullback chain loses the set
    assert pushforward[5].bounded_count() > 0
