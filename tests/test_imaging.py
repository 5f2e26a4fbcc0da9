import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fractaldyn.analysis import rasterize_zeno, zeno_states
from fractaldyn.core import GridSpec, OrbitStatus, RasterField
from fractaldyn.fji import IterParams, extract_boundary, render_julia
from fractaldyn.fmi import forward_image
from fractaldyn.imaging import (INVALID_RGB, PALETTES, PaletteRule, get_palette,
                                write_image, write_metadata)
from fractaldyn.maps import Affine

PALETTE_NAMES = sorted(PALETTES)


def two_cell_field():
    grid = GridSpec(0j, 2.0, 1.0, 2, 1)
    f = RasterField.filled(grid, OrbitStatus.BOUNDED)
    f.status[0, 1] = OrbitStatus.ESCAPED
    f.escape_iter[0, 1] = 1
    return f


def test_grayscale_endpoints_exact(tmp_path):
    path = tmp_path / "img.ppm"
    write_image(two_cell_field(), get_palette("grayscale"), path)
    assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes((0, 0, 0, 255, 255, 255))


def test_all_invalid_field_is_all_magenta(tmp_path):
    grid = GridSpec(0j, 2.0, 1.0, 3, 1)
    f = RasterField.filled(grid, OrbitStatus.INVALID)
    path = tmp_path / "img.ppm"
    write_image(f, get_palette("classic"), path)
    assert path.read_bytes() == b"P6\n3 1\n255\n" + bytes(INVALID_RGB) * 3


@pytest.mark.parametrize("name", ["grayscale", "classic", "mono"])
def test_palette_total_and_monotone(name):
    grid = GridSpec(0j, 2.0, 2.0, 8, 8)
    f = RasterField.filled(grid, OrbitStatus.ESCAPED)
    f.escape_iter[:] = np.arange(64).reshape(8, 8)
    f.status[0, 0] = OrbitStatus.BOUNDED
    f.status[0, 1] = OrbitStatus.INVALID
    img = get_palette(name).colorize(f)
    assert img.shape == (8, 8, 3)
    assert tuple(img[0, 0]) == (0, 0, 0)
    assert tuple(img[0, 1]) == INVALID_RGB
    # escape colors never collide with the reserved colors
    esc = f.status == OrbitStatus.ESCAPED
    assert not np.any(np.all(img[esc] == INVALID_RGB, axis=-1))
    assert not np.any(np.all(img[esc] == (0, 0, 0), axis=-1))
    # grayscale intensity is monotone in the escape index
    if name == "grayscale":
        vals = img[esc][:, 0].astype(int)
        order = np.argsort(f.escape_iter[esc])
        assert np.all(np.diff(vals[order]) >= 0)


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 254, 255, 256, 1000, 4095, 100_000])
def test_grayscale_and_mono_ramps_are_pinned(n_max):
    n = np.unique(np.linspace(0, n_max, 1000).round().astype(np.int64))
    f = RasterField.filled(GridSpec(0j, 2.0, 1.0, n.size, 1), OrbitStatus.ESCAPED)
    f.escape_iter[0] = n
    u = (n + 1.0) / (n_max + 1.0)
    # from n_max 509 on, index 0 rounds to 0 and is drawn 1, off the Bounded black
    gray = np.maximum(np.rint(255.0 * u), 1).astype(np.uint8)
    assert get_palette("grayscale").colorize(f).tobytes() == np.repeat(gray, 3).tobytes()
    assert np.all(get_palette("mono").colorize(f) == 255)


@pytest.mark.parametrize("n_max", [508, 509, 510, 1000, 100_000])
def test_escaped_cells_are_never_drawn_in_the_bounded_black(n_max):
    f = RasterField.filled(GridSpec(0j, 2.0, 1.0, 3, 1), OrbitStatus.ESCAPED)
    f.escape_iter[0] = (0, 1, n_max)
    f.status[0, 1] = OrbitStatus.BOUNDED
    fade = PaletteRule("fade", ((0.0, (0, 0, 0)), (1.0, (0, 0, 255))))
    for palette in (*PALETTES.values(), fade):
        img = palette.colorize(f)
        assert img[0, 0].any() and not img[0, 1].any(), palette.name
    # grayscale's Escaped(0) rounds to 1 up to n_max 508 and is lifted to 1 beyond
    assert tuple(get_palette("grayscale").colorize(f)[0, 0]) == (1, 1, 1)


def _per_cell_colorize(palette, field):
    """colorize written cell by cell: the ramp at every cell's own u, then a
    masked copy of the Escaped cells and the reserved Invalid color."""
    status = field.status
    escaped = status == OrbitStatus.ESCAPED
    n_max = int(field.escape_iter[escaped].max()) if escaped.any() else 0
    u = (field.escape_iter.astype(float) + 1.0) / (n_max + 1.0)
    pos = np.array([p for p, _ in palette.stops])
    rgb = np.array([c for _, c in palette.stops], dtype=float)
    ramp = np.empty(u.shape + (3,), dtype=np.uint8)
    for ch in range(3):
        ramp[..., ch] = np.rint(np.interp(u, pos, rgb[:, ch])).astype(np.uint8)
    ramp[~ramp.any(axis=-1)] = 1  # an Escaped cell is never the Bounded black
    img = np.zeros(status.shape + (3,), dtype=np.uint8)
    img[escaped] = ramp[escaped]
    img[status == OrbitStatus.INVALID] = INVALID_RGB
    return img


def assert_colorize_equals_per_cell(field):
    for name in PALETTE_NAMES:
        img = get_palette(name).colorize(field)
        ref = _per_cell_colorize(get_palette(name), field)
        assert img.shape == ref.shape and img.dtype == ref.dtype, name
        assert img.tobytes() == ref.tobytes(), name


def field_of(status, escape_iter):
    status = np.asarray(status, dtype=np.uint8)
    h, w = status.shape
    return RasterField(GridSpec(0j, 2.0, 2.0, w, h), status,
                       np.asarray(escape_iter, dtype=np.int32), np.zeros((h, w)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_colorize_equals_per_cell_reference_property(data):
    shape = (data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64)))
    status = data.draw(arrays(np.uint8, shape, elements=st.sampled_from(list(OrbitStatus))))
    top = data.draw(st.integers(0, 5000))
    escape_iter = data.draw(arrays(np.int32, shape, elements=st.integers(0, top)))
    assert_colorize_equals_per_cell(field_of(status, escape_iter))


@pytest.mark.parametrize("status", list(OrbitStatus))
def test_colorize_uniform_fields_equal_per_cell_reference(status):
    # all-Escaped at index 0 is n_max 0; all-Bounded and all-Invalid have
    # no escape ramp rows at all
    for k in (0, 7):
        assert_colorize_equals_per_cell(field_of(np.full((5, 9), status), np.full((5, 9), k)))


def test_colorize_n_max_zero_beside_reserved_cells():
    status = [[OrbitStatus.ESCAPED, OrbitStatus.BOUNDED, OrbitStatus.INVALID]]
    assert_colorize_equals_per_cell(field_of(status, [[0, 3, 9]]))


def test_colorize_escape_indices_up_to_100000():
    k = np.array([0, 1, 2, 99_998, 99_999, 100_000, 50_000, 3, 255, 256, 1000, 77_777])
    status = np.full(k.size, OrbitStatus.ESCAPED)
    status[[2, 7]] = OrbitStatus.BOUNDED, OrbitStatus.INVALID
    assert_colorize_equals_per_cell(field_of(status.reshape(3, 4), k.reshape(3, 4)))
    assert_colorize_equals_per_cell(field_of(np.full((1, 2), OrbitStatus.ESCAPED),
                                             [[100_000, 99_990]]))


def test_colorize_negative_escape_index():
    # largest index -1 would divide by n_max + 1 = 0; any negative index is refused
    esc, bnd = OrbitStatus.ESCAPED, OrbitStatus.BOUNDED
    for status, k in [([[esc, esc]], [[-1, -2]]), ([[esc, esc, esc, bnd]], [[-4, 0, 10, -9]]),
                      ([[esc, esc, bnd]], [[-3, -7, 5]])]:
        field = field_of(status, k)
        for name in PALETTE_NAMES:
            with pytest.raises(ValueError, match="escape indices"):
                get_palette(name).colorize(field)
    # a negative index on a Bounded cell is not an escape index
    assert_colorize_equals_per_cell(field_of([[esc, bnd]], [[3, -9]]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_colorize_tile_size_does_not_change_the_image(data):
    shape = (data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24)))
    status = data.draw(arrays(np.uint8, shape, elements=st.sampled_from(list(OrbitStatus))))
    escape_iter = data.draw(arrays(np.int32, shape, elements=st.integers(0, 300)))
    field = field_of(status, escape_iter)
    tile = data.draw(st.sampled_from([1, 7, status.size - 1 or 1, status.size]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fractaldyn.imaging._TILE_CELLS", tile)
        assert_colorize_equals_per_cell(field)


def test_colorize_of_a_1024_frame_builds_no_frame_of_row_indices():
    # int64 row indices for the whole frame would be 8.4 MB each; the image is 3.1 MB
    rng = np.random.default_rng(5)
    status = rng.choice(np.array(list(OrbitStatus), dtype=np.uint8), (1024, 1024),
                        p=[0.2, 0.75, 0.05])
    field = field_of(status, rng.integers(0, 500, (1024, 1024)))
    tracemalloc.start()
    try:
        img = get_palette("classic").colorize(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * img.nbytes
    assert img.tobytes() == _per_cell_colorize(get_palette("classic"), field).tobytes()


def test_colorize_package_fields_equal_per_cell_reference():
    julia = render_julia(GridSpec(0j, 3.2, 3.2, 96, 80), -0.7589 + 0.0735j, IterParams(300))
    pushed = forward_image(julia, Affine(0.8 + 0.3j, 0.1j), GridSpec(0j, 3.2, 3.2, 64, 64))
    for field in (julia, extract_boundary(julia), pushed,
                  rasterize_zeno(zeno_states(1.0, 1.0, 8, 0), 64, 32)):
        assert field.status.any()
        assert_colorize_equals_per_cell(field)


@pytest.mark.parametrize("stops", [
    ((0.0, (300, 0, 0)), (1.0, (0, 0, 0))),      # wraps to 44 in uint8
    ((0.0, (0, 0, -1)), (1.0, (0, 0, 0))),
    ((0.0, (0, 0, 0)), (1.0, (0.5, 0, 0))),
    ((0.0, (0, 0, 0)), (1.0, (0, 0))),
], ids=["above-255", "negative", "non-integer", "two-components"])
def test_palette_rejects_rgb_outside_0_255_integers(stops):
    with pytest.raises(ValueError):
        PaletteRule("bad", stops)


@pytest.mark.parametrize("stops", [
    ((1.0, (0, 0, 0)), (0.0, (255, 255, 255))),  # reversed: a constant ramp
    ((0.2, (0, 0, 0)), (0.5, (255, 255, 255))),  # the ends clamp
    ((0.0, (0, 0, 0)), (0.5, (9, 9, 9)), (0.5, (1, 1, 1)), (1.0, (255, 255, 255))),
    ((0.0, (0, 0, 0)), (float("nan"), (9, 9, 9)), (1.0, (255, 255, 255))),
    ((0.0, (0, 0, 0)),),
    (),
], ids=["reversed", "inside-0-1", "repeated", "nan", "single", "empty"])
def test_palette_rejects_positions_not_rising_from_0_to_1(stops):
    with pytest.raises(ValueError):
        PaletteRule("bad", stops)


@pytest.mark.parametrize("name", PALETTE_NAMES)
def test_builtin_palettes_construct(name):
    rule = get_palette(name)
    assert PaletteRule(rule.name, rule.stops) == rule


def test_unknown_palette_rejected():
    with pytest.raises(ValueError):
        get_palette("sepia")


def test_identical_fields_identical_bytes(tmp_path):
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_image(two_cell_field(), get_palette("classic"), p1)
    write_image(two_cell_field(), get_palette("classic"), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_metadata_serializes_complex_and_arrays(tmp_path):
    import json
    path = tmp_path / "run.json"
    write_metadata({"c": complex(-0.175, -0.655), "t_list": (0.5, 1.0)},
                   {"counts": np.array([1, 2]), "wall_time_s": 0.25, "n": np.int64(3),
                    "slope": np.float64(0.1), "pair": [np.complex128(1 - 2j)]}, path)
    doc = json.loads(path.read_text())
    assert doc["config"] == {"c": [-0.175, -0.655], "t_list": [0.5, 1.0]}
    assert doc["stats"] == {"counts": [1, 2], "wall_time_s": 0.25, "n": 3,
                            "slope": 0.1, "pair": [[1.0, -2.0]]}
