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
    gray = np.rint(255.0 * u).astype(np.uint8)
    assert get_palette("grayscale").colorize(f).tobytes() == np.repeat(gray, 3).tobytes()
    assert np.all(get_palette("mono").colorize(f) == 255)


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
    esc, bnd = OrbitStatus.ESCAPED, OrbitStatus.BOUNDED
    assert_colorize_equals_per_cell(field_of([[esc, esc, esc, bnd]], [[-4, 0, 10, -9]]))
    assert_colorize_equals_per_cell(field_of([[esc, esc, bnd]], [[-3, -7, 5]]))


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
