import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaldyn.core import GridSpec, OrbitResult, OrbitStatus, RasterField


@pytest.fixture
def grid_401():
    return GridSpec(0j, 4.0, 4.0, 401, 401)


def test_center_pixel_is_exactly_center(grid_401):
    assert grid_401.point_of(200, 200) == 0j


def test_corner_pixel_center(grid_401):
    d = 4.0 / 401
    p = grid_401.point_of(0, 0)
    assert p.real == pytest.approx(-2 + d / 2, rel=1e-14)
    assert p.imag == pytest.approx(2 - d / 2, rel=1e-14)


def test_row_index_decreases_imaginary(grid_401):
    assert grid_401.point_of(0, 1).imag < grid_401.point_of(0, 0).imag
    assert grid_401.point_of(1, 0).real > grid_401.point_of(0, 0).real


def test_pixel_point_round_trip(grid_401):
    for i, j in [(0, 0), (200, 200), (400, 400), (17, 391)]:
        assert grid_401.pixel_of(grid_401.point_of(i, j)) == (i, j)


def test_pixel_of_center(grid_401):
    assert grid_401.pixel_of(0j) == (200, 200)


def test_pixel_of_outside_window(grid_401):
    assert grid_401.pixel_of(10 + 0j) is None
    assert grid_401.pixel_of(0 - 2.1j) is None


def test_pixel_of_nearest_center(grid_401):
    d = 4.0 / 401
    z = grid_401.point_of(7, 13) + d / 4
    assert grid_401.pixel_of(z) == (7, 13)


def test_point_of_bounds_error(grid_401):
    with pytest.raises(IndexError):
        grid_401.point_of(401, 0)
    with pytest.raises(IndexError):
        grid_401.point_of(0, -1)


def test_pixel_of_nonfinite_signals(grid_401):
    with pytest.raises(ValueError):
        grid_401.pixel_of(complex(np.nan, 0))
    with pytest.raises(ValueError):
        grid_401.pixel_of(complex(np.inf, 1))


def test_round_trip_within_half_pixel_diagonal():
    grid = GridSpec(0.3 - 0.2j, 3.0, 2.0, 97, 61)
    rng = np.random.default_rng(11)
    zs = (grid.center.real + rng.uniform(-1.5, 1.5, 500)) + \
        1j * (grid.center.imag + rng.uniform(-1.0, 1.0, 500))
    for z in zs:
        px = grid.pixel_of(complex(z))
        assert px is not None
        back = grid.point_of(*px)
        assert abs(back - z) <= grid.half_pixel_diag + 1e-15


def test_point_of_injective():
    grid = GridSpec(0.1 + 0.1j, 2.0, 1.0, 37, 23)
    pts = grid.points()
    assert len(np.unique(pts)) == 37 * 23


def test_points_array_matches_point_of():
    grid = GridSpec(-0.4 + 0.9j, 2.7, 1.9, 53, 31)
    pts = grid.points()
    for i, j in [(0, 0), (52, 30), (26, 15), (1, 29)]:
        assert pts[j, i] == grid.point_of(i, j)


def test_pixels_hit_matches_scalar():
    grid = GridSpec(0j, 3.0, 3.0, 64, 64)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    # the window's edges and corners, which pixel_of clamps to the last pixel
    zs = np.concatenate([zs, [1.5 + 1.5j, -1.5 - 1.5j, 1.5 + 0j, -1.5j, np.nextafter(1.5, 2)]])
    expected = [grid.pixel_of(complex(z)) for z in zs]
    assert any(e is None for e in expected)
    hit = grid.pixels_hit(zs)
    assert hit.tolist() == [j * grid.px_w + i for i, j in filter(None, expected)]


def test_pixels_hit_skips_nonfinite():
    grid = GridSpec(0j, 2.0, 2.0, 8, 8)
    zs = np.array([0j, complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, np.nan),
                   1e308 + 0j])
    i, j = grid.pixel_of(0j)
    assert grid.pixels_hit(zs).tolist() == [j * grid.px_w + i]


@pytest.mark.parametrize("kwargs", [
    dict(center=complex(np.inf, 0), width=1, height=1, px_w=2, px_h=2),
    dict(center=0j, width=0, height=1, px_w=2, px_h=2),
    dict(center=0j, width=1, height=-3, px_w=2, px_h=2),
    dict(center=0j, width=1, height=1, px_w=0, px_h=2),
    # 676 distinct column centers of 1024, and rows as thin
    dict(center=1 + 0j, width=1e-13, height=1, px_w=1024, px_h=2),
    dict(center=1j, width=1, height=1e-13, px_w=2, px_h=1024),
    dict(center=0j, width=5e-324, height=1, px_w=2, px_h=2),  # the pitch underflows to 0
    dict(center=1.7e308 + 0j, width=1e308, height=1, px_w=2, px_h=2),  # a center overflows
    dict(center=0j, width=1, height=1, px_w=2 ** 53, px_h=2),  # i + 0.5 rounds
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


@settings(max_examples=300, deadline=None)
@given(mid=st.floats(-1e300, 1e300), ulps=st.floats(0.01, 8.0), n=st.integers(1, 300))
def test_a_grid_has_strictly_monotone_pixel_centers(mid, ulps, n):
    # pitches around the float spacing at the center, where neighbours can meet
    size = n * ulps * math.ulp(mid)
    try:
        grid = GridSpec(complex(mid, -mid), size, size, n, n)
    except ValueError:
        return
    xs, ys = grid.axes()
    assert np.all(np.diff(xs) > 0) and np.all(np.diff(ys) < 0)


def test_scaled_grid():
    grid = GridSpec(1 + 1j, 2.0, 4.0, 16, 32)
    s = grid.affine_image(0.5, 0)
    assert s.center == 0.5 + 0.5j and s.width == 1.0 and s.height == 2.0
    assert (s.px_w, s.px_h) == (16, 32)


def test_affine_image_grid():
    grid = GridSpec(0j, 2.0, 2.0, 16, 16)
    img = grid.affine_image(2, 1)
    assert img.center == 1 + 0j and img.width == 4.0 and img.height == 4.0


def test_raster_field_shape_validation():
    grid = GridSpec(0j, 1.0, 1.0, 4, 3)
    with pytest.raises(ValueError):
        RasterField(grid, np.zeros((4, 4), np.uint8),
                    np.zeros((3, 4), np.int32), np.zeros((3, 4)))


def test_raster_field_cell_accessor():
    grid = GridSpec(0j, 1.0, 1.0, 2, 2)
    f = RasterField.filled(grid, OrbitStatus.BOUNDED)
    f.status[1, 0] = OrbitStatus.ESCAPED
    f.escape_iter[1, 0] = 7
    f.last_magnitude[1, 0] = 2.5
    f.status[0, 1] = OrbitStatus.INVALID
    assert f.cell(0, 0) == OrbitResult.bounded(0.0)
    assert f.cell(0, 1) == OrbitResult.escaped(7, 2.5)
    assert f.cell(1, 0) == OrbitResult.invalid()
    assert f.bounded_count() == 2
    with pytest.raises(IndexError):
        f.cell(2, 0)
