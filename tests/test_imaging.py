import numpy as np
import pytest

from fractaldyn.core import GridSpec, OrbitStatus, RasterField
from fractaldyn.imaging import INVALID_RGB, get_palette, write_image, write_metadata


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
    write_metadata({"c": complex(-0.175, -0.655)},
                   {"counts": np.array([1, 2]), "wall_time_s": 0.25}, path)
    doc = json.loads(path.read_text())
    assert doc["config"]["c"] == [-0.175, -0.655]
    assert doc["stats"]["counts"] == [1, 2]
