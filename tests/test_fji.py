import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractaldyn import cli, fji
from fractaldyn.config import validate_config
from fractaldyn.core import GridSpec, OrbitStatus, RasterField
from fractaldyn.fji import (IterParams, classify_grid, classify_orbit,
                            extract_boundary, render_julia, render_mandelbrot)

P = IterParams(500, 2.0)


def test_fixed_point_of_squaring_is_bounded():
    assert classify_orbit(0j, 0j, P).status == OrbitStatus.BOUNDED


def test_period_two_cycle_is_bounded():
    # orbit 0, -1, 0, -1, ...
    r = classify_orbit(0j, -1 + 0j, P)
    assert r.status == OrbitStatus.BOUNDED
    assert r.last_magnitude in (0.0, 1.0)


def test_escape_at_third_iterate():
    # orbit 0, 1, 2, 5: first magnitude above radius 2 is |z_3| = 5
    r = classify_orbit(0j, 1 + 0j, P)
    assert r.status == OrbitStatus.ESCAPED
    assert r.escape_iter == 3
    assert r.last_magnitude == 5.0


def test_seed_beyond_radius_escapes_at_zero():
    r = classify_orbit(3 + 0j, 0j, P)
    assert r.status == OrbitStatus.ESCAPED and r.escape_iter == 0


def test_magnitude_exactly_on_radius_does_not_escape():
    # orbit 0, -2, 2, 2, ... never exceeds 2 strictly
    r = classify_orbit(0j, -2 + 0j, P)
    assert r.status == OrbitStatus.BOUNDED
    assert r.last_magnitude == 2.0


def test_overflow_counts_as_escape():
    r = classify_orbit(1e200 + 0j, 0j, P)
    assert r.status == OrbitStatus.ESCAPED and r.escape_iter == 0


def test_nonfinite_inputs_signal():
    with pytest.raises(ValueError):
        classify_orbit(complex(np.nan, 0), 0j, P)
    with pytest.raises(ValueError):
        classify_orbit(0j, complex(0, np.inf), P)


def test_iter_params_validation():
    with pytest.raises(ValueError):
        IterParams(0, 2.0)
    with pytest.raises(ValueError):
        IterParams(10, 0.0)
    with pytest.raises(ValueError):
        IterParams(10, 1.5)  # bounded orbits would read Escaped


def test_vectorized_kernel_matches_scalar_path():
    rng = np.random.default_rng(3)
    z0 = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    c = rng.uniform(-1.5, 0.5, 400) + 1j * rng.uniform(-1, 1, 400)
    params = IterParams(80, 2.0)
    status, iters, mags = classify_grid(z0, c, params)
    for k in range(z0.size):
        ref = classify_orbit(complex(z0[k]), complex(c[k]), params)
        assert status[k] == ref.status
        if ref.status == OrbitStatus.ESCAPED:
            assert iters[k] == ref.escape_iter
        # numpy and CPython complex products may round differently by 1 ulp
        assert mags[k] == pytest.approx(ref.last_magnitude, rel=1e-9)


def test_kernel_marks_nonfinite_seeds_invalid():
    z0 = np.array([0j, complex(np.nan, 0), 1e9 + 0j])
    status, _, _ = classify_grid(z0, np.complex128(0), P)
    assert status.tolist() == [OrbitStatus.BOUNDED, OrbitStatus.INVALID,
                               OrbitStatus.ESCAPED]


def test_render_julia_c0_is_unit_disk():
    grid = GridSpec(0j, 3.0, 3.0, 256, 256)
    field = render_julia(grid, 0j, P)
    zs = grid.points()
    mask = field.bounded_mask()
    disk = np.abs(zs) <= 1.0
    # agreement except within half a pixel diagonal of the circle
    disagree = mask != disk
    assert np.all(np.abs(np.abs(zs[disagree]) - 1.0) <= grid.half_pixel_diag)


def test_render_mandelbrot_named_parameters():
    # centers at -2, -1, 0, 1, 2 exactly; oracle: direct iteration
    grid = GridSpec(0j, 5.0, 2.0, 5, 1)
    assert [complex(z) for z in grid.points()[0]] == [-2, -1, 0, 1, 2]
    field = render_mandelbrot(grid, P)
    assert field.cell(0, 0).status == OrbitStatus.BOUNDED   # orbit 0,-2,2,2,..
    assert field.cell(1, 0).status == OrbitStatus.BOUNDED   # period 2
    assert field.cell(2, 0).status == OrbitStatus.BOUNDED
    c1 = field.cell(3, 0)
    assert c1.status == OrbitStatus.ESCAPED and c1.escape_iter == 3
    assert field.cell(4, 0).status == OrbitStatus.ESCAPED


def test_julia_render_matches_per_pixel_classify():
    grid = GridSpec(0.1 - 0.2j, 2.5, 1.5, 31, 17)
    c = -0.4 + 0.3j
    field = render_julia(grid, c, IterParams(60, 2.0))
    for i, j in [(0, 0), (30, 16), (15, 8), (7, 11)]:
        assert field.cell(i, j) == classify_orbit(grid.point_of(i, j), c, IterParams(60, 2.0))


def test_julia_mask_symmetric_under_rotation():
    # z -> -z symmetry; odd pixel counts put +/-z pairs on exact negations
    grid = GridSpec(0j, 3.1, 3.1, 129, 129)
    field = render_julia(grid, -0.62 + 0.43j, IterParams(200, 2.0))
    assert np.array_equal(field.status, field.status[::-1, ::-1])
    assert np.array_equal(field.escape_iter, field.escape_iter[::-1, ::-1])


def test_mandelbrot_mask_mirror_symmetric():
    grid = GridSpec(-0.5 + 0j, 3.0, 2.5, 101, 101)
    field = render_mandelbrot(grid, IterParams(200, 2.0))
    assert np.array_equal(field.status, field.status[::-1, :])


def test_raising_max_iter_is_monotone():
    grid = GridSpec(0j, 3.2, 3.2, 64, 64)
    c = -0.74 + 0.11j
    lo = render_julia(grid, c, IterParams(50, 2.0))
    hi = render_julia(grid, c, IterParams(140, 2.0))
    was_escaped = lo.status == OrbitStatus.ESCAPED
    # escaped cells keep their verdict and exact escape index
    assert np.all(hi.status[was_escaped] == OrbitStatus.ESCAPED)
    assert np.array_equal(hi.escape_iter[was_escaped], lo.escape_iter[was_escaped])
    # bounded cells may only turn into escapes
    assert np.all(lo.status[hi.status == OrbitStatus.BOUNDED] == OrbitStatus.BOUNDED)


def test_escape_permanence_oracle():
    # with radius >= 2 and |c| <= 2, magnitudes never decrease after escape
    rng = np.random.default_rng(9)
    for _ in range(50):
        c = complex(rng.uniform(-1.5, 0.8), rng.uniform(-1.2, 1.2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(c) <= 2
        escaped = False
        prev = abs(z)
        for _ in range(80):
            if escaped:
                m = abs(z)
                assert m >= prev - 1e-12
                prev = m
            elif abs(z) > 2.0:
                escaped = True
                prev = abs(z)
            if abs(z) > 1e100:
                break
            z = z * z + c


def test_threaded_render_is_deterministic(tmp_path):
    # threads= survives only on render_julia and run_scene, deprecated and ignored
    grid = GridSpec(0j, 3.2, 3.2, 96, 96)
    c = -0.52 - 0.46j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # threads=1 warns of nothing
        one = render_julia(grid, c, IterParams(120, 2.0), threads=1)
    with pytest.warns(DeprecationWarning, match="threads= is deprecated") as record:
        two = render_julia(grid, c, IterParams(120, 2.0), threads=2)
    assert len(record) == 1 and record[0].filename == __file__
    _assert_same_bytes((two.status, two.escape_iter, two.last_magnitude),
                       (one.status, one.escape_iter, one.last_magnitude))

    ppm = {}
    for threads in (1, 2):
        cfg = validate_config({"command": "julia", "grid": {"center": [0, 0], "width": 3.2,
                               "height": 3.2, "px_w": 96, "px_h": 96}, "c": [-0.52, -0.46],
                               "iter": {"max_iter": 120}, "output": str(tmp_path / f"t{threads}")})
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cli.run_scene(cfg, threads=threads)
        assert [(w.category, w.filename) for w in record] == (
            [] if threads == 1 else [(DeprecationWarning, __file__)])
        ppm[threads] = (tmp_path / f"t{threads}.ppm").read_bytes()
    assert ppm[1] == ppm[2]


def test_boundary_of_full_field_is_window_frame():
    grid = GridSpec(0j, 1.0, 1.0, 8, 6)
    full = RasterField.filled(grid, OrbitStatus.BOUNDED)
    b = extract_boundary(full).bounded_mask()
    expected = np.zeros((6, 8), bool)
    expected[0, :] = expected[-1, :] = expected[:, 0] = expected[:, -1] = True
    assert np.array_equal(b, expected)


def test_boundary_of_empty_field_is_empty():
    grid = GridSpec(0j, 1.0, 1.0, 8, 6)
    empty = RasterField.filled(grid, OrbitStatus.ESCAPED)
    assert extract_boundary(empty).bounded_count() == 0


def test_boundary_of_disk_is_annulus_near_circle():
    grid = GridSpec(0j, 3.0, 3.0, 256, 256)
    field = render_julia(grid, 0j, P)
    boundary = extract_boundary(field)
    zs = grid.points()
    mask = boundary.bounded_mask()
    assert mask.sum() > 0
    # boundary cells hug the unit circle within a pixel diagonal
    assert np.all(np.abs(np.abs(zs[mask]) - 1.0) <= 2 * grid.half_pixel_diag)
    # and nothing deep inside survives
    assert not np.any(mask & (np.abs(zs) < 0.9))


def test_boundary_preserves_invalid_cells():
    grid = GridSpec(0j, 1.0, 1.0, 4, 4)
    f = RasterField.filled(grid, OrbitStatus.BOUNDED)
    f.status[1, 1] = OrbitStatus.INVALID
    b = extract_boundary(f)
    assert b.status[1, 1] == OrbitStatus.INVALID


def _band_inputs():
    grid = GridSpec(-0.1 + 0.05j, 3.0, 3.0, 96, 96)
    seeds = np.random.default_rng(5).uniform(-1.5, 1.5, 50).astype(np.complex128)
    seeds[[3, 17]] = [np.nan, complex(0, np.inf)]
    return {
        "grid": (grid.points(), np.complex128(-0.7589 + 0.0735j)),
        "row": (np.complex128(0), GridSpec(0j, 5.0, 2.0, 5, 1).points()),
        "seeds_1d": (seeds, np.complex128(-0.4 + 0.6j)),
        "seed_0d": (np.complex128(0.3 + 0.2j), np.complex128(-1)),
    }


def _full_budget_kernel(z0, c, params):
    """classify_grid without periodicity checking, in one band: every
    Bounded cell runs the full budget. The reference it must equal."""
    z0, c = np.broadcast_arrays(np.asarray(z0, dtype=np.complex128),
                                np.asarray(c, dtype=np.complex128))
    shape = z0.shape
    z0 = z0.reshape(-1)
    c = c.reshape(-1)
    status = np.full(z0.size, OrbitStatus.BOUNDED, dtype=np.uint8)
    iters = np.zeros(z0.size, dtype=np.int32)
    mags = np.zeros(z0.size, dtype=np.float64)
    status[~(np.isfinite(z0) & np.isfinite(c))] = OrbitStatus.INVALID
    r2 = params.escape_radius * params.escape_radius
    active = np.flatnonzero(status != OrbitStatus.INVALID)
    z = z0[active]
    cc = c[active]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(params.max_iter):
            m2 = z.real * z.real + z.imag * z.imag
            esc = (m2 > r2) | ~np.isfinite(m2)
            if esc.any():
                hit = active[esc]
                status[hit] = OrbitStatus.ESCAPED
                iters[hit] = n
                ms = np.sqrt(m2[esc])
                mags[hit] = np.where(np.isnan(ms), np.inf, ms)
                keep = ~esc
                active = active[keep]
                z = z[keep]
                cc = cc[keep]
            z = z * z + cc
        mags[active] = np.sqrt(z.real * z.real + z.imag * z.imag)
    return status.reshape(shape), iters.reshape(shape), mags.reshape(shape)


def _assert_same_bytes(out, ref):
    for got, want in zip(out, ref):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.reshape(-1).view(np.uint8), want.reshape(-1).view(np.uint8))


def _windows(px):
    """The interior workload's four windows, a full Julia frame and the
    full Mandelbrot set, as (z0, c)."""
    def points(center, width, height=None):
        return GridSpec(center, width, height or width, px, px).points()
    return {
        "basilica": (points(0j, 0.425), np.complex128(-1)),
        "quarter_i": (points(0j, 0.3), np.complex128(0.25j)),
        "no_cycle": (points(0.2969 + 0.1844j, 0.045), np.complex128(-0.7589 + 0.0735j)),
        "cardioid": (np.complex128(0), points(-0.1 + 0j, 0.4)),
        "julia_full": (points(0j, 3.2), np.complex128(-0.7589 + 0.0735j)),
        "mandelbrot_full": (np.complex128(0), points(-0.5 + 0j, 3.0, 2.5)),
    }


@pytest.mark.parametrize("max_iter", [1, 2, 9, 17, 400])
@pytest.mark.parametrize("name", ["basilica", "quarter_i", "no_cycle", "cardioid",
                                  "julia_full", "mandelbrot_full"])
def test_classify_grid_equals_full_budget_kernel(name, max_iter):
    z0, c = _windows(96)[name]
    params = IterParams(max_iter, 2.0)
    _assert_same_bytes(classify_grid(z0, c, params), _full_budget_kernel(z0, c, params))


@pytest.mark.parametrize("radius", [2.0, 1e300])  # 1e300 squared overflows to inf
def test_classify_grid_equals_full_budget_kernel_on_nonfinite_and_huge_seeds(radius):
    seeds = np.array([np.nan, complex(0, np.nan), np.inf, complex(-np.inf, 1), 1e100,
                      1.3e154, 1.5e154, 1e200, 0j, -1 + 0j, 0.1 + 0.2j, 2 + 0j])
    params = IterParams(60, radius)
    for c in (np.complex128(-1), np.complex128(0.25j), np.full(seeds.shape, np.nan + 0j)):
        _assert_same_bytes(classify_grid(seeds, c, params), _full_budget_kernel(seeds, c, params))


@settings(max_examples=60, deadline=None)
@given(center=st.complex_numbers(max_magnitude=2.0),
       width=st.floats(1e-9, 4.0),
       px=st.tuples(st.integers(1, 16), st.integers(1, 16)),
       c=st.complex_numbers(max_magnitude=2.0),
       mandelbrot=st.booleans(),
       max_iter=st.integers(1, 300),
       tile=st.integers(1, 300))
def test_classify_grid_equals_full_budget_kernel_on_random_windows(
        center, width, px, c, mandelbrot, max_iter, tile):
    points = GridSpec(center, width, width, *px).points()
    z0, c = (np.complex128(0), points) if mandelbrot else (points, np.complex128(c))
    params = IterParams(max_iter, 2.0)
    with mock.patch.object(fji, "_TILE_CELLS", tile):
        out = classify_grid(z0, c, params)
    _assert_same_bytes(out, _full_budget_kernel(z0, c, params))


@pytest.mark.parametrize("c", [-0.4 + 0.6j, -1 + 0j, 0.25j])
def test_each_seed_alone_equals_its_batch_entry(c):
    # numpy's in-place complex multiply rounds 1-element arrays differently
    # from longer ones; a kernel using it would fail here
    rng = np.random.default_rng(17)
    seeds = rng.uniform(-1.2, 1.2, 400) + 1j * rng.uniform(-1.2, 1.2, 400)
    params = IterParams(200, 2.0)
    batch = classify_grid(seeds, np.complex128(c), params)
    for k in range(seeds.size):
        alone = classify_grid(seeds[k:k + 1], np.complex128(c), params)
        for got, want in zip(alone, batch):
            assert got.tobytes() == want[k:k + 1].tobytes()


def _copies(z0, c, n):
    """n copies of the (broadcast) inputs stacked on a new first axis, so
    that each copy's cells meet the tile boundaries at other offsets; a 0-d
    c stays 0-d."""
    z0 = np.broadcast_to(z0, np.broadcast_shapes(np.shape(z0), np.shape(c)))
    return np.stack([z0] * n), (c if np.ndim(c) == 0 else np.stack([c] * n))


@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("name", ["row", "seeds_1d", "seed_0d"])
def test_tiles_of_one_cell_give_the_same_fields(name, copies, monkeypatch):
    monkeypatch.setattr(fji, "_TILE_CELLS", 1)
    z0, c = _copies(*_band_inputs()[name], copies)
    params = IterParams(150, 2.0)
    _assert_same_bytes(classify_grid(z0, c, params), _full_budget_kernel(z0, c, params))


@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("tile", [97, 96 * 96, 10 ** 6])  # a prime, the input, more
@pytest.mark.parametrize("name", ["basilica", "quarter_i", "no_cycle", "cardioid",
                                  "julia_full", "mandelbrot_full"])
def test_tile_size_does_not_change_the_fields(name, tile, copies, monkeypatch):
    monkeypatch.setattr(fji, "_TILE_CELLS", tile)
    z0, c = _copies(*_windows(96)[name], copies)
    for max_iter in (17, 400):
        params = IterParams(max_iter, 2.0)
        _assert_same_bytes(classify_grid(z0, c, params), _full_budget_kernel(z0, c, params))


@pytest.mark.parametrize("name", ["basilica", "quarter_i", "no_cycle", "cardioid"])
def test_fixed_c_equals_c_per_cell(name):
    z0, c = _windows(96)[name]
    if np.ndim(c):  # a parameter-plane window: its points become the seeds
        z0, c = c, np.complex128(-0.1)
    params = IterParams(400, 2.0)
    _assert_same_bytes(classify_grid(z0, c, params),
                       classify_grid(z0, np.full(z0.shape, c), params))


def test_fixed_c_equals_c_per_cell_on_one_cell_and_in_cycle_steps():
    # c = -1 from 0 cycles 0, -1 with the save at 8 and the match at 16;
    # max_iter 21 leaves (21 - 16) % 8 = 5 finishing steps, ending on -1
    for z0, c, max_iter in [(np.array([0.3 + 0.2j]), -0.4 + 0.6j, 200),
                            (np.array([0j]), -1 + 0j, 21),
                            (GridSpec(0j, 0.4, 0.4, 9, 9).points(), -1 + 0j, 21)]:
        params = IterParams(max_iter, 2.0)
        fixed = classify_grid(z0, np.complex128(c), params)
        _assert_same_bytes(fixed, classify_grid(z0, np.full(z0.shape, c), params))
        _assert_same_bytes(fixed, _full_budget_kernel(z0, np.complex128(c), params))
    assert fixed[2][4, 4] == 1.0  # z_21 = -1, reached through the finishing steps


def _kernel_peak(px):
    """tracemalloc peak of one classify_grid call, less its three outputs,
    on a fully Bounded window where no cell cycles within the budget."""
    z0 = GridSpec(0.2969 + 0.1844j, 0.045, 0.045, px, px).points()
    tracemalloc.start()
    try:
        out = classify_grid(z0, np.complex128(-0.7589 + 0.0735j), IterParams(40, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(out[0] == OrbitStatus.BOUNDED)
    return peak - sum(a.nbytes for a in out)


def test_kernel_memory_does_not_grow_with_the_frame():
    assert _kernel_peak(1024) <= 2 * _kernel_peak(256)


def _c_bound(radius):
    """The largest |c| for which the kernel tests for escape once per block."""
    r2 = radius * radius
    return r2 - radius - 1e-9 * r2


def _backward_orbits(c, radius, depth):
    """Seeds whose exact orbits first pass the radius after 1, 2, ..., depth
    steps: backward iteration z -> +-sqrt(z - c) from points beyond it."""
    seeds = []
    for w in 1.5 * radius * np.exp(2j * np.pi * np.array([0.1, 0.6])):
        for sign in (1, -1):
            z = w
            for _ in range(depth):
                z = sign * np.sqrt(z - c)
                seeds.append(z)
    return np.array(seeds)


@pytest.mark.parametrize("radius", [2.0, 2.5, 10.0, 1e6])
def test_classify_grid_equals_full_budget_kernel_at_the_edge_of_the_c_bound(radius, monkeypatch):
    bound = _c_bound(radius)
    # seeds escaping at every offset of the second block, and (c = 0.25, parabolic)
    # in the last, partial block of a 203-step budget
    mixed = [(_backward_orbits(c, radius, 20), c) for c in (-0.75 + 0.1j, 0.3 + 0.5j)]
    mixed.append((0.5 + 1 / np.linspace(150, 230, 81), 0.25))
    for edge in (bound, np.nextafter(bound, np.inf)):
        assert np.abs(np.complex128(-edge)) == edge
        cells = mixed + [(_backward_orbits(-edge, radius, 20), -edge)]
        z0 = np.concatenate([z for z, _ in cells]).astype(np.complex128)
        per_cell = np.concatenate([np.full(z.size, c, dtype=np.complex128) for z, c in cells])
        for c in (np.complex128(-edge), per_cell):
            for max_iter in (1, 2, 9, 17, 203):
                params = IterParams(max_iter, radius)
                ref = _full_budget_kernel(z0, c, params)
                if c.ndim and max_iter >= 17:
                    escaped = set(ref[1][ref[0] == OrbitStatus.ESCAPED].tolist())
                    assert escaped >= set(range(9, 17)) | set(range(200, max_iter))
                for tile in (1, 97):
                    monkeypatch.setattr(fji, "_TILE_CELLS", tile)
                    _assert_same_bytes(classify_grid(z0, c, params), ref)


def test_orbit_that_passes_the_radius_and_comes_back_inside_equals_the_reference():
    # |c| > r^2 - r: escape is not permanent, so every index must be tested
    c, params = np.complex128(-2.1), IterParams(40, 2.0)
    seeds = []
    for k in range(9, 16):
        for w in (-2.01, -2.05, -2.02 + 0.05j):
            z = np.complex128(w)
            for _ in range(k):
                z = -np.sqrt(z - c)  # the preimage near -1.03, inside the radius
            seeds.append(z)
    seeds = np.array(seeds)
    ref = _full_budget_kernel(seeds, c, params)
    z = seeds
    for _ in range(16):
        z = z * z + c
    back = np.abs(z) <= 2  # inside again at index 16, the end of the block
    assert set(ref[1][back & (ref[0] == OrbitStatus.ESCAPED)].tolist()) == set(range(9, 16))
    _assert_same_bytes(classify_grid(seeds, c, params), ref)


@pytest.mark.parametrize("radius", [2.0, 2.5, 10.0, 1e3, 1e6])
def test_escape_is_permanent_for_c_within_the_bound(radius):
    # seeds a few ulps past the radius whose computed m2 fails the test, and a c
    # pointing against z^2: the next m2 must fail it too
    rng = np.random.default_rng(15)
    r2 = radius * radius
    theta = rng.uniform(0, 2 * np.pi, 10 ** 6)
    mag = radius + rng.integers(1, 5, theta.size) * np.spacing(radius)
    z = mag * np.cos(theta) + 1j * mag * np.sin(theta)
    z = z[~(z.real * z.real + z.imag * z.imag <= r2)]
    direction = -(z * z) / np.abs(z * z)

    def next_m2(c_abs):
        c = c_abs * direction
        within = np.abs(c) <= c_abs
        w = z[within] * z[within] + c[within]
        return w.real * w.real + w.imag * w.imag

    assert not np.any(next_m2(_c_bound(radius)) <= r2)
    if radius > 2:  # without the margin, rounding brings some back inside
        assert np.any(next_m2(r2 - radius) <= r2)
