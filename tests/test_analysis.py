import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import distance_transform_edt

from fractaldyn.analysis import (EmptyMaskError, InsufficientScalesError,
                                 MasksUndefinedError, box_counting_dimension,
                                 compare_masks, rasterize_zeno, zeno_states)
from fractaldyn.core import GridSpec, OrbitStatus, RasterField
from fractaldyn.fji import IterParams, extract_boundary, render_julia, render_mandelbrot

from conftest import analytic_disk


def blank(px=1024):
    return RasterField.filled(GridSpec(0j, 2.0, 2.0, px, px), OrbitStatus.ESCAPED)


def test_filled_square_has_slope_two():
    field = RasterField.filled(GridSpec(0j, 2.0, 2.0, 1024, 1024), OrbitStatus.BOUNDED)
    est = box_counting_dimension(field, 2, 256)
    assert est.slope == pytest.approx(2.0, abs=0.05)
    assert est.r_squared > 0.999


def test_single_line_has_slope_one():
    field = blank()
    field.status[512, :] = OrbitStatus.BOUNDED
    est = box_counting_dimension(field, 2, 256)
    assert est.slope == pytest.approx(1.0, abs=0.1)


def test_circle_raster_has_slope_one():
    # analytic rasterization: cells within one pixel pitch of |z| = 1
    grid = GridSpec(0j, 2.0, 2.0, 1024, 1024)
    field = RasterField.filled(grid, OrbitStatus.ESCAPED)
    dist = np.abs(np.abs(grid.points()) - 1.0)
    field.status[dist <= grid.dx] = OrbitStatus.BOUNDED
    est = box_counting_dimension(field, 2, 256)
    assert est.slope == pytest.approx(1.0, abs=0.1)


def test_rendered_unit_circle_boundary_slope():
    grid = GridSpec(0j, 3.0, 3.0, 1024, 1024)
    boundary = extract_boundary(render_julia(grid, 0j, IterParams(300, 2.0)))
    est = box_counting_dimension(boundary, 2, 256)
    assert est.slope == pytest.approx(1.0, abs=0.1)


def test_box_counts_monotone_in_box_size():
    grid = GridSpec(0j, 3.0, 3.0, 512, 512)
    field = render_julia(grid, -0.52 - 0.46j, IterParams(120, 2.0))
    est = box_counting_dimension(field, 2, 128)
    assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))
    assert all(c > 0 for c in est.counts)


def test_box_counting_errors():
    with pytest.raises(EmptyMaskError):
        box_counting_dimension(blank(64), 2, 16)
    field = blank(64)
    field.status[3, 3] = OrbitStatus.BOUNDED
    with pytest.raises(InsufficientScalesError):
        box_counting_dimension(field, 5, 16)  # dyadic sizes: only 8, 16
    with pytest.raises(ValueError):
        box_counting_dimension(field, 2, 64)  # above px/4
    with pytest.raises(ValueError):
        box_counting_dimension(field, 8, 8)


def test_dimension_invariance_under_affine_image():
    # bi-Lipschitz images preserve the box-count slope (raster analogue)
    from fractaldyn.fmi import forward_image
    from fractaldyn.maps import Affine
    grid = GridSpec(0j, 3.2, 3.2, 512, 512)
    boundary = extract_boundary(render_julia(grid, -0.175 - 0.655j, IterParams(120, 2.0)))
    src_est = box_counting_dimension(boundary, 2, 128)
    dst = grid.affine_image(2, 1, pad=1.05)
    image = forward_image(boundary, Affine(2, 1), dst, supersample=3)
    img_est = box_counting_dimension(image, 2, 128)
    assert abs(src_est.slope - img_est.slope) <= 0.1


def test_compare_identical_masks(basilica_512):
    cmp = compare_masks(basilica_512, basilica_512)
    assert cmp.jaccard == 1.0 and cmp.hausdorff_px == 0.0


def test_compare_disjoint_single_pixels():
    a = blank(64)
    b = blank(64)
    a.status[10, 10] = OrbitStatus.BOUNDED
    b.status[10, 15] = OrbitStatus.BOUNDED
    cmp = compare_masks(a, b)
    assert cmp.jaccard == 0.0 and cmp.hausdorff_px == 5.0


def test_compare_masks_symmetric():
    grid = GridSpec(0j, 3.0, 3.0, 128, 128)
    a = render_julia(grid, -1 + 0j, IterParams(100, 2.0))
    b = analytic_disk(grid, 1.2)
    ab = compare_masks(a, b)
    ba = compare_masks(b, a)
    assert ab.jaccard == ba.jaccard and ab.hausdorff_px == ba.hausdorff_px


def uncropped_comparison(ma, mb):
    """Jaccard and Hausdorff distance with the transforms run over the
    whole frame."""
    jaccard = (ma & mb).sum() / (ma | mb).sum()
    return jaccard, max(distance_transform_edt(~mb)[ma].max(),
                        distance_transform_edt(~ma)[mb].max())


def status_arrays(shape):
    """uint8 status arrays of one shape: mostly Escaped with some Bounded
    and Invalid cells, often along a frame edge or in one corner."""
    cell = st.sampled_from([OrbitStatus.ESCAPED] * 3 + [OrbitStatus.BOUNDED] * 2
                           + [OrbitStatus.INVALID])

    def edged(arr, edges):
        for edge in edges:
            arr[edge] = OrbitStatus.BOUNDED
        return arr

    edges = st.lists(st.sampled_from([np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1],
                                      np.s_[0, 0], np.s_[-1, -1], np.s_[:2, -2:]]), max_size=2)
    sparse = st.lists(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)),
                      min_size=1, max_size=4)

    def dots(points):
        arr = np.full(shape, OrbitStatus.ESCAPED, dtype=np.uint8)
        for j, i in points:
            arr[j, i] = OrbitStatus.BOUNDED
        return arr

    dense = arrays(np.uint8, shape, elements=cell)
    return st.tuples(st.one_of(dense, sparse.map(dots)), edges).map(lambda a: edged(*a))


@st.composite
def status_pairs(draw):
    shape = (draw(st.integers(1, 24)), draw(st.integers(1, 24)))
    return draw(status_arrays(shape)), draw(status_arrays(shape))


@settings(max_examples=200, deadline=None)
@given(pair=status_pairs())
def test_compare_masks_equals_the_uncropped_transforms(pair):
    # the transforms run over the union's bounding box only
    sa, sb = pair
    grid = GridSpec(0j, 1.0, 1.0, sa.shape[1], sa.shape[0])
    zeros = np.zeros(sa.shape)
    a = RasterField(grid, sa, zeros.astype(np.int32), zeros)
    b = RasterField(grid, sb, zeros.astype(np.int32), zeros)
    valid = (sa != OrbitStatus.INVALID) & (sb != OrbitStatus.INVALID)
    ma, mb = (sa == OrbitStatus.BOUNDED) & valid, (sb == OrbitStatus.BOUNDED) & valid
    assume(ma.any() and mb.any())
    jaccard, hausdorff = uncropped_comparison(ma, mb)
    cmp = compare_masks(a, b)
    assert cmp.jaccard == jaccard and cmp.hausdorff_px == hausdorff


def test_compare_masks_requires_same_dims():
    with pytest.raises(ValueError):
        compare_masks(blank(32), blank(64))


def test_compare_masks_excludes_invalid_cells():
    a = blank(16)
    b = blank(16)
    a.status[2, 2] = OrbitStatus.BOUNDED
    a.status[3, 3] = OrbitStatus.INVALID
    b.status[2, 2] = OrbitStatus.BOUNDED
    b.status[3, 3] = OrbitStatus.BOUNDED  # masked out by a's Invalid cell
    cmp = compare_masks(a, b)
    assert cmp.jaccard == 1.0 and cmp.hausdorff_px == 0.0


def test_compare_empty_masks_is_signaled():
    with pytest.raises(MasksUndefinedError):
        compare_masks(blank(16), blank(16))


def test_compare_one_empty_mask():
    a = blank(16)
    a.status[5, 5] = OrbitStatus.BOUNDED
    cmp = compare_masks(a, blank(16))
    assert cmp.jaccard == 0.0 and math.isinf(cmp.hausdorff_px)


def test_rendered_disk_vs_analytic_disk():
    grid = GridSpec(0j, 3.0, 3.0, 512, 512)
    cmp = compare_masks(render_julia(grid, 0j, IterParams(500, 2.0)),
                        analytic_disk(grid, 1.0))
    assert cmp.jaccard >= 0.98


def test_zeno_first_moments_and_heights():
    d = zeno_states(1.0, 1.0, 3, 1)
    assert d.times == (1.0, 1.5, 1.75)
    assert d.heights == (0.5, 0.25, 0.125)


def test_zeno_zeroth_state_starts_at_origin():
    d = zeno_states(2.0, 0.5, 4, 0)
    assert d.times[0] == 0.0 and d.heights[0] == 2.0
    assert d.times == (0.0, 0.5, 0.75, 0.875)


def test_zeno_heights_halve_exactly():
    d = zeno_states(1.7, 0.9, 12, 0)
    for a, b in zip(d.heights, d.heights[1:]):
        assert b == a / 2


def test_zeno_times_increase_below_accumulation():
    t1 = 0.75
    d = zeno_states(1.0, t1, 20, 0)
    assert all(a < b for a, b in zip(d.times, d.times[1:]))
    assert all(t < 2 * t1 for t in d.times)


def test_zeno_shifted_state_is_scaled_tail():
    # heights of S_k are 2^-k times those of S_0; times map by t -> (t+2*t1)/2
    t1 = 1.0
    s0 = zeno_states(1.0, t1, 8, 0)
    s1 = zeno_states(1.0, t1, 8, 1)
    for k in range(8):
        assert s1.heights[k] == s0.heights[k] / 2
        assert s1.times[k] == pytest.approx((s0.times[k] + 2 * t1) / 2, rel=1e-15)


def test_zeno_validation():
    with pytest.raises(ValueError):
        zeno_states(0.0, 1.0, 3, 0)
    with pytest.raises(ValueError):
        zeno_states(1.0, -1.0, 3, 0)
    with pytest.raises(ValueError):
        zeno_states(1.0, 1.0, 0, 0)
    with pytest.raises(ValueError):
        zeno_states(1.0, 1.0, 3, -1)


def test_zeno_raster_dimension_is_one():
    field = rasterize_zeno(zeno_states(1.0, 1.0, 20, 0), 1024, 512)
    est = box_counting_dimension(field, 2, 128)
    assert est.slope == pytest.approx(1.0, abs=0.15)


def test_zeno_raster_rejects_a_single_line():
    # the window's right edge is inferred from the first two lines
    with pytest.raises(ValueError):
        rasterize_zeno(zeno_states(1.0, 1.0, 1, 0), 64, 64)


def test_mandelbrot_boundary_slope_report():
    # The boundary of the parameter set has Hausdorff dimension 2, which a
    # desk-scale raster cannot reach; report the measured slope, no assert.
    grid = GridSpec(-0.6 + 0j, 3.0, 3.0, 512, 512)
    boundary = extract_boundary(render_mandelbrot(grid, IterParams(300, 2.0)))
    est = box_counting_dimension(boundary, 2, 128)
    print(f"\nmeasured box-count slope of the parameter-set boundary at 512^2: "
          f"{est.slope:.3f} (r^2 = {est.r_squared:.4f})")
    assert 1.0 <= est.slope <= 2.0