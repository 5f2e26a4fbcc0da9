"""End-to-end acceptance suite.

One test per shipped correctness claim, each printing a PASS line with the
measured numbers (run with -s to see them). Tolerances are fixed here, not
tuned at runtime.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import fractaldyn as fd
from fractaldyn.cli import main as cli_main
from fractaldyn.core import GridSpec, OrbitStatus, RasterField

from conftest import analytic_disk

RECIPES = sorted(Path(__file__).resolve().parents[1].glob("recipes/*.json"))
# SHA-256 of every recipe image and the resolved sidecar config (output
# removed), as written by the code before config parsing was derived from
# the spec dataclasses.
RECIPE_DIGESTS = json.loads((Path(__file__).parent / "recipe_digests.json").read_text())


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def fields_equal(a, b):
    return (np.array_equal(a.status, b.status)
            and np.array_equal(a.escape_iter, b.escape_iter)
            and np.array_equal(a.last_magnitude, b.last_magnitude))


def test_c01_filled_julia_of_zero_is_unit_disk():
    grid = GridSpec(0j, 3.0, 3.0, 512, 512)
    t0 = time.perf_counter()
    field = fd.render_julia(grid, 0j, fd.IterParams(500, 2.0))
    elapsed = time.perf_counter() - t0
    cmp = fd.compare_masks(field, analytic_disk(grid, 1.0))
    assert cmp.jaccard >= 0.98
    assert elapsed < 5.0
    report(1, f"unit-disk jaccard {cmp.jaccard:.4f} (>= 0.98), render {elapsed:.2f}s (< 5s)")


def test_c02_identity_map_degenerates_to_plain_renders():
    params = fd.IterParams(500, 2.0)
    jgrid = GridSpec(0j, 3.2, 3.2, 512, 512)
    c = -0.175 - 0.655j
    julia = fd.render_julia(jgrid, c, params)
    fmi_j = fd.fmi_julia(jgrid, c, fd.Identity(), params)
    assert fields_equal(julia, fmi_j)

    mgrid = GridSpec(-0.6 + 0j, 3.0, 3.0, 512, 512)
    mandel = fd.render_mandelbrot(mgrid, params)
    fmi_m = fd.fmi_mandelbrot(mgrid, fd.Identity(), params)
    assert fields_equal(mandel, fmi_m)
    report(2, "identity-map pullback renders are cell-for-cell equal to the plain renders")


def test_c03_forward_image_equals_pullback_classification():
    params = fd.IterParams(500, 2.0)

    # affine leg: the stated parameters, destination = the map's image window
    c = -0.175 - 0.655j
    src_grid = GridSpec(0j, 3.2, 3.2, 512, 512)
    src = fd.render_julia(src_grid, c, params)
    m = fd.Affine(2, 1)
    dst = src_grid.affine_image(2, 1)
    fwd = fd.forward_image(src, m, dst, supersample=3)
    fmi = fd.fmi_julia(dst, c, m, params)
    cmp_a = fd.compare_masks(fwd, fmi)
    assert cmp_a.jaccard >= 0.95
    assert cmp_a.hausdorff_px <= 2.0

    # arccos(1/z - 1) leg: a fat connected set, on a destination window whose
    # pullback stays clear of the pole at 0 and the branch point at 1/2
    c2 = 0.25j
    src_grid2 = GridSpec(0j, 3.0, 3.0, 1024, 1024)
    m2 = fd.ArccosReciprocal()
    l1, l2 = fd.estimate_bilipschitz(m2, src_grid2, 20000)
    assert l1 > 0
    src2 = fd.render_julia(src_grid2, c2, params)
    dst2 = GridSpec(2.2 + 0j, 1.4, 2.4, 512, 512)
    fwd2 = fd.forward_image(src2, m2, dst2, supersample=8)
    fmi2 = fd.fmi_julia(dst2, c2, m2, params)
    cmp_b = fd.compare_masks(fwd2, fmi2)
    assert cmp_b.jaccard >= 0.95
    assert cmp_b.hausdorff_px <= 2.0
    report(3, f"affine J={cmp_a.jaccard:.4f} H={cmp_a.hausdorff_px:.2f}px; "
              f"arccos J={cmp_b.jaccard:.4f} H={cmp_b.hausdorff_px:.2f}px "
              f"(l1={l1:.3f} > 0); thresholds J>=0.95, H<=2")


def test_c04_bilipschitz_estimates():
    region = GridSpec(0.1 - 0.2j, 2.5, 2.5, 8, 8)
    rng = np.random.default_rng(2024)

    def oracle_ratios(m, n=10 ** 6):
        u = (0.1 + rng.uniform(-1.25, 1.25, n)) + 1j * (-0.2 + rng.uniform(-1.25, 1.25, n))
        v = (0.1 + rng.uniform(-1.25, 1.25, n)) + 1j * (-0.2 + rng.uniform(-1.25, 1.25, n))
        sep = np.abs(u - v)
        ok = sep > 1e-12
        return np.abs(fd.eval_forward(m, u[ok]) - fd.eval_forward(m, v[ok])) / sep[ok]

    l1, l2 = fd.estimate_bilipschitz(fd.Identity(), region, 10000)
    assert abs(l1 - 1.0) <= 1e-12 and abs(l2 - 1.0) <= 1e-12
    r = oracle_ratios(fd.Identity())
    assert r.min() >= l1 - 1e-12 and r.max() <= l2 + 1e-12

    a = -1.5 + 2j
    l1a, l2a = fd.estimate_bilipschitz(fd.Affine(a, 1j), region, 10000)
    assert abs(l1a - abs(a)) <= 1e-12 and abs(l2a - abs(a)) <= 1e-12
    ra = oracle_ratios(fd.Affine(a, 1j))
    assert ra.min() >= l1a - 1e-12 and ra.max() <= l2a + 1e-12
    report(4, f"identity ({l1:.1f},{l2:.1f}); affine ({l1a:.6f},{l2a:.6f}) = |a|={abs(a):.6f}; "
              f"both brackets contain all 1e6 independent oracle ratios")


def test_c05_box_dimension_references_and_invariance():
    # calibration masks
    square = RasterField.filled(GridSpec(0j, 2.0, 2.0, 1024, 1024), OrbitStatus.BOUNDED)
    s_sq = fd.box_counting_dimension(square, 2, 256).slope
    assert s_sq == pytest.approx(2.0, abs=0.05)

    line = RasterField.filled(GridSpec(0j, 2.0, 2.0, 1024, 1024), OrbitStatus.ESCAPED)
    line.status[512, :] = OrbitStatus.BOUNDED
    s_ln = fd.box_counting_dimension(line, 2, 256).slope
    assert s_ln == pytest.approx(1.0, abs=0.1)

    cgrid = GridSpec(0j, 2.0, 2.0, 1024, 1024)
    circle = RasterField.filled(cgrid, OrbitStatus.ESCAPED)
    circle.status[np.abs(np.abs(cgrid.points()) - 1.0) <= cgrid.dx] = OrbitStatus.BOUNDED
    s_ci = fd.box_counting_dimension(circle, 2, 256).slope
    assert s_ci == pytest.approx(1.0, abs=0.1)

    # invariance: Julia boundary vs its affine image at 1024^2 on a
    # deliberately misaligned destination window
    grid = GridSpec(0j, 3.2, 3.2, 1024, 1024)
    boundary = fd.extract_boundary(fd.render_julia(grid, -0.175 - 0.655j,
                                                   fd.IterParams(120, 2.0)))
    e_src = fd.box_counting_dimension(boundary, 2, 256)
    dst = grid.affine_image(2, 1, pad=1.05)
    image = fd.forward_image(boundary, fd.Affine(2, 1), dst, supersample=3)
    e_img = fd.box_counting_dimension(image, 2, 256)
    diff = abs(e_src.slope - e_img.slope)
    assert diff <= 0.1
    report(5, f"square {s_sq:.3f} (2±0.05), line {s_ln:.3f} (1±0.1), circle {s_ci:.3f} (1±0.1); "
              f"boundary slope {e_src.slope:.3f} vs affine image {e_img.slope:.3f}, "
              f"diff {diff:.3f} <= 0.1")


def test_c06_flow_mechanics():
    rng = np.random.default_rng(33)
    zs = rng.uniform(0.05, 1.95, 100) * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
    ts = rng.uniform(-1.0, 1.0, 100)

    # closed-form round trips
    worst = 0.0
    for flow in (fd.Linear(-1), fd.Linear(0.4 - 1.1j), fd.LimitCycle(),
                 fd.PeriodicForced(0.01)):
        for z, t in zip(zs, ts):
            back = fd.flow_inverse(flow, fd.flow_apply(flow, complex(z), float(t)), float(t))
            worst = max(worst, abs(back - z))
    assert worst <= 1e-9

    # the flow maps solve their own equations
    worst_res = 0.0
    for flow in (fd.Linear(-1), fd.LimitCycle(), fd.PeriodicForced(0.01)):
        for z, t in zip(zs[:50], np.abs(ts[:50])):
            worst_res = max(worst_res, fd.ode_residual(flow, complex(z), float(t), 1e-5))
    assert worst_res <= 1e-6

    # fourth-order convergence of the fixed-step integrator
    flow = fd.LimitCycle()
    exact = fd.flow_apply(flow, zs, 1.0)
    e1 = np.max(np.abs(fd.flow_apply(fd.NumericRK4(flow, 0.02), zs, 1.0) - exact))
    e2 = np.max(np.abs(fd.flow_apply(fd.NumericRK4(flow, 0.01), zs, 1.0) - exact))
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0

    # invariant circle of the limit cycle
    worst_circle = 0.0
    for t in np.linspace(-1, 1, 21):
        w = fd.flow_apply(fd.LimitCycle(), 2.0 * np.exp(1j * 0.7), float(t))
        worst_circle = max(worst_circle, abs(abs(w) - 2.0))
    assert worst_circle <= 1e-9
    report(6, f"round-trip {worst:.2e} (<=1e-9); residual {worst_res:.2e} (<=1e-6); "
              f"RK4 halving ratio {ratio:.1f} (~16); |rho-2| {worst_circle:.2e} (<=1e-9)")


def test_c07_flow_snapshots():
    params = fd.IterParams(400, 2.0)
    c = -1 + 0j
    grid = GridSpec(0j, 3.4, 3.4, 512, 512)
    base = fd.render_julia(grid, c, params)

    at_zero = fd.fmi_flow_julia(grid, c, fd.Linear(1), 0.0, params)
    assert fields_equal(at_zero, base)

    scaled = fd.fmi_flow_julia(grid.affine_image(math.e, 0), c, fd.Linear(1), 1.0, params)
    cmp = fd.compare_masks(scaled, base)
    assert cmp.jaccard >= 0.9
    report(7, f"t=0 field equals the plain render exactly; e-scaled t=1 jaccard "
              f"{cmp.jaccard:.4f} (>= 0.9)")


def test_c08_discrete_trajectory(tmp_path):
    params = fd.IterParams(400, 2.0)
    c = -1 + 0j
    grid = GridSpec(0j, 3.4, 3.4, 512, 512)
    base = fd.render_julia(grid, c, params)

    pullback0, _ = zip(*fd.discrete_trajectory(c, fd.Affine(0.5, 0), 0, grid, params))
    assert len(pullback0) == 1
    assert fields_equal(pullback0[0], base)

    # self-similarity: frame k re-rendered on the 0.5^k-scaled window
    # reproduces frame 0 (frames verified cell-exact against the composed map,
    # z -> 0.5^k z: halving composes exactly in floating point)
    js = []
    for k in range(1, 6):
        pullback, _ = zip(*fd.discrete_trajectory(c, fd.Affine(0.5, 0), k,
                                                  grid.affine_image(0.5 ** k, 0), params,
                                                  supersample=1))
        composed = fd.fmi_julia(grid.affine_image(0.5 ** k, 0), c, fd.Affine(0.5 ** k, 0),
                                params)
        assert fields_equal(pullback[k], composed)
        js.append(fd.compare_masks(pullback[k], base).jaccard)
    assert min(js) >= 0.9

    # the quadratic recipe runs to k=5 and emits the full frame sequence
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "fig3.json"
    out = tmp_path / "fig3run" / "fig3"
    rc = cli_main(["run", "--config", str(recipe), "--override", f"output={out}"])
    assert rc == 0
    for k in range(6):
        assert (tmp_path / "fig3run" / f"fig3_k{k:03d}.ppm").exists()
        assert (tmp_path / "fig3run" / f"fig3_push_k{k:03d}.ppm").exists()
    manifest = json.loads((tmp_path / "fig3run" / "fig3_manifest.json").read_text())
    assert len(manifest["frames"]) == 6
    report(8, f"k=0 equals the plain render; rescaled jaccard min {min(js):.4f} "
              f"(>= 0.9 for k<=5); quadratic recipe emitted 6 pullback + 6 "
              f"push-forward frames")


def test_c09_zeno_diagram():
    t1, d0 = 1.0, 1.0
    d = fd.zeno_states(d0, t1, 12, 0)
    for k in range(12):
        assert d.times[k] == t1 * (2.0 - 2.0 ** (1 - k))
        assert d.heights[k] == d0 * 2.0 ** (-k)

    field = fd.rasterize_zeno(fd.zeno_states(1.0, 1.0, 20, 0), 1024, 512)
    est = fd.box_counting_dimension(field, 2, 128)
    assert est.slope == pytest.approx(1.0, abs=0.15)
    report(9, f"moments and heights match the closed forms exactly; "
              f"raster slope {est.slope:.3f} (1±0.15)")


@pytest.mark.parametrize("recipe", RECIPES, ids=[r.stem for r in RECIPES])
def test_c10_recipes_are_deterministic(recipe, tmp_path):
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run / recipe.stem
        rc = cli_main(["run", "--config", str(recipe), "--override", f"output={out}"])
        assert rc == 0
        ppms = sorted((tmp_path / run).glob("*.ppm"))
        assert ppms, "recipe produced no images"
        outputs.append({p.name: p.read_bytes() for p in ppms})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    expected = RECIPE_DIGESTS[recipe.stem]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs[0].items()}
    assert digests == expected["ppm"]
    sidecar = json.loads((tmp_path / "first" / f"{recipe.stem}.json").read_text())
    del sidecar["config"]["output"]
    assert sidecar["config"] == expected["config"]
    report(10, f"{recipe.stem}: {len(outputs[0])} image(s) byte-identical across runs "
               f"and equal to the recorded digests")


def test_recipe_set_is_complete():
    names = {r.stem for r in RECIPES}
    assert {"fig1b", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
            "fig3", "fig4a", "fig4b", "fig5", "fig6b", "fig6c"} <= names
