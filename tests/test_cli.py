import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fractaldyn
from fractaldyn import cli
from fractaldyn.cli import main
from fractaldyn.config import validate_config
from fractaldyn.imaging import INVALID_RGB


def write_config(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def grid16():
    return {"center": [0, 0], "width": 3.2, "height": 3.2, "px_w": 16, "px_h": 16}


def read_ppm(path):
    data = Path(path).read_bytes()
    assert data.startswith(b"P6\n")
    header, _, rest = data.partition(b"255\n")
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    assert len(rest) == 3 * w * h
    return w, h, rest


def test_julia_run_writes_image_and_sidecar(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "julia", "grid": grid16(), "c": [-0.175, -0.655],
        "iter": {"max_iter": 120}, "output": str(tmp_path / "out/j")})
    assert main(["run", "--config", str(cfg)]) == 0
    w, h, _ = read_ppm(tmp_path / "out/j.ppm")
    assert (w, h) == (16, 16)
    side = json.loads((tmp_path / "out/j.json").read_text())
    assert side["config"]["command"] == "julia"
    assert side["config"]["iter"]["max_iter"] == 120
    assert side["stats"]["bounded_count"] > 0
    assert side["stats"]["wall_time_s"] >= 0


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_returns_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "julia", "output": "x"})
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_syntax_error_returns_one_with_line(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text('{\n  "command": "julia",\n  oops\n}')
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "line 3" in err


@pytest.mark.parametrize("digits, message", [
    (400, "'width' must be finite"),  # beyond the float range
    (5000, "'width' must be a number"),  # beyond the int-string limit: a string
], ids=["float_range", "int_string_limit"])
def test_override_beyond_float_range_is_config_error(tmp_path, capsys, digits, message):
    cfg = write_config(tmp_path, {
        "command": "julia", "grid": grid16(), "c": [-1, 0],
        "output": str(tmp_path / "out/a")})
    assert main(["run", "--config", str(cfg),
                 "--override", "grid.width=1" + "0" * digits]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("doc", [
    b'{"command": "julia", "grid": {"width": 1' + b"0" * 5000 + b"}}",
    b'{"command": "julia", "output": "\xff"}',
    b"[" * 100000 + b"]" * 100000,
], ids=["integer_too_long", "not_utf8", "nested_too_deep"])
def test_unreadable_config_returns_one(tmp_path, capsys, doc):
    cfg = tmp_path / "scene.json"
    cfg.write_bytes(doc)
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error: unreadable config" in capsys.readouterr().err


def fixed_c_docs(c, radius, out):
    """A scene per command that iterates one fixed c."""
    grid = {"center": [0, 0], "width": 5.0, "height": 5.0, "px_w": 64, "px_h": 64}
    base = {"grid": grid, "c": c, "iter": {"max_iter": 3, "escape_radius": radius}}
    return [dict(base, output=str(out / name), **doc) for name, doc in [
        ("j", {"command": "julia"}),
        ("f", {"command": "fmi-julia", "map": {"kind": "affine", "a": [0.5, 0]}}),
        ("d", {"command": "discrete-traj", "map": {"kind": "affine", "a": [0.5, 0]},
               "k_max": 1}),
        ("t", {"command": "flow-traj", "flow": {"kind": "limit_cycle"}, "t_list": [0.1]}),
        ("v", {"command": "verify-fmt", "map": {"kind": "affine", "a": [2, 0]}}),
        ("m", {"command": "dimension", "boundary": False}),
    ]]


@pytest.mark.parametrize("index", range(6),
                         ids=["julia", "fmi-julia", "discrete-traj", "flow-traj",
                              "verify-fmt", "dimension"])
def test_fixed_c_beyond_the_escape_radius_returns_one(tmp_path, capsys, index):
    # escape past r is permanent only for r >= max(2, |c|)
    cfg = write_config(tmp_path, fixed_c_docs([2.1, 0], 2, tmp_path / "out")[index])
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "escape_radius" in err
    cfg = write_config(tmp_path, fixed_c_docs([2.1, 0], 2.5, tmp_path / "out")[index])
    assert main(["run", "--config", str(cfg)]) == 0


def test_parameter_plane_commands_take_any_radius(tmp_path):
    # the parameter plane has no fixed c to check
    grid = {"center": [0, 0], "width": 5.0, "height": 5.0, "px_w": 16, "px_h": 16}
    for doc in ({"command": "mandelbrot"},
                {"command": "fmi-mandelbrot", "map": {"kind": "affine", "a": [2, 0]}}):
        cfg = write_config(tmp_path, dict(doc, grid=grid, output=str(tmp_path / "out/p")))
        assert main(["run", "--config", str(cfg)]) == 0


def test_runtime_error_returns_two(tmp_path, capsys):
    # the output directory cannot be made under a regular file
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, {
        "command": "julia", "grid": grid16(), "c": [0, 0],
        "output": str(tmp_path / "file/d")})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_override_applies_before_validation(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "julia", "grid": grid16(), "c": [-1, 0],
        "output": str(tmp_path / "out/a")})
    assert main(["run", "--config", str(cfg),
                 "--override", f"output={tmp_path}/out/b",
                 "--override", "iter.max_iter=50"]) == 0
    assert (tmp_path / "out/b.ppm").exists()
    side = json.loads((tmp_path / "out/b.json").read_text())
    assert side["config"]["iter"]["max_iter"] == 50


def test_verify_fmt_sidecar_has_comparison(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "verify-fmt",
        "grid": {"center": [0, 0], "width": 3.4, "height": 3.4,
                 "px_w": 128, "px_h": 128},
        "c": [-1, 0], "map": {"kind": "affine", "a": [2, 0], "b": [1, 0]},
        "iter": {"max_iter": 200}, "output": str(tmp_path / "out/v")})
    assert main(["run", "--config", str(cfg)]) == 0
    side = json.loads((tmp_path / "out/v.json").read_text())
    cmpst = side["stats"]["comparison"]
    assert "jaccard" in cmpst and "hausdorff_px" in cmpst
    assert cmpst["jaccard"] >= 0.9
    assert (tmp_path / "out/v_forward.ppm").exists()
    assert (tmp_path / "out/v_fmi.ppm").exists()


def test_verify_fmt_needs_dst_grid_for_transcendental(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "verify-fmt", "grid": grid16(), "c": [-1, 0],
        "map": {"kind": "arccos_reciprocal"}, "output": str(tmp_path / "out/v")})
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "dst_grid" in err


@pytest.mark.parametrize("m, dst_grid", [
    ({"kind": "identity"}, grid16()),
    # z -> (0.5 - 1.25i) z + 0.1 + 2i: the 3.2-wide grid at 0 scaled by |a| about b
    ({"kind": "affine", "a": [0.5, -1.25], "b": [0.1, 2.0]},
     {"center": [0.1, 2.0], "width": 3.2 * abs(0.5 - 1.25j), "height": 3.2 * abs(0.5 - 1.25j),
      "px_w": 16, "px_h": 16}),
], ids=["identity", "affine"])
def test_verify_fmt_records_the_window_it_derives(tmp_path, m, dst_grid):
    doc = {"command": "verify-fmt", "grid": grid16(), "c": [-1, 0], "map": m,
           "iter": {"max_iter": 60}}
    derived = write_config(tmp_path, {**doc, "output": str(tmp_path / "a/v")}, "a.json")
    given = write_config(tmp_path, {**doc, "dst_grid": dst_grid,
                                    "output": str(tmp_path / "b/v")}, "b.json")
    assert main(["run", "--config", str(derived)]) == 0
    assert main(["run", "--config", str(given)]) == 0
    for suffix in ("_forward.ppm", "_fmi.ppm"):
        assert (tmp_path / f"a/v{suffix}").read_bytes() == (tmp_path / f"b/v{suffix}").read_bytes()
    assert json.loads((tmp_path / "a/v.json").read_text())["config"]["dst_grid"] == dst_grid


def test_verify_fmt_affine_window_past_the_float_range_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "verify-fmt", "grid": grid16(), "c": [-1, 0],
        "map": {"kind": "affine", "a": [1e308, 0]}, "output": str(tmp_path / "out/v")})
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "dst_grid" in err
    assert not (tmp_path / "out").exists()


def test_dimension_sidecar_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "dimension",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 256, "px_h": 256},
        "c": [0, 0], "iter": {"max_iter": 200},
        "output": str(tmp_path / "out/dim")})
    assert main(["run", "--config", str(cfg)]) == 0
    side = json.loads((tmp_path / "out/dim.json").read_text())
    dim = side["stats"]["dimension"]
    assert set(dim) == {"slope", "r_squared", "min_box", "max_box", "scales_used", "counts"}
    assert 0.8 <= dim["slope"] <= 1.2  # unit-circle boundary


@pytest.mark.parametrize("doc", [
    {"command": "dimension", "c": [0, 0], "iter": {"max_iter": 100},
     "grid": {"center": [0, 0], "width": 3.0, "height": 1.5, "px_w": 256, "px_h": 128}},
    {"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 12, "px_w": 256, "px_h": 128},
], ids=["dimension", "zeno"])
def test_dimension_stats_record_the_box_range_used(tmp_path, doc):
    cfg = write_config(tmp_path, {**doc, "output": str(tmp_path / "out/d")})
    assert main(["run", "--config", str(cfg)]) == 0
    side = json.loads((tmp_path / "out/d.json").read_text())
    dim = side["stats"]["dimension"]
    assert (dim["min_box"], dim["max_box"]) == (2, min(256, 128) // 4)
    assert "min_box" not in side["config"] and "max_box" not in side["config"]
    assert dim["scales_used"] == [2, 4, 8, 16, 32]


def test_zeno_sidecar_and_image(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "zeno", "d0": 1.0, "t1": 1.0, "n": 12,
        "px_w": 256, "px_h": 128, "output": str(tmp_path / "out/z")})
    assert main(["run", "--config", str(cfg)]) == 0
    side = json.loads((tmp_path / "out/z.json").read_text())
    assert side["stats"]["times"][0] == 0.0
    assert side["stats"]["heights"][1] == 0.5
    assert "dimension" in side["stats"]
    read_ppm(tmp_path / "out/z.ppm")


def test_multi_frame_commands_write_manifest(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "flow-traj", "grid": grid16(), "c": [-1, 0],
        "flow": {"kind": "linear", "lambda": [-1, 0]},
        "t_list": [0, 0.5, 1.0], "iter": {"max_iter": 60},
        "output": str(tmp_path / "out/tr")})
    assert main(["run", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out/tr_manifest.json").read_text())
    assert [f["t"] for f in manifest["frames"]] == [0, 0.5, 1.0]
    for k in range(3):
        assert (tmp_path / f"out/tr_{k:03d}.ppm").exists()


def test_discrete_traj_emits_both_routes(tmp_path):
    cfg = write_config(tmp_path, {
        "command": "discrete-traj", "grid": grid16(), "c": [-1, 0],
        "map": {"kind": "affine", "a": [0.5, 0]}, "k_max": 2,
        "iter": {"max_iter": 60}, "output": str(tmp_path / "out/dt")})
    assert main(["run", "--config", str(cfg)]) == 0
    for k in range(3):
        assert (tmp_path / f"out/dt_k{k:03d}.ppm").exists()
        assert (tmp_path / f"out/dt_push_k{k:03d}.ppm").exists()
    manifest = json.loads((tmp_path / "out/dt_manifest.json").read_text())
    assert len(manifest["frames"]) == 3


def test_identical_runs_are_byte_identical(tmp_path):
    doc = {"command": "julia",
           "grid": {"center": [0, 0], "width": 3.2, "height": 3.2,
                    "px_w": 64, "px_h": 64},
           "c": [-0.7589, 0.0735], "iter": {"max_iter": 150}, "output": ""}
    for sub in ("one", "two"):
        doc["output"] = str(tmp_path / sub / "img")
        cfg = write_config(tmp_path, doc, f"{sub}.json")
        assert main(["run", "--config", str(cfg)]) == 0
    a = (tmp_path / "one/img.ppm").read_bytes()
    b = (tmp_path / "two/img.ppm").read_bytes()
    assert a == b


def test_removed_threads_option_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "julia", "grid": grid16(), "c": [-1, 0],
        "output": str(tmp_path / "out/img")})
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_pixels_use_reserved_color(tmp_path):
    # an odd grid puts a pixel center exactly on the arccos inverse pole at
    # pi; its pullback is excluded, goes Invalid, and renders magenta
    cfg = write_config(tmp_path, {
        "command": "fmi-julia",
        "grid": {"center": [3.141592653589793, 0], "width": 0.1, "height": 0.1,
                 "px_w": 9, "px_h": 9},
        "c": [-1, 0], "map": {"kind": "arccos_reciprocal"},
        "iter": {"max_iter": 50}, "output": str(tmp_path / "out/inv")})
    assert main(["run", "--config", str(cfg)]) == 0
    _, _, rgb = read_ppm(tmp_path / "out/inv.ppm")
    pixels = [tuple(rgb[i:i + 3]) for i in range(0, len(rgb), 3)]
    assert INVALID_RGB in pixels


def _scipy_modules_after(code: str, prefixes: tuple) -> str:
    """The sorted scipy modules named by prefixes that a fresh interpreter
    has loaded after running code, as printed."""
    src = str(Path(fractaldyn.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (f"import sys; {code}; "
              f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_scipy_stats_or_ndimage():
    # scipy.stats alone takes over a second to import; mask comparison
    # imports scipy.ndimage when called
    assert _scipy_modules_after("import fractaldyn.cli", ("scipy.stats", "scipy.ndimage")) == "[]"


def test_estimating_stretch_bounds_loads_no_scipy_stats():
    code = ("from fractaldyn import ArccosReciprocal, GridSpec, estimate_bilipschitz; "
            "estimate_bilipschitz(ArccosReciprocal(), GridSpec(2 + 0j, 1.0, 1.0, 8, 8), 2000)")
    assert _scipy_modules_after(code, ("scipy.stats",)) == "[]"


ITER = {"max_iter": 60}
ONE_DOC_PER_COMMAND = [
    {"command": "julia", "grid": grid16(), "c": [-1, 0], "iter": ITER},
    {"command": "mandelbrot", "grid": grid16(), "iter": ITER},
    {"command": "fmi-julia", "grid": grid16(), "c": [-1, 0], "iter": ITER,
     "map": {"kind": "arccos_reciprocal"}},
    {"command": "fmi-mandelbrot", "grid": grid16(), "iter": ITER,
     "map": {"kind": "reciprocal_sqrt"}},
    {"command": "discrete-traj", "grid": grid16(), "c": [-1, 0], "iter": ITER,
     "map": {"kind": "affine", "a": [0.5, 0]}, "k_max": 2},
    {"command": "flow-traj", "grid": grid16(), "c": [-1, 0], "iter": ITER,
     "flow": {"kind": "linear", "lambda": [-1, 0]}, "t_list": [0, 0.5, 1.0]},
    {"command": "dimension", "grid": {**grid16(), "px_w": 32, "px_h": 32}, "c": [0, 0],
     "iter": ITER},
    {"command": "verify-fmt", "grid": grid16(), "c": [-1, 0], "iter": ITER,
     "map": {"kind": "affine", "a": [2, 0], "b": [1, 0]}},
    {"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 8, "px_w": 64, "px_h": 32},
    {"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 1},
]


def test_one_doc_per_command_covers_every_runner():
    assert {doc["command"] for doc in ONE_DOC_PER_COMMAND} == set(cli._RUNNERS)


@pytest.mark.parametrize("doc", ONE_DOC_PER_COMMAND,
                         ids=[f"{d['command']}-{n}" for n, d in enumerate(ONE_DOC_PER_COMMAND)])
def test_runners_write_nothing_and_run_scene_writes_every_output(tmp_path, monkeypatch, doc):
    monkeypatch.chdir(tmp_path)
    cfg = validate_config({**doc, "output": "out/s"})
    frames, _, rows = cli._RUNNERS[cfg.command](cfg)
    assert list(tmp_path.iterdir()) == []
    assert (rows is not None) == (cfg.command in ("discrete-traj", "flow-traj"))

    written = []
    write_image = cli.write_image

    def record(field, palette, path):
        written.append(Path(path).name)
        write_image(field, palette, path)

    monkeypatch.setattr(cli, "write_image", record)
    stats = cli.run_scene(cfg)
    assert written == [f"s{suffix}" for suffix in frames]
    expected = {f"s{suffix}" for suffix in frames} | {"s.json"}
    if rows is not None:
        expected.add("s_manifest.json")
        manifest = json.loads((tmp_path / "out/s_manifest.json").read_text())
        assert manifest["frames"] == rows
        assert stats["frames"] == len(rows)
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == expected
    assert {p.parent for p in tmp_path.rglob("*") if p.is_file()} == {tmp_path / "out"}
