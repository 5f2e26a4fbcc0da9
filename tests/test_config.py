import importlib.util
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fractaldyn.cli import main, run_scene
from fractaldyn.core import GridSpec
from fractaldyn.config import (COMMANDS, MAX_FRAMES, MAX_SUPERSAMPLE, PALETTE_NAMES,
                               ConfigError, SceneConfig, apply_overrides, parse_config,
                               serialize_config, validate_config)
from fractaldyn.flows import FLOW_KINDS, LimitCycle, NumericRK4
from fractaldyn.maps import MAP_KINDS, Affine, ArccosReciprocal, QuadraticParam


def julia_doc(**extra):
    doc = {
        "command": "julia",
        "grid": {"center": [0, 0], "width": 3.2, "height": 3.2,
                 "px_w": 64, "px_h": 64},
        "c": [-0.175, -0.655],
        "output": "out/run",
    }
    doc.update(extra)
    return doc


def test_parse_julia_config():
    cfg = parse_config(json.dumps(julia_doc()))
    assert cfg.command == "julia"
    assert cfg.c == complex(-0.175, -0.655)
    assert cfg.grid.px_w == 64
    assert cfg.iter_params.max_iter == 500
    assert cfg.iter_params.escape_radius == 2.0
    assert cfg.palette == "classic"


def test_parse_accepts_bytes():
    cfg = parse_config(json.dumps(julia_doc()).encode())
    assert cfg.command == "julia"


def test_missing_c_for_julia():
    doc = julia_doc()
    del doc["c"]
    with pytest.raises(ConfigError, match="'c'"):
        parse_config(json.dumps(doc))


def test_missing_output():
    doc = julia_doc()
    del doc["output"]
    with pytest.raises(ConfigError, match="output"):
        parse_config(json.dumps(doc))


def test_zeno_minimal_config():
    cfg = parse_config(json.dumps({"command": "zeno", "d0": 1, "t1": 1,
                                   "n": 10, "output": "out/z"}))
    assert cfg.d0 == 1.0 and cfg.t1 == 1.0 and cfg.n == 10
    assert cfg.i0 == 0 and cfg.px_w == 1024 and cfg.px_h == 512


def test_unknown_top_level_key_rejected_with_line():
    text = json.dumps(julia_doc(frobnicate=1), indent=2)
    with pytest.raises(ConfigError, match="frobnicate") as exc:
        parse_config(text)
    assert "line" in str(exc.value)


def test_unknown_nested_key_rejected():
    doc = julia_doc()
    doc["grid"]["zoom"] = 2
    with pytest.raises(ConfigError, match="zoom"):
        parse_config(json.dumps(doc))


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line") as exc:
        parse_config('{\n  "command": "julia",\n  oops\n}')
    assert exc.value.line == 3


def test_unknown_command():
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(json.dumps({"command": "render-all", "output": "x"}))


@pytest.mark.parametrize("patch", [
    {"grid": {"center": [0, 0], "width": -1, "height": 1, "px_w": 2, "px_h": 2}},
    {"grid": {"center": [0, 0], "width": 1, "height": 1, "px_w": 0, "px_h": 2}},
    {"iter": {"max_iter": 0}},
    {"iter": {"escape_radius": -2}},
    {"palette": "neon"},
    {"c": [1]},
    {"c": ["a", 2]},
    {"output": ""},
    # integers beyond the float range
    {"grid": {"center": [0, 0], "width": 10 ** 400, "height": 1, "px_w": 2, "px_h": 2}},
    {"c": [0, -10 ** 400]},
    {"iter": {"escape_radius": 1.5}},  # under 2, bounded orbits would read Escaped
])
def test_out_of_range_values_rejected(patch):
    with pytest.raises(ConfigError):
        parse_config(json.dumps(julia_doc(**patch)))


def test_map_parsing_all_kinds():
    base = {
        "command": "fmi-julia",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 32, "px_h": 32},
        "c": [-1, 0],
        "output": "out/m",
    }
    for raw, expected in [
        ({"kind": "affine", "a": [2, 0], "b": [1, 0]}, Affine(2, 1)),
        ({"kind": "arccos_reciprocal"}, ArccosReciprocal()),
        ({"kind": "quadratic_param", "a": 0.6, "b": [0.02, -0.02],
          "c": [-0.175, -0.655]},
         QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j)),
    ]:
        cfg = parse_config(json.dumps({**base, "map": raw}))
        assert cfg.map == expected


def test_affine_zero_scale_rejected():
    doc = {
        "command": "fmi-julia",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 32, "px_h": 32},
        "c": [-1, 0],
        "map": {"kind": "affine", "a": [0, 0]},
        "output": "out/m",
    }
    with pytest.raises(ConfigError, match="nonzero"):
        parse_config(json.dumps(doc))


def test_flow_parsing():
    doc = {
        "command": "flow-traj",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 32, "px_h": 32},
        "c": [-1, 0],
        "flow": {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"},
                 "dt": 0.001},
        "t_list": [0, 0.5],
        "output": "out/f",
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.flow == NumericRK4(LimitCycle(), 0.001)
    assert cfg.t_list == (0.0, 0.5)


def test_rk4_base_cannot_nest():
    doc = {
        "command": "flow-traj",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 32, "px_h": 32},
        "c": [-1, 0],
        "flow": {"kind": "numeric_rk4",
                 "base": {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"}}},
        "t_list": [0.5],
        "output": "out/f",
    }
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_empty_t_list_rejected():
    doc = {
        "command": "flow-traj",
        "grid": {"center": [0, 0], "width": 3.0, "height": 3.0,
                 "px_w": 32, "px_h": 32},
        "c": [-1, 0],
        "flow": {"kind": "linear", "lambda": [-1, 0]},
        "t_list": [],
        "output": "out/f",
    }
    with pytest.raises(ConfigError, match="t_list"):
        parse_config(json.dumps(doc))


def all_command_docs():
    grid = {"center": [0, 0], "width": 3.0, "height": 3.0, "px_w": 16, "px_h": 16}
    return [
        julia_doc(),
        {"command": "mandelbrot", "grid": grid, "output": "o"},
        {"command": "fmi-julia", "grid": grid, "c": [-1, 0],
         "map": {"kind": "arcsin_root5"}, "output": "o"},
        {"command": "fmi-mandelbrot", "grid": grid,
         "map": {"kind": "reciprocal_sqrt"}, "output": "o"},
        {"command": "discrete-traj", "grid": grid, "c": [-1, 0],
         "map": {"kind": "affine", "a": [0.5, 0]}, "k_max": 3, "output": "o"},
        {"command": "flow-traj", "grid": grid, "c": [-1, 0],
         "flow": {"kind": "periodic_forced", "a": 0.01}, "t_list": [0, 1.0],
         "output": "o"},
        # 32 px: box counting needs 3 dyadic sizes up to a quarter of the side
        {"command": "dimension", "grid": {**grid, "px_w": 32, "px_h": 32}, "c": [-1, 0],
         "output": "o"},
        {"command": "verify-fmt", "grid": grid, "c": [-1, 0],
         "map": {"kind": "affine", "a": [2, 0], "b": [1, 0]}, "output": "o"},
        {"command": "zeno", "d0": 1, "t1": 1, "n": 5, "output": "o"},
    ]


# One spec naming every key, per registered map and flow kind.
SPECS = {
    "identity": {"kind": "identity"},
    "affine": {"kind": "affine", "a": [0.5, 0.25], "b": [0.1, 0]},
    "arccos_reciprocal": {"kind": "arccos_reciprocal"},
    "arcsin_root5": {"kind": "arcsin_root5"},
    "reciprocal_sqrt": {"kind": "reciprocal_sqrt"},
    "quadratic_param": {"kind": "quadratic_param", "a": 1, "b": [0.02, -0.02],
                        "c": [-0.175, -0.655]},
    "flow": {"kind": "flow", "flow": {"kind": "linear", "lambda": [-1, 0.5]}, "t": 0.5},
    "linear": {"kind": "linear", "lambda": [-1, 0.5]},
    "limit_cycle": {"kind": "limit_cycle"},
    "periodic_forced": {"kind": "periodic_forced", "a": 0.01},
    "numeric_rk4": {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"}, "dt": 0.01},
}
KINDS = list(MAP_KINDS) + list(FLOW_KINDS)


def kind_doc(kind, spec):
    """A config using spec as its map (fmi-julia) or flow (flow-traj)."""
    grid = {"center": [0, 0], "width": 3.0, "height": 3.0, "px_w": 16, "px_h": 16}
    if kind in MAP_KINDS:
        return {"command": "fmi-julia", "grid": grid, "c": [-1, 0], "map": spec,
                "output": "o"}
    return {"command": "flow-traj", "grid": grid, "c": [-1, 0], "flow": spec,
            "t_list": [0, 0.5], "output": "o"}


@pytest.mark.parametrize(
    "doc", all_command_docs() + [kind_doc(k, SPECS[k]) for k in KINDS],
    ids=[d["command"] for d in all_command_docs()] + KINDS)
def test_serialize_round_trip(doc):
    cfg = parse_config(json.dumps(doc))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@pytest.mark.parametrize("kind", KINDS)
def test_spec_keys_are_required_except_affine_b_and_rk4_dt(kind):
    optional = {("affine", "b"): 0j, ("numeric_rk4", "dt"): 1e-3}
    full = SPECS[kind]
    section = "map" if kind in MAP_KINDS else "flow"
    written = json.loads(serialize_config(parse_config(json.dumps(kind_doc(kind, full)))))
    assert set(written[section]) == set(full)
    for key in full:
        doc = json.dumps(kind_doc(kind, {k: v for k, v in full.items() if k != key}))
        if (kind, key) in optional:
            spec = getattr(parse_config(doc), section)
            assert getattr(spec, key) == optional[kind, key]
        else:
            with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
                parse_config(doc)


def test_overrides_scalar_paths():
    raw = julia_doc()
    raw = apply_overrides(raw, ["iter.max_iter=100", "c.0=-0.7589",
                                "grid.px_w=32", "output=elsewhere/run"])
    cfg = validate_config(raw)
    assert cfg.iter_params.max_iter == 100
    assert cfg.c == complex(-0.7589, -0.655)
    assert cfg.grid.px_w == 32
    assert cfg.output == "elsewhere/run"


def test_override_bad_forms():
    with pytest.raises(ConfigError):
        apply_overrides(julia_doc(), ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides(julia_doc(), ["c.x=1"])
    with pytest.raises(ConfigError):
        apply_overrides(julia_doc(), ["c.7=1"])


def test_override_of_unknown_key_still_rejected():
    raw = apply_overrides(julia_doc(), ["bogus=1"])
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(raw)


@pytest.mark.parametrize("key, command, lowest, below, message", [
    ("k_max", "discrete-traj", 0, -1, ">= 0"), ("supersample", "verify-fmt", 1, 0, ">= 1"),
    ("min_box", "dimension", 2, 1, ">= 2"), ("max_box", "zeno", 2, 1, ">= 2"),
    ("n", "zeno", 1, 0, ">= 1"), ("i0", "zeno", 0, -1, ">= 0"),
    ("px_w", "zeno", 1, 0, ">= 1"), ("px_h", "zeno", 1, 0, ">= 1"),
    ("d0", "zeno", 1e-300, 0, "> 0"), ("t1", "zeno", 1e-300, 0, "> 0"),
])
def test_top_level_key_bounds(key, command, lowest, below, message):
    doc = next(d for d in all_command_docs() if d["command"] == command)
    if command == "zeno":  # one line draws no raster, so no window or box range is checked
        doc = {**doc, "n": 1}
    assert getattr(parse_config(json.dumps({**doc, key: lowest})), key) == lowest
    with pytest.raises(ConfigError, match=rf"^line 1: {key} must be {message}$"):
        parse_config(json.dumps({**doc, key: below}))


COMMAND_DEFAULTS = {
    "discrete-traj": {"supersample": 3},
    # the window the affine map z -> 2z + 1 sends the 3 x 3 grid at 0 to
    "verify-fmt": {"supersample": 3, "dst_grid": {"center": [1.0, 0.0], "width": 6.0,
                                                  "height": 6.0, "px_w": 16, "px_h": 16}},
    "dimension": {"boundary": True},
    "zeno": {"i0": 0, "px_w": 1024, "px_h": 512},
}


@pytest.mark.parametrize("doc", all_command_docs(),
                         ids=[d["command"] for d in all_command_docs()])
def test_resolved_config_holds_the_command_defaults(doc):
    resolved = parse_config(json.dumps(doc)).to_dict()
    defaults = COMMAND_DEFAULTS.get(doc["command"], {})
    assert {k: resolved[k] for k in resolved.keys() - doc.keys() - {"iter", "palette"}} \
        == defaults
    assert all(type(resolved[k]) is type(v) for k, v in defaults.items())


# Valid documents for every command and every map/flow kind, with numbers
# inside their bounds.
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
pairs = st.lists(finite, min_size=2, max_size=2)
fixed_c = st.lists(st.floats(-1.4, 1.4), min_size=2, max_size=2)  # |c| < 2 <= escape_radius
# 2048 x 2048 pixels at max_iter 4096 is MAX_CELL_ITERATIONS exactly
sides = st.integers(1, 2 ** 11)


def _is_window(g: dict) -> bool:
    """Whether a grid object is a window: GridSpec also refuses one whose
    pixel centers collapse, the pitch being below the float spacing there."""
    try:
        _grid_of({"grid": g})
    except ValueError:
        return False
    return True


grids = st.fixed_dictionaries({"center": pairs, "width": positive, "height": positive,
                               "px_w": sides, "px_h": sides}).filter(_is_window)
iters = st.fixed_dictionaries({}, optional={
    "max_iter": st.integers(1, 2 ** 12),
    "escape_radius": st.floats(min_value=2.0, allow_infinity=False)})
closed_flows = {
    "linear": st.fixed_dictionaries({"kind": st.just("linear"), "lambda": pairs}),
    "limit_cycle": st.just({"kind": "limit_cycle"}),
    "periodic_forced": st.fixed_dictionaries({"kind": st.just("periodic_forced"),
                                              "a": finite}),
}
# dt >= 2^-10, so that kind_doc's t = 0.5 stays within the cap of MAX_FRAMES RK4 steps
FLOW_SPECS = {**closed_flows, "numeric_rk4": st.fixed_dictionaries(
    {"kind": st.just("numeric_rk4"), "base": st.one_of(*closed_flows.values())},
    optional={"dt": st.floats(min_value=2.0 ** -10, allow_infinity=False)})}


def times_for(flow: dict):
    """Times a config may evaluate flow at: any finite one for a closed form,
    for numeric_rk4 those of at most MAX_FRAMES steps (ceil(|t| / dt))."""
    if flow["kind"] != "numeric_rk4":
        return finite
    reach = min((MAX_FRAMES - 1) * flow.get("dt", 1e-3), sys.float_info.max)
    return st.floats(-reach, reach)


MAP_SPECS = {
    "identity": st.just({"kind": "identity"}),
    "affine": st.fixed_dictionaries(
        {"kind": st.just("affine"), "a": pairs.filter(lambda a: complex(*a) != 0)},
        optional={"b": pairs}),
    "arccos_reciprocal": st.just({"kind": "arccos_reciprocal"}),
    "arcsin_root5": st.just({"kind": "arcsin_root5"}),
    "reciprocal_sqrt": st.just({"kind": "reciprocal_sqrt"}),
    "quadratic_param": st.fixed_dictionaries({"kind": st.just("quadratic_param"),
                                              "a": finite, "b": pairs, "c": pairs}),
    "flow": st.one_of(*FLOW_SPECS.values()).flatmap(lambda flow: st.fixed_dictionaries(
        {"kind": st.just("flow"), "flow": st.just(flow), "t": times_for(flow)})),
}
maps = st.one_of(*MAP_SPECS.values())
flows = st.one_of(*FLOW_SPECS.values())


def _grid_of(doc: dict) -> GridSpec:
    g = doc["grid"]
    return GridSpec(complex(*g["center"]), g["width"], g["height"], g["px_w"], g["px_h"])


def _derives_a_window(doc: dict) -> bool:
    """Whether the affine image of the doc's grid, the dst_grid a verify-fmt
    doc without one gets, stays inside the float range; past it the doc is a
    config error (test_verify_fmt_window_past_the_float_range_is_a_config_error)."""
    if doc["map"]["kind"] == "identity":
        return True
    try:
        _grid_of(doc).affine_image(complex(*doc["map"]["a"]),
                                   complex(*doc["map"].get("b", [0, 0])))
    except (ValueError, OverflowError):
        return False
    return True


def command_docs(command, required, **optional):
    return st.fixed_dictionaries(
        {"command": st.just(command), "output": st.text(min_size=1), **required},
        optional={"palette": st.sampled_from(PALETTE_NAMES), **optional})


frame_counts = st.integers(0, MAX_FRAMES - 1)
supersamples = st.integers(1, MAX_SUPERSAMPLE)


def with_box_range(docs, raster):
    """docs with optional min_box and max_box that box counting accepts on
    the (px_w, px_h) raster(doc) gives: at least 3 dyadic sizes between them,
    up to a quarter of the shorter side, which must be 32 px or more."""
    def add(doc):
        side = min(raster(doc)) // 4
        top = 1 << (side.bit_length() - 1)  # the largest dyadic size that fits
        # with p the first power of two >= lo, [lo, 4p] holds the sizes p, 2p and 4p
        return st.integers(2, top // 4).flatmap(lambda lo: st.fixed_dictionaries({}, optional={
            "min_box": st.just(lo),
            "max_box": st.integers(4 << (lo - 1).bit_length(), side)})).map(
                lambda box: {**doc, **box})
    return docs.flatmap(add)


boxed_sides = st.integers(32, 2 ** 11)
boxed_grids = st.fixed_dictionaries({"center": pairs, "width": positive, "height": positive,
                                     "px_w": boxed_sides, "px_h": boxed_sides}).filter(_is_window)
# a zeno window stays a window: 2 * t1 finite, and t_{i0} and t_{i0+1} apart
zeno_reals = st.floats(1e-100, 1e100)
COMMAND_DOCS = {
    "julia": command_docs("julia", {"grid": grids, "c": fixed_c}, iter=iters),
    "mandelbrot": command_docs("mandelbrot", {"grid": grids}, iter=iters),
    "fmi-julia": command_docs("fmi-julia", {"grid": grids, "c": fixed_c, "map": maps},
                              iter=iters),
    "fmi-mandelbrot": command_docs("fmi-mandelbrot", {"grid": grids, "map": maps},
                                   iter=iters),
    "discrete-traj": command_docs(
        "discrete-traj", {"grid": grids, "c": fixed_c, "map": maps, "k_max": frame_counts},
        iter=iters, supersample=supersamples),
    "flow-traj": command_docs(
        "flow-traj", {"grid": grids, "c": fixed_c, "flow": flows}, iter=iters).flatmap(
        lambda doc: st.lists(times_for(doc["flow"]), min_size=1, max_size=MAX_FRAMES).map(
            lambda t_list: {**doc, "t_list": t_list})),
    "dimension": with_box_range(
        command_docs("dimension", {"grid": boxed_grids, "c": fixed_c}, iter=iters,
                     boundary=st.booleans()),
        lambda doc: (doc["grid"]["px_w"], doc["grid"]["px_h"])),
    # dst_grid may be left out only for identity and affine maps, which derive it
    "verify-fmt": command_docs(
        "verify-fmt", {"grid": grids, "c": fixed_c, "map": maps, "dst_grid": grids},
        iter=iters, supersample=supersamples)
    | command_docs(
        "verify-fmt",
        {"grid": grids, "c": fixed_c, "map": MAP_SPECS["identity"] | MAP_SPECS["affine"]},
        iter=iters, supersample=supersamples).filter(_derives_a_window),
    "zeno": with_box_range(
        command_docs("zeno", {"d0": zeno_reals, "t1": zeno_reals,
                              "n": st.integers(1, MAX_FRAMES)},
                     i0=st.integers(0, 40), px_w=st.integers(32, 2 ** 12),
                     px_h=st.integers(32, 2 ** 12)),
        lambda doc: (doc.get("px_w", 1024), doc.get("px_h", 512))),
}
SCENE_DOCS = {
    **COMMAND_DOCS,
    **{kind: spec.map(lambda s, k=kind: kind_doc(k, s))
       for kind, spec in {**MAP_SPECS, **FLOW_SPECS}.items()},
}
assert set(COMMAND_DOCS) == set(COMMANDS) and set(SCENE_DOCS) - set(COMMANDS) == set(KINDS)


@pytest.mark.parametrize("name", list(SCENE_DOCS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_serialize_round_trip_property(name, data):
    cfg = parse_config(json.dumps(data.draw(SCENE_DOCS[name])))
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def _cut_to_size(doc: dict) -> dict:
    """doc with its work cut to milliseconds: rasters at most 24 x 24 (48 x
    48 where box counting runs, with the default box range, which needs
    32), max_iter at most 60, k_max at most 3, at most 3 times, supersample
    at most 4 and at most 30 zeno lines. What is left may still fail to
    validate."""
    side = 48 if doc["command"] in ("dimension", "zeno") else 24
    doc = {key: value for key, value in doc.items() if key not in ("min_box", "max_box")}
    for key in ("grid", "dst_grid"):
        if key in doc:
            doc[key] = {**doc[key], "px_w": min(doc[key]["px_w"], side),
                        "px_h": min(doc[key]["px_h"], side)}
    if doc["command"] == "zeno":
        doc.update(n=min(doc["n"], 30), px_w=min(doc.get("px_w", side), side),
                   px_h=min(doc.get("px_h", side), side))
    else:
        doc["iter"] = {**doc.get("iter", {}),
                       "max_iter": min(doc.get("iter", {}).get("max_iter", 60), 60)}
    for key, most in (("k_max", 3), ("supersample", 4)):
        if key in doc:
            doc[key] = min(doc[key], most)
    if "t_list" in doc:
        doc["t_list"] = doc["t_list"][:3]
    return doc


@pytest.mark.parametrize("name", list(SCENE_DOCS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_config_that_validates_runs_to_completion(name, data):
    doc = _cut_to_size(data.draw(SCENE_DOCS[name]))
    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = validate_config({**doc, "output": f"{out}/s"})
        except ConfigError:
            return
        run_scene(cfg)


# Override values: any JSON (NaN and the infinities included), ints of over
# 400 digits, and text that is not JSON at all.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.integers(10 ** 400, 10 ** 450) | st.integers(-10 ** 450, -10 ** 400)
    | st.sampled_from(COMMANDS + PALETTE_NAMES + tuple(KINDS)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)
override_values = json_values.map(json.dumps) | st.text(max_size=12)
KEYS = ["command", "output", "palette", "grid", "dst_grid", "iter", "map", "flow", "c",
        "t_list", "k_max", "supersample", "boundary", "min_box", "d0", "n", "i0", "px_w"]
SEGMENTS = KEYS + ["kind", "base", "center", "max_iter", "0", "1", "-1", "7", "x", ""]
override_paths = st.sampled_from(KEYS) | st.lists(
    st.sampled_from(SEGMENTS), min_size=2, max_size=8).map(".".join)
overrides = st.lists(st.tuples(override_paths, override_values).map("=".join),
                     min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(*SCENE_DOCS.values()), items=overrides)
def test_overrides_give_a_config_or_a_config_error(doc, items):
    try:
        cfg = parse_config(json.dumps(doc, indent=2), items)
    except ConfigError:
        return
    assert isinstance(cfg, SceneConfig)


def _grid(px_w, px_h):
    return {"center": [0, 0], "width": 3.0, "height": 3.0, "px_w": px_w, "px_h": px_h}


@pytest.mark.parametrize("doc, message", [
    (julia_doc(grid=_grid(4097, 4096), iter={"max_iter": 1}), "pixels exceed"),
    (julia_doc(grid=_grid(10 ** 12, 10 ** 12)), "pixels exceed"),
    (julia_doc(grid=_grid(4096, 4096), iter={"max_iter": 1025}), "cell-iterations"),
    (julia_doc(grid=_grid(1024, 1024), iter={"max_iter": 10 ** 9}), "cell-iterations"),
    ({"command": "mandelbrot", "grid": _grid(2048, 2049), "iter": {"max_iter": 4096},
      "output": "o"}, "cell-iterations"),
    ({"command": "verify-fmt", "grid": _grid(64, 64), "c": [0, 0.25],
      "map": {"kind": "arccos_reciprocal"}, "dst_grid": _grid(5000, 5000), "output": "o"},
     "dst_grid: 5000 x 5000 pixels exceed"),
    ({"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 4, "px_w": 2 ** 20, "px_h": 2 ** 5,
      "output": "o"}, "px_w: 1048576 x 32 pixels exceed"),
])
def test_oversized_frames_are_config_errors(doc, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(doc)


def test_frames_at_the_size_caps_are_accepted():
    # 2^24 pixels and 2^34 cell-iterations exactly; validated only, nothing is rendered
    assert validate_config(julia_doc(grid=_grid(4096, 4096), iter={"max_iter": 1024}))
    assert validate_config(julia_doc(grid=_grid(2 ** 24, 1), iter={"max_iter": 1024}))
    assert validate_config({"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 4,
                            "px_w": 2 ** 12, "px_h": 2 ** 12, "output": "o"})


def _traj_doc(**extra):
    doc = {"command": "discrete-traj", "grid": _grid(512, 512), "c": [0, 0.25],
           "map": {"kind": "affine", "a": [0.5, 0]}, "k_max": 5, "output": "o"}
    return {**doc, **extra}


def _flow_doc(t_list):
    return {"command": "flow-traj", "grid": _grid(512, 512), "c": [0, 0.25],
            "flow": {"kind": "limit_cycle"}, "t_list": t_list, "output": "o"}


OVERSIZED_RUNS = [
    (_traj_doc(supersample=10 ** 12), "supersample must be <= 32"),
    (_traj_doc(supersample=MAX_SUPERSAMPLE + 1), "supersample must be <= 32"),
    ({"command": "verify-fmt", "grid": _grid(512, 512), "c": [0, 0.25],
      "map": {"kind": "identity"}, "supersample": 33, "output": "o"}, "supersample must be <= 32"),
    (_traj_doc(k_max=10 ** 9), "k_max must be <= 1023"),
    (_traj_doc(k_max=MAX_FRAMES), "k_max must be <= 1023"),
    (_flow_doc([0.001 * i for i in range(100_000)]), "t_list must hold at most 1024 values"),
    (_flow_doc([0.0] * (MAX_FRAMES + 1)), "t_list must hold at most 1024 values"),
]


@pytest.mark.parametrize("doc, message", OVERSIZED_RUNS)
def test_oversized_runs_are_config_errors(doc, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(doc)


def test_runs_at_the_frame_and_supersample_caps_are_accepted():
    # validated only, nothing is rendered
    assert validate_config(_traj_doc(k_max=MAX_FRAMES - 1, supersample=MAX_SUPERSAMPLE))
    assert validate_config(_flow_doc([0.0] * MAX_FRAMES))


def exits_1_without_running(doc, tmp_path, capsys, monkeypatch) -> str:
    """The CLI's stderr for doc, after checking that it exits 1 and neither
    runs the scene nor writes anything."""
    def never(*args, **kwargs):
        raise AssertionError("a rejected config was run")

    monkeypatch.setattr("fractaldyn.cli.run_scene", never)
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({**doc, "output": str(tmp_path / "big")}))
    code = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and "config error" in err
    assert not list(tmp_path.glob("big*"))
    return err


@pytest.mark.parametrize("doc", [OVERSIZED_RUNS[i][0] for i in (0, 3, 5)])
def test_an_oversized_run_exits_1_without_running(doc, tmp_path, capsys, monkeypatch):
    # supersample 10^12, k_max 10^9 and 100,000 t values on a 512^2 grid
    exits_1_without_running(doc, tmp_path, capsys, monkeypatch)


def _zeno_doc(**extra):
    return {"command": "zeno", "d0": 1.0, "t1": 1.0, "n": 5, **extra}


def _dimension_doc(side, **extra):
    return {"command": "dimension", "grid": _grid(side, side), "c": [0, 0], **extra}


def _rk4_doc(dt, t_list=(1,)):
    return {"command": "flow-traj", "grid": _grid(512, 512), "c": [-1, 0], "t_list": list(t_list),
            "flow": {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"}, "dt": dt}}


def _rk4_map_doc(dt, t=1):
    flow = {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"}, "dt": dt}
    return {"command": "fmi-julia", "grid": _grid(512, 512), "c": [-1, 0],
            "map": {"kind": "flow", "flow": flow, "t": t}}


# Configs that used to validate and then fail in the run, or never finish it.
REFUSED_RUNS = {
    "zeno-n-1e18": (_zeno_doc(n=10 ** 18), "n must be <= 1024"),
    "zeno-i0-1e30": (_zeno_doc(i0=10 ** 30), "no window: width must be positive"),
    "zeno-i0-1100": (_zeno_doc(i0=1100), "no window: width must be positive"),
    "zeno-i0-1e400": (_zeno_doc(i0=10 ** 400), "no window: int too large"),
    "zeno-t1-1e308": (_zeno_doc(t1=1e308), "no window: center must be finite"),
    "zeno-8px": (_zeno_doc(px_w=8, px_h=8), "8 x 8 pixels: need 2 <= min_box < max_box"),
    "dimension-min-8-max-4": (_dimension_doc(64, min_box=8, max_box=4),
                              "need 2 <= min_box < max_box"),
    "dimension-16px-max-8": (_dimension_doc(16, max_box=8), "max_box must be <="),
    "dimension-16px-max-4": (_dimension_doc(16, max_box=4), "only 2 dyadic sizes in [2, 4]"),
    # 20 lines in 1024 columns of which only 33 centers differ
    "zeno-i0-48": (_zeno_doc(n=20, i0=48), "no window: column centers collapse"),
    "grid-1e-13-wide-at-1": (julia_doc(grid={"center": [1, 0], "width": 1e-13, "height": 1e-13,
                                             "px_w": 1024, "px_h": 1024}),
                             "grid: column centers collapse"),
    # about 10^12 RK4 steps per cell, and a step count past the float range
    "flow-traj-rk4-dt-1e-12": (_rk4_doc(dt=1e-12), "takes over 1024 steps"),
    "flow-traj-rk4-t-1e300": (_rk4_doc(dt=1e-15, t_list=[0, 1e300]), "takes over 1024 steps"),
    "fmi-julia-rk4-dt-1e-15": (_rk4_map_doc(dt=1e-15), "takes over 1024 steps"),
}


@pytest.mark.parametrize("doc, message", REFUSED_RUNS.values(), ids=REFUSED_RUNS)
def test_a_config_the_run_would_refuse_exits_1_without_running(doc, message, tmp_path,
                                                                capsys, monkeypatch):
    assert message in exits_1_without_running(doc, tmp_path, capsys, monkeypatch)


def test_zeno_and_box_ranges_at_their_edges_are_accepted():
    # validated only, nothing is rendered
    assert validate_config(_zeno_doc(n=MAX_FRAMES, output="o"))
    assert validate_config(_zeno_doc(i0=40, t1=1e100, d0=1e-100, output="o"))
    assert validate_config(_zeno_doc(px_w=32, px_h=32, output="o"))
    assert validate_config(_zeno_doc(n=1, px_w=1, px_h=1, max_box=2, output="o"))
    assert validate_config(_dimension_doc(32, output="o"))
    assert validate_config(_dimension_doc(64, min_box=3, max_box=16, output="o"))


def test_windows_and_rk4_step_counts_at_their_edges_are_accepted():
    # validated only, nothing is rendered
    assert validate_config(_zeno_doc(n=20, i0=42, output="o"))  # 1024 distinct columns
    with pytest.raises(ConfigError, match="column centers collapse"):
        validate_config(_zeno_doc(n=20, i0=43, output="o"))  # 513
    # dt = 2^-10: t = 1 takes MAX_FRAMES steps exactly, one step more is refused
    for doc in (_rk4_doc(2.0 ** -10, t_list=[-1, 0, 1]), _rk4_map_doc(2.0 ** -10, t=-1)):
        assert validate_config({**doc, "output": "o"})
    for doc in (_rk4_doc(2.0 ** -10, t_list=[1 + 2.0 ** -10]), _rk4_map_doc(2.0 ** -10, t=-1.001)):
        with pytest.raises(ConfigError, match="takes over 1024 steps"):
            validate_config({**doc, "output": "o"})


def test_an_oversized_frame_exits_1_before_anything_is_allocated(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(julia_doc(grid=_grid(100_000, 100_000),
                                        output=str(tmp_path / "big"))))
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(cfg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and "config error" in err and "pixels exceed" in err
    assert peak < 2 ** 20  # 10^10 pixels: even their status bytes alone would be 10 GB
    assert not list(tmp_path.glob("big.*"))


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_scenes():
    spec = importlib.util.spec_from_file_location("perfbench_scenes",
                                                  ROOT / "perfbench" / "scenes.py")
    scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenes)
    return [(f"{workload}/{name}", raw) for workload in scenes.WORKLOADS
            for name, raw in scenes.make_scenes(workload, scenes.DEFAULT_SEED, ROOT,
                                                Path("out"))]


@pytest.mark.parametrize("name, raw", [
    *[(f"recipes/{p.stem}", json.loads(p.read_text(encoding="utf-8")))
      for p in sorted(ROOT.glob("recipes/*.json"))],
    *_perfbench_scenes()])
def test_every_recipe_and_benchmark_scene_is_within_the_size_caps(name, raw):
    assert isinstance(validate_config(raw), SceneConfig)


@pytest.mark.parametrize("m, window", [
    ({"kind": "identity"}, lambda grid: grid),
    ({"kind": "affine", "a": [0.5, -1.25], "b": [0.1, 2.0]},
     lambda grid: grid.affine_image(0.5 - 1.25j, 0.1 + 2j)),
    ({"kind": "affine", "a": [2, 0]}, lambda grid: grid.affine_image(2, 0)),
], ids=["identity", "affine", "affine-no-b"])
def test_verify_fmt_derives_the_destination_window(m, window):
    doc = {"command": "verify-fmt", "grid": _grid(24, 16), "c": [-1, 0], "map": m, "output": "o"}
    cfg = validate_config(doc)
    assert cfg.dst_grid == window(_grid_of(doc))
    # the sidecar records the derived window; given back explicitly it reads the same
    assert validate_config({**doc, "dst_grid": cfg.to_dict()["dst_grid"]}) == cfg


@pytest.mark.parametrize("a, width", [([1e308, 1e308], 3.0), ([1e300, 0], 1e10),
                                      ([1e-300, 0], 1e-30)])
def test_verify_fmt_window_past_the_float_range_is_a_config_error(a, width):
    doc = {"command": "verify-fmt", "grid": {**_grid(16, 16), "width": width},
           "c": [-1, 0], "map": {"kind": "affine", "a": a}, "output": "o"}
    with pytest.raises(ConfigError, match="dst_grid: the affine image of grid is not a window"):
        validate_config(doc)
