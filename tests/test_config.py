import json

import pytest

from fractaldyn.config import (ConfigError, apply_overrides, parse_config,
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
        {"command": "dimension", "grid": grid, "c": [-1, 0], "output": "o"},
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
