"""Scene configuration: strict JSON parsing, overrides, serialization.

Configs are JSON objects with one ``command`` plus the sections that
command needs. Complex numbers are two-element arrays [re, im]. Parsing
is strict: unknown keys anywhere, missing required keys, and
out-of-range values are all rejected, with the offending line quoted
when it can be located in the source text.

Keys are declared only on dataclasses. The top-level keys are the fields
of ``SceneConfig``: a field's annotation picks its parser, its
``metadata["min"]`` and ``["max"]`` bound it and its default is what a command
accepting the key fills in. The grid, iter, map and flow sections are the
init fields of ``GridSpec``, ``IterParams`` and the classes in
``MAP_KINDS`` / ``FLOW_KINDS``; a field without a default is a required
key, and the range checks are the constructors' own.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .analysis import _box_range, _zeno_window, zeno_states
from .core import GridSpec
from .fji import IterParams
from .flows import FLOW_KINDS, FlowSpec, NumericRK4
from .imaging import PALETTES
from .maps import MAP_KINDS, Affine, FlowMap, Identity, MapSpec


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _line_of(text: str, key: str) -> int | None:
    """First line containing the quoted key, for error messages."""
    needle = f'"{key}"'
    for num, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return num
    return None


class _Ctx:
    """Carries the source text through validation for line lookups."""

    def __init__(self, text: str):
        self.text = text

    def fail(self, key: str, message: str):
        raise ConfigError(message, _line_of(self.text, key))

    def obj(self, raw, key: str) -> dict:
        if not isinstance(raw, dict):
            self.fail(key, f"{key!r} must be an object")
        return raw

    def check_keys(self, raw: dict, allowed: set[str], where: str):
        for k in raw:
            if k not in allowed:
                self.fail(k, f"unknown key {k!r} in {where}")

    def require(self, raw: dict, key: str, where: str):
        if key not in raw:
            self.fail(where, f"missing required key {key!r} for {where}")
        return raw[key]

    def number(self, raw, key: str) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            self.fail(key, f"{key!r} must be a number")
        try:
            if math.isfinite(raw):
                return float(raw)
        except OverflowError:  # an integer beyond the float range
            pass
        self.fail(key, f"{key!r} must be finite")

    def integer(self, raw, key: str) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            self.fail(key, f"{key!r} must be an integer")
        return raw

    def boolean(self, raw, key: str) -> bool:
        if not isinstance(raw, bool):
            self.fail(key, f"{key!r} must be a boolean")
        return raw

    def complex_pair(self, raw, key: str) -> complex:
        if (not isinstance(raw, list) or len(raw) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
            self.fail(key, f"{key!r} must be a two-element [re, im] array")
        return complex(self.number(raw[0], key), self.number(raw[1], key))

    def number_list(self, raw, key: str) -> tuple[float, ...]:
        if not isinstance(raw, list) or not raw:
            self.fail(key, f"{key!r} must be a non-empty array of numbers")
        return tuple(self.number(v, key) for v in raw)


def _key(f) -> str:
    """JSON key of a dataclass field: its name unless metadata renames it."""
    return f.metadata.get("key", f.name)


def _parse_spec(ctx: _Ctx, raw, schema, where: str):
    """Build a spec dataclass from a JSON object keyed by its init fields.

    ``schema`` is the dataclass, or a registry of them (``MAP_KINDS``,
    ``FLOW_KINDS``) from which the object's ``kind`` key picks one. A
    field without a default is a required key; a ValueError from the
    constructor's range checks becomes a ConfigError.
    """
    raw = ctx.obj(raw, where)
    allowed = set()
    if isinstance(schema, dict):
        kind = ctx.require(raw, "kind", where)
        if not isinstance(kind, str) or kind not in schema:
            ctx.fail("kind", f"unknown kind {kind!r} in {where}")
        schema = schema[kind]
        allowed.add("kind")
    init = [f for f in fields(schema) if f.init]
    ctx.check_keys(raw, allowed | {_key(f) for f in init}, where)
    kw = {}
    for f in init:
        key = _key(f)
        if key in raw or (f.default is MISSING and f.default_factory is MISSING):
            kw[f.name] = _parse_field(ctx, f, ctx.require(raw, key, where))
    try:
        return schema(**kw)
    except ValueError as exc:
        ctx.fail(where, f"{where}: {exc}")


# Field annotation, less any " | None" -> parser of that field's JSON value.
_FIELD_PARSERS = {
    "complex": _Ctx.complex_pair,
    "float": _Ctx.number,
    "int": _Ctx.integer,
    "bool": _Ctx.boolean,
    "tuple[float, ...]": _Ctx.number_list,
    "GridSpec": lambda ctx, raw, key: _parse_spec(ctx, raw, GridSpec, key),
    "IterParams": lambda ctx, raw, key: _parse_spec(ctx, raw, IterParams, key),
    "MapSpec": lambda ctx, raw, key: _parse_spec(ctx, raw, MAP_KINDS, key),
    "FlowSpec": lambda ctx, raw, key: _parse_spec(ctx, raw, FLOW_KINDS, key),
}


def _type(f) -> str:
    return f.type.removesuffix(" | None")


def _parse_field(ctx: _Ctx, f, raw):
    """The value of a dataclass field from its key's JSON value. A
    ``metadata["min"]`` bound may be equalled by an integer; a real number
    (d0, t1) must exceed it. A ``metadata["max"]`` bound caps an integer,
    or the length of a list."""
    key, low, high = _key(f), f.metadata.get("min"), f.metadata.get("max")
    value = _FIELD_PARSERS[_type(f)](ctx, raw, key)
    if low is not None:
        strict = isinstance(value, float)
        if value < low or (strict and value == low):
            ctx.fail(key, f"{key} must be {'>' if strict else '>='} {low}")
    if high is not None:
        if isinstance(value, tuple) and len(value) > high:
            ctx.fail(key, f"{key} must hold at most {high} values")
        if isinstance(value, int) and value > high:
            ctx.fail(key, f"{key} must be <= {high}")
    return value


def _spec_dict(spec) -> dict:
    """JSON object for a spec dataclass, leaving out None values;
    _parse_spec inverts it. The init=False ``kind`` field of the map and
    flow classes is written too."""
    doc = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if _type(f) == "complex":
            value = [value.real, value.imag]
        elif is_dataclass(value):
            value = _spec_dict(value)
        doc[_key(f)] = value
    return doc


# Per-command keys beyond command/output/palette: name -> required?
_FIELDS: dict[str, dict[str, bool]] = {
    "julia": {"grid": True, "c": True, "iter": False},
    "mandelbrot": {"grid": True, "iter": False},
    "fmi-julia": {"grid": True, "c": True, "map": True, "iter": False},
    "fmi-mandelbrot": {"grid": True, "map": True, "iter": False},
    "discrete-traj": {"grid": True, "c": True, "map": True, "k_max": True,
                      "iter": False, "supersample": False},
    "flow-traj": {"grid": True, "c": True, "flow": True, "t_list": True,
                  "iter": False},
    "dimension": {"grid": True, "c": True, "iter": False, "boundary": False,
                  "min_box": False, "max_box": False},
    "verify-fmt": {"grid": True, "c": True, "map": True, "dst_grid": False,
                   "iter": False, "supersample": False},
    "zeno": {"d0": True, "t1": True, "n": True, "i0": False,
             "px_w": False, "px_h": False, "min_box": False, "max_box": False},
}
COMMANDS = tuple(_FIELDS)

PALETTE_NAMES = tuple(PALETTES)

# Caps on one frame, checked before anything is allocated (README, "Size limits").
MAX_PIXELS = 2 ** 24  # 4096 x 4096
MAX_CELL_ITERATIONS = 2 ** 34  # 4096 x 4096 at max_iter 1024
# Caps on what multiplies a frame's work, from the two above: a run may have as
# many frames, and a cell as many samples, as a largest frame has iterations.
MAX_FRAMES = MAX_CELL_ITERATIONS // MAX_PIXELS  # 1024: k_max + 1, len(t_list), RK4 steps
MAX_SUPERSAMPLE = math.isqrt(MAX_FRAMES)  # 32: s^2 samples per Bounded cell


@dataclass(frozen=True)
class SceneConfig:
    """A validated scene, one field per top-level key. Keys are checked in
    field order, which agrees with each command's key order in ``_FIELDS``."""

    command: str
    output: str
    grid: GridSpec | None = None
    c: complex | None = None
    map: MapSpec | None = None
    dst_grid: GridSpec | None = None
    flow: FlowSpec | None = None
    t_list: tuple[float, ...] | None = field(default=None, metadata={"max": MAX_FRAMES})
    k_max: int | None = field(default=None, metadata={"min": 0, "max": MAX_FRAMES - 1})
    iter_params: IterParams = field(default_factory=IterParams, metadata={"key": "iter"})
    palette: str = "classic"
    supersample: int = field(default=3, metadata={"min": 1, "max": MAX_SUPERSAMPLE})
    boundary: bool = True
    d0: float | None = field(default=None, metadata={"min": 0})
    t1: float | None = field(default=None, metadata={"min": 0})
    n: int | None = field(default=None, metadata={"min": 1, "max": MAX_FRAMES})
    i0: int = field(default=0, metadata={"min": 0})
    px_w: int = field(default=1024, metadata={"min": 1})
    px_h: int = field(default=512, metadata={"min": 1})
    min_box: int | None = field(default=None, metadata={"min": 2})
    max_box: int | None = field(default=None, metadata={"min": 2})

    def to_dict(self) -> dict:
        """Fully resolved config (defaults applied) as a JSON-ready dict:
        every key the command accepts that has a value."""
        accepted = set(_FIELDS[self.command]) | {"command", "output", "palette"}
        return {k: v for k, v in _spec_dict(self).items() if k in accepted}


def validate_config(raw: dict, text: str = "") -> SceneConfig:
    """Validate a parsed JSON object into a SceneConfig."""
    ctx = _Ctx(text)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = ctx.require(raw, "command", "config")
    if command not in COMMANDS:
        ctx.fail("command", f"unknown command {command!r}")
    keys = _FIELDS[command]
    ctx.check_keys(raw, set(keys) | {"command", "output", "palette"}, f"command {command!r}")
    for name, required in keys.items():
        if required and name not in raw:
            ctx.fail("command", f"missing required key {name!r} for command {command!r}")

    output = ctx.require(raw, "output", f"command {command!r}")
    if not isinstance(output, str) or not output:
        ctx.fail("output", "output must be a non-empty string")
    palette = raw.get("palette", "classic")
    if palette not in PALETTE_NAMES:
        ctx.fail("palette", f"palette must be one of {PALETTE_NAMES}")

    values = {"command": command, "output": output, "palette": palette}
    for f in fields(SceneConfig):
        if _key(f) in keys and _key(f) in raw:
            values[f.name] = _parse_field(ctx, f, raw[_key(f)])
    if command == "verify-fmt" and "dst_grid" not in values:  # the window the map sends grid to
        m, grid = values["map"], values["grid"]
        if not isinstance(m, (Identity, Affine)):
            ctx.fail("map", "dst_grid is required for non-affine maps")
        try:
            values["dst_grid"] = grid if isinstance(m, Identity) else grid.affine_image(m.a, m.b)
        except (ValueError, OverflowError) as exc:  # say |a| * width overflows
            ctx.fail("map", f"dst_grid: the affine image of grid is not a window: {exc}")
    # past |c| an escaped orbit of z^2 + c can come back (Milnor, section 9)
    radius = values.get("iter_params", IterParams()).escape_radius
    if "c" in values and abs(values["c"]) > radius:
        ctx.fail("c", f"|c| = {abs(values['c']):.6g} exceeds escape_radius {radius:g}; "
                      "escape is permanent only for escape_radius >= max(2, |c|)")
    cfg = SceneConfig(**values)
    rasters = {"px_w": (cfg.px_w, cfg.px_h)} if command == "zeno" else {
        key: (values[key].px_w, values[key].px_h) for key in ("grid", "dst_grid") if key in values}
    max_iter = cfg.iter_params.max_iter if "iter" in keys else 1
    for key, (px_w, px_h) in rasters.items():
        if px_w * px_h > MAX_PIXELS:
            ctx.fail(key, f"{key}: {px_w} x {px_h} pixels exceed the limit of {MAX_PIXELS}")
        if px_w * px_h * max_iter > MAX_CELL_ITERATIONS:
            ctx.fail(key, f"{key}: {px_w} x {px_h} pixels at max_iter {max_iter} exceed the "
                          f"limit of {MAX_CELL_ITERATIONS} cell-iterations")
    # every RK4 evaluation the run makes: each time of a flow-traj, a flow map's time
    spans = [(cfg.flow, t) for t in cfg.t_list or ()]
    if isinstance(cfg.map, FlowMap):
        spans.append((cfg.map.flow, cfg.map.t))
    for flow, t in spans:
        try:
            steps = flow._steps(t) if isinstance(flow, NumericRK4) else 1
        except OverflowError:
            steps = math.inf
        if steps > MAX_FRAMES:
            ctx.fail("dt", f"numeric_rk4 at t = {t:g} with dt = {flow.dt:g} takes over "
                           f"{MAX_FRAMES} steps")
    if command == "zeno" and cfg.n >= 2:  # the window rasterize_zeno will draw in
        try:
            _zeno_window(zeno_states(cfg.d0, cfg.t1, 2, cfg.i0), cfg.px_w, cfg.px_h)
        except (ValueError, OverflowError) as exc:  # say 2 * t1 overflows, or i0 is huge
            ctx.fail("t1", f"the zeno lines have no window: {exc}")
    if command == "dimension" or (command == "zeno" and cfg.n >= 2):  # both box count
        px_w, px_h = rasters["grid" if command == "dimension" else "px_w"]
        try:
            _box_range(px_w, px_h, cfg.min_box, cfg.max_box)
        except ValueError as exc:
            ctx.fail("max_box", f"box counting on {px_w} x {px_h} pixels: {exc}")
    return cfg


def parse_config(text, overrides=()) -> SceneConfig:
    """Parse a config document (bytes or str), apply key=value overrides
    (see apply_overrides) and validate the result."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"syntax error: {exc.msg}", exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, nested too deep
        raise ConfigError(f"unreadable config: {exc}") from None
    return validate_config(apply_overrides(raw, overrides), text)


def serialize_config(cfg: SceneConfig) -> str:
    """Canonical JSON for a SceneConfig; parse_config inverts this."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply key=value overrides to a parsed config dict.

    Keys are dotted paths (``iter.max_iter``, ``c.0``); integer segments
    index arrays. Values are parsed as JSON scalars, falling back to
    strings.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must be key=value")
        path, _, val_text = item.partition("=")
        try:
            value = json.loads(val_text)
        except (ValueError, RecursionError):
            value = val_text
        segments = path.split(".")
        node = raw
        for idx, seg in enumerate(segments):
            last = idx == len(segments) - 1
            if isinstance(node, list):
                try:
                    seg = int(seg)
                except ValueError:
                    raise ConfigError(f"override {path!r}: {seg!r} is not an index") from None
                if not (0 <= seg < len(node)):
                    raise ConfigError(f"override {path!r}: index {seg} out of range")
            elif isinstance(node, dict):
                if not last:
                    node.setdefault(seg, {})
            else:
                raise ConfigError(f"override {path!r}: {seg!r} does not address a field")
            if last:
                node[seg] = value
            else:
                node = node[seg]
    return raw
