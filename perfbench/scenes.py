"""Scene configs of the three benchmark workloads.

Every scene is a raw JSON-style config dict, exactly what a user of the
command line would write, so the benchmark exercises config validation and
``cli.run_scene`` the way the ``fractaldyn run`` command does.

Why these workloads:

* ``plates``: the paper's thirteen recipes (fig1b..fig6c) at 512x512, read
  from ``recipes/``. Most cells escape within a few iterations, so the
  kernel's escape-and-compact path, colorizing/PPM writing and the
  closed-form map and flow inverses dominate. An optimisation of bounded
  orbits should leave it unchanged.
* ``interior``: four 512x512 windows at 400 iterations that lie at least
  99% inside the set, so nearly all time is the orbit kernel running the
  full budget. The c = -0.7589+0.0735i window never reaches an exact
  floating-point cycle; the Mandelbrot window uses a per-cell parameter.
* ``verify``: the independent-route checks that no recipe covers: the
  forward-image (splatting) route against the pullback route through
  Affine(2, 1) and arccos(1/z - 1), a 1024x1024 box-count dimension scene,
  and a closed-form limit-cycle flow against its RK4 integration.

The default seed reproduces the inputs above exactly. Any other seed
permutes the scene order and moves every window centre by less than half a
pixel, so each run does the same kind and amount of work on new inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("plates", "interior", "verify")
DEFAULT_SEED = 0
JITTER_PX = 0.45  # strictly under half a pixel

PLATES = ("fig1b", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
          "fig3", "fig4a", "fig4b", "fig5", "fig6b", "fig6c")

C_DOUADY = [-0.175, -0.655]


def _grid(center, width, px, height=None):
    return {"center": [float(center.real), float(center.imag)],
            "width": width, "height": width if height is None else height,
            "px_w": px, "px_h": px}


INTERIOR = {
    "julia_basilica": {"command": "julia", "grid": _grid(0j, 0.425, 512),
                       "c": [-1.0, 0.0], "iter": {"max_iter": 400}},
    "julia_quarter_i": {"command": "julia", "grid": _grid(0j, 0.3, 512),
                        "c": [0.0, 0.25], "iter": {"max_iter": 400}},
    "julia_no_cycle": {"command": "julia",
                       "grid": _grid(0.2969 + 0.1844j, 0.045, 512),
                       "c": [-0.7589, 0.0735], "iter": {"max_iter": 400}},
    "mandelbrot_cardioid": {"command": "mandelbrot", "grid": _grid(-0.1 + 0j, 0.4, 512),
                            "iter": {"max_iter": 400}},
}

# The two legs of each c03 acceptance check, the 1024x1024 dimension scene
# of c05, and a closed-form flow beside its RK4 integration (same window).
VERIFY = {
    "fmt_affine": {"command": "verify-fmt", "grid": _grid(0j, 3.2, 512),
                   "c": C_DOUADY, "map": {"kind": "affine", "a": [2.0, 0.0], "b": [1.0, 0.0]},
                   "iter": {"max_iter": 500}, "supersample": 3},
    "fmt_arccos": {"command": "verify-fmt", "grid": _grid(0j, 3.0, 1024),
                   "dst_grid": _grid(2.2 + 0j, 1.4, 512, height=2.4),
                   "c": [0.0, 0.25], "map": {"kind": "arccos_reciprocal"},
                   "iter": {"max_iter": 500}, "supersample": 8},
    "dimension": {"command": "dimension", "grid": _grid(0j, 3.2, 1024),
                  "c": C_DOUADY, "iter": {"max_iter": 120}, "boundary": True},
    "flow_closed": {"command": "flow-traj", "grid": _grid(0j, 5.2, 512), "c": C_DOUADY,
                    "flow": {"kind": "limit_cycle"}, "t_list": [0.3],
                    "iter": {"max_iter": 150}},
    "flow_rk4": {"command": "flow-traj", "grid": _grid(0j, 5.2, 512), "c": C_DOUADY,
                 "flow": {"kind": "numeric_rk4", "base": {"kind": "limit_cycle"}, "dt": 0.01},
                 "t_list": [0.3], "iter": {"max_iter": 150}},
}

# (route A, route B) flow scenes compared as masks by the verify checks;
# route B is jittered with route A's window, so the two stay comparable.
FLOW_PAIRS = (("flow_closed", "flow_rk4"),)


def _base_scenes(workload: str, root: Path) -> dict[str, dict]:
    if workload == "plates":
        return {name: json.loads((root / "recipes" / f"{name}.json").read_text(encoding="utf-8"))
                for name in PLATES}
    if workload == "interior":
        return json.loads(json.dumps(INTERIOR))
    if workload == "verify":
        return json.loads(json.dumps(VERIFY))
    raise ValueError(f"unknown workload {workload!r}")


def _shrink(grid: dict, div: int) -> None:
    grid["px_w"] = max(16, grid["px_w"] // div)
    grid["px_h"] = max(16, grid["px_h"] // div)


def _jitter(grid: dict, rng: random.Random) -> None:
    dx = grid["width"] / grid["px_w"]
    dy = grid["height"] / grid["px_h"]
    grid["center"] = [grid["center"][0] + rng.uniform(-JITTER_PX, JITTER_PX) * dx,
                      grid["center"][1] + rng.uniform(-JITTER_PX, JITTER_PX) * dy]


def make_scenes(workload: str, seed: int, root: Path, out_dir: Path,
                shrink: int = 1) -> list[tuple[str, dict]]:
    """The workload's (name, raw config) pairs in run order.

    ``shrink`` divides every pixel count (for smoke runs); outputs go to
    ``out_dir/<name>``.
    """
    scenes = _base_scenes(workload, root)
    shared_window = {b: a for a, b in FLOW_PAIRS}
    for name, raw in scenes.items():
        raw["output"] = str(out_dir / name)
        window = shared_window.get(name, name)
        for key in ("grid", "dst_grid"):
            if key not in raw:
                continue
            if shrink > 1:
                _shrink(raw[key], shrink)
            if seed != DEFAULT_SEED:
                _jitter(raw[key], random.Random(f"{seed}/{window}/{key}"))
    order = list(scenes)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(order)
    return [(name, scenes[name]) for name in order]
