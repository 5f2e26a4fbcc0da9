"""Command-line entry point: run one scene config, write images and a
metadata sidecar.

    fractaldyn run --config scene.json [--override key=value ...] [--threads N]

Exit codes: 0 success, 1 config error, 2 runtime error. Single-image
commands write <output>.ppm; multi-frame commands write numbered frames
plus <output>_manifest.json. Every run writes <output>.json with the
resolved config and run statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import analysis
from .config import ConfigError, SceneConfig, parse_config
from .fji import extract_boundary, render_julia, render_mandelbrot
from .flows import trajectory_sweep
from .fmi import discrete_trajectory, fmi_julia, fmi_mandelbrot, forward_image
from .imaging import get_palette, write_image, write_metadata
from .maps import Identity


def _out_path(cfg: SceneConfig, suffix: str) -> Path:
    path = Path(cfg.output + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(cfg: SceneConfig, entries: list[dict]) -> dict:
    """Write <output>_manifest.json listing the frames; returns the stats."""
    with open(_out_path(cfg, "_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"frames": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"frames": len(entries),
            "bounded_counts": [e["bounded_count"] for e in entries]}


def _box_dimension(cfg: SceneConfig, mask) -> dict:
    """Box-counting fit over the mask's Bounded cells, as sidecar stats,
    with the box range it was fitted over. min_box defaults to 2, max_box
    to a quarter of the shorter raster side."""
    min_box = cfg.min_box if cfg.min_box is not None else 2
    max_box = (cfg.max_box if cfg.max_box is not None
               else min(mask.grid.px_w, mask.grid.px_h) // 4)
    est = analysis.box_counting_dimension(mask, min_box, max_box)
    return {"slope": est.slope, "r_squared": est.r_squared,
            "min_box": min_box, "max_box": max_box,
            "scales_used": list(est.scales_used), "counts": list(est.counts)}


# Single-image commands. The lambdas look the renderers up when called, so
# a renderer rebound on this module (say, wrapped by a tracer) is the one
# that runs.
_RENDERERS = {
    "julia": lambda cfg, threads: render_julia(cfg.grid, cfg.c, cfg.iter_params, threads),
    "mandelbrot": lambda cfg, threads: render_mandelbrot(cfg.grid, cfg.iter_params, threads),
    "fmi-julia": lambda cfg, threads: fmi_julia(cfg.grid, cfg.c, cfg.map, cfg.iter_params,
                                                threads),
    "fmi-mandelbrot": lambda cfg, threads: fmi_mandelbrot(cfg.grid, cfg.map, cfg.iter_params,
                                                          threads),
}


def _run_image(cfg: SceneConfig, threads: int) -> dict:
    field = _RENDERERS[cfg.command](cfg, threads)
    write_image(field, get_palette(cfg.palette), _out_path(cfg, ".ppm"))
    stats = {"bounded_count": field.bounded_count()}
    if cfg.map is not None:
        stats["invalid_count"] = int(field.invalid_mask().sum())
    return stats

def _run_discrete_traj(cfg: SceneConfig, threads: int) -> dict:
    traj = discrete_trajectory(cfg.c, cfg.map, cfg.k_max, cfg.grid,
                               cfg.iter_params, cfg.supersample, threads)
    palette = get_palette(cfg.palette)
    entries = []
    for k, (pull, push) in enumerate(zip(traj.pullback, traj.pushforward)):
        p_pull = _out_path(cfg, f"_k{k:03d}.ppm")
        p_push = _out_path(cfg, f"_push_k{k:03d}.ppm")
        write_image(pull, palette, p_pull)
        write_image(push, palette, p_push)
        entries.append({"k": k, "pullback": p_pull.name, "pushforward": p_push.name,
                        "bounded_count": pull.bounded_count()})
    return _write_manifest(cfg, entries)

def _run_flow_traj(cfg: SceneConfig, threads: int) -> dict:
    frames = trajectory_sweep(cfg.grid, cfg.c, cfg.flow, cfg.t_list,
                              cfg.iter_params, threads)
    palette = get_palette(cfg.palette)
    entries = []
    for idx, (field, t) in enumerate(zip(frames, cfg.t_list)):
        path = _out_path(cfg, f"_{idx:03d}.ppm")
        write_image(field, palette, path)
        entries.append({"file": path.name, "t": t, "bounded_count": field.bounded_count()})
    return _write_manifest(cfg, entries)

def _run_dimension(cfg: SceneConfig, threads: int) -> dict:
    field = render_julia(cfg.grid, cfg.c, cfg.iter_params, threads)
    mask = extract_boundary(field) if cfg.boundary else field
    dimension = _box_dimension(cfg, mask)
    write_image(mask, get_palette(cfg.palette), _out_path(cfg, ".ppm"))
    return {"bounded_count": mask.bounded_count(), "dimension": dimension}

def _run_verify_fmt(cfg: SceneConfig, threads: int) -> dict:
    # validate_config requires dst_grid unless the map is identity or affine.
    dst_grid = cfg.dst_grid
    if dst_grid is None:
        dst_grid = (cfg.grid if isinstance(cfg.map, Identity)
                    else cfg.grid.affine_image(cfg.map.a, cfg.map.b))
    src = render_julia(cfg.grid, cfg.c, cfg.iter_params, threads)
    fwd = forward_image(src, cfg.map, dst_grid, cfg.supersample)
    fmi = fmi_julia(dst_grid, cfg.c, cfg.map, cfg.iter_params, threads)
    cmp = analysis.compare_masks(fwd, fmi)
    palette = get_palette(cfg.palette)
    write_image(fwd, palette, _out_path(cfg, "_forward.ppm"))
    write_image(fmi, palette, _out_path(cfg, "_fmi.ppm"))
    return {"bounded_count_forward": fwd.bounded_count(),
            "bounded_count_fmi": fmi.bounded_count(),
            "comparison": {"jaccard": cmp.jaccard, "hausdorff_px": cmp.hausdorff_px}}

def _run_zeno(cfg: SceneConfig, threads: int) -> dict:
    diagram = analysis.zeno_states(cfg.d0, cfg.t1, cfg.n, cfg.i0)
    stats: dict = {"times": list(diagram.times), "heights": list(diagram.heights)}
    if cfg.n >= 2:
        field = analysis.rasterize_zeno(diagram, cfg.px_w, cfg.px_h)
        write_image(field, get_palette(cfg.palette), _out_path(cfg, ".ppm"))
        stats["bounded_count"] = field.bounded_count()
        stats["dimension"] = _box_dimension(cfg, field)
    return stats


_RUNNERS = {
    **{command: _run_image for command in _RENDERERS},
    "discrete-traj": _run_discrete_traj,
    "flow-traj": _run_flow_traj,
    "dimension": _run_dimension,
    "verify-fmt": _run_verify_fmt,
    "zeno": _run_zeno,
}


def run_scene(cfg: SceneConfig, threads: int = 1) -> dict:
    """Execute a validated scene; returns the stats written to the sidecar."""
    t0 = time.perf_counter()
    stats = _RUNNERS[cfg.command](cfg, threads)
    stats["wall_time_s"] = time.perf_counter() - t0
    write_metadata(cfg.to_dict(), stats, _out_path(cfg, ".json"))
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fractaldyn",
        description="Render escape-time fractals, their images under "
                    "invertible maps and flows, and verification metrics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="run one scene config")
    run.add_argument("--config", required=True, help="path to a scene JSON file")
    run.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="override a scalar config field (dotted path)")
    run.add_argument("--threads", type=int, default=1,
                     help="render worker threads, capped at the usable CPU count; "
                          "output does not depend on it")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_bytes(), args.override)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        run_scene(cfg, args.threads)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
