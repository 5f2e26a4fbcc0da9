"""Command-line entry point: run one scene config, write images and a
metadata sidecar.

    fractaldyn run --config scene.json [--override key=value ...]

Exit codes: 0 success, 1 config error, 2 runtime error. argparse exits 2
too, on an unknown option such as the thread count older versions took.
Single-image commands write <output>.ppm; multi-frame commands write
numbered frames plus <output>_manifest.json. Every run writes
<output>.json with the resolved config and run statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import analysis
from .config import ConfigError, SceneConfig, parse_config
from .fji import _ignore_threads, extract_boundary, render_julia, render_mandelbrot
from .flows import trajectory_sweep
from .fmi import discrete_trajectory, fmi_julia, fmi_mandelbrot, forward_image
from .imaging import get_palette, write_image, write_metadata


def _out_path(cfg: SceneConfig, suffix: str) -> Path:
    path = Path(cfg.output + suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _box_dimension(cfg: SceneConfig, mask) -> dict:
    """Box-counting fit over the mask's Bounded cells, as sidecar stats,
    with the box range it was fitted over (analysis._box_range's defaults)."""
    min_box, max_box, _ = analysis._box_range(mask.grid.px_w, mask.grid.px_h,
                                              cfg.min_box, cfg.max_box)
    est = analysis.box_counting_dimension(mask, min_box, max_box)
    return {"slope": est.slope, "r_squared": est.r_squared,
            "min_box": min_box, "max_box": max_box,
            "scales_used": list(est.scales_used), "counts": list(est.counts)}


# Single-image commands. The lambdas look the renderers up when called, so
# a renderer rebound on this module (say, wrapped by a tracer) is the one
# that runs.
_RENDERERS = {
    "julia": lambda cfg: render_julia(cfg.grid, cfg.c, cfg.iter_params),
    "mandelbrot": lambda cfg: render_mandelbrot(cfg.grid, cfg.iter_params),
    "fmi-julia": lambda cfg: fmi_julia(cfg.grid, cfg.c, cfg.map, cfg.iter_params),
    "fmi-mandelbrot": lambda cfg: fmi_mandelbrot(cfg.grid, cfg.map, cfg.iter_params),
}


def _run_image(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    field = _RENDERERS[cfg.command](cfg)
    stats = {"bounded_count": field.bounded_count()}
    if cfg.map is not None:
        stats["invalid_count"] = int(field.invalid_mask().sum())
    return {".ppm": field}, stats, None

def _run_discrete_traj(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    pullback, pushforward = discrete_trajectory(cfg.c, cfg.map, cfg.k_max, cfg.grid,
                                                cfg.iter_params, cfg.supersample)
    frames, rows = {}, []
    for k, (pull, push) in enumerate(zip(pullback, pushforward)):
        frames[f"_k{k:03d}.ppm"], frames[f"_push_k{k:03d}.ppm"] = pull, push
        rows.append({"k": k, "pullback": Path(f"{cfg.output}_k{k:03d}.ppm").name,
                     "pushforward": Path(f"{cfg.output}_push_k{k:03d}.ppm").name,
                     "bounded_count": pull.bounded_count()})
    return frames, {}, rows

def _run_flow_traj(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    fields = trajectory_sweep(cfg.grid, cfg.c, cfg.flow, cfg.t_list, cfg.iter_params)
    frames, rows = {}, []
    for idx, (field, t) in enumerate(zip(fields, cfg.t_list)):
        frames[f"_{idx:03d}.ppm"] = field
        rows.append({"file": Path(f"{cfg.output}_{idx:03d}.ppm").name, "t": t,
                     "bounded_count": field.bounded_count()})
    return frames, {}, rows

def _run_dimension(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    field = render_julia(cfg.grid, cfg.c, cfg.iter_params)
    mask = extract_boundary(field) if cfg.boundary else field
    stats = {"bounded_count": mask.bounded_count(), "dimension": _box_dimension(cfg, mask)}
    return {".ppm": mask}, stats, None

def _run_verify_fmt(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    src = render_julia(cfg.grid, cfg.c, cfg.iter_params)
    fwd = forward_image(src, cfg.map, cfg.dst_grid, cfg.supersample)
    fmi = fmi_julia(cfg.dst_grid, cfg.c, cfg.map, cfg.iter_params)
    cmp = analysis.compare_masks(fwd, fmi)
    stats = {"bounded_count_forward": fwd.bounded_count(),
             "bounded_count_fmi": fmi.bounded_count(),
             "comparison": {"jaccard": cmp.jaccard, "hausdorff_px": cmp.hausdorff_px}}
    return {"_forward.ppm": fwd, "_fmi.ppm": fmi}, stats, None

def _run_zeno(cfg: SceneConfig) -> tuple[dict, dict, list | None]:
    diagram = analysis.zeno_states(cfg.d0, cfg.t1, cfg.n, cfg.i0)
    stats: dict = {"times": list(diagram.times), "heights": list(diagram.heights)}
    if cfg.n < 2:
        return {}, stats, None
    field = analysis.rasterize_zeno(diagram, cfg.px_w, cfg.px_h)
    stats["bounded_count"] = field.bounded_count()
    stats["dimension"] = _box_dimension(cfg, field)
    return {".ppm": field}, stats, None


# A runner writes nothing: it returns its frames keyed by output suffix, in
# write order, its sidecar stats, and a multi-frame command's manifest rows
# (None for the others). run_scene writes them all.
_RUNNERS = {
    **{command: _run_image for command in _RENDERERS},
    "discrete-traj": _run_discrete_traj,
    "flow-traj": _run_flow_traj,
    "dimension": _run_dimension,
    "verify-fmt": _run_verify_fmt,
    "zeno": _run_zeno,
}


def run_scene(cfg: SceneConfig, threads: int = 1) -> dict:
    """Execute a validated scene and write its frames, manifest and sidecar;
    returns the stats written to the sidecar; threads is deprecated and ignored."""
    _ignore_threads(threads)
    t0 = time.perf_counter()
    frames, stats, rows = _RUNNERS[cfg.command](cfg)
    palette = get_palette(cfg.palette)
    for suffix, field in frames.items():
        write_image(field, palette, _out_path(cfg, suffix))
    if rows is not None:
        with open(_out_path(cfg, "_manifest.json"), "w", encoding="utf-8") as fh:
            json.dump({"frames": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        stats.update(frames=len(rows), bounded_counts=[r["bounded_count"] for r in rows])
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
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_bytes(), args.override)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        run_scene(cfg)
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
