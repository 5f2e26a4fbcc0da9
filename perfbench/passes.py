"""Passes over a workload's scenes, and the per-layer metrics of a traced pass.

Imported by ``run.py`` once the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import scenes
import spans
from fractaldyn import cli
from fractaldyn.config import validate_config
from fractaldyn.core import GridSpec
from fractaldyn.fji import IterParams, render_julia

CEILING_REPS = 15

# The reference block's numpy half: a few escape-time steps over a 512x512
# complex grid, with a bounded mask and a compaction, as the kernel does.
_REF_AXIS = np.linspace(-1.5, 1.5, 512)
_REF_GRID = _REF_AXIS[np.newaxis, :] + 1j * _REF_AXIS[:, np.newaxis]


def reference_s() -> float:
    """Wall time of one fixed reference block (60-80 ms on a 2 GHz Xeon).

    The block is numpy escape-time steps plus a pure-Python integer loop,
    the two kinds of work the scenes do. On a shared host, whose speed
    drifts, its time rises and falls with the scenes'. Timed between scenes,
    it lets a scene's time be stated in reference blocks, which cancels most
    of that drift.
    """
    t0 = time.perf_counter()
    for _ in range(4):
        z = _REF_GRID.copy()
        bounded = np.ones(z.shape, dtype=bool)
        for _ in range(6):
            z = z * z + (-0.7589 + 0.0735j)
            bounded &= z.real * z.real + z.imag * z.imag < 4.0
        z[bounded].sum()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return time.perf_counter() - t0


class Pass:
    """Outcome of one pass over the workload's scenes."""

    def __init__(self):
        self.scene_s: dict[str, float] = {}
        self.digests: dict[str, dict[str, list[str]]] = {}
        self.failed: set[str] = set()
        self.problems: list[str] = []
        self.agreement: list[tuple[float, float]] = []
        self.spot_cells = 0
        self.bilipschitz_s = 0.0
        # scene -> mean of the reference blocks timed just before and after it
        self.ref_s: dict[str, float] = {}

    @property
    def pass_s(self) -> float:
        return sum(self.scene_s.values())

    @property
    def pass_ref(self) -> float:
        """The pass's time in reference blocks, scene by scene."""
        return sum(t / self.ref_s[name] for name, t in self.scene_s.items())


class Runner:
    """Runs one workload's scenes, writing outputs under ``out_dir``."""

    def __init__(self, workload: str, root: Path, out_dir: Path, shrink: int):
        self.workload = workload
        self.root = root
        self.out_dir = out_dir
        self.shrink = shrink

    def configs(self, seed: int):
        raws = scenes.make_scenes(self.workload, seed, self.root, self.out_dir, self.shrink)
        return [(name, validate_config(raw)) for name, raw in raws]

    def run_pass(self, configs, tracer=None, check: bool = True) -> Pass:
        """Run every scene once through ``cli.run_scene``; with ``check``,
        check its outputs too. The digests of every written frame are
        recorded either way, and a reference block is timed before the first
        scene and after each one (``Pass.ref_s``)."""
        result = Pass()
        marks: list[float] = []
        frames: list = []
        write_image = cli.write_image

        @functools.wraps(write_image)
        def capture(field, palette, path):
            write_image(field, palette, path)
            frames.append((str(path), field))

        def bilipschitz(*args):
            t0 = time.perf_counter()
            try:
                return checks.estimate_bilipschitz(*args)
            finally:
                result.bilipschitz_s += time.perf_counter() - t0

        paired = {name for pair in scenes.FLOW_PAIRS for name in pair}
        kept: dict[str, checks.SceneCheck] = {}
        with spans.patched([(cli, "write_image", capture)]), \
                (spans.instrument(tracer) if tracer else nullcontext()):
            for name, cfg in configs:
                marks.append(reference_s())
                frames.clear()
                t0 = time.perf_counter()
                try:
                    with tracer.scene(name) if tracer else nullcontext():
                        stats = cli.run_scene(cfg, threads=1)
                except Exception as exc:  # a failing scene must not stop the run
                    result.scene_s[name] = time.perf_counter() - t0
                    result.failed.add(name)
                    result.problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
                    continue
                result.scene_s[name] = time.perf_counter() - t0
                scene = checks.SceneCheck(name, cfg, stats, list(frames))
                result.digests[name] = {
                    suffix: [checks.file_digest(cfg.output + suffix), checks.field_digest(field)]
                    for suffix, field in scene.frames.items()}
                if not check:
                    continue
                scene.run(bilipschitz)
                result.agreement += scene.agreement
                result.spot_cells += scene.spot_cells
                if scene.problems:
                    result.failed.add(name)
                    result.problems += scene.problems
                if name in paired:
                    kept[name] = scene
        marks.append(reference_s())
        result.ref_s = {name: (a + b) / 2 for (name, _), a, b in zip(configs, marks, marks[1:])}
        for a, b in scenes.FLOW_PAIRS:
            if a in kept and b in kept:
                problems = checks.check_flow_pair(a, kept[a], b, kept[b])
                if problems:
                    result.failed.add(b)
                    result.problems += problems
        return result

    def timed_passes(self, configs, seconds: float, trace: bool, min_rounds: int):
        """Timed passes (untraced, or untraced/traced pairs) until one more
        round would exceed ``seconds``. Only the first pass runs the output
        checks; the caller compares every later pass's digests with it."""
        untraced, traced = [], []
        t_begin = time.perf_counter()
        while True:
            untraced.append(self.run_pass(configs, check=not untraced))
            if trace:
                tracer = spans.Tracer()
                traced.append((self.run_pass(configs, tracer, check=False), tracer))
            rounds = len(untraced)
            elapsed = time.perf_counter() - t_begin
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                return untraced, traced


def differences(ref: dict, got: dict) -> int:
    """PPM and field digests that differ between two passes' digests,
    counting each missing frame as two."""
    changed = 0
    for name in set(ref) | set(got):
        a, b = ref.get(name, {}), got.get(name, {})
        for suffix in set(a) | set(b):
            if suffix not in a or suffix not in b:
                changed += 2
            else:
                changed += (a[suffix][0] != b[suffix][0]) + (a[suffix][1] != b[suffix][1])
    return changed


def layer_metrics(tracer, traced_s: float) -> dict[str, float]:
    """Per-layer self times, work counts and rates of one traced pass."""
    self_s = tracer.self_times()

    def total(name, key):
        return sum(rec.counts[key] for rec in tracer.spans if rec.name == name and rec.counts)

    def busy(name, key=None):
        return sum(rec.duration for rec in tracer.spans
                   if rec.name == name and (key is None or (rec.counts and rec.counts[key])))

    def ratio(a, b):
        return a / b if b else 0.0

    classify_s = self_s.get("fji.classify_grid", 0.0)
    cell_iters = total("fji.classify_grid", "cell_iters")
    rk4 = total("flows.flow_inverse", "rk4_cell_steps")
    splat = total("fmi.forward_image", "samples")
    covered = sum(v for k, v in self_s.items() if not k.startswith("cli."))
    return {
        "fji.classify_s": classify_s,
        "fji.cell_iters": cell_iters,
        "fji.mcell_it_per_s": ratio(cell_iters, classify_s) / 1e6,
        "fji.bounded_frac": ratio(total("fji.classify_grid", "bounded"),
                                  total("fji.classify_grid", "cells")),
        "fji.boundary_s": self_s.get("fji.extract_boundary", 0.0),
        "maps.inverse_s": self_s.get("maps.eval_inverse", 0.0),
        "maps.forward_s": self_s.get("maps.eval_forward", 0.0),
        "maps.forward_samples": total("maps.eval_forward", "samples"),
        "maps.invalid_frac": ratio(total("maps.eval_inverse", "invalid"),
                                   total("maps.eval_inverse", "cells")),
        "flows.inverse_s": self_s.get("flows.flow_inverse", 0.0),
        "flows.rk4_cell_steps": rk4,
        "flows.rk4_mcell_steps_per_s": ratio(rk4, busy("flows.flow_inverse", "rk4_cell_steps")) / 1e6,
        "fmi.forward_image_s": self_s.get("fmi.forward_image", 0.0),
        "fmi.splat_samples": splat,
        # per second of the whole splat, forward map evaluation included
        "fmi.msamples_per_s": ratio(splat, busy("fmi.forward_image")) / 1e6,
        "fmi.marks_per_sample": ratio(total("fmi.forward_image", "marks"), splat),
        "analysis.compare_s": self_s.get("analysis.compare_masks", 0.0),
        "analysis.compare_points": total("analysis.compare_masks", "points"),
        "analysis.boxcount_s": self_s.get("analysis.box_counting_dimension", 0.0),
        "imaging.colorize_s": self_s.get("imaging.colorize", 0.0),
        "imaging.write_s": self_s.get("imaging.write_image", 0.0),
        "imaging.ppm_bytes": total("imaging.write_image", "bytes"),
        "imaging.sidecar_s": self_s.get("imaging.write_metadata", 0.0),
        "core.points_s": self_s.get("core.points", 0.0),
        "cli.self_s": self_s.get("cli.run_scene", 0.0),
        "trace.coverage_frac": ratio(covered, traced_s),
    }


def kernel_ceiling(px: int) -> float:
    """Mcell-it/s of one bare numpy z*z+c pass over a px x px array."""
    axis = np.linspace(-1.5, 1.5, px)
    z = axis[np.newaxis, :] + 1j * axis[:, np.newaxis]
    c = -0.7589 + 0.0735j
    times = []
    for _ in range(CEILING_REPS):
        t0 = time.perf_counter()
        z * z + c
        times.append(time.perf_counter() - t0)
    return z.size / statistics.median(times) / 1e6


def speedup_2t(px: int) -> float:
    """Best-of-two wall time of one interior frame (the c = -1 window) at 1
    thread over that at 2 threads, capped at the usable CPUs."""
    grid = GridSpec(0j, 0.425, 0.425, px, px)
    params = IterParams(400, 2.0)
    threads = min(2, len(os.sched_getaffinity(0)))
    best: dict[int, float] = {}
    for n in (1, threads, 1, threads):
        t0 = time.perf_counter()
        render_julia(grid, -1.0 + 0j, params, n)
        best[n] = min(best.get(n, math.inf), time.perf_counter() - t0)
    return best[1] / best[threads]
