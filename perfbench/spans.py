"""In-memory spans around the calls into each fractaldyn layer.

``instrument`` replaces each layer's public functions, as bound in
``fractaldyn.cli``, ``.fmi``, ``.flows`` and ``.fji`` (plus the two methods
``GridSpec.points`` and ``PaletteRule.colorize``), with wrappers that record
a span per call, and puts the originals back on exit. Nothing in the
package itself changes.

A span records its name (``layer.function``), start and end times, the
span that was open when it started, and the id of the scene it belongs to.
Work counters are computed from a call's arguments and result after the
span has ended; the time that takes is charged to no layer (it is set
aside from the parent's self time) but still shows in the traced pass time.
"""

from __future__ import annotations

import inspect
import math
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import fractaldyn.analysis
import fractaldyn.cli
import fractaldyn.core
import fractaldyn.fji
import fractaldyn.flows
import fractaldyn.fmi
import fractaldyn.imaging
from fractaldyn.core import OrbitStatus
from fractaldyn.flows import NumericRK4


class Span:
    __slots__ = ("name", "start", "end", "parent", "scene", "aside", "counts")

    def __init__(self, name, parent, scene):
        self.name = name
        self.parent = parent
        self.scene = scene
        self.start = self.end = 0.0
        self.aside = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while a scene is open (``scene`` context)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._scene = None

    @contextmanager
    def scene(self, scene_id: str):
        self._scene = scene_id
        try:
            with self.span("cli.run_scene"):
                yield
        finally:
            self._scene = None

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else None, self._scene)
        self._stack.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            if self._scene is None:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counter is not None:
                t0 = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.counts = counter(bound.arguments, out)
                if rec.parent is not None:
                    rec.parent.aside += perf_counter() - t0
            return out
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's
        durations minus time set aside for counting."""
        out: dict[str, float] = {}
        for rec in self.spans:
            out[rec.name] = out.get(rec.name, 0.0) + rec.duration - rec.aside
            if rec.parent is not None:
                out[rec.parent.name] = out.get(rec.parent.name, 0.0) - rec.duration
        return out

    def rows(self) -> list[dict]:
        """The spans as JSON-ready records; ``parent`` is a record index."""
        ids = {id(rec): n for n, rec in enumerate(self.spans)}
        return [{"id": ids[id(rec)], "name": rec.name, "start": rec.start, "end": rec.end,
                 "parent": None if rec.parent is None else ids[id(rec.parent)],
                 "scene": rec.scene, "aside": rec.aside, "counts": rec.counts}
                for rec in self.spans]


# Work counters: (bound arguments, result) -> dict of counts.

def _classify_counts(a, out):
    status, iters, _ = out
    escaped = status == OrbitStatus.ESCAPED
    bounded = int(np.count_nonzero(status == OrbitStatus.BOUNDED))
    return {"cells": int(status.size), "bounded": bounded,
            "cell_iters": int(iters[escaped].sum(dtype=np.int64)) + a["params"].max_iter * bounded}


def _inverse_counts(a, out):
    return {"cells": int(np.size(out)), "invalid": int(np.size(out) - np.count_nonzero(np.isfinite(out)))}


def _flow_counts(a, out):
    flow, t = a["flow"], a["t"]
    steps = max(1, math.ceil(abs(t) / flow.dt)) if isinstance(flow, NumericRK4) and t != 0.0 else 0
    return {"cells": int(np.size(out)), "rk4_cell_steps": int(np.size(out)) * steps}


def _forward_counts(a, out):
    return {"samples": int(np.size(a["z"]))}


def _splat_counts(a, out):
    samples = a["src_field"].bounded_count() * a["supersample"] ** 2
    return {"samples": samples, "marks": out.bounded_count()}


def _compare_counts(a, out):
    valid = ~(a["a"].invalid_mask() | a["b"].invalid_mask())
    return {"points": int(np.count_nonzero(a["a"].bounded_mask() & valid)
                          + np.count_nonzero(a["b"].bounded_mask() & valid))}


def _write_counts(a, out):
    return {"bytes": os.path.getsize(a["path"])}


def _targets():
    """(owner, attribute, span name, counter) for every patched callable."""
    cli, fmi, flows, fji = (fractaldyn.cli, fractaldyn.fmi, fractaldyn.flows, fractaldyn.fji)
    analysis = cli.analysis
    return [
        (fji, "classify_grid", "fji.classify_grid", _classify_counts),
        (fmi, "classify_grid", "fji.classify_grid", _classify_counts),
        (flows, "classify_grid", "fji.classify_grid", _classify_counts),
        (cli, "render_julia", "fji.render_julia", None),
        (fmi, "render_julia", "fji.render_julia", None),
        (cli, "render_mandelbrot", "fji.render_mandelbrot", None),
        (cli, "extract_boundary", "fji.extract_boundary", None),
        (fmi, "eval_inverse", "maps.eval_inverse", _inverse_counts),
        (fmi, "eval_forward", "maps.eval_forward", _forward_counts),
        (flows, "flow_inverse", "flows.flow_inverse", _flow_counts),
        (flows, "fmi_flow_julia", "flows.fmi_flow_julia", None),
        (cli, "trajectory_sweep", "flows.trajectory_sweep", None),
        (cli, "fmi_julia", "fmi.fmi_julia", None),
        (cli, "fmi_mandelbrot", "fmi.fmi_mandelbrot", None),
        (cli, "discrete_trajectory", "fmi.discrete_trajectory", None),
        (cli, "forward_image", "fmi.forward_image", _splat_counts),
        (fmi, "forward_image", "fmi.forward_image", _splat_counts),
        (analysis, "compare_masks", "analysis.compare_masks", _compare_counts),
        (analysis, "box_counting_dimension", "analysis.box_counting_dimension", None),
        (analysis, "zeno_states", "analysis.zeno_states", None),
        (analysis, "rasterize_zeno", "analysis.rasterize_zeno", None),
        (cli, "get_palette", "imaging.get_palette", None),
        (cli, "write_image", "imaging.write_image", _write_counts),
        (cli, "write_metadata", "imaging.write_metadata", None),
        (fractaldyn.imaging.PaletteRule, "colorize", "imaging.colorize", None),
        (fractaldyn.core.GridSpec, "points", "core.points", None),
    ]


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Context manager that routes every layer call through ``tracer``."""
    return patched([(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))
                    for owner, attr, name, counter in _targets()])
