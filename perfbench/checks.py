"""Independent checks of one scene's outputs, and output digests.

A scene's outputs are the RasterFields it hands to ``write_image`` (one per
PPM) plus the stats ``run_scene`` returns. The checks here recompute what
they can by a second route:

* spot checks: on a fixed sample of cells per pullback frame, the scalar
  reference ``classify_orbit`` run on the seed pulled back through the
  scalar ``eval_inverse``/``flow_inverse`` must give the frame's status and
  escape index;
* route agreement: Jaccard index and Hausdorff distance between the
  push-forward and pullback masks, recomputed with an exact Euclidean
  distance transform, must meet the c03 acceptance thresholds and equal the
  scene's own figures; the closed-form and RK4 flow frames must agree too;
* box counts and pursuit-diagram heights recomputed from their definitions.
"""

from __future__ import annotations

import hashlib
import math
import re
import zlib

import numpy as np
from scipy.ndimage import distance_transform_edt

from fractaldyn.core import DomainError, OrbitStatus
from fractaldyn.fji import classify_orbit
from fractaldyn.flows import flow_inverse
from fractaldyn.maps import Affine, estimate_bilipschitz, eval_inverse

# c03's thresholds for pullback vs push-forward.
JACCARD_MIN = 0.95
HAUSDORFF_MAX_PX = 2.0
# Closed-form flow vs RK4 at dt = 0.01: the pullbacks differ by about 1e-8,
# far below a pixel, yet a few dozen cells whose orbits escape late in the
# budget flip either way. On a thin set one flipped isolated cell moves the
# Hausdorff distance by several pixels, so only the Jaccard index is gated.
FLOW_JACCARD_MIN = 0.99
BILIPSCHITZ_PAIRS = 20000

SPOT_UNIFORM = 96
SPOT_BOUNDED = 32


def field_digest(field) -> str:
    h = hashlib.sha256()
    for arr in (field.status, field.escape_iter, field.last_magnitude):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _seed_rule(cfg, suffix: str):
    """How the frame written as ``<output><suffix>`` was seeded, as
    ``(rule, bounded_only)``; rule(z) returns (z0, c) for classify_orbit and
    raises DomainError where the pullback is undefined. None when the frame
    is not a pullback classification."""
    cmd = cfg.command
    if cmd == "julia" and suffix == ".ppm":
        return (lambda z: (z, cfg.c)), False
    if cmd == "mandelbrot" and suffix == ".ppm":
        return (lambda z: (0j, z)), False
    if cmd == "fmi-julia" and suffix == ".ppm":
        return (lambda z: (eval_inverse(cfg.map, z), cfg.c)), False
    if cmd == "fmi-mandelbrot" and suffix == ".ppm":
        return (lambda z: (0j, eval_inverse(cfg.map, z))), False
    if cmd == "verify-fmt" and suffix == "_fmi.ppm":
        return (lambda z: (eval_inverse(cfg.map, z), cfg.c)), False
    if cmd == "dimension" and suffix == ".ppm":
        # A boundary mask keeps only Bounded cells that touch the outside,
        # so only its Bounded cells have a verdict to compare.
        return (lambda z: (z, cfg.c)), cfg.boundary
    m = re.fullmatch(r"_k(\d{3})\.ppm", suffix)
    if cmd == "discrete-traj" and m:
        k = int(m.group(1))

        def pulled(z):
            for _ in range(k):
                z = eval_inverse(cfg.map, z)
            return z, cfg.c
        return pulled, False
    m = re.fullmatch(r"_(\d{3})\.ppm", suffix)
    if cmd == "flow-traj" and m:
        t = cfg.t_list[int(m.group(1))]
        return (lambda z: (flow_inverse(cfg.flow, z, t), cfg.c)), False
    return None


def spot_check(field, rule, params, label: str, bounded_only: bool = False) -> tuple[int, int]:
    """(cells sampled, cells where the scalar reference disagrees with the
    field). The sample depends only on ``label`` and the field's Bounded
    cells, so a frame is always checked on the same cells."""
    grid = field.grid
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    n = grid.px_w * grid.px_h
    bounded = np.flatnonzero(field.status.reshape(-1) == OrbitStatus.BOUNDED)
    picks = [] if bounded_only else [rng.integers(0, n, SPOT_UNIFORM)]
    if bounded.size:
        picks.append(rng.choice(bounded, min(SPOT_BOUNDED, bounded.size), replace=False))
    if not picks:
        return 0, 0
    cells = np.unique(np.concatenate(picks))
    mismatches = 0
    for flat in cells:
        j, i = divmod(int(flat), grid.px_w)
        try:
            z0, c = rule(grid.point_of(i, j))
            ref = classify_orbit(z0, c, params)
        except DomainError:
            ref_status, ref_iter = OrbitStatus.INVALID, None
        else:
            ref_status, ref_iter = ref.status, ref.escape_iter
        got = field.cell(i, j)
        if got.status != ref_status or got.escape_iter != ref_iter:
            mismatches += 1
    return int(cells.size), mismatches


def mask_agreement(a, b) -> tuple[float, float]:
    """(Jaccard, Hausdorff px) of the Bounded masks, Invalid cells of either
    field excluded, by exact Euclidean distance transform. An empty mask
    gives Jaccard 0 and the grid's diagonal in pixels, a finite stand-in for
    an unbounded distance."""
    valid = ~(a.invalid_mask() | b.invalid_mask())
    ma = a.bounded_mask() & valid
    mb = b.bounded_mask() & valid
    if not ma.any() or not mb.any():
        return 0.0, math.hypot(*ma.shape)
    jaccard = int((ma & mb).sum()) / int((ma | mb).sum())
    to_b = distance_transform_edt(~mb)
    to_a = distance_transform_edt(~ma)
    return jaccard, float(max(to_b[ma].max(), to_a[mb].max()))


def _box_counts(mask: np.ndarray, sizes) -> list[int]:
    counts = []
    h, w = mask.shape
    for s in sizes:
        padded = np.zeros((-(-h // s) * s, -(-w // s) * s), dtype=bool)
        padded[:h, :w] = mask
        counts.append(int(padded.reshape(padded.shape[0] // s, s, -1, s).any(axis=(1, 3)).sum()))
    return counts


class SceneCheck:
    """Checks one scene run; ``problems`` lists what failed."""

    def __init__(self, name: str, cfg, stats: dict, frames: list):
        self.name = name
        self.cfg = cfg
        self.stats = stats
        self.frames = {path[len(cfg.output):]: field for path, field in frames}
        self.problems: list[str] = []
        self.spot_cells = 0
        self.agreement: list[tuple[float, float]] = []

    def fail(self, what: str) -> None:
        self.problems.append(f"{self.name}: {what}")

    def run(self, bilipschitz=estimate_bilipschitz) -> "SceneCheck":
        cfg = self.cfg
        if not self.frames and cfg.command != "zeno":
            self.fail("no frames were written")
        for suffix, field in sorted(self.frames.items()):
            found = _seed_rule(cfg, suffix)
            if found is None:
                continue
            rule, bounded_only = found
            cells, bad = spot_check(field, rule, cfg.iter_params, f"{self.name}{suffix}",
                                    bounded_only)
            self.spot_cells += cells
            if bad:
                self.fail(f"{bad} spot-check mismatches in {suffix}")
        if cfg.command == "verify-fmt":
            self._check_routes(self.frames.get("_forward.ppm"), self.frames.get("_fmi.ppm"),
                               self.stats.get("comparison"))
            if not isinstance(cfg.map, Affine):
                l1, _ = bilipschitz(cfg.map, cfg.grid, BILIPSCHITZ_PAIRS)
                if not l1 > 0:
                    self.fail(f"sampled lower stretch bound {l1} is not positive")
        if cfg.command == "dimension":
            self._check_boxes(self.frames.get(".ppm"))
        if cfg.command == "zeno":
            self._check_zeno()
        return self

    def _check_routes(self, fwd, pull, reported) -> None:
        if fwd is None or pull is None:
            self.fail("missing forward or pullback frame")
            return
        jac, haus = mask_agreement(fwd, pull)
        self.agreement.append((jac, haus))
        if not (jac >= JACCARD_MIN and haus <= HAUSDORFF_MAX_PX):
            self.fail(f"routes disagree: J={jac:.4f} H={haus:.2f}px")
        if reported is not None and not (
                reported["jaccard"] == jac and abs(reported["hausdorff_px"] - haus) <= 1e-9):
            self.fail(f"reported comparison {reported} differs from J={jac} H={haus}")

    def _check_boxes(self, mask) -> None:
        dim = self.stats.get("dimension")
        if mask is None or dim is None:
            self.fail("missing dimension mask or estimate")
            return
        if _box_counts(mask.bounded_mask(), dim["scales_used"]) != list(dim["counts"]):
            self.fail("box counts differ from a recount")

    def _check_zeno(self) -> None:
        cfg = self.cfg
        idx = range(cfg.i0, cfg.i0 + cfg.n)
        if (list(self.stats.get("times", ())) != [cfg.t1 * (2.0 - 2.0 ** (1 - i)) for i in idx]
                or list(self.stats.get("heights", ())) != [cfg.d0 * 2.0 ** (-i) for i in idx]):
            self.fail("pursuit moments or heights differ from the closed form")


def check_flow_pair(name_a: str, a: SceneCheck, name_b: str, b: SceneCheck) -> list[str]:
    """The closed-form and RK4 legs must give agreeing flow frames."""
    problems = []
    for suffix, fa in sorted(a.frames.items()):
        fb = b.frames.get(suffix)
        if fb is None:
            problems.append(f"{name_b}: missing frame {suffix}")
            continue
        jac, _ = mask_agreement(fa, fb)
        if not jac >= FLOW_JACCARD_MIN:
            problems.append(f"{name_a} vs {name_b}{suffix}: J={jac:.4f}")
    return problems

