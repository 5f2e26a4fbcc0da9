"""fractaldyn benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload plates|interior|verify \
        [--seed N] [--seconds S] [--trace 0|1]

Scenes are generated configs (see ``scenes.py``) driven the way the
``fractaldyn run`` command drives them: ``config.validate_config`` then
``cli.run_scene(cfg, threads=1)``, in this one process.

A run, in order:

1. set-up: three fresh interpreters (``probe.py``) each import the package
   and validate the workload's configs; ``setup_s`` is the median time from
   process start to all configs valid;
2. one untimed warm-up pass over the default-seed inputs, whose output
   digests are compared with ``reference_digests.json`` (``digests_changed``);
3. timed passes over the seed's inputs until ``--seconds`` is used up (at
   least three, or one round with ``--trace 1``). Every pass times a fixed
   reference block (``passes.reference_s``, 60-80 ms) before the first
   scene and after each one, and each scene's wall time is divided by the
   mean of the two blocks around it. That ratio is the scene's time in
   reference blocks: on a shared host, whose speed drifts by 20% or more
   over seconds to minutes, it holds steady where the wall time does not. ``pass_ref`` is the sum over scenes of each
   scene's median ratio; ``scene_ref.p50``/``.p90`` are deciles of those
   medians. With ``--trace 1`` every round is an untraced/traced pass pair,
   and the traced passes give the per-layer metrics (``spans.py``), beside
   the untraced passes' plain wall time (``wall.pass_s``) and the reference
   block's median time (``host.ref_s``); ``trace.overhead_frac`` compares
   traced and untraced passes in reference blocks. Spans are written to
   ``.bench_out/trace_<workload>_seed<N>.json`` at the end.

The outputs of the warm-up pass and of the first timed pass are checked
scene by scene (``checks.py``), outside the timed region; every later pass
must reproduce the first timed pass's output digests exactly, the traced
passes included. A scene run fails if it raises, fails a check or writes
different bytes.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (scene runs), and ``metrics`` -- the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``. The line before it describes the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"

SETUP_PROBES = 3
MIN_PASSES = 3
SMOKE_SHRINK = 8


def _run_probe(workload: str, seed: int, shrink: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload,
         "--seed", str(seed), "--shrink", str(shrink)],
        capture_output=True, text=True, timeout=120, check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["done"] - start
    return rec


def _quantile(values, q: int) -> float:
    """q-th decile, interpolated over the values (inclusive method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _units() -> dict[str, str]:
    """Unit of every metric, as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared[kind]}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "fractaldyn").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("plates", "interior", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny run for tests: pixel counts divided by {SMOKE_SHRINK}, "
                             "one set-up probe, one timed pass")
    args = parser.parse_args(argv)

    if not (SRC / "fractaldyn" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    shrink = SMOKE_SHRINK if args.smoke else 1
    # Turn a termination request into an exit, so that a running probe is
    # stopped and the outputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    probes = [_run_probe(args.workload, args.seed, shrink)
              for _ in range(1 if args.smoke else SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import fractaldyn
    if Path(fractaldyn.__file__).resolve().parent != (SRC / "fractaldyn").resolve():
        print(f"benchmark: imported fractaldyn from {fractaldyn.__file__}", file=sys.stderr)
        return 2
    import passes
    import scenes

    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = passes.Runner(args.workload, ROOT, out_dir, shrink)
        default_cfgs = runner.configs(scenes.DEFAULT_SEED)
        seed_cfgs = runner.configs(args.seed)

        warm = runner.run_pass(default_cfgs)
        # Read here, the peak covers one pass in the default scene order, so
        # it does not depend on how the seed permutes the scenes.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = None if args.smoke else json.loads(
            REFERENCE.read_text(encoding="utf-8"))[args.workload]
        digests_changed = passes.differences(ref, warm.digests) if ref else 0

        untraced, traced = runner.timed_passes(seed_cfgs, args.seconds, bool(args.trace),
                                               1 if args.smoke or args.trace else MIN_PASSES)
        every = [warm] + untraced + [p for p, _ in traced]

        first = untraced[0]
        if args.seed == scenes.DEFAULT_SEED and passes.differences(warm.digests, first.digests):
            first.failed.add("warm-up")
            first.problems.append("timed pass output differs from the warm-up pass")
        nondeterministic = 0
        for p in every[2:]:
            for name in set(first.digests) | set(p.digests):
                if first.digests.get(name) != p.digests.get(name):
                    p.failed.add(name)
                    p.problems.append(f"{name}: output differs from the first timed pass")
                    nondeterministic += 1

        attempted = sum(len(p.scene_s) for p in every)
        failed = sum(len(p.failed) for p in every)
        for p in every:
            for line in p.problems:
                print(f"FAIL {line}", file=sys.stderr)
        agreement = [a for p in every for a in p.agreement]
        checks_summary = {
            "fail_frac": failed / attempted,
            "digests_changed": digests_changed,
            "jaccard_min": min((j for j, _ in agreement), default=1.0),
            "hausdorff_px_max": max((h for _, h in agreement), default=0.0),
        }

        # Scene by scene medians over the timed passes: a stall that hits
        # one scene in one pass does not move the result.
        scene_ref = {name: statistics.median(p.scene_s[name] / p.ref_s[name] for p in untraced)
                     for name, _ in seed_cfgs}
        wall_pass_s = sum(statistics.median(p.scene_s[name] for p in untraced)
                          for name, _ in seed_cfgs)
        ref_s = statistics.median(r for p in untraced for r in p.ref_s.values())
        if args.trace:
            per_pass = [passes.layer_metrics(t, p.pass_s) for p, t in traced]
            metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
            px = max(16, 512 // shrink)
            ceiling = passes.kernel_ceiling(px)
            metrics.update({
                "wall.pass_s": wall_pass_s,
                "host.ref_s": ref_s,
                "fji.ceiling_mcell_it_per_s": ceiling,
                "fji.ceiling_frac": metrics["fji.mcell_it_per_s"] / ceiling,
                "fji.speedup_2t": passes.speedup_2t(px),
                "maps.bilipschitz_s": first.bilipschitz_s,
                "setup.import_s": statistics.median(r["import_s"] for r in probes),
                "config.validate_s": statistics.median(r["validate_s"] for r in probes),
                "trace.overhead_frac": (statistics.median(p.pass_ref for p, _ in traced)
                                        / statistics.median(p.pass_ref for p in untraced) - 1.0),
                **checks_summary,
            })
        else:
            per_scene = sorted(scene_ref.values())
            metrics = {
                "pass_ref": sum(per_scene),
                "scene_ref.p50": _quantile(per_scene, 5),
                "scene_ref.p90": _quantile(per_scene, 9),
                "setup_s": statistics.median(r["setup_s"] for r in probes),
                "peak_rss_mb": peak_rss_mb,
            }

        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "timed_passes": len(untraced), "traced_passes": len(traced),
            "scenes": len(seed_cfgs), "scene_ref": scene_ref,
            "wall_pass_s": wall_pass_s, "ref_s": ref_s,
            "spot_checked_cells": sum(p.spot_cells for p in every),
            "nondeterministic_outputs": nondeterministic,
            "reference_digests": ref is not None, **checks_summary,
            "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "platform": platform.platform()},
            "src_lines": _src_lines(),
        }
        if args.trace:
            trace_path = out_root / f"trace_{args.workload}_seed{args.seed}.json"
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"info": info, "passes": [t.rows() for _, t in traced]}, fh)
                fh.write("\n")
        units = _units()
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
