"""Tests of the benchmark itself: every metric is emitted with its unit, and
the output checks catch corrupted outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import fractaldyn.cli
from fractaldyn.config import validate_config
from fractaldyn.core import OrbitStatus
from fractaldyn.fji import IterParams, render_julia

import checks
import run

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    originals = dict(vars(fractaldyn.cli))
    assert run.main(["--workload", workload, "--smoke", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    fails = [line for line in captured.err.splitlines() if line.startswith("FAIL ")]
    if workload == "verify":
        # At 1/8 size the arccos leg's 64x64 destination is too coarse for
        # c03's Jaccard threshold; every other verify check must still pass.
        assert all(line.startswith("FAIL fmt_arccos: routes disagree") for line in fails)
        assert result["failed"] == len(fails)
    else:
        assert fails == [] and result["failed"] == 0 and result["correct"] is True
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    # every patched layer function is put back
    assert {k: v for k, v in vars(fractaldyn.cli).items() if k in originals} == originals


def _julia_scene(tmp_path):
    raw = {"command": "julia", "c": [-0.7589, 0.0735], "iter": {"max_iter": 150},
           "grid": {"center": [0, 0], "width": 3.2, "height": 3.2, "px_w": 96, "px_h": 96},
           "output": str(tmp_path / "julia")}
    cfg = validate_config(raw)
    return cfg, render_julia(cfg.grid, cfg.c, cfg.iter_params)


def _problems(cfg, field):
    return checks.SceneCheck("julia", cfg, {}, [(cfg.output + ".ppm", field)]).run().problems


def test_spot_check_passes_a_true_render(tmp_path):
    cfg, field = _julia_scene(tmp_path)
    assert _problems(cfg, field) == []


@pytest.mark.parametrize("corrupt", ["escape_index", "status"])
def test_spot_check_catches_a_corrupted_copy(tmp_path, corrupt):
    cfg, field = _julia_scene(tmp_path)
    bad = copy.deepcopy(field)
    escaped = bad.status == OrbitStatus.ESCAPED
    if corrupt == "escape_index":
        bad.escape_iter[escaped] += 1
    else:
        bad.status[bad.status == OrbitStatus.BOUNDED] = OrbitStatus.ESCAPED
    assert _problems(cfg, bad)
    assert checks.field_digest(bad) != checks.field_digest(field)
    assert _problems(cfg, field) == []
