"""Set-up probe: import the package as the ``fractaldyn`` command does, then
generate and validate one workload's scene configs. Prints one JSON line
with the import and validation times and the monotonic clock reading when
all configs are valid, so the caller can time set-up from process start.

    python3 perfbench/probe.py --workload plates --seed 0
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shrink", type=int, default=1)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.monotonic()
    import fractaldyn.cli  # noqa: F401  (what the command-line entry point loads)
    from fractaldyn.config import validate_config
    t1 = time.monotonic()
    import scenes
    raws = scenes.make_scenes(args.workload, args.seed, ROOT, ROOT / ".bench_out" / "probe",
                              args.shrink)
    t2 = time.monotonic()
    for _, raw in raws:
        validate_config(raw)
    t3 = time.monotonic()
    print(json.dumps({"import_s": t1 - t0, "validate_s": t3 - t2, "done": t3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
