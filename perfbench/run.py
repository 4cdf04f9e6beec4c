"""Run one workload of the pvqc benchmark and print its result.

    python3 perfbench/run.py --workload corpus-pipeline --seed 1 --seconds 20 --trace 0

pvqc is imported from `src/` of the checkout this file sits in.  The
output starts with a `machine {...}` line and a `summary {...}` line; the
last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics of
an untraced run; `--trace 1` reports the per-layer metrics of a traced
run and writes its spans to `.perfbench-out/trace-<workload>-<seed>.json`.
Exit code 0 means every op was correct, 1 that some op failed, 2 that
the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("corpus-pipeline", "soundness-mix", "cli-session")


def bootstrap() -> None:
    """Pin BLAS to one thread and import pvqc from this checkout's src/."""
    if not (SRC / "pvqc" / "__init__.py").is_file():
        raise ImportError(f"no pvqc sources under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pvqc
    if SRC.resolve() not in Path(pvqc.__file__).resolve().parents:
        raise ImportError(f"pvqc was imported from {pvqc.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from measure import run_workload

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print("machine " + json.dumps(out["machine"]))
    print("summary " + json.dumps(out["summary"]))
    for failure in out["summary"]["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(out["record"]), flush=True)
    return 0 if out["record"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
