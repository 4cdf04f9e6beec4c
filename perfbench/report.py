"""Print every end-to-end and per-layer metric of the pvqc benchmark.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

For each workload this runs `run.py` twice in a row, untraced and traced,
and prints each metric by name with its unit, the failed-op ratio, the
wall-clock throughput and latency over all repetitions, the machine
block and the tracing overhead: the change in wall-clock ops/s from the
untraced run to the traced one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    fields = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines[:-1] if line.startswith(("machine ", "summary "))}
    return fields["machine"], fields["summary"], json.loads(lines[-1])


def print_metrics(title: str, record: dict) -> None:
    print(f"  {title}")
    for name, m in record["metrics"].items():
        print(f"    {name:40s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in args.workload or names:
        machine, summary, plain = run(workload, args.seed, args.seconds, 0)
        _, traced_summary, traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}")
        print("  machine " + json.dumps({k: v for k, v in machine.items()
                                         if k not in ("workload", "trace")}))
        for label, s, record in (("untraced", summary, plain),
                                 ("traced", traced_summary, traced)):
            print(f"  {label}: correct={record['correct']} attempted={record['attempted']} "
                  f"failed={record['failed']} failed_ratio={s['failed_ratio']:g}")
            wall = s["wall_clock"]
            print(f"    wall clock over all repetitions: ops_per_s={wall['ops_per_s']:.6g} "
                  f"latency_ms_p50={wall['latency_ms_p50']:.6g} "
                  f"latency_ms_p95={wall['latency_ms_p95']:.6g}")
            for failure in s["failures"]:
                print(f"    {failure}")
            all_correct &= record["correct"]
        print_metrics("end-to-end (untraced run)", plain)
        print_metrics("per-layer (traced run)", traced)
        base = summary["wall_clock"]["ops_per_s"]
        with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"  tracing overhead: ops_per_s {base:.6g} untraced, {with_trace:.6g} traced "
              f"({100 * (with_trace - base) / base:+.1f}%)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
