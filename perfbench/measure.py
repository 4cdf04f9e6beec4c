"""Closed-loop measurement of one workload, its end-to-end metrics and
the machine block printed with every result."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from spans import PER_LAYER, Tracer, raw_chain_rate
from workloads import WORKLOADS, CheckFailed, Samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"), ("latency_ms_p95", "ms"),
    ("prove_ms_p50", "ms"), ("prove_ms_p95", "ms"),
    ("verify_ms_p50", "ms"), ("verify_ms_p95", "ms"),
    ("setup_steps_per_s", "1/s"), ("reveal_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_OPS = 200          # so that at least ten latencies lie beyond p95
HARD_STOP_S = 150.0    # ends a run early on a very slow program
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_now = time.perf_counter


def import_seconds() -> float:
    """Time of `import pvqc` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import pvqc; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def build(name: str, seed: int, quick: bool, workdir: Path):
    """Generate the workload's inputs and warm it up with its first op,
    whose answer the measured loop checks again."""
    w = WORKLOADS[name](seed, quick, workdir)
    warm = Samples()
    with w.phases(warm), contextlib.suppress(CheckFailed):
        w.op(0, warm)
    return w


def set_up(name: str, seed: int, quick: bool, workdir: Path, reps: int):
    """Build the workload `reps` times; return the last build and the set-up
    time: median import time plus median build time."""
    imports, builds = [], []
    w = None
    for _ in range(reps):
        imports.append(import_seconds())
        if w is not None:
            w.close()
        start = _now()
        w = build(name, seed, quick, workdir)
        builds.append(_now() - start)
    return w, statistics.median(imports) + statistics.median(builds)


def loop(w, seconds: float, min_ops: int, tracer: Tracer | None):
    """Run ops back to back until `seconds` have passed, at least `min_ops`
    ops are done and the last pass is whole."""
    s = Samples()
    failures: list[str] = []
    op_span = tracer.op if tracer else lambda k: contextlib.nullcontext()
    with w.phases(s), (tracer.installed() if tracer else contextlib.nullcontext()):
        start = _now()
        k = 0
        while True:
            elapsed = _now() - start
            if elapsed >= HARD_STOP_S or (k % w.pass_size == 0 and k >= min_ops
                                          and elapsed >= seconds):
                break
            s.input = k % w.pass_size
            t0 = _now()
            n_problems = len(s.problems)
            try:
                with op_span(k):
                    w.op(k, s)
                if len(s.problems) > n_problems:
                    raise CheckFailed(s.problems[-1])
            except CheckFailed as exc:
                failures.append(f"op {k}: {exc}")
            except Exception:  # noqa: BLE001 -- an op that crashes is a failed op
                failures.append(f"op {k}: {traceback.format_exc()}")
            s.add("latency", _now() - t0)
            k += 1
        elapsed = _now() - start
    return s, k, elapsed, failures


def _best(samples: dict[int, list[float]]) -> list[float]:
    """Every sample replaced by the best (lowest) sample of its input."""
    return [best for xs in samples.values() for best in [min(xs)] * len(xs)]


def _percentiles(name: str, xs: list[float]) -> tuple[float, float]:
    """Median and p95 in ms; warns when fewer than ten samples reach p95."""
    ms = [x * 1e3 for x in xs]
    if len(ms) < 2:
        return (ms[0], ms[0]) if ms else (0.0, 0.0)
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18]
    beyond = sum(x >= p95 for x in ms)
    if beyond < 10:
        print(f"warning: {name}_p95 has {beyond} samples at or beyond it", file=sys.stderr)
    return statistics.median(ms), p95


def end_to_end(setup_s: float, s: Samples) -> dict[str, float]:
    """Every timing is the best repetition of the op's input in the run:
    on a shared core the same work takes up to twice as long while a
    neighbour is busy, and only the best repetition is steady from run
    to run."""
    latency = _best(s.latency)
    m = {"setup_s": setup_s, "ops_per_s": len(latency) / sum(latency)}
    for name, xs in (("latency_ms", latency), ("prove_ms", _best(s.prove)),
                     ("verify_ms", _best(s.verify))):
        m[f"{name}_p50"], m[f"{name}_p95"] = _percentiles(name, xs)
    for phase in ("setup", "reveal"):
        samples = getattr(s, phase)
        steps = sum(s.delta[i] * len(xs) for i, xs in samples.items())
        m[f"{phase}_steps_per_s"] = steps / sum(_best(samples))
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def wall_clock(s: Samples, ops: int, elapsed: float) -> dict[str, float]:
    """Throughput and latency over all repetitions, for the summary line."""
    p50, p95 = _percentiles("wall_latency_ms",
                            [x for xs in s.latency.values() for x in xs])
    return {"ops_per_s": ops / elapsed, "latency_ms_p50": p50, "latency_ms_p95": p95}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pvqc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l2_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return "unknown"


def machine_block(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "l2_cache": _l2_size(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 quick: bool = False) -> dict:
    """Set up, measure and check one workload.  Returns the machine block,
    the result record printed as the last line, and a summary."""
    machine = machine_block(name, seed, seconds, trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    reps = 1 if quick or trace else SETUP_REPS
    w, setup_s = set_up(name, seed, quick, out_dir / "work", reps)
    tracer = Tracer() if trace else None
    try:
        s, ops, elapsed, failures = loop(w, seconds, w.pass_size if quick else MIN_OPS,
                                         tracer)
    finally:
        w.close()
    if trace:
        metrics = tracer.metrics(ops, elapsed, raw_chain_rate(5_000 if quick else 50_000))
        units = dict(PER_LAYER)
        tracer.write(out_dir / f"trace-{name}-{seed}.json", machine)
    else:
        metrics = end_to_end(setup_s, s)
        units = dict(END_TO_END)
    record = {
        "correct": not failures, "attempted": ops, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    summary = {"ops": ops, "seconds": elapsed, "failed_ratio": len(failures) / ops,
               "wall_clock": wall_clock(s, ops, elapsed), "failures": failures[:5]}
    return {"machine": machine, "record": record, "summary": summary}
