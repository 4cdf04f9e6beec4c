"""Smoke test of the benchmark at a tiny size per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import measure  # noqa: E402  (needs the sources bootstrap() puts on sys.path)
import workloads  # noqa: E402
from pvqc import dvproof  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(out_dir: Path, workload: str, trace: bool) -> dict:
    return measure.run_workload(workload, seed=3, seconds=0, trace=trace,
                                out_dir=out_dir, quick=True)


def test_workload_lists_agree():
    assert NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_emitted(tmp_path, workload, trace):
    record = _run(tmp_path, workload, trace)["record"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in record["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    values = {name: m["value"] for name, m in record["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    # Self times of all spans of an op add up to the op's duration.
    shares = sum(v for name, v in values.items() if name.startswith("share."))
    assert shares == pytest.approx(100.0)
    spans = json.loads((tmp_path / f"trace-{workload}-3.json").read_text())
    assert (len(spans["spans"])
            == pytest.approx(values["trace.spans_per_op"] * record["attempted"]))


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_verdict_lands_in_failed_ratio(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(dvproof, "verify", lambda pk, sk, pi: False)
    out = _run(tmp_path, workload, False)
    assert out["summary"]["failed_ratio"] > 0
    assert out["record"]["failed"] > 0 and not out["record"]["correct"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
