"""Smoke tests for the benchmark itself, at the tiny size.

Each workload runs untraced and traced; the tests check that the result
line carries exactly the metrics BENCHMARK.json names, with their units,
that every output check passed, and that the traced run's layer counts
are nonzero where perfbench/layer_map.json says a layer is used and zero
where it says the layer is bypassed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["groups"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def outcome(request):
    workload, trace = request.param
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-s7-t{trace}.json").read_text())
    return workload, trace, result, report


def test_result_line_names_every_metric_with_its_unit(outcome):
    workload, trace, result, _ = outcome
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_output_checks_pass(outcome):
    _, _, result, report = outcome
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert report["digests"]
    assert report["named"]["error_rate"] == 0


def test_layers_are_used_or_bypassed_as_mapped(outcome):
    workload, trace, result, report = outcome
    if not trace:
        return
    values = {name: v["value"] for name, v in result["metrics"].items()}
    for group in LAYERS:
        if workload in group["bypassed_by"]:
            assert all(values[m] == 0 for m in group["metrics"]), group["metrics"]
        if workload in group["used_by"]:
            assert all(values[m] > 0 for m in group["witness"]), group["witness"]
    for name in report["named"]:
        assert f"e2e.{name}" in values


def test_layer_map_covers_each_per_layer_metric_once():
    mapped = [m for g in LAYERS for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    for g in LAYERS:
        assert set(g["used_by"]) | set(g["bypassed_by"]) == set(WORKLOADS)
        assert set(g["witness"]) <= set(g["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
