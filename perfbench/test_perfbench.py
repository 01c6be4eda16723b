"""Tests of the benchmark itself, on tiny inputs (``--smoke``), so the plain
and traced paths stay runnable without a full pass.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        # self times plus the unattributed remainder make up the traced wall
        assert 0.0 <= result["metrics"]["trace.unattributed_s"]["value"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "torus_neighbourhood", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_that_dies_is_an_error_and_is_waited_for():
    import run

    runner = run.Runner("torus_neighbourhood", 1, 5.0, smoke=True)
    try:
        with open(runner.request) as fh:
            req = json.load(fh)
        req["workload"] = "no_such_workload"  # the worker's output check raises
        with open(runner.request, "w") as fh:
            json.dump(req, fh)
        with pytest.raises(RuntimeError, match="worker ended"):
            runner.ask("plain")
    finally:
        runner.close()
    assert runner.worker.poll() is not None
    assert not os.path.exists(runner.dir)


def test_summarize_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    table = tracing.summarize(spans)
    assert table["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert table["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert table["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_install_wraps_at_lookup_sites_and_restores():
    import harmonicflow.cli as cli
    import harmonicflow.fields as fields
    import harmonicflow.flow as flow
    from harmonicflow import MapField, UnitSphere, build_icosphere, energy

    runner = cli.ANALYSIS_RUNNERS["flow"]
    init = MapField.__init__
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert flow.energy is not energy and cli.ANALYSIS_RUNNERS["flow"] is not runner
        f = fields.identity_sphere_map(build_icosphere(1), UnitSphere(3))
        flow.energy(f)
    finally:
        restore()
    assert flow.energy is energy and cli.ANALYSIS_RUNNERS["flow"] is runner
    assert MapField.__init__ is init
    table = tracing.summarize(tracer.spans)
    assert table["energy.energy"]["calls"] == 1
    assert table["fields.MapField"]["calls"] == 1
    assert table["fields.identity_sphere_map"]["calls"] == 1
    assert all(0.0 <= row["self_s"] <= row["s"] for row in table.values())
