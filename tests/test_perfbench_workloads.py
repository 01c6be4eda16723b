"""Each benchmark workload's smoke config must pass the benchmark's output checks.

``perfbench/workloads.py`` generates the benchmark's scenario configs and
checks their outputs (verdicts, kernel sizes, the keys each artifact carries).
Here each smoke config runs in-process through ``cli.run_scenario``, so a lost
output key or a changed verdict fails this suite, not only the benchmark's own
tests.  The module is loaded by path, as ``test_perfbench_names.py`` loads the
tracer, and nothing in it is changed.
"""

import importlib.util
from pathlib import Path

import pytest

from harmonicflow.cli import OUTPUT_ROOT_ENV, run_scenario

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_workload_passes_its_output_checks(name, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    sections = workloads.scenario_sections(name, seed=3, smoke=True)
    config = tmp_path / f"{name}.cfg"
    config.write_text(workloads.config_text(sections))
    out = tmp_path / "out"
    assert run_scenario(str(config), out_override=str(out)) == 0
    assert workloads.check_outputs(name, sections, str(out)) == []
