"""The benchmark's processes: a set-up sample, or a server of passes.

    python3 perfbench/worker.py setup <request.json>
    python3 perfbench/worker.py serve <request.json>

The request names the workload, the generated config and a working
directory.

``setup`` times import, parse_config, build_source, build_target and the
initial map in this fresh process, prints the result as one JSON line and
exits.

``serve`` reads one command a line from standard input and answers each with
one JSON line, until standard input ends.  ``warmup``, ``plain`` and
``traced`` run one checked ``harmonicflow.cli.run_scenario`` call; the
answer to ``warmup`` carries the process's peak resident memory after it.
``floor`` measures the bare stiffness matvec (the floor of one flow step)
and the cost of one span.  Whatever the package prints goes to standard
error, so standard output carries only the answers.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import harmonicflow.cli as cli  # noqa: E402
from harmonicflow.config import (  # noqa: E402
    mesh_spec_from_config,
    parse_config,
    target_spec_from_config,
)
from harmonicflow.meshes import build_source  # noqa: E402
from harmonicflow.targets import build_target  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MATVEC_BATCHES = 7
MATVEC_BATCH_S = 0.03


def set_up(config: str):
    """What a scenario builds before its analyses: config, mesh, target, map."""
    scn = parse_config(config)
    mesh = build_source(mesh_spec_from_config(scn.mesh))
    target = build_target(target_spec_from_config(scn.target))
    return mesh, cli._build_initial_map(scn, mesh, target)


def matvec_us(mesh, values) -> float:
    """Median over batches of one bare ``K @ f`` at the map's (V, n) shape."""
    K = mesh.stiffness
    reps = 1
    while True:  # size a batch to about MATVEC_BATCH_S
        t = time.perf_counter()
        for _ in range(reps):
            K @ values
        if time.perf_counter() - t >= MATVEC_BATCH_S:
            break
        reps *= 2
    batches = []
    for _ in range(MATVEC_BATCHES):
        t = time.perf_counter()
        for _ in range(reps):
            K @ values
        batches.append((time.perf_counter() - t) / reps)
    return statistics.median(batches) * 1e6


def checkpoint_bytes(out_dir: str) -> int:
    """Bytes of the files save_checkpoint and export_trace wrote, from their sizes."""
    total = 0
    for name in os.listdir(out_dir):
        if name == "trace.csv" or name == "final_map.json" or name.startswith("checkpoint_"):
            total += os.path.getsize(os.path.join(out_dir, name))
    return total


def flow_counters(spans: list[list], out_dir: str) -> dict:
    """Accepted steps (from flow_summary.json) and candidate steps: run_flow
    evaluates the energy once for the initial map and once per candidate."""
    accepted = 0
    summary = os.path.join(out_dir, "flow_summary.json")
    if os.path.isfile(summary):
        with open(summary) as fh:
            accepted = json.load(fh)["accepted_steps"]
    flows = {i for i, span in enumerate(spans) if span[0] == "flow.run_flow"}
    energies = sum(1 for span in spans if span[0] == "energy.energy" and span[3] in flows)
    return {"accepted_steps": accepted, "candidates": energies - len(flows)}


def environment() -> dict:
    """Library versions and the BLAS numpy was built against."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def scenario_pass(req: dict, tag: str, traced: bool) -> dict:
    """One checked ``run_scenario`` call; a traced one also keeps its spans."""
    out = os.path.join(req["dir"], tag)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if traced else None
    t = time.perf_counter()
    try:
        rc = cli.run_scenario(req["config"], out_override=out)
        wall = time.perf_counter() - t
    finally:
        if restore:
            restore()  # the output checks below are not traced
    result = {"tag": tag, "wall_s": wall}
    result["misses"] = (
        workloads.check_outputs(req["workload"], req["sections"], out) if rc == 0
        else [f"run_scenario exit code {rc}"]
    )
    if traced:
        result["layers"] = tracing.summarize(tracer.spans)
        result["span_count"] = len(tracer.spans)
        result["flow"] = flow_counters(tracer.spans, out)
        result["checkpoint_bytes"] = checkpoint_bytes(out)
        result["spans"] = os.path.join(req["dir"], f"{tag}.spans.json")
        with open(result["spans"], "w") as fh:
            json.dump(tracer.spans, fh)
    shutil.rmtree(out, ignore_errors=True)
    return result


def serve(req: dict, answers) -> None:
    for count, line in enumerate(sys.stdin):
        command = line.strip()
        if command == "floor":
            mesh, f0 = set_up(req["config"])
            answer = {"matvec_us": matvec_us(mesh, f0.values),
                      "span_cost_us": tracing.span_cost_us()}
        else:
            answer = scenario_pass(req, f"{command}-{count}", traced=command == "traced")
            answer["mode"] = command
            if command == "warmup":
                answer["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        answers.write(json.dumps(answer) + "\n")
        answers.flush()


def main(mode: str, request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    answers = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    if mode == "setup":
        mesh, _ = set_up(req["config"])
        answers.write(json.dumps({"setup_s": time.perf_counter() - T_START,
                                  "vertex_count": mesh.vertex_count,
                                  "env": environment()}) + "\n")
    else:
        serve(req, answers)
    answers.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
