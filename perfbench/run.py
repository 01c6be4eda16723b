"""harmonicflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's scenario config is generated
from ``--seed`` (see ``workloads.py``) and driven through the public entry
point ``harmonicflow.cli.run_scenario``.  Set-up is timed in
``SETUP_SAMPLES`` fresh processes.  Then one client runs passes back to back
(a closed loop) in one worker process (``worker.py``): a warm-up pass, then
timed passes, each started when the previous one has ended and its outputs
are checked, until the next would end after ``--seconds`` from the start of
the run (at least one).

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics of the
traced pass with the median wall time; the tracing overhead is its wall time
minus the median plain wall time.  Human-readable lines come first; the
last line of standard output is the JSON result.  Spans and details are
written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

# BLAS threads for every pass: one, which is within nproc on any machine and
# keeps timings steady when other processes share the cores.
BLAS_THREADS = 1
SETUP_SAMPLES = 5     # fresh set-up processes per run
RUN_DEADLINE_S = 170  # a run, passes included, ends within this

# per-layer metrics: span names reported as call count and self seconds ...
COUNTED = [
    "energy.energy",
    "energy.tension",
    "energy.hessian_matrix",
    "energy.hessian_spectrum",
    "targets.project_to_target",
    "targets.tangent_projector",
    "targets.ambient_hessian_of_projection",
    "fields.MapField",
    "fields.random_tangent_field",
    "meshes.sobolev_norm",
    "meshes.l2_norm",
    "charts.chart_push",
    "charts.chart_pull",
    "lojasiewicz.gradient_dual_norm",
    "checkpoint.save_checkpoint",
]
# ... and span names reported as total (inclusive) seconds
TIMED = [
    "flow.run_flow",
    "meshes.build_source",
    "lojasiewicz.fit_exponent",
    "lojasiewicz.convergence_classifier",
    "lojasiewicz.sample_neighborhood",
    "lojasiewicz.verify_inequality",
    "lojasiewicz.morse_bott_report",
    "checkpoint.export_trace",
    "config.parse_config",
    "cli.flow",
    "cli.loja-fit",
    "cli.verify",
    "cli.hessian-spec",
    "cli.chart-audit",
]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny meshes and sample counts, for the benchmark's own tests")
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "harmonicflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    """The processes of one benchmark run: set-up samples, and one worker
    that runs the passes, each started when the previous process has ended
    or the worker has answered."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        self.workload = workload
        self.started = time.monotonic()
        self.until = self.started + seconds
        self.sections = workloads.scenario_sections(workload, seed, smoke)
        self.dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.request = os.path.join(self.dir, "request.json")
        config = os.path.join(self.dir, "scenario.cfg")
        with open(config, "w") as fh:
            fh.write(workloads.config_text(self.sections))
        with open(self.request, "w") as fh:
            json.dump({"workload": workload, "sections": self.sections, "config": config,
                       "dir": self.dir}, fh)
        self.env = dict(os.environ)
        self.env.pop("HARMONICFLOW_OUT", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
        self.setups: list[dict] = []
        self.setup_cost = 0.0  # seconds the last set-up process took, start-up included
        self.worker: subprocess.Popen | None = None
        self.worker_log = None
        self.watchdog: threading.Timer | None = None

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def setup(self) -> None:
        """One set-up sample in a fresh process."""
        t = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER, "setup", self.request], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=max(1.0, self.left()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exit {proc.returncode}\n{proc.stderr[-4000:]}")
        self.setups.append(json.loads(proc.stdout))
        self.setup_cost = time.monotonic() - t

    def ask(self, command: str) -> dict:
        """Send one command to the worker (started on first use) and wait for its answer."""
        if self.worker is None:
            self.worker_log = open(os.path.join(self.dir, "worker.log"), "w")
            self.worker = subprocess.Popen(
                [sys.executable, WORKER, "serve", self.request], cwd=ROOT, env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.worker_log, text=True,
            )
            self.watchdog = threading.Timer(max(1.0, self.left()), self.worker.kill)
            self.watchdog.start()
        try:
            self.worker.stdin.write(command + "\n")
            self.worker.stdin.flush()
            answer = self.worker.stdout.readline()
        except BrokenPipeError:  # the worker has ended
            answer = ""
        if not answer:
            self.worker_log.flush()
            with open(self.worker_log.name) as fh:
                log = fh.read()[-4000:]
            raise RuntimeError(f"worker ended without answering {command!r}\n{log}")
        return json.loads(answer)

    def close(self) -> None:
        """Stop the worker, wait for it, and remove the run's files."""
        if self.worker is not None:
            try:
                self.worker.stdin.close()
            except BrokenPipeError:
                pass  # the worker has already ended
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self.watchdog.cancel()
            self.worker.stdout.close()
            self.worker_log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(walls: list[float], setups: list[float], peak_rss_mb: float) -> dict:
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rep: dict, floor: dict, plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass; absent layers read 0."""
    layers = rep["layers"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    m = {}
    for name in COUNTED:
        row = layers.get(name, empty)
        m[f"{name}.calls"] = (row["calls"], "count")
        m[f"{name}.self_s"] = (row["self_s"], "s")
    for name in TIMED:
        m[f"{name}.s"] = (layers.get(name, empty)["s"], "s")
    m["cli.run_scenario.self_s"] = (layers.get("cli.run_scenario", empty)["self_s"], "s")

    flow = rep["flow"]
    accepted = flow["accepted_steps"]
    step_us = 1e6 * layers.get("flow.run_flow", empty)["s"] / accepted if accepted else 0.0
    m["flow.accepted_steps"] = (accepted, "count")
    m["flow.candidates"] = (flow["candidates"], "count")
    m["flow.accept_ratio"] = (accepted / flow["candidates"] if flow["candidates"] else 0.0, "ratio")
    m["flow.step_us"] = (step_us, "us")
    m["flow.step_over_matvec"] = (step_us / floor["matvec_us"], "ratio")
    m["meshes.matvec_us"] = (floor["matvec_us"], "us")
    m["checkpoint.bytes_written"] = (rep["checkpoint_bytes"], "bytes")

    self_sum = sum(row["self_s"] for row in layers.values())
    m["trace.wall_s"] = (rep["wall_s"], "s")
    m["trace.overhead_s"] = (rep["wall_s"] - plain_wall, "s")
    m["trace.unattributed_s"] = (rep["wall_s"] - self_sum, "s")
    m["trace.spans"] = (rep["span_count"], "count")
    m["trace.span_cost_us"] = (floor["span_cost_us"], "us")
    return m


def measure(runner: Runner, trace: bool) -> tuple[dict, list[dict], dict]:
    """The warm-up pass, every pass after it (the warm-up included) and, when
    tracing, the floor measurements.  One set-up sample runs before each pass,
    so that set-up and passes both sample the whole run."""
    runner.setup()
    warm = runner.ask("warmup")
    passes = [warm]
    last = {"plain": warm["wall_s"], "traced": warm["wall_s"]}
    mode = "plain"
    while True:
        runner.setup()
        passes.append(runner.ask(mode))
        last[mode] = passes[-1]["wall_s"]
        done = not trace or {"plain", "traced"} <= {p["mode"] for p in passes}
        if trace:
            mode = "traced" if mode == "plain" else "plain"
        # stop when the next set-up and pass, and the set-up samples still
        # missing after them, would end after --seconds
        topup = max(0, SETUP_SAMPLES - len(runner.setups) - 1)
        if done and time.monotonic() + (1 + topup) * runner.setup_cost + last[mode] > runner.until:
            break
    while len(runner.setups) < SETUP_SAMPLES:
        runner.setup()
    return warm, passes, runner.ask("floor") if trace else {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "harmonicflow")):
        sys.stderr.write(f"no package sources at {SRC}; run from a repository checkout\n")
        return 2
    runner = Runner(args.workload, args.seed, args.seconds, args.smoke)
    try:
        try:
            warm, passes, floor = measure(runner, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"{exc}\nno result\n")
            return 1
        setups = runner.setups
        walls = {m: [p["wall_s"] for p in passes if p["mode"] == m] for m in ("plain", "traced")}
        env = {
            "python": sys.version.split()[0],
            **setups[0]["env"],
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "source_sha256": source_sha256(),
        }
        if args.trace:
            traced = sorted((p for p in passes if p["mode"] == "traced"),
                            key=lambda p: p["wall_s"])
            rep = traced[(len(traced) - 1) // 2]
            metrics = per_layer(rep, floor, statistics.median(walls["plain"]))
            shutil.copyfile(rep["spans"], os.path.join(
                OUT_ROOT, f"{args.workload}-seed{args.seed}-spans.json"))
        else:
            metrics = end_to_end(walls["plain"], [r["setup_s"] for r in setups],
                                 warm["peak_rss_mb"])
        # every set-up process and every scenario pass is one operation
        attempted = len(setups) + len(passes)
        failed = sum(bool(p["misses"]) for p in passes)
        for p in passes:
            for miss in p["misses"]:
                sys.stderr.write(f"{p['tag']}: check missed: {miss}\n")
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "config": runner.sections,
            "env": env,
            "setup_s": [r["setup_s"] for r in setups],
            "peak_rss_mb": warm["peak_rss_mb"],
            "passes": [{k: v for k, v in p.items() if k not in ("layers", "spans")}
                       for p in passes],
        }
        with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(details, fh, indent=1)
    finally:
        runner.close()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if args.trace:
        spans, cost = rep["span_count"], floor["span_cost_us"]
        print(f"  tracing overhead {metrics['trace.overhead_s'][0]:.4f} s measured (median "
              f"traced minus median plain wall, {len(walls['traced'])} and "
              f"{len(walls['plain'])} passes), {spans * cost * 1e-6:.4f} s estimated "
              f"({spans} spans x {cost:.3f} us); self times sum to trace.wall_s minus "
              f"trace.unattributed_s")
    else:
        plain = sorted(walls["plain"])
        print(f"  wall_s: median {statistics.median(plain):.4f} s, max {plain[-1]:.4f} s, "
              f"n = {len(plain)} timed passes after one warm-up pass")
    print(f"  failed_share {failed / attempted:.6g} share ({failed} of {attempted} operations "
          f"failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
