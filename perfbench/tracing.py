"""In-memory span tracing of harmonicflow's public functions.

The package itself is not edited: ``install`` replaces each traced function
by a recording wrapper at every place callers look it up (module globals,
class attributes, the CLI's analysis table), and the returned ``restore``
puts the originals back.  A span is ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# layer (module of harmonicflow) -> traced names; "Class.method" entries are
# patched on the class, plain names wherever a module holds that function.
TRACED = {
    "cli": ["run_scenario"],
    "config": ["parse_config"],
    "meshes": ["build_source", "sobolev_norm", "l2_norm"],
    "targets": [
        "build_target",
        "EmbeddedTarget.project_to_target",
        "EmbeddedTarget.tangent_projector",
        "EmbeddedTarget.ambient_hessian_of_projection",
    ],
    "fields": [
        "MapField.__init__",
        "random_tangent_field",
        "constant_map",
        "identity_sphere_map",
        "perturbed_constant_map",
    ],
    "energy": ["energy", "tension", "hessian_matrix", "hessian_spectrum"],
    "charts": ["chart_push", "chart_pull", "bilipschitz_estimate"],
    "flow": ["run_flow"],
    "lojasiewicz": [
        "fit_exponent",
        "convergence_classifier",
        "sample_neighborhood",
        "verify_inequality",
        "gradient_dual_norm",
        "morse_bott_report",
    ],
    "checkpoint": ["save_checkpoint", "export_trace", "write_json"],
}

PACKAGE = "harmonicflow"


def span_name(layer: str, entry: str) -> str:
    """``energy.tension``; a method is named by its class when it is the
    constructor (``fields.MapField``), otherwise by the method."""
    owner, _, method = entry.rpartition(".")
    return f"{layer}.{owner if method == '__init__' else method}"


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def install(tracer: Tracer):
    """Wrap every function in ``TRACED`` and each CLI analysis runner.

    Returns a callable that restores the originals.
    """
    modules = [m for key, m in sys.modules.items()
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapped) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    for layer, entries in TRACED.items():
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for entry in entries:
            name = span_name(layer, entry)
            if "." in entry:
                cls_name, method = entry.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, tracer.wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, entry)
            wrapped = tracer.wrap(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patch(holder, attr, wrapped)

    runners = sys.modules[f"{PACKAGE}.cli"].ANALYSIS_RUNNERS
    originals = dict(runners)
    for analysis, runner in originals.items():
        runners[analysis] = tracer.wrap(f"cli.{analysis}", runner)

    def restore() -> None:
        runners.update(originals)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total inclusive seconds, and self seconds
    (duration minus the time covered by direct child spans)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - covered[i]
    return table


def span_cost_us(calls: int = 20_000, repeats: int = 5) -> float:
    """Time one wrapped call adds over a bare call, in microseconds (median of
    ``repeats``); times the span count, it estimates the tracing overhead."""

    def noop():
        return None

    def seconds(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t

    costs = [(seconds(Tracer().wrap("noop", noop)) - seconds(noop)) / calls
             for _ in range(repeats)]
    return statistics.median(costs) * 1e6
