"""The benchmark's scenario workloads: configs generated from a seed, and the
output checks each run must pass.

Every check uses the bound of the matching acceptance criterion in
``tests/test_acceptance.py``; a missed check fails the run.
"""

from __future__ import annotations

import json
import math
import os

# Each workload is a generated scenario config; why each was chosen is
# recorded in BENCHMARK.json and README.md.  ``smoke`` shrinks the sizes so
# the benchmark's own tests drive every code path in seconds; the checks stay
# the same.
WORKLOADS = {
    "basin_flow": {
        "analyses": "flow, loja-fit, verify",
        "level": 3,
        "smoke_level": 2,
        "sections": {
            "target": {"kind": "sphere", "ambient_dim": 3},
            "initial_map": {"kind": "perturbed_constant", "amplitude": 0.1},
            "flow": {"dt0": 1e-5, "grad_tol": 1e-9, "write_checkpoints": "true"},
            "verify": {"norm": "l2", "variant": "l2", "k": 1, "p": 3, "count": 32},
        },
    },
    "identity_spectrum": {
        "analyses": "hessian-spec",
        "level": 5,
        "smoke_level": 2,
        "sections": {
            "target": {"kind": "sphere", "ambient_dim": 3},
            "initial_map": {"kind": "identity_sphere"},
            # harmonic only in the continuum: the discrete tension is O(h)
            "flow": {"grad_tol": 0.01},
            "hessian": {"kernel_tol": 0.1, "expected_critical_dim": 6, "n_modes": 16},
        },
    },
    "torus_neighbourhood": {
        "analyses": "chart-audit, verify, hessian-spec",
        "level": 3,
        "smoke_level": 1,
        "sections": {
            "target": {"kind": "torus_rev", "R": 2.0, "r": 0.5},
            "initial_map": {"kind": "constant", "point": "2.5, 0, 0"},
            "chart_audit": {"samples": 256},
            "verify": {"norm": "wk", "variant": "wk", "k": 1, "p": 3, "count": 256},
            "hessian": {"expected_critical_dim": 2},
        },
        "smoke_sections": {"chart_audit": {"samples": 16}, "verify": {"count": 16}},
    },
}


def scenario_sections(name: str, seed: int, smoke: bool = False) -> dict[str, dict]:
    """Config sections of workload ``name``; ``seed`` drives all its randomness."""
    spec = WORKLOADS[name]
    sections = {
        "scenario": {"seed": seed, "output_dir": "out", "analyses": spec["analyses"]},
        "mesh": {"kind": "icosphere",
                 "level": spec["smoke_level"] if smoke else spec["level"]},
    }
    for section, keys in spec["sections"].items():
        sections[section] = dict(keys)
        if smoke:
            sections[section].update(spec.get("smoke_sections", {}).get(section, {}))
    return sections


def config_text(sections: dict[str, dict]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def check_outputs(name: str, sections: dict[str, dict], out_dir: str) -> list[str]:
    """Names of the output checks that miss (empty when all pass)."""
    misses: list[str] = []

    def need(ok: bool, label: str) -> None:
        if not ok:
            misses.append(label)

    if name == "basin_flow":
        # imported here: run.py loads this module without the package on its path
        from harmonicflow.checkpoint import load_checkpoint
        from harmonicflow.errors import HarmonicFlowError

        summary = _load(out_dir, "flow_summary.json")
        need(summary["terminated_by"] == "grad_norm_below", "terminated_by == grad_norm_below")
        fit = _load(out_dir, "loja_fit.json")
        need(0.45 <= fit["theta_hat"] <= 0.55, "theta_hat in [0.45, 0.55]")
        need(fit["r_squared"] >= 0.99, "r_squared >= 0.99")
        conv = fit["convergence"] or {}
        need(conv.get("model") == "exponential", "decay model exponential")
        need(conv.get("rate") is not None and abs(conv["rate"] - 2.0) <= 0.4,
             "|rate - 2| <= 0.4")
        verify = _load(out_dir, "verify_margins.json")
        need(verify["min_ratio"] >= 0.9, "l2 verify min_ratio >= 0.9")
        try:
            load_checkpoint(os.path.join(out_dir, "final_map.json"))
        except (HarmonicFlowError, OSError) as exc:
            misses.append(f"final_map.json reloads ({type(exc).__name__})")
    elif name == "identity_spectrum":
        spec = _load(out_dir, "hessian_spectrum.json")
        report = _load(out_dir, "morse_bott.json")
        need(report["verdict"] == "morse_bott", "verdict morse_bott")
        need(spec["kernel_dim"] == 6 and report["kernel_dim"] == 6, "kernel_dim == 6")
        need(report["gap_ratio"] >= 10.0, "gap_ratio >= 10")
        need(spec["asymmetry_rel"] <= 1e-6, "asymmetry_rel <= 1e-6")
    elif name == "torus_neighbourhood":
        chart = _load(out_dir, "chart_report.json")
        verify = _load(out_dir, "verify_margins.json")
        report = _load(out_dir, "morse_bott.json")
        need(chart["c4_estimate"] <= 2.0, "c4 <= 2")
        need(chart["max_roundtrip_error"] <= 1e-9, "round-trip error <= 1e-9")
        need(chart["sample_count"] == sections["chart_audit"]["samples"]
             and verify["sample_count"] == sections["verify"]["count"],
             "chart-audit and verify sample counts as configured")
        ratio = verify["min_ratio"]
        need(math.isfinite(ratio) and ratio > 0, "wk min_ratio finite and > 0")
        need(report["kernel_dim"] == 2 and report["verdict"] == "morse_bott",
             "kernel_dim == 2 with verdict morse_bott")
    else:
        raise KeyError(name)
    return misses
