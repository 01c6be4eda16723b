"""Scenario-driven command line front end.

Subcommands:
    run <config>            run every analysis listed in the scenario
    flow <config>           run just the named analysis (same config format)
    loja-fit <config>
    hessian-spec <config>
    verify <config>
    chart-audit <config>
    mult-probe <config>
    validate-exponents d k p {wk|l2}

Exit codes: 0 success, 2 configuration or hypothesis rejection, 3 numerical
failure.  With a fixed config and seed, repeated runs write byte-identical
artifacts (the manifest additionally records wall time).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from . import lojasiewicz as loja
from .energy import hessian_matrix, hessian_spectrum
from .charts import bilipschitz_estimate
from .checkpoint import export_trace, save_checkpoint, write_json
from .config import (
    ANALYSES,
    INITIAL_MAP_KINDS,
    Scenario,
    flow_control_from_config,
    mesh_spec_from_config,
    parse_config,
    target_spec_from_config,
)
from .errors import (
    CheckpointParseError,
    CheckpointVersionError,
    ConfigError,
    HarmonicFlowError,
    InadmissibleExponents,
    InvalidSpec,
    NotOnTarget,
    OutsideTubularNeighborhood,
    ShapeMismatch,
    SpecMismatch,
)
from .fields import MapField
from .flow import run_flow
from .meshes import VARIANTS, build_source, sobolev_multiplication_probe
from .targets import build_target

OUTPUT_ROOT_ENV = "HARMONICFLOW_OUT"

CONFIG_ERRORS = (
    ConfigError,
    InadmissibleExponents,
    InvalidSpec,
    SpecMismatch,
    CheckpointVersionError,
    CheckpointParseError,
)


def _build_initial_map(scn: Scenario, mesh, target) -> MapField:
    """The scenario's initial map.  A point, kind or checkpoint that does not
    fit the mesh and target, lies off the target, or cannot be read, is an
    input error (ConfigError), not a numerical failure."""
    kind = scn.initial_map["kind"]
    try:
        return INITIAL_MAP_KINDS[kind](mesh, target, scn.initial_map, scn.seed)
    except (OutsideTubularNeighborhood, ShapeMismatch, NotOnTarget, OSError) as exc:
        raise ConfigError(f"[initial_map] kind = {kind}: {exc}") from exc


class _Run:
    """Shared state across the analyses of one scenario execution."""

    def __init__(self, scn: Scenario, out_dir: str):
        self.scn = scn
        self.out_dir = out_dir
        self.mesh = build_source(mesh_spec_from_config(scn.mesh))
        self.target = build_target(target_spec_from_config(scn.target))
        self.f0 = _build_initial_map(scn, self.mesh, self.target)
        radius = scn.chart_audit["radius"]
        if radius is not None and radius >= self.target.chart_radius():
            raise ConfigError(f"[chart_audit] radius = {radius} is not below the "
                              f"target's chart radius {self.target.chart_radius()}")
        self.trace = None
        self.f_inf = None
        self.outputs: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def record(self, name: str) -> str:
        self.outputs.append(name)
        return self.path(name)

    # -- analyses ------------------------------------------------------------

    def ensure_flow(self):
        if self.trace is not None:
            return
        self.trace = run_flow(self.f0, flow_control_from_config(self.scn.flow))
        self.f_inf = MapField(self.trace.final_values, self.target, self.mesh)

    def limit_map(self) -> MapField:
        """Flow limit if a flow ran, otherwise the initial map."""
        return self.f_inf if self.f_inf is not None else self.f0

    def run_flow(self):
        self.ensure_flow()
        export_trace(self.trace, self.record("trace.csv"))
        save_checkpoint(
            self.f_inf,
            {
                "step": len(self.trace.samples) - 1,
                "time": float(self.trace.times()[-1]),
                "energy": float(self.trace.energies()[-1]),
            },
            self.record("final_map.json"),
        )
        if self.scn.flow["write_checkpoints"]:
            for step, values in self.trace.checkpoints:
                f = MapField(values, self.target, self.mesh)
                save_checkpoint(
                    f, {"step": step}, self.record(f"checkpoint_{step:06d}.json")
                )
        write_json(
            {
                "terminated_by": self.trace.terminated_by,
                "accepted_steps": len(self.trace.samples) - 1,
                "final_energy": float(self.trace.energies()[-1]),
                "final_grad_norm": float(self.trace.grad_norms()[-1]),
            },
            self.record("flow_summary.json"),
        )

    def run_loja_fit(self):
        self.ensure_flow()
        lo = self.scn.loja_fit["window_lo"]
        window = (lo, self.scn.loja_fit["window_hi"]) if lo is not None else None
        fit = loja.fit_exponent(self.trace, self.f_inf, window=window)
        payload = fit.to_json_dict()
        try:
            payload["convergence"] = loja.convergence_classifier(self.trace).to_json_dict()
        except HarmonicFlowError:
            payload["convergence"] = None
        write_json(payload, self.record("loja_fit.json"))

    def run_hessian_spec(self):
        hs = self.scn.hessian
        f_inf = self.limit_map()
        op = hessian_matrix(f_inf)
        spec = hessian_spectrum(
            op, kernel_tol=hs["kernel_tol"], n_modes=hs["n_modes"]
        )
        payload = spec.to_json_dict()
        payload["asymmetry_rel"] = op.asymmetry_rel
        write_json(payload, self.record("hessian_spectrum.json"))
        if hs["expected_critical_dim"] is not None:
            loja.require_critical(f_inf, self.scn.flow["grad_tol"])
            report = loja.classify_morse_bott(spec, hs["expected_critical_dim"])
            write_json(report.to_json_dict(), self.record("morse_bott.json"))

    def run_verify(self):
        vf = self.scn.verify
        d = self.mesh.dimension
        verdict = loja.validate_exponents(d, vf["k"], vf["p"], vf["variant"])
        if not verdict.admissible:
            raise InadmissibleExponents(
                f"(d={d}, k={vf['k']}, p={vf['p']}, {vf['variant']}): {verdict.reason}"
            )
        f_inf = self.limit_map()
        samples = loja.sample_neighborhood(
            f_inf, vf["sigma"], vf["count"], norm=(vf["k"], vf["p"]), seed=self.scn.seed
        )
        norm_used = "l2" if vf["norm"] == "l2" else "wk_minus_2_p"
        report = loja.verify_inequality(
            samples, f_inf, vf["theta"], vf["z"], norm_used, k=vf["k"], dual_p=vf["p"]
        )
        payload = report.to_json_dict()
        payload["exponent_clause"] = verdict.reason
        write_json(payload, self.record("verify_margins.json"))
        lines = ["energy_gap,grad_norm,ratio"]
        for gap, gn, ratio in report.rows:
            lines.append(f"{gap:.17g},{gn:.17g},{ratio:.17g}")
        with open(self.record("verify_samples.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def run_chart_audit(self):
        ca = self.scn.chart_audit
        radius = ca["radius"]
        if radius is None:
            radius = 0.1 * self.target.tubular_radius()
        report = bilipschitz_estimate(
            self.limit_map(),
            radius,
            ca["samples"],
            norm=(ca["k"], ca["p"]),
            seed=self.scn.seed,
        )
        write_json(report.to_json_dict(), self.record("chart_report.json"))

    def run_mult_probe(self):
        mp = self.scn.mult_probe
        rows = sobolev_multiplication_probe(
            mp["levels"], mp["k"], mp["p"], mp["trials"], seed=self.scn.seed
        )
        write_json({"levels": rows, "k": mp["k"], "p": mp["p"]}, self.record("mult_probe.json"))


# each analysis runs the _Run method of its name: "loja-fit" -> run_loja_fit
ANALYSIS_RUNNERS = {name: getattr(_Run, "run_" + name.replace("-", "_")) for name in ANALYSES}


def run_scenario(
    config_path: str,
    out_override: str | None = None,
    only_analysis: str | None = None,
) -> int:
    t_start = time.monotonic()
    try:
        scn = parse_config(config_path)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = out_override or scn.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        out_dir = os.path.join(root, out_dir)
    os.makedirs(out_dir, exist_ok=True)

    analyses = [only_analysis] if only_analysis else list(scn.analyses)
    try:
        run = _Run(scn, out_dir)
        for name in analyses:
            ANALYSIS_RUNNERS[name](run)
    except CONFIG_ERRORS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (HarmonicFlowError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "config": scn.echo,
        "config_path": os.path.abspath(config_path),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": scn.seed,
        "analyses": analyses,
        "wall_time_s": time.monotonic() - t_start,
        "outputs": [
            {"path": name, "sha256": _sha256(os.path.join(out_dir, name))}
            for name in sorted(run.outputs)
        ],
    }
    write_json(manifest, os.path.join(out_dir, "run_manifest.json"))
    return 0


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harmonicflow",
        description="Harmonic map energy laboratory: flows, Hessian spectra, "
        "and gradient-inequality verification on discretized closed manifolds.",
    )
    parser.add_argument("--threads", type=int, default=1, choices=[1],
                        help="worker threads: 1, the one implemented mode")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", *ANALYSES):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="scenario config file")
        sp.add_argument("--out", default=None, help="output directory override")

    vp = sub.add_parser("validate-exponents")
    vp.add_argument("d", type=int)
    vp.add_argument("k", type=int)
    vp.add_argument("p", type=float)
    vp.add_argument("variant", choices=VARIANTS)

    args = parser.parse_args(argv)

    if args.command == "validate-exponents":
        verdict = loja.validate_exponents(args.d, args.k, args.p, args.variant)
        status = "admissible" if verdict.admissible else "inadmissible"
        print(f"{status}: {verdict.reason}")
        return 0 if verdict.admissible else 2

    only = None if args.command == "run" else args.command
    return run_scenario(args.config, out_override=args.out, only_analysis=only)


if __name__ == "__main__":
    sys.exit(main())
