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
artifacts (the manifest additionally records wall time).  A failed run's
manifest lists the outputs written before it and a ``failed`` {analysis, error}.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import lojasiewicz as loja
from .energy import hessian_spectrum
from .charts import bilipschitz_estimate
from .checkpoint import export_trace, save_checkpoint, write_columns, write_json
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
from .flow import first_step, run_flow
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
    kind, *values = scn.initial_map.values()  # the kind, then its keys' values in order
    try:
        with np.errstate(over="ignore"):  # an |x|^2 of inf fails the projection's margins
            return INITIAL_MAP_KINDS[kind].build(mesh, target, scn.seed, *values)
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
        self.outputs: list[str] = []

    def record(self, name: str) -> str:
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    # -- analyses ------------------------------------------------------------

    def ensure_flow(self):
        if self.trace is not None:
            return
        self.trace = run_flow(self.f0, flow_control_from_config(self.scn.flow))

    def limit_map(self) -> MapField:
        """Flow limit if a flow ran, otherwise the initial map."""
        return self.trace.final if self.trace is not None else self.f0

    def run_flow(self):
        self.ensure_flow()
        tr = self.trace
        steps = len(tr.t) - 1
        export_trace(tr, self.record("trace.csv"))
        meta = {"step": steps, "time": float(tr.t[-1]), "energy": float(tr.energy[-1])}
        save_checkpoint(tr.final, meta, self.record("final_map.json"))
        if self.scn.flow["write_checkpoints"]:
            for step, f in tr.checkpoints:
                save_checkpoint(f, {"step": step}, self.record(f"checkpoint_{step:06d}.json"))
        write_json(
            {
                "terminated_by": tr.terminated_by,
                "accepted_steps": steps,
                "final_energy": float(tr.energy[-1]),
                "final_grad_norm": float(tr.grad_norm_l2[-1]),
                "candidates": tr.candidates,
                "energy_rejections": tr.energy_rejections,
                "radius_halvings": tr.radius_halvings,
                "dt_range": [float(tr.dt[1:].min()), float(tr.dt[1:].max())] if steps else None,
                "dt_stable": tr.dt_stable,
            },
            self.record("flow_summary.json"),
        )

    def run_loja_fit(self):
        self.ensure_flow()
        lo = self.scn.loja_fit["window_lo"]
        window = (lo, self.scn.loja_fit["window_hi"]) if lo is not None else None
        fit = loja.fit_exponent(self.trace, self.trace.final, window=window)
        payload = asdict(fit)
        try:
            payload["convergence"] = asdict(loja.convergence_classifier(self.trace))
        except HarmonicFlowError:
            payload["convergence"] = None
        write_json(payload, self.record("loja_fit.json"))

    def run_hessian_spec(self):
        hs = self.scn.hessian
        f_inf = self.limit_map()
        expected = hs["expected_critical_dim"]
        if expected is not None:  # before the spectrum: a non-critical map writes nothing
            loja.require_critical(f_inf, self.scn.flow["grad_tol"])
        spec = hessian_spectrum(f_inf, kernel_tol=hs["kernel_tol"], n_modes=hs["n_modes"])
        write_json(asdict(spec), self.record("hessian_spectrum.json"))
        if expected is not None:
            report = loja.classify_morse_bott(spec, expected)
            write_json(asdict(report), self.record("morse_bott.json"))

    def verify_verdict(self) -> loja.ExponentVerdict:
        """The [verify] (d, k, p) verdict; InadmissibleExponents unless admissible."""
        vf = self.scn.verify
        d = self.mesh.dimension
        verdict = loja.validate_exponents(d, vf["k"], vf["p"], vf["variant"])
        if not verdict.admissible:
            raise InadmissibleExponents(
                f"(d={d}, k={vf['k']}, p={vf['p']}, {vf['variant']}): {verdict.reason}"
            )
        return verdict

    def run_verify(self):
        vf = self.scn.verify
        verdict = self.verify_verdict()
        f_inf = self.limit_map()
        norm = (vf["k"], vf["p"])
        samples = loja.sample_neighborhood(f_inf, vf["sigma"], vf["count"], norm, self.scn.seed)
        report = loja.verify_inequality(samples, f_inf, vf["theta"], vf["z"], vf["variant"], norm)
        payload = report.to_json_dict()
        payload["exponent_clause"] = verdict.reason
        write_json(payload, self.record("verify_margins.json"))
        write_columns(self.record("verify_samples.csv"), ["energy_gap", "grad_norm", "ratio"],
                      [report.gap, report.grad_norm, report.ratio])

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
        write_json(asdict(report), self.record("chart_report.json"))

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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot make output directory {out_dir}: {exc}", file=sys.stderr)
        return 2

    analyses = [only_analysis] if only_analysis else list(scn.analyses)
    code, run = 0, None
    try:
        run = _Run(scn, out_dir)
        if "verify" in analyses:  # before any analysis writes its outputs
            run.verify_verdict()
        if "flow" in analyses or "loja-fit" in analyses:
            first_step(run.mesh, flow_control_from_config(scn.flow))
        for name in analyses:
            ANALYSIS_RUNNERS[name](run)
    except CONFIG_ERRORS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        code, error = 2, exc
    except (HarmonicFlowError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code, error = 3, exc
    if code and not (run and run.outputs):
        return code

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
            {"path": name, "sha256": hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest()}
            for name in sorted(run.outputs) if Path(out_dir, name).is_file()
        ],
    }
    if code:  # the outputs written before the failure, and the analysis that failed
        manifest["failed"] = {"analysis": name, "error": f"{type(error).__name__}: {error}"}
    write_json(manifest, os.path.join(out_dir, "run_manifest.json"))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="harmonicflow",
        description="Harmonic map energy laboratory: flows, Hessian spectra, "
        "and gradient-inequality verification on discretized closed manifolds.",
    )
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
