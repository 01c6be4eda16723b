#!/usr/bin/env python3
"""Flow a perturbed constant map S^2 -> S^2 to its limit and report the
fitted gradient-inequality exponent, the convergence rate, and the
inequality margins around the limit.

Usage: python scripts/constant_basin.py [--level 3] [--amplitude 0.1] [--seed 42]
"""

import argparse
import math

from harmonicflow import (
    FlowControl,
    MapField,
    UnitSphere,
    build_icosphere,
    constant_map,
    convergence_classifier,
    fit_exponent,
    morse_bott_report,
    perturbed_constant_map,
    run_flow,
    sample_neighborhood,
    verify_inequality,
)
from harmonicflow.rng import stream


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", type=int, default=3)
    ap.add_argument("--amplitude", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    mesh = build_icosphere(args.level)
    s2 = UnitSphere(3)
    f0 = perturbed_constant_map(mesh, s2, args.amplitude, stream(args.seed, "initial-map"))
    print(f"icosphere level {args.level} ({mesh.vertex_count} vertices), "
          f"initial energy {args.amplitude:.2f}-amplitude perturbation")

    trace = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    f_inf = MapField(trace.final_values, s2, mesh)
    print(f"flow: {trace.terminated_by} after {len(trace.samples) - 1} steps, "
          f"final energy {trace.energies()[-1]:.3e}")

    fit = fit_exponent(trace, f_inf)
    print(f"exponent fit: theta = {fit.theta_hat:.4f} (prediction 1/2), "
          f"Z = {fit.z_hat:.3f}, r^2 = {fit.r_squared:.6f}, "
          f"{fit.point_count} points over "
          f"{math.log10(fit.window[1] / fit.window[0]):.1f} decades")

    verdict = convergence_classifier(trace)
    print(f"decay: {verdict.model}, rate = {verdict.rate:.4f} "
          f"(linearized prediction 2)")

    f_const = constant_map(mesh, s2)
    samples = sample_neighborhood(f_const, 0.1, 32, seed=args.seed)
    rep = verify_inequality(samples, f_const, 0.5, 0.9)
    print(f"inequality check at theta = 1/2: min ratio |M| / gap^theta = "
          f"{rep.min_ratio:.3f} over {len(rep.rows)} samples")

    mb = morse_bott_report(f_const, expected_critical_dim=2)
    print(f"hessian kernel at the constant map: dim {mb.kernel_dim} "
          f"(expected 2), verdict {mb.verdict}, gap ratio {mb.gap_ratio:.0f}")


if __name__ == "__main__":
    main()
