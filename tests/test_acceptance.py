"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (the -v listing gives one line
per criterion; each test also prints its measured numbers).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from harmonicflow import (
    FlowControl,
    MapField,
    UnitSphere,
    build_icosphere,
    bilipschitz_estimate,
    chart_pull,
    chart_push,
    constant_map,
    convergence_classifier,
    degree_circle_map,
    energy,
    fit_exponent,
    grad_l2_norm,
    hessian_spectrum,
    identity_sphere_map,
    perturbed_constant_map,
    random_tangent_field,
    run_flow,
    sample_neighborhood,
    sobolev_multiplication_probe,
    tension,
    validate_exponents,
    verify_inequality,
)
from harmonicflow.cli import main as cli_main
from harmonicflow.lojasiewicz import classify_morse_bott
from harmonicflow.meshes import l2_inner, l2_norm
from harmonicflow.rng import stream

from oracles import (
    dense_laplacian_spectrum, gradient_pairing_check, hessian_apply, linf, tension_via_sff,
)
from test_lojasiewicz import columns_trace, hand_table


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def near_identity(mesh, s2, amplitude=0.2, seed=7):
    idm = identity_sphere_map(mesh, s2)
    u = random_tangent_field(idm, stream(seed, "near-identity"))
    vals = s2.project_to_target(idm.values + (amplitude / linf(u)) * u)
    return MapField(vals, s2, mesh)


@pytest.fixture(scope="module")
def constant_basin_trace(ico3, s2):
    f0 = perturbed_constant_map(ico3, s2, 0.1, stream(3, "acceptance"))
    trace = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    return trace, trace.final


def test_criterion_01_energy_exactness(circle256, s1, ico4, s2):
    errs = [abs(energy(degree_circle_map(circle256, s1, k)) - math.pi * k * k)
            for k in (1, 2, 3, 4)]
    e4 = abs(energy(identity_sphere_map(ico4, s2)) - 4 * math.pi) / (4 * math.pi)
    e5 = abs(energy(identity_sphere_map(build_icosphere(5), s2)) - 4 * math.pi) / (4 * math.pi)
    ok = max(errs) <= 1e-3 and e4 <= 5e-3 and e5 < e4
    report(1, ok, f"circle errs {[f'{e:.1e}' for e in errs]}, "
                  f"identity rel err lvl4 {e4:.2e} -> lvl5 {e5:.2e}")


def test_criterion_02_tension_formula_equivalence(ico4, s2):
    rels = []
    for mesh in (ico4, build_icosphere(5)):
        f = near_identity(mesh, s2)
        t1 = tension(f)
        t2 = tension_via_sff(f)
        rels.append(l2_norm(mesh, t1 - t2) / l2_norm(mesh, t1))
    ok = rels[0] <= 1e-2 and rels[1] < rels[0]
    report(2, ok, f"rel discrepancy lvl4 {rels[0]:.2e} -> lvl5 {rels[1]:.2e}")


def test_criterion_03_gradient_pairing(ico3, s2):
    f = near_identity(ico3, s2)
    u = random_tangent_field(f, stream(2, "pairing"))
    scale = l2_norm(ico3, u) * grad_l2_norm(f)
    res = [gradient_pairing_check(f, u, h) / scale for h in (1e-3, 1e-4, 1e-5)]
    second_order = 30 <= res[0] / res[1] <= 300
    ok = second_order and res[2] <= 1e-6
    report(3, ok, f"relative residuals {[f'{r:.1e}' for r in res]}, "
                  f"decay ratio {res[0] / res[1]:.0f}")


def test_criterion_04_hessian_consistency(ico2, ico3, s2, circle256, s1):
    f = perturbed_constant_map(ico2, s2, 0.15, stream(9, "hessfd"))
    v = random_tangent_field(f, stream(10, "hessfd-v"))
    w = random_tangent_field(f, stream(11, "hessfd-w"))
    pair = l2_inner(ico2, w, hessian_apply(f, v))

    def e_at(s, t):
        g = s2.project_to_target(f.values + s * v + t * w)
        return energy(MapField(g, s2, ico2))

    resid = []
    for step in (1e-3, 1e-4):
        fd = (e_at(step, step) - e_at(step, -step)
              - e_at(-step, step) + e_at(-step, -step)) / (4 * step * step)
        resid.append(abs(fd - pair) / abs(pair))
    asyms = [hessian_spectrum(constant_map(ico3, s2)).asymmetry_rel,
             hessian_spectrum(degree_circle_map(circle256, s1, 1)).asymmetry_rel]
    ok = (30 <= resid[0] / resid[1] <= 300) and resid[1] <= 1e-5 and max(asyms) <= 1e-6
    report(4, ok, f"FD residuals {resid[0]:.1e} -> {resid[1]:.1e}, "
                  f"max asymmetry {max(asyms):.1e}")


def test_criterion_05_morse_bott_kernels(ico4, s2, circle256, s1):
    spec_const_s2 = hessian_spectrum(constant_map(ico4, s2), n_modes=16)
    spec_const_s1 = hessian_spectrum(constant_map(circle256, s1))
    spec_ident = hessian_spectrum(identity_sphere_map(ico4, s2), kernel_tol=0.1, n_modes=16)
    ok = (
        spec_const_s2.kernel_dim == 2
        and spec_const_s1.kernel_dim == 1
        and spec_ident.kernel_dim == 6
        and spec_ident.gap_ratio >= 10
    )
    report(5, ok, f"kernels: const S2 {spec_const_s2.kernel_dim}, "
                  f"const S1 {spec_const_s1.kernel_dim}, "
                  f"identity {spec_ident.kernel_dim} (gap ratio {spec_ident.gap_ratio:.1f})")


def test_criterion_05_saddles_great_circles(circle256):
    # the degree-k great circle in S^2 is a critical point of Morse index 2k - 1,
    # the index of a k-fold closed geodesic (J. Milnor, Morse Theory, 1963): normal
    # variations have eigenvalues j^2 - k^2; the kernel is the SO(3) orbit
    rows = []
    for k in (1, 2, 3):
        f = degree_circle_map(circle256, UnitSphere(3), k)
        spec = hessian_spectrum(f)
        verdict = classify_morse_bott(spec, 3).verdict
        rows.append((k, grad_l2_norm(f), spec.index, spec.kernel_dim, verdict))
    ok = all(gn <= 1e-10 and index == 2 * k - 1 and kernel == 3 and verdict == "morse_bott"
             for k, gn, index, kernel, verdict in rows)
    report("5 (saddles)", ok, "; ".join(
        f"k={k}: |M| {gn:.1e}, index {index}, kernel {kernel}, {verdict}"
        for k, gn, index, kernel, verdict in rows))


def test_criterion_06_lojasiewicz_exponent(constant_basin_trace, ico3, s2):
    trace, f_inf = constant_basin_trace
    fit = fit_exponent(trace, f_inf)
    span = math.log10(fit.window[1] / fit.window[0])
    f_const = constant_map(ico3, s2)
    samples = sample_neighborhood(f_const, 0.1, 32, seed=5)
    rep = verify_inequality(samples, f_const, 0.5, 0.9, variant="l2")
    ok = (
        span >= 2.0
        and 0.45 <= fit.theta_hat <= 0.55
        and fit.r_squared >= 0.99
        and rep.min_ratio >= 0.9
    )
    report(6, ok, f"theta {fit.theta_hat:.4f}, r2 {fit.r_squared:.5f}, "
                  f"window {span:.1f} decades, min ratio {rep.min_ratio:.2f}")


def test_criterion_07_convergence_dichotomy(constant_basin_trace):
    trace, _ = constant_basin_trace
    flow_verdict = convergence_classifier(trace)

    t_exp, t_pow = np.linspace(0.1, 12.0, 300), np.geomspace(40.0, 4000.0, 300)
    exp_tr = columns_trace(t_exp, np.zeros(300), np.exp(-3.0 * t_exp))
    pow_tr = columns_trace(t_pow, np.zeros(300), t_pow ** (-2.0))
    exp_verdict = convergence_classifier(exp_tr)
    pow_verdict = convergence_classifier(pow_tr)
    ok = (
        flow_verdict.model == "exponential"
        and abs(flow_verdict.rate - 2.0) <= 0.4
        and exp_verdict.model == "exponential"
        and abs(exp_verdict.rate - 3.0) <= 1e-6
        and pow_verdict.model == "power_law"
        and abs(pow_verdict.exponent + 2.0) <= 1e-6
    )
    report(7, ok, f"flow rate {flow_verdict.rate:.3f} (prediction 2), "
                  f"synthetic rate {exp_verdict.rate:.8f}, "
                  f"synthetic exponent {pow_verdict.exponent:.8f}")


def test_flow_rate_is_the_explicit_euler_rate(constant_basin_trace):
    # the slowest mode decays by 1 - lambda_1 dt per step, lambda_1 = 2 on S^2 -> S^2,
    # and at the stability clamp every step is dt_max
    trace, _ = constant_basin_trace
    dt_max = float(trace.dt.max())
    scheme = -math.log(1.0 - 2.0 * dt_max) / dt_max
    rate = convergence_classifier(trace).rate
    report("7 (scheme)", abs(rate - scheme) <= 1e-4,
           f"flow rate {rate:.7f}, -ln(1 - 2 dt_max)/dt_max {scheme:.7f} at dt_max {dt_max:.4e}")


BASIN_CFG = Path(__file__).parent.parent / "configs" / "constant_basin_s2.cfg"


def test_basin_rate_is_the_explicit_euler_rate_at_the_stability_clamp(tmp_path, ico3):
    # constant_basin_s2.cfg steps at dt = 0.95 * 2/lambda_max, and its slowest
    # mode decays by 1 - lambda_1 dt per step: rate -ln(1 - lambda_1 dt)/dt
    out = tmp_path / "out"
    assert cli_main(["run", str(BASIN_CFG), "--out", str(out)]) == 0
    spectrum = dense_laplacian_spectrum(ico3)
    dt, lam_1 = 0.95 * 2.0 / spectrum[-1], spectrum[1]
    summary = json.loads((out / "flow_summary.json").read_text())
    rate = json.loads((out / "loja_fit.json").read_text())["convergence"]["rate"]
    scheme = -math.log(1.0 - lam_1 * dt) / dt
    ok = (summary["dt_stable"] == pytest.approx(dt, rel=1e-12)
          and summary["dt_range"][1] == summary["dt_stable"]
          and abs(rate - scheme) <= 1e-6)
    report("7 (scheme, sharp clamp)", ok,
           f"rate {rate:.10f}, -ln(1 - lambda_1 dt)/dt {scheme:.10f} at dt {dt:.4e}, "
           f"lambda_1 {lam_1:.7f}, dt_stable {summary['dt_stable']:.4e}")


def test_criterion_08_chart_audit(ico3, s2):
    f = identity_sphere_map(ico3, s2)
    delta = s2.tubular_radius()
    u = random_tangent_field(f, stream(4, "chart"))
    u *= (delta / 4) / linf(u)
    back = chart_pull(f, chart_push(f, u))
    rt = float(np.max(np.linalg.norm(back - u, axis=1)))
    c4_work = bilipschitz_estimate(f, 0.1 * delta, 32, seed=3).c4_estimate
    c4_tiny = bilipschitz_estimate(f, 1e-4, 16, seed=3).c4_estimate
    ok = rt <= 1e-9 and c4_work <= 2.0 and c4_tiny <= 1.0 + 1e-2
    report(8, ok, f"roundtrip {rt:.1e}, c4(0.1 d0) {c4_work:.4f}, c4(1e-4) {c4_tiny:.6f}")


def test_criterion_09_hypothesis_tables():
    total = 0
    agree = 0
    for d in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for p in (1.0, 1.5, 2.0, 3.0, 6.0, 8.0):
                for variant in ("wk", "l2"):
                    total += 1
                    if validate_exponents(d, k, p, variant).admissible == hand_table(
                        d, k, p, variant
                    ):
                        agree += 1
    report(9, agree == total, f"{agree}/{total} grid cases agree")


def test_criterion_10_multiplication_probe():
    rows = sobolev_multiplication_probe([16, 32, 64], 2, 2.0, trials=8, seed=0)
    ratios = [r["max_ratio"] for r in rows]
    band = max(ratios) / min(ratios)
    report(10, band <= 2.0, f"per-level max ratios {[f'{r:.3f}' for r in ratios]}, "
                            f"band factor {band:.2f}")


def test_criterion_11_determinism(tmp_path):
    cfg = """
[scenario]
seed = 99
analyses = flow, loja-fit, verify, chart-audit

[mesh]
kind = icosphere
level = 2

[target]
kind = sphere
ambient_dim = 3

[initial_map]
kind = perturbed_constant
amplitude = 0.1

[flow]
dt0 = 1e-5
grad_tol = 1e-8
"""
    path = tmp_path / "scn.cfg"
    path.write_text(cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        outs.append(out)
    manifests = [json.loads((o / "run_manifest.json").read_text()) for o in outs]
    same_files = True
    for entry in manifests[0]["outputs"]:
        a = (outs[0] / entry["path"]).read_bytes()
        b = (outs[1] / entry["path"]).read_bytes()
        same_files = same_files and a == b
    for m in manifests:
        m.pop("wall_time_s")
    listed = {entry["path"] for entry in manifests[0]["outputs"]}
    ok = same_files and manifests[0] == manifests[1] and {"trace.csv", "verify_samples.csv"} <= listed
    report(11, ok, f"{len(manifests[0]['outputs'])} artifacts byte-identical, "
                   "manifests equal up to wall time")
