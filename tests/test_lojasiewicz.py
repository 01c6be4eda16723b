import math

import numpy as np
import pytest

from harmonicflow import (
    FlowControl,
    MapField,
    TorusOfRevolution,
    UnitSphere,
    build_circle,
    constant_map,
    convergence_classifier,
    degree_circle_map,
    energy,
    fit_exponent,
    identity_sphere_map,
    morse_bott_report,
    perturbed_constant_map,
    random_tangent_field,
    run_flow,
    sample_neighborhood,
    validate_exponents,
    verify_inequality,
)
from harmonicflow.charts import chart_push
from harmonicflow.errors import (
    DegenerateWindow,
    InsufficientDecades,
    InsufficientTail,
    NotCritical,
)
from harmonicflow.flow import FlowTrace
from harmonicflow.lojasiewicz import gradient_dual_norm
from harmonicflow.meshes import sobolev_norm
from harmonicflow.rng import stream

from oracles import linf, sample_maps, stack_maps


# ---------------------------------------------------------------------------
# hypothesis tables

def hand_table(d, k, p, variant):
    """Independently transcribed admissibility table (test-side oracle).

    Structured as explicit per-case data rather than clause logic: for each
    (d, k) the admissible p-range is written out.
    """
    base_ok = p > 1 and k * p > d and not (k == 2 and p <= 1)
    if d < 2 or k < 1 or not base_ok:
        return False
    if variant == "wk":
        return True
    # l2 ranges, written per (d, k) case
    if k == 1:
        ranges = {2: (2.0, math.inf, False), 3: (3.0, 6.0, True)}
        if d not in ranges:
            return False
        lo, hi, closed_hi = ranges[d]
        return p > lo and (p <= hi if closed_hi else p < hi)
    return p >= 2  # k >= 2 (kp > d already enforced)


def test_spec_example_rows():
    assert validate_exponents(2, 1, 3, "wk").admissible
    assert validate_exponents(3, 1, 6, "l2").admissible
    assert not validate_exponents(4, 1, 5, "l2").admissible
    v = validate_exponents(2, 2, 1, "wk")
    assert not v.admissible
    assert "p > 1" in v.reason


def test_full_grid_matches_hand_table():
    mismatches = []
    for d in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for p in (1.0, 1.5, 2.0, 3.0, 6.0, 8.0):
                for variant in ("wk", "l2"):
                    got = validate_exponents(d, k, p, variant).admissible
                    want = hand_table(d, k, p, variant)
                    if got != want:
                        mismatches.append((d, k, p, variant, got, want))
    assert mismatches == []


def test_reason_names_the_failing_clause():
    assert "kp > d" in validate_exponents(2, 1, 1.5, "wk").reason
    assert "d < 4" in validate_exponents(5, 1, 8, "l2").reason
    assert "p <= 6" in validate_exponents(3, 1, 8, "l2").reason
    assert "p >= 2" in validate_exponents(2, 2, 1.5, "l2").reason


# ---------------------------------------------------------------------------
# neighborhood sampling

def test_sample_neighborhood_empty(ico2, s2):
    assert list(sample_neighborhood(constant_map(ico2, s2), 0.1, 0)) == []


def test_samples_satisfy_neighborhood_condition(ico2, s2):
    f_inf = constant_map(ico2, s2)
    sigma = 0.1
    samples = sample_maps(sample_neighborhood(f_inf, sigma, 16, norm=(1, 2.0), seed=2), f_inf)
    assert len(samples) == 16
    for f in samples:
        assert sobolev_norm(ico2, f.values - f_inf.values, 1, 2.0) < sigma


def test_sample_energies_spread_three_decades(ico3, s2):
    f_inf = constant_map(ico3, s2)
    samples = sample_maps(sample_neighborhood(f_inf, 0.1, 32, seed=1), f_inf)
    gaps = [energy(f) for f in samples]
    assert math.log10(max(gaps) / min(gaps)) >= 3.0


# ---------------------------------------------------------------------------
# inequality verification

def test_verify_at_limit_map_margin_zero(ico2, s2):
    f_inf = constant_map(ico2, s2)
    rep = verify_inequality([stack_maps([f_inf])], f_inf, 0.5, 0.9)
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)


def test_verify_constant_basin_ratio(ico3, s2):
    f_inf = constant_map(ico3, s2)
    samples = sample_neighborhood(f_inf, 0.1, 32, seed=5)
    rep = verify_inequality(samples, f_inf, 0.5, 0.9)
    assert rep.min_ratio >= 0.9
    assert rep.min_margin > 0.0
    assert rep.below_count == 0  # the constant map is a minimizer


def test_verify_counts_samples_below_the_limit_energy(s2):
    # normal variations s cos(j theta) e3 of the degree-2 great circle: the Hessian
    # eigenvalue j^2 - k^2 is 1 - 4 < 0 at j = 1 and 9 - 4 > 0 at j = 3
    mesh = build_circle(64)
    f_inf = degree_circle_map(mesh, s2, 2)

    def normal_sample(j):
        vals = f_inf.values.copy()
        vals[:, 2] = 1e-2 * np.cos(j * mesh.points[:, 0])
        return MapField(s2.project_to_target(vals), s2, mesh)

    down, up = normal_sample(1), normal_sample(3)
    assert energy(down) < energy(f_inf) < energy(up)
    rep = verify_inequality([stack_maps([down, up, down])], f_inf, 0.5, 0.9)
    assert rep.below_count == rep.to_json_dict()["below_count"] == 2
    assert verify_inequality([stack_maps([up])], f_inf, 0.5, 0.9).below_count == 0


def test_wrong_exponent_ratios_diverge(ico3, s2):
    # theta = 0.9 overshoots: the ratio grows as the energy gap shrinks
    f_inf = constant_map(ico3, s2)
    samples = sample_neighborhood(f_inf, 0.1, 32, seed=5)
    rep = verify_inequality(samples, f_inf, 0.9, 1.0)
    order = np.argsort(rep.gap)  # ascending energy gap
    assert rep.ratio[order[0]] > 5.0 * rep.ratio[order[-1]]


def test_verify_dual_norm_variant_runs(ico2, s2):
    f_inf = constant_map(ico2, s2)
    samples = sample_neighborhood(f_inf, 0.05, 4, seed=3)
    rep = verify_inequality(samples, f_inf, 0.5, 0.1, variant="wk", norm=(1, 3.0))
    assert rep.min_ratio > 0.0
    assert np.all(rep.grad_norm > 0)


def test_dual_norm_bounded_by_l2(ico2, s2):
    # (M, v) <= |M| |v| and |v|_L2 <= |v|_W11' family: dual norm below L2 norm
    from harmonicflow.meshes import l2_norm
    from harmonicflow import tension

    f = perturbed_constant_map(ico2, s2, 0.1, stream(4, "dual"))
    dual = gradient_dual_norm(f, p=3.0)
    assert 0.0 < dual <= l2_norm(ico2, tension(f))


@pytest.mark.parametrize(
    "target", [UnitSphere(3), TorusOfRevolution(2.0, 0.5)], ids=["sphere", "torus_rev"]
)
def test_dual_norm_matches_per_field_reference(ico2, target):
    # the family is built once per verify; each field paired in full agrees
    from harmonicflow import tension
    from oracles import dual_norm_per_field

    f_inf = constant_map(ico2, target)
    samples = sample_maps(sample_neighborhood(f_inf, 0.1, 6, norm=(1, 3.0), seed=5), f_inf)
    ref = [dual_norm_per_field(ico2, tension(f), 3.0) for f in samples]
    assert min(ref) > 0.0
    for f, want in zip(samples, ref):
        assert gradient_dual_norm(f, 3.0) == pytest.approx(want, rel=1e-12, abs=0.0)
    rep = verify_inequality([stack_maps(samples)], f_inf, 0.5, 0.9, "wk", (1, 3.0))
    assert rep.grad_norm.tolist() == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# exponent fitting

def columns_trace(t, energy, grad_norm):
    """A FlowTrace of the given columns, with no distances and unit steps."""
    n = len(t)
    return FlowTrace(np.asarray(t, dtype=float), np.asarray(energy, dtype=float),
                     np.asarray(grad_norm, dtype=float), np.full(n, np.nan), np.ones(n))


def synthetic_trace(theta=0.5, z=1.0, n=64, lo=1e-9, hi=1e-1):
    gaps = np.geomspace(lo, hi, n)
    return columns_trace(np.arange(n), gaps, z * gaps**theta)


def test_fit_exact_power_law(ico2, s2):
    f_inf = constant_map(ico2, s2)  # energy 0: gaps equal raw energies
    tr = synthetic_trace(theta=0.5, z=1.0)
    fit = fit_exponent(tr, f_inf, window=(1e-8, 1e-2))
    assert fit.theta_hat == pytest.approx(0.5, abs=1e-9)
    assert fit.z_hat == pytest.approx(1.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_energy_rescaling_moves_z_not_theta(ico2, s2):
    f_inf = constant_map(ico2, s2)
    theta, c = 0.5, 7.0
    tr = synthetic_trace(theta=theta, z=1.0)
    scaled = columns_trace(tr.t, c * tr.energy, c * tr.grad_norm_l2)
    fit0 = fit_exponent(tr, f_inf, window=(1e-8, 1e-2))
    fit1 = fit_exponent(scaled, f_inf, window=(c * 1e-8, c * 1e-2))
    assert fit1.theta_hat == pytest.approx(fit0.theta_hat, abs=1e-9)
    assert fit1.z_hat == pytest.approx(fit0.z_hat * c ** (1 - theta), rel=1e-9)


def test_fit_window_errors(ico2, s2):
    f_inf = constant_map(ico2, s2)
    tr = synthetic_trace()
    with pytest.raises(DegenerateWindow):
        fit_exponent(tr, f_inf, window=(1e-2, 1e-8))
    with pytest.raises(InsufficientDecades):
        fit_exponent(tr, f_inf, window=(1e-4, 1.5e-4))


def test_fit_constant_basin_flow(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(6, "fit"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    fit = fit_exponent(tr, tr.final)
    assert 0.45 <= fit.theta_hat <= 0.55
    assert fit.r_squared >= 0.99


def test_fit_geodesic_basin_circle(s1):
    mesh = build_circle(128)
    f1 = degree_circle_map(mesh, s1, 1)
    u = random_tangent_field(f1, stream(21, "s"))
    u *= 0.15 / linf(u)
    f0 = chart_push(f1, u)
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-10))
    f_inf = tr.final
    fit = fit_exponent(tr, f_inf)
    assert 0.45 <= fit.theta_hat <= 0.55
    rep = morse_bott_report(f_inf, 1, grad_tol=1e-10)
    assert rep.verdict == "morse_bott"
    assert rep.kernel_dim == 1
    assert rep.predicted_theta == 0.5


def test_scale_coherence_fit_on_sampled_family(ico3, s2):
    # exponent recovered from a family that passes verify_inequality
    f_inf = constant_map(ico3, s2)
    samples = sample_neighborhood(f_inf, 0.1, 48, seed=1)
    rep = verify_inequality(samples, f_inf, 0.5, 0.9)
    assert rep.min_ratio >= 0.9
    # E(f_inf) = 0: the gap column is the energy column
    fit = fit_exponent(columns_trace(np.arange(len(rep.gap)), rep.gap, rep.grad_norm),
                       f_inf, window=(1e-10, 1e-2))
    assert 0.42 <= fit.theta_hat <= 0.58


# ---------------------------------------------------------------------------
# Morse-Bott reports

def test_morse_bott_constant_sphere(ico3, s2):
    rep = morse_bott_report(constant_map(ico3, s2), 2)
    assert rep.verdict == "morse_bott"
    assert rep.kernel_dim == 2
    assert rep.predicted_theta == 0.5
    assert rep.gap_ratio >= 10


def test_morse_bott_constant_circle(s1):
    mesh = build_circle(128)
    rep = morse_bott_report(constant_map(mesh, s1), 1)
    assert rep.verdict == "morse_bott"
    assert rep.kernel_dim == 1


def test_morse_bott_tolerance_abuse_detected(ico2, s2):
    f = constant_map(ico2, s2)
    op_tol_scale = 1e6  # kernel_tol far above the spectral gap
    rep = morse_bott_report(f, 2, kernel_tol=op_tol_scale)
    assert rep.verdict == "inconclusive"
    assert rep.predicted_theta is None


def test_morse_bott_wrong_expected_dim_degenerate(ico2, s2):
    rep = morse_bott_report(constant_map(ico2, s2), 5)
    assert rep.verdict == "degenerate"


def test_morse_bott_requires_critical_point(ico2, s2):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(7, "mb"))
    with pytest.raises(NotCritical):
        morse_bott_report(f, 2)


def test_morse_bott_rotation_invariant(ico2, s2):
    f = constant_map(ico2, s2)
    th = 0.4
    Q = np.array(
        [[math.cos(th), 0, math.sin(th)], [0, 1, 0], [-math.sin(th), 0, math.cos(th)]]
    )
    fq = MapField(f.values @ Q.T, s2, ico2)
    a = morse_bott_report(f, 2)
    b = morse_bott_report(fq, 2)
    assert a.verdict == b.verdict == "morse_bott"
    assert a.kernel_dim == b.kernel_dim


def test_morse_bott_identity_map(ico3, s2):
    f = identity_sphere_map(ico3, s2)
    # identity is harmonic in the continuum; discrete tension is O(h)
    rep = morse_bott_report(f, 6, kernel_tol=0.1, grad_tol=0.01, n_modes=16)
    assert rep.verdict == "morse_bott"
    assert rep.kernel_dim == 6


# ---------------------------------------------------------------------------
# convergence classification

def exp_trace(rate, n=200, t1=12.0):
    t = np.linspace(0.1, t1, n)
    return columns_trace(t, np.zeros(n), np.exp(-rate * t))


def power_trace(expo, n=200):
    t = np.geomspace(40.0, 4000.0, n)
    return columns_trace(t, np.zeros(n), t**expo)


def test_classifier_synthetic_exponential():
    v = convergence_classifier(exp_trace(3.0))
    assert v.model == "exponential"
    assert v.rate == pytest.approx(3.0, abs=1e-6)


def test_classifier_synthetic_power_law():
    v = convergence_classifier(power_trace(-2.0))
    assert v.model == "power_law"
    assert v.exponent == pytest.approx(-2.0, abs=1e-6)


def test_classifier_flow_rate_matches_spectral_gap(ico2, s2):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(8, "cls"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    v = convergence_classifier(tr)
    assert v.model == "exponential"
    assert abs(v.rate - 2.0) <= 0.4  # within 20% of the linearized prediction


def test_classifier_insufficient_tail():
    with pytest.raises(InsufficientTail):
        convergence_classifier(exp_trace(3.0, n=5))


# ---------------------------------------------------------------------------
# property tests

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 6),
    k=st.integers(1, 4),
    p=st.floats(1.0, 10.0),
)
def test_l2_admissibility_implies_wk_property(d, k, p):
    # the L2 inequality strengthens the W-form hypotheses, never weakens them
    if validate_exponents(d, k, p, "l2").admissible:
        assert validate_exponents(d, k, p, "wk").admissible


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 6), k=st.integers(1, 4), p=st.floats(1.0, 10.0))
def test_validate_exponents_total_property(d, k, p):
    for variant in ("wk", "l2"):
        v = validate_exponents(d, k, p, variant)
        assert isinstance(v.admissible, bool)
        assert v.reason


def test_gradient_family_norm_orders(ico2, s2):
    from harmonicflow.lojasiewicz import gradient_norm
    from harmonicflow.meshes import l2_norm
    from harmonicflow import tension
    from harmonicflow.errors import UnsupportedOrder as UO

    f = perturbed_constant_map(ico2, s2, 0.1, stream(12, "fam"))
    m = tension(f)
    # wk, k = 2: plain L^p norm of the tension field
    assert gradient_norm(ico2, 3, "wk", 2, 3.0)(m) == sobolev_norm(ico2, m, 0, 3.0)
    # wk, k = 1: dual-norm stand-in, dominated by the L2 norm
    assert 0.0 < gradient_dual_norm(f, 3.0) <= l2_norm(ico2, m)
    assert gradient_dual_norm(f, 3.0) == gradient_norm(ico2, 3, "wk", 1, 3.0)(m)
    with pytest.raises(UO):
        gradient_norm(ico2, 3, "wk", 3, 2.0)
    for bad in ("L2", "wk_minus_2_p"):  # spelled as VARIANTS, nothing else
        with pytest.raises(ValueError):
            gradient_norm(ico2, 3, bad, 1, 3.0)
    # l2 on one field and on each column of a (V, S, n) stack
    l2 = gradient_norm(ico2, 3, "l2", 1, 3.0)
    assert l2(m) == pytest.approx(l2_norm(ico2, m), rel=1e-14, abs=0.0)
    stack = np.stack([m, 2.0 * m, np.zeros_like(m)], axis=1)
    want = [l2_norm(ico2, stack[:, j]) for j in range(3)]
    assert l2(stack).tolist() == pytest.approx(want, rel=1e-14, abs=0.0)
