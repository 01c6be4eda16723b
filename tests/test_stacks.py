"""The (V, S, n) sample stacks against the one-sample-at-a-time references.

``bilipschitz_estimate`` and ``sample_neighborhood`` run their samples in
chunks of ``stack_chunks``, and ``verify_inequality`` measures the sampler's
stacks as they are yielded; ``tests/oracles.py`` keeps the per-sample loops
they replaced and the scatter form of the W^{k,p} norm.  Counts 0, 1, one
chunk plus one and two chunks plus one cover the empty run, a single field, a
chunk boundary and a sampler resumed twice with its stream carried across.
"""

import tracemalloc

import numpy as np
import pytest

from harmonicflow import (
    CliffordTorus,
    MapField,
    TorusOfRevolution,
    UnitSphere,
    bilipschitz_estimate,
    build_circle,
    build_flat_torus,
    build_icosphere,
    constant_map,
    degree_circle_map,
    energy,
    identity_sphere_map,
    sample_neighborhood,
    tension,
    verify_inequality,
)
import harmonicflow.cli as cli_module
from harmonicflow.charts import pull, push
from harmonicflow.config import parse_config
from harmonicflow.errors import ChartRadiusExceeded, NonTangentInput
from harmonicflow.fields import random_tangent_field
from harmonicflow.meshes import STACK_ELEMENTS, l2_norm, sobolev_norm, stack_chunks
from harmonicflow.rng import stream

from oracles import (
    dual_norm_per_field,
    reference_bilipschitz_estimate,
    reference_sample_neighborhood,
    reference_sobolev_norm,
    sample_maps,
    stack_maps,
)

REL = 1e-12


def _clifford_map(mesh):
    u, v = mesh.points[:, 0], mesh.points[:, 1]
    return MapField(np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=1),
                    CliffordTorus(2), mesh)


# source -> target pairs: (harmonic base map, constant map at the same target)
PAIRS = {
    "circle-S1": lambda: (degree_circle_map(build_circle(256), UnitSphere(2), 1),
                          constant_map(build_circle(256), UnitSphere(2))),
    "flat_torus-clifford": lambda: (_clifford_map(build_flat_torus(16, 16)),
                                    constant_map(build_flat_torus(16, 16), CliffordTorus(2))),
    "ico2-S2": lambda: (identity_sphere_map(build_icosphere(2), UnitSphere(3)),
                        constant_map(build_icosphere(2), UnitSphere(3))),
    "ico2-torus_rev": lambda: (constant_map(build_icosphere(2), TorusOfRevolution(2.0, 0.5),
                                            np.array([2.5, 0.0, 0.0])),) * 2,
}


def _chunk(f):
    return max(1, STACK_ELEMENTS // (f.mesh.vertex_count * f.target.ambient_dim))


def _counts(f):
    return (0, 1, _chunk(f) + 1, 2 * _chunk(f) + 1)


def test_stack_chunks_cover_the_range_in_bounded_slices(ico2):
    chunks = stack_chunks(ico2, 3, 200)
    assert [c.stop - c.start for c in chunks] == [67, 67, 66]
    assert chunks[0].start == 0 and chunks[-1].stop == 200
    assert stack_chunks(ico2, 3, 0) == []
    assert all(c.stop - c.start == 1 for c in stack_chunks(build_icosphere(5), 3, 3))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("p", [2.0, 3.0, 1.5])
def test_stack_norm_is_the_per_field_scatter_norm(ico2, torus16, k, p):
    for mesh, n in ((ico2, 3), (torus16, 4)):
        stack = stream(k, "stack-norm").standard_normal((mesh.vertex_count, 5, n))
        got = sobolev_norm(mesh, stack, k, p)
        assert got.shape == (5,)
        want = [reference_sobolev_norm(mesh, stack[:, s], k, p) for s in range(5)]
        assert got.tolist() == pytest.approx(want, rel=REL, abs=0.0)
        one = sobolev_norm(mesh, stack[:, 0], k, p)
        assert isinstance(one, float) and one == pytest.approx(want[0], rel=REL, abs=0.0)
        assert isinstance(sobolev_norm(mesh, stack[:, 0, 0], k, p), float)


@pytest.mark.parametrize("pair", PAIRS)
def test_chart_audit_stacks_match_the_sample_loop(pair):
    f, _ = PAIRS[pair]()
    radius = 0.1 * f.target.tubular_radius()
    for count in _counts(f):
        for norm in ((1, 2.0), (1, 3.0)):
            got = bilipschitz_estimate(f, radius, count, norm=norm, seed=3)
            want = reference_bilipschitz_estimate(f, radius, count, norm=norm, seed=3)
            assert got.sample_count == want.sample_count == count
            assert got.c4_estimate == pytest.approx(want.c4_estimate, rel=REL, abs=0.0)
            assert got.max_roundtrip_error <= 1e-12 and want.max_roundtrip_error <= 1e-12
    delta = f.target.chart_radius()
    for audit in (bilipschitz_estimate, reference_bilipschitz_estimate):
        with pytest.raises(ChartRadiusExceeded):
            audit(f, delta, 4)


def test_chart_audit_sup_rescale_matches_the_sample_loop():
    # on a 0.5 x 0.5 torus an L2 radius of 0.9 delta puts most fields' sup at or
    # past delta: those are rescaled to sup delta / 2, and their norm with them
    f = constant_map(build_flat_torus(16, 16, 0.5, 0.5), CliffordTorus(2))
    radius = 0.9 * f.target.chart_radius()
    got = bilipschitz_estimate(f, radius, 33, norm=(0, 2.0), seed=3)
    want = reference_bilipschitz_estimate(f, radius, 33, norm=(0, 2.0), seed=3)
    assert got.sample_count == want.sample_count == 33
    assert got.c4_estimate == pytest.approx(want.c4_estimate, rel=REL, abs=0.0)
    assert got.c4_estimate > 1.01


@pytest.mark.parametrize("pair", PAIRS)
def test_neighbourhood_stacks_match_the_sample_loop(pair):
    f_base, f_const = PAIRS[pair]()
    for f_inf in (f_base, f_const):
        mesh = f_inf.mesh
        for count in _counts(f_inf):
            stacks = list(sample_neighborhood(f_inf, 0.1, count, norm=(1, 3.0), seed=5))
            assert [s.shape[1] for s in stacks] == [
                c.stop - c.start for c in stack_chunks(mesh, f_inf.target.ambient_dim, count)]
            got = sample_maps(stacks, f_inf)
            want = reference_sample_neighborhood(f_inf, 0.1, count, norm=(1, 3.0), seed=5)
            assert len(got) == len(want) == count
            for g, w in zip(got, want):
                assert np.max(np.abs(g.values - w.values)) <= REL
                assert sobolev_norm(mesh, g.values - f_inf.values, 1, 3.0) == pytest.approx(
                    reference_sobolev_norm(mesh, w.values - f_inf.values, 1, 3.0), rel=REL, abs=0.0)
    for sampler in (sample_neighborhood, reference_sample_neighborhood):
        with pytest.raises(ChartRadiusExceeded):
            list(sampler(f_const, 50.0, 3, norm=(1, 3.0), seed=5))


@pytest.mark.parametrize("pair", PAIRS)
def test_verify_stacks_match_per_sample_energy_and_tension(pair):
    # at a constant map E(f_inf) = 0, so each gap is an energy resolved to rounding
    _, f_inf = PAIRS[pair]()
    mesh = f_inf.mesh
    e_inf = energy(f_inf)
    for count in _counts(f_inf):
        samples = reference_sample_neighborhood(f_inf, 0.1, count, norm=(1, 3.0), seed=2)
        stacks = [stack_maps(samples[c])
                  for c in stack_chunks(mesh, f_inf.target.ambient_dim, count)]
        gaps = [abs(energy(f) - e_inf) for f in samples]
        l2 = [l2_norm(mesh, tension(f)) for f in samples]
        dual = [dual_norm_per_field(mesh, tension(f), 3.0) for f in samples]
        for variant, grads in (("l2", l2), ("wk", dual)):
            rep = verify_inequality(stacks, f_inf, 0.5, 0.9, variant, (1, 3.0))
            assert len(rep.gap) == count
            assert rep.gap.tolist() == pytest.approx(gaps, rel=REL, abs=0.0)
            assert rep.grad_norm.tolist() == pytest.approx(grads, rel=REL, abs=0.0)
            ratios = [g / gap**0.5 for g, gap in zip(grads, gaps)]
            assert rep.ratio.tolist() == pytest.approx(ratios, rel=REL, abs=0.0)


def _traced_peak(run) -> int:
    """tracemalloc's peak, in bytes, over one call of run."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


VERIFY_CFG = """
[scenario]
seed = 1
analyses = verify
[mesh]
kind = icosphere
level = 3
[target]
kind = sphere
ambient_dim = 3
[initial_map]
kind = constant
"""


def test_verify_memory_is_one_stack_not_the_run(ico3, s2, tmp_path):
    # a stack holds 17 ico3 samples: 34 samples are 2 stacks and 340 are 20, and
    # a run held whole would peak at about 2.8 times the 34-sample run
    f_inf = constant_map(ico3, s2)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(VERIFY_CFG)
    run = cli_module._Run(parse_config(str(cfg)), str(tmp_path))
    assert run.scn.verify["norm"] == "l2" and run.scn.verify["p"] == 3.0

    def direct(count):
        return lambda: verify_inequality(
            sample_neighborhood(f_inf, 0.1, count, (1, 3.0), 1), f_inf, 0.5, 0.9)

    def through_cli(count):  # the CLI must hand the sampler's stacks on, not a list
        run.scn.verify["count"] = count
        return run.run_verify

    for measure in (direct, through_cli):
        measure(1)()  # the mesh's cached operators are built outside the trace
        small, large = _traced_peak(measure(34)), _traced_peak(measure(340))
        assert large <= 1.1 * small


def test_shrink_passes_match_the_sample_loop(monkeypatch, ico2, s2):
    # pushes land off by a constant field of norm 0.9 sigma, so many samples end
    # outside the sigma ball and shrink, some more than once: the stack code
    # shrinks only those, and both samplers run the same offset push
    import harmonicflow.charts as charts_module
    import harmonicflow.lojasiewicz as loja_module

    f_inf, sigma, count = identity_sphere_map(ico2, s2), 0.1, 68
    offset = np.ones((ico2.vertex_count, 3))
    offset *= 0.9 * sigma / sobolev_norm(ico2, offset, 1, 3.0)
    bare, widths = charts_module.push, []

    def offset_push(f, u):
        widths.append(u.shape[1])
        return bare(f, u) + offset[:, None, :]

    monkeypatch.setattr(charts_module, "push", offset_push)
    monkeypatch.setattr(loja_module, "push", offset_push)
    got = sample_maps(sample_neighborhood(f_inf, sigma, count, norm=(1, 3.0), seed=5), f_inf)
    stacked, widths[:] = list(widths), []
    want = reference_sample_neighborhood(f_inf, sigma, count, norm=(1, 3.0), seed=5)
    assert len(want) == count and len(widths) > count + 8  # the loop shrank often
    assert sum(stacked) == len(widths)  # the same pushes, field for field
    assert stacked[0] == 67 and max(stacked[1:]) > 1  # passes over subsets of a chunk
    for g, w in zip(got, want):
        assert np.max(np.abs(g.values - w.values)) <= REL


def test_push_checks_each_field_of_a_stack(ico2, s2):
    f = constant_map(ico2, s2)
    rng = stream(1, "stack-push")
    u = np.stack([random_tangent_field(f, rng) for _ in range(3)], axis=1)
    sup = np.sqrt(np.max(np.sum(u * u, axis=-1), axis=0))
    u *= (0.2 / sup)[:, None]
    f1 = push(f, u)
    assert np.max(np.abs(pull(f, f1) - u)) <= 1e-14
    u[:, 1] *= 3.0  # one field at 0.6 >= the chart radius 0.5
    with pytest.raises(ChartRadiusExceeded):
        push(f, u)
    far = f1.copy()
    far[:, 2] = -f.values  # one map at the antipode: too far for the chart
    with pytest.raises(ChartRadiusExceeded):
        pull(f, far)


# ---------------------------------------------------------------------------
# row norms: sqrt(row_dots(x, x)) in place of np.linalg.norm(x, axis=-1)

@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_row_norms_are_np_linalg_norm_bitwise(ico2, bad):
    x = np.random.default_rng(4).standard_normal((ico2.vertex_count, 17, 4))
    if bad is not None:
        x[5, 3, 1] = x[9, 0, 2] = bad
    want = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
    assert np.array_equal(UnitSphere(4).distance(x), want, equal_nan=True)
    rho = np.linalg.norm(x.reshape(x.shape[:-1] + (2, 2)), axis=-1)
    want = np.linalg.norm(rho - 1.0, axis=-1)
    assert np.array_equal(CliffordTorus(2).distance(x), want, equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_fail_the_norm_checks(ico2, s2, bad):
    f = constant_map(ico2, s2)
    v = np.zeros_like(f.values)
    v[4, 0] = bad
    f1 = np.repeat(f.values[:, None, :], 3, axis=1)
    f1[5, 1, 0] = bad
    with np.errstate(all="ignore"):
        with pytest.raises(NonTangentInput):
            s2.require_tangent(f.values, v)
        with pytest.raises((ChartRadiusExceeded, NonTangentInput)):
            pull(f, f1)
