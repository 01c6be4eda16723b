import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harmonicflow import (
    FlowControl,
    MapField,
    constant_map,
    fit_exponent,
    morse_bott_report,
    perturbed_constant_map,
    run_flow,
)
from harmonicflow.checkpoint import (
    export_trace,
    load_checkpoint,
    read_trace,
    save_checkpoint,
)
import harmonicflow.cli as cli_module
import harmonicflow.lojasiewicz as loja_module
from harmonicflow.cli import main as cli_main
from harmonicflow.config import (
    flow_control_from_config,
    mesh_spec_from_config,
    parse_config,
    target_spec_from_config,
)
from harmonicflow.meshes import MESH_KINDS, build_source
from harmonicflow.targets import TARGET_KINDS, build_target
from harmonicflow.errors import (
    CheckpointParseError,
    CheckpointVersionError,
    ConfigError,
    EmptyTrace,
    OffTarget,
    SpecMismatch,
)
from harmonicflow.flow import FlowSample, FlowTrace
from harmonicflow.rng import stream

from oracles import json_checkpoint_text


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bit_identical(ico2, s2, tmp_path):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(1, "ck"))
    path = tmp_path / "ck.json"
    save_checkpoint(f, {"step": 3, "time": 0.125, "energy": 0.5}, str(path))
    g, meta = load_checkpoint(str(path), mesh=ico2, target=s2)
    assert np.array_equal(g.values, f.values)
    assert meta["step"] == 3
    assert float(meta["time"]) == 0.125


def test_checkpoint_bytes_equal_json_dump(ico2, s2, tmp_path):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(1, "ck"))
    f.values[0] = [-0.0, 5e-324, 1.0]  # signed zero and the smallest subnormal
    meta = {"step": 3, "time": 0.1, "energy": -0.0, "tiny": 5e-324, "label": "x"}
    path = tmp_path / "ck.json"
    save_checkpoint(f, meta, str(path))
    assert path.read_bytes() == json_checkpoint_text(f, meta).encode()
    save_checkpoint(f, {}, str(path))
    assert path.read_bytes() == json_checkpoint_text(f, {}).encode()


def test_checkpoint_self_contained_reload(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {"step": 0}, str(path))
    g, _ = load_checkpoint(str(path))  # rebuilds mesh and target from the echo
    assert g.mesh.spec == ico2.spec
    assert g.target.spec() == s2.spec()
    assert np.array_equal(g.values, f.values)


def test_checkpoint_version_error(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(str(path))


def test_checkpoint_truncated_file(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(CheckpointParseError):
        load_checkpoint(str(path))


def test_checkpoint_off_target_rejected(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    payload = json.loads(path.read_text())
    payload["values"][0] = ["1.5", "0", "0"]
    path.write_text(json.dumps(payload))
    with pytest.raises(OffTarget):
        load_checkpoint(str(path))


def test_checkpoint_nan_value_rejected(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    payload = json.loads(path.read_text())
    payload["values"][0][1] = "nan"
    path.write_text(json.dumps(payload))
    with pytest.raises(OffTarget):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("mesh", {"kind": "icosphere"}),  # no level: TypeError in the builder
        ("target", {"kind": "sphere"}),  # no ambient_dim: KeyError
        ("mesh", "x"),  # not a dict: AttributeError
    ],
    ids=["mesh-without-level", "target-without-ambient-dim", "mesh-not-a-dict"],
)
def test_checkpoint_bad_spec_is_parse_error(ico2, s2, tmp_path, field, bad):
    path = tmp_path / "ck.json"
    save_checkpoint(constant_map(ico2, s2), {}, str(path))
    payload = json.loads(path.read_text())
    payload[field] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointParseError):
        load_checkpoint(str(path))


def test_checkpoint_spec_mismatch(ico2, ico3, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    with pytest.raises(SpecMismatch):
        load_checkpoint(str(path), mesh=ico3, target=s2)


# ---------------------------------------------------------------------------
# trace CSV

def one_sample_trace():
    tr = FlowTrace()
    tr.samples.append(FlowSample(0.0, 1.0, 0.5, float("nan"), 0.0))
    return tr


def test_trace_export_two_lines(tmp_path):
    path = tmp_path / "trace.csv"
    export_trace(one_sample_trace(), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,energy,grad_norm_l2,dist_to_limit,dt"


def test_trace_export_empty_raises(tmp_path):
    with pytest.raises(EmptyTrace):
        export_trace(FlowTrace(), str(tmp_path / "t.csv"))


def test_trace_reload_and_refit_identical(ico2, s2, tmp_path):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(2, "csv"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    f_inf = MapField(tr.final_values, s2, ico2)
    fit_mem = fit_exponent(tr, f_inf)
    path = tmp_path / "trace.csv"
    export_trace(tr, str(path))
    data = read_trace(str(path))
    reparsed = FlowTrace()
    for i in range(len(data["t"])):
        reparsed.samples.append(
            FlowSample(
                data["t"][i], data["energy"][i], data["grad_norm_l2"][i],
                data["dist_to_limit"][i], data["dt"][i],
            )
        )
    fit_csv = fit_exponent(reparsed, f_inf, window=fit_mem.window)
    assert abs(fit_csv.theta_hat - fit_mem.theta_hat) <= 1e-12
    assert abs(fit_csv.z_hat - fit_mem.z_hat) <= 1e-12 * fit_mem.z_hat


# ---------------------------------------------------------------------------
# configuration

BASE_CFG = """
[scenario]
seed = 7
analyses = {analyses}

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


def write_cfg(tmp_path, body, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_parse_config_minimal(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    scn = parse_config(path)
    assert scn.seed == 7
    assert scn.analyses == []
    assert scn.mesh["level"] == 2


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="") + "\nwibble = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="") + "\n[plotting]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_unknown_analysis_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="dance"))
    with pytest.raises(ConfigError):
        parse_config(path)


def test_missing_required_key(tmp_path):
    cfg = BASE_CFG.format(analyses="").replace("seed = 7\n", "")
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, cfg))


MINIMAL_SECTIONS = {
    "scenario": {"seed": 1},
    "mesh": {"kind": "icosphere", "level": 1},
    "target": {"kind": "sphere", "ambient_dim": 3},
    "initial_map": {"kind": "constant"},
}


def minimal_cfg(tmp_path, **overrides):
    """Write the minimal config, with whole sections replaced by ``overrides``."""
    sections = {**MINIMAL_SECTIONS, **overrides}
    body = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    return write_cfg(tmp_path, body)


@pytest.mark.parametrize("section,key", [
    ("verify", "variant"),
    ("verify", "norm"),
    ("mesh", "kind"),
    ("target", "kind"),
    ("initial_map", "kind"),
])
def test_unknown_enum_value_rejected_at_parse(tmp_path, section, key):
    keys = {**MINIMAL_SECTIONS.get(section, {}), key: "bogus"}
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(minimal_cfg(tmp_path, **{section: keys}))


def test_minimal_flow_section_is_flow_control_defaults(tmp_path):
    scn = parse_config(minimal_cfg(tmp_path))
    assert flow_control_from_config(scn.flow) == FlowControl()


def test_max_time_inf_parses(tmp_path):
    scn = parse_config(minimal_cfg(tmp_path, flow={"max_time": "inf"}))
    assert scn.flow["max_time"] == math.inf


# one valid example per kind; a kind added to a table needs an example here
MESH_EXAMPLES = {
    "circle": {"n": 16},
    "flat_torus": {"nu": 8, "nv": 12, "lu": 3.0, "lv": 4.5},
    "icosphere": {"level": 1},
}
TARGET_EXAMPLES = {
    "sphere": {"ambient_dim": 3},
    "clifford_torus": {"m": 2},
    "torus_rev": {"R": 2.0, "r": 0.5},
}


def test_every_mesh_kind_round_trips_config_spec_build(tmp_path):
    assert set(MESH_EXAMPLES) == set(MESH_KINDS)
    for kind, keys in MESH_EXAMPLES.items():
        scn = parse_config(minimal_cfg(tmp_path, mesh={"kind": kind, **keys}))
        spec = mesh_spec_from_config(scn.mesh)
        assert spec == {"kind": kind, **keys}
        mesh = build_source(spec)
        assert mesh.spec == spec
        assert mesh.dimension == MESH_KINDS[kind].dimension


def test_every_target_kind_round_trips_config_spec_build(tmp_path):
    assert set(TARGET_EXAMPLES) == set(TARGET_KINDS)
    for kind, keys in TARGET_EXAMPLES.items():
        scn = parse_config(minimal_cfg(tmp_path, target={"kind": kind, **keys}))
        spec = target_spec_from_config(scn.target)
        assert spec == {"kind": kind, **keys}
        assert build_target(spec).spec() == spec


def test_kind_missing_its_key_rejected(tmp_path):
    scn = parse_config(minimal_cfg(
        tmp_path,
        mesh={"kind": "flat_torus", "nu": 8},
        target={"kind": "torus_rev", "R": 2.0},
    ))
    with pytest.raises(ConfigError, match="flat_torus requires nv"):
        mesh_spec_from_config(scn.mesh)
    with pytest.raises(ConfigError, match="torus_rev requires r"):
        target_spec_from_config(scn.target)


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses_and_sets_up(tmp_path, path):
    scn = parse_config(str(path))
    run = cli_module._Run(scn, str(tmp_path))  # mesh, target and initial map
    assert run.f0.values.shape == (run.mesh.vertex_count, run.target.ambient_dim)


# ---------------------------------------------------------------------------
# CLI

def test_cli_manifest_only_run(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    out = tmp_path / "out"
    rc = cli_main(["run", path, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == []


def test_cli_flow_and_manifest_hashes(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="flow, loja-fit"))
    out = tmp_path / "out"
    rc = cli_main(["run", path, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    listed = {o["path"] for o in manifest["outputs"]}
    assert {"trace.csv", "final_map.json", "flow_summary.json", "loja_fit.json"} <= listed
    import hashlib

    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    fit = json.loads((out / "loja_fit.json").read_text())
    assert 0.4 <= fit["theta_hat"] <= 0.6


def test_cli_radius_guard_at_dt_min_is_step_collapse(tmp_path):
    cfg = BASE_CFG.format(analyses="flow").replace("dt0 = 1e-5", "dt0 = 4\ndt_min = 3")
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "flow_summary.json").read_text())
    assert summary["terminated_by"] == "step_collapse"
    assert summary["accepted_steps"] == 0


@pytest.mark.parametrize("analysis,section,keys", [
    pytest.param("flow", "flow", {"dt0": "0"}, id="dt0-0"),
    pytest.param("flow", "flow", {"dt0": "nan"}, id="dt0-nan"),
    pytest.param("flow", "flow", {"dt_min": "nan"}, id="dt_min-nan"),
    pytest.param("flow", "flow", {"dt_min": "-1"}, id="dt_min--1"),
    pytest.param("flow", "flow", {"dist_k": "3"}, id="dist_k-3"),
    pytest.param("verify", "verify", {"k": "3"}, id="verify-k-3"),
    pytest.param("chart-audit", "chart_audit", {"k": "3"}, id="chart_audit-k-3"),
    # the unit sphere's chart radius is 0.5
    pytest.param("chart-audit", "chart_audit", {"radius": "0.5"}, id="chart_audit-radius"),
    pytest.param("mult-probe", "mult_probe", {"k": "1", "p": "2"}, id="mult_probe-k1-p2"),
    pytest.param("hessian-spec", "hessian", {"n_modes": "0"}, id="n_modes-0"),
    pytest.param("loja-fit", "loja_fit", {"window_lo": "1e-3"}, id="window_lo-alone"),
    pytest.param("loja-fit", "loja_fit", {"window_lo": "1e-2", "window_hi": "1e-3"},
                 id="window-inverted"),
    pytest.param("flow", "flow", {"dist_p": "0.5"}, id="dist_p-0.5"),
    pytest.param("chart-audit", "chart_audit", {"p": "0.5"}, id="chart_audit-p-0.5"),
    pytest.param("chart-audit", "chart_audit", {"radius": "-0.1"}, id="chart_audit-radius--0.1"),
    pytest.param("chart-audit", "chart_audit", {"samples": "0"}, id="chart_audit-samples-0"),
    pytest.param("hessian-spec", "hessian", {"kernel_tol": "0"}, id="kernel_tol-0"),
    pytest.param("hessian-spec", "hessian", {"kernel_tol": "-0.5"}, id="kernel_tol--0.5"),
    pytest.param("verify", "verify", {"count": "0"}, id="verify-count-0"),
    pytest.param("verify", "verify", {"sigma": "-0.1"}, id="verify-sigma--0.1"),
    pytest.param("mult-probe", "mult_probe", {"trials": "-1"}, id="mult_probe-trials--1"),
    pytest.param("flow", "initial_map", {"kind": "from_checkpoint", "path": "missing.json"},
                 id="missing-checkpoint"),
    # stop values: NaN would switch a stop off, a negative one runs no step
    pytest.param("flow", "flow", {"grad_tol": "nan"}, id="grad_tol-nan"),
    pytest.param("flow", "flow", {"max_steps": "-5"}, id="max_steps--5"),
    pytest.param("flow", "flow", {"max_time": "-1"}, id="max_time--1"),
    pytest.param("flow", "flow", {"max_time": "nan"}, id="max_time-nan"),
    # the inequality's exponent lies in [1/2, 1)
    pytest.param("verify", "verify", {"theta": "2"}, id="theta-2"),
    pytest.param("verify", "verify", {"theta": "0.4"}, id="theta-0.4"),
    pytest.param("verify", "verify", {"z": "0"}, id="z-0"),
    # 0 switches checkpoints off; a negative cadence wrote none and hid it
    pytest.param("flow", "flow", {"checkpoint_every": "-5"}, id="checkpoint_every--5"),
    pytest.param("hessian-spec", "hessian", {"expected_critical_dim": "-3"},
                 id="expected_critical_dim--3"),
    # sizes: inf reached the initial map as a non-finite point
    pytest.param("flow", "mesh", {"lu": "inf", "kind": "flat_torus", "nu": 8, "nv": 8},
                 id="lu-inf"),
    pytest.param("flow", "target", {"R": "inf", "kind": "torus_rev", "r": 0.5}, id="R-inf"),
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, analysis, section, keys):
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": analysis}, **{section: keys})
    assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {next(iter(keys))}" in capsys.readouterr().err


def test_cli_verify_default_p_is_admissible(tmp_path):
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "verify"})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    assert (out / "verify_margins.json").exists()


def test_cli_bad_config_exit_2(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="") + "\ntypo = 1\n")
    assert cli_main(["run", path]) == 2


def test_cli_missing_config_exit_2(tmp_path):
    assert cli_main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_cli_inadmissible_verify_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="verify") + "\n[verify]\nk = 1\np = 2\nvariant = l2\n"
    path = write_cfg(tmp_path, cfg)
    rc = cli_main(["run", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kp > d" in err


def test_cli_single_analysis_subcommand(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    out = tmp_path / "out"
    rc = cli_main(["chart-audit", path, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "chart_report.json").read_text())
    assert rep["c4_estimate"] >= 1.0


def test_cli_mult_probe(tmp_path):
    cfg = BASE_CFG.format(analyses="mult-probe") + "\n[mult_probe]\nlevels = 8, 16\ntrials = 4\n"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    probe = json.loads((out / "mult_probe.json").read_text())
    assert len(probe["levels"]) == 2


def test_cli_hessian_spec_with_morse_bott(tmp_path):
    cfg = BASE_CFG.format(analyses="hessian-spec").replace(
        "kind = perturbed_constant\namplitude = 0.1", "kind = constant"
    )
    cfg += "\n[hessian]\nexpected_critical_dim = 2\n"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    spec = json.loads((out / "hessian_spectrum.json").read_text())
    assert spec["kernel_dim"] == 2
    mb = json.loads((out / "morse_bott.json").read_text())
    assert mb["verdict"] == "morse_bott"


def test_cli_bogus_verify_variant_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="verify") + "\n[verify]\np = 3\nvariant = bogus\n"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "variant" in capsys.readouterr().err


def test_cli_hessian_spec_assembles_one_hessian(tmp_path, monkeypatch):
    calls = []
    for module in (cli_module, loja_module):
        for name in ("hessian_matrix", "hessian_spectrum"):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    cfg = BASE_CFG.format(analyses="hessian-spec").replace(
        "kind = perturbed_constant\namplitude = 0.1", "kind = constant"
    )
    cfg += "\n[hessian]\nexpected_critical_dim = 2\n"
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert sorted(calls) == ["hessian_matrix", "hessian_spectrum"]
    monkeypatch.undo()
    scn = parse_config(write_cfg(tmp_path, cfg))
    f = constant_map(build_source(mesh_spec_from_config(scn.mesh)),
                     build_target(target_spec_from_config(scn.target)))
    report = morse_bott_report(f, 2, grad_tol=scn.flow["grad_tol"])
    written = json.loads((out / "morse_bott.json").read_text())
    assert written == json.loads(json.dumps(report.to_json_dict()))


def test_cli_hessian_spec_not_critical_exit_3_after_spectrum(tmp_path):
    cfg = BASE_CFG.format(analyses="hessian-spec")  # perturbed map: not critical
    cfg += "\n[hessian]\nexpected_critical_dim = 2\n"
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert (out / "hessian_spectrum.json").exists()
    assert not (out / "morse_bott.json").exists()


def test_cli_from_checkpoint_roundtrip(tmp_path, ico2, s2):
    f = perturbed_constant_map(ico2, s2, 0.1, stream(3, "cli-ck"))
    ck = tmp_path / "start.json"
    save_checkpoint(f, {"step": 0}, str(ck))
    cfg = BASE_CFG.format(analyses="flow").replace(
        "kind = perturbed_constant\namplitude = 0.1", f"kind = from_checkpoint\npath = {ck}"
    )
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()


def test_cli_checkpoint_mesh_mismatch_exit_2(tmp_path, ico3, s2):
    f = constant_map(ico3, s2)
    ck = tmp_path / "start.json"
    save_checkpoint(f, {"step": 0}, str(ck))
    cfg = BASE_CFG.format(analyses="flow").replace(
        "kind = perturbed_constant\namplitude = 0.1", f"kind = from_checkpoint\npath = {ck}"
    )
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 2


def test_cli_off_target_checkpoint_exit_2(tmp_path, capsys, ico2, s2):
    # a checkpoint problem, not a numerical failure
    ck = tmp_path / "start.json"
    save_checkpoint(constant_map(ico2, s2), {"step": 0}, str(ck))
    payload = json.loads(ck.read_text())
    payload["values"][0] = ["1.5", "0", "0"]
    ck.write_text(json.dumps(payload))
    cfg = BASE_CFG.format(analyses="flow").replace(
        "kind = perturbed_constant\namplitude = 0.1", f"kind = from_checkpoint\npath = {ck}"
    )
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "initial_map, mesh",
    [
        ("kind = constant\npoint = 0, 0, 0", None),  # at the sphere's centre
        ("kind = constant\npoint = 1, 0", None),  # R^2 point for an S^2 target
        ("kind = identity_sphere", "kind = circle\nn = 32"),
    ],
    ids=["point-at-centre", "point-wrong-dimension", "identity-on-circle"],
)
def test_cli_bad_initial_map_exit_2(tmp_path, capsys, initial_map, mesh):
    cfg = BASE_CFG.format(analyses="").replace(
        "kind = perturbed_constant\namplitude = 0.1", initial_map
    )
    if mesh is not None:
        cfg = cfg.replace("kind = icosphere\nlevel = 2", mesh)
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "rejected" in capsys.readouterr().err


def test_cli_overflowing_point_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="").replace(
        "kind = perturbed_constant\namplitude = 0.1", "kind = constant\npoint = 1e200, 0, 0"
    )
    with np.errstate(over="ignore"):  # |point|^2 overflows before the rejection
        assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["2", "0"])
def test_cli_threads_other_than_one_exit_2(tmp_path, threads):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    with pytest.raises(SystemExit) as exc:
        cli_main(["--threads", threads, "run", path, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_cli_validate_exponents_subcommand(capsys):
    assert cli_main(["validate-exponents", "2", "1", "3", "wk"]) == 0
    assert cli_main(["validate-exponents", "4", "1", "5", "l2"]) == 2
    err_out = capsys.readouterr().out
    assert "d < 4" in err_out


def test_cli_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HARMONICFLOW_OUT", str(tmp_path / "root"))
    cfg = BASE_CFG.format(analyses="") + "\n"
    cfg = cfg.replace("[scenario]", "[scenario]\noutput_dir = nested")
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["run", path]) == 0
    assert (tmp_path / "root" / "nested" / "run_manifest.json").exists()


def test_cli_entry_point_subprocess(tmp_path):
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicflow.cli", "run", path, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
