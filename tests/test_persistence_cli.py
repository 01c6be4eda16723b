import dataclasses
import importlib
import json
import math
import subprocess
import sys
import zlib
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
    TRACE_COLUMNS,
    export_trace,
    load_checkpoint,
    read_trace,
    save_checkpoint,
)
import harmonicflow.cli as cli_module
import harmonicflow.lojasiewicz as loja_module
import harmonicflow.meshes as meshes_module
from harmonicflow.cli import main as cli_main
from harmonicflow.config import (
    INITIAL_MAP_KINDS,
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
    InvalidSpec,
    NotOnTarget,
    SpecMismatch,
)
from harmonicflow.flow import FlowTrace
from harmonicflow.rng import stream
from harmonicflow.specs import take_kind
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_laplacian_spectrum, json_checkpoint_text
from test_flow import rough_map

# the package exports the function ``energy`` under the module's name
energy_module = importlib.import_module("harmonicflow.energy")


def strict_json(path):
    """A JSON artifact parsed as strict JSON, whose grammar has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


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
    with pytest.raises(NotOnTarget):
        load_checkpoint(str(path))


def test_checkpoint_nan_value_rejected(ico2, s2, tmp_path):
    f = constant_map(ico2, s2)
    path = tmp_path / "ck.json"
    save_checkpoint(f, {}, str(path))
    payload = json.loads(path.read_text())
    payload["values"][0][1] = "nan"
    path.write_text(json.dumps(payload))
    with pytest.raises(NotOnTarget):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("mesh", {"kind": "icosphere"}),  # no level: TypeError in the builder
        ("target", {"kind": "sphere"}),  # no ambient_dim: KeyError
        ("mesh", "x"),  # not a dict: AttributeError
        # a key the kind does not take: the builder would drop it
        ("mesh", {"kind": "icosphere", "level": 2, "n": 64}),
        ("target", {"kind": "sphere", "ambient_dim": 3, "R": 7.0}),
        ("mesh", {"kind": "icosphere", "level": 2.7}),  # was truncated to level 2
    ],
    ids=["mesh-without-level", "target-without-ambient-dim", "mesh-not-a-dict",
         "mesh-with-a-key-of-another-kind", "target-with-a-key-of-another-kind",
         "mesh-level-not-an-int"],
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
    return FlowTrace(*np.array([[0.0], [1.0], [0.5], [math.nan], [0.0]]))


def test_trace_export_two_lines(tmp_path):
    path = tmp_path / "trace.csv"
    export_trace(one_sample_trace(), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,energy,grad_norm_l2,dist_to_limit,dt"


def test_trace_export_empty_raises(tmp_path):
    with pytest.raises(EmptyTrace):
        export_trace(FlowTrace(*np.empty((5, 0))), str(tmp_path / "t.csv"))


# nan as written by float("nan"); the writer keeps no other payload
TRACE_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
    st.floats(allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(*[TRACE_VALUES] * 5), min_size=1, max_size=12))
def test_trace_export_read_bitwise_property(tmp_path_factory, rows):
    path = str(tmp_path_factory.mktemp("trace") / "trace.csv")
    columns = np.array(rows, dtype=float).T
    export_trace(FlowTrace(*columns), path)
    back = read_trace(path)
    for name, col in zip(TRACE_COLUMNS, columns):
        assert getattr(back, name).view(np.uint64).tolist() == col.view(np.uint64).tolist()


def test_trace_reload_and_refit_identical(ico2, s2, tmp_path):
    f0 = perturbed_constant_map(ico2, s2, 0.1, stream(2, "csv"))
    tr = run_flow(f0, FlowControl(dt0=1e-5, grad_tol=1e-9))
    fit_mem = fit_exponent(tr, tr.final)
    path = tmp_path / "trace.csv"
    export_trace(tr, str(path))
    fit_csv = fit_exponent(read_trace(str(path)), tr.final, window=fit_mem.window)
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


# the spellings a config may use, and the value each parses to
@pytest.mark.parametrize("section,keys,want", [
    *(pytest.param("flow", {"write_checkpoints": raw}, {"write_checkpoints": value},
                   id=f"bool-{raw}")
      for raw, value in (("Yes", True), ("on", True), ("0", False), ("FALSE", False))),
    *(pytest.param(section, dict.fromkeys(keys, raw), dict.fromkeys(keys), id=f"{keys[0]}-{raw}")
      for section, keys in (("chart_audit", ("radius",)), ("hessian", ("kernel_tol",)),
                            ("loja_fit", ("window_lo", "window_hi")))
      for raw in ("auto", "AUTO")),
    *(pytest.param("hessian", {"expected_critical_dim": raw}, {"expected_critical_dim": None},
                   id=f"expected_critical_dim-{raw or 'empty'}") for raw in ("none", "None", "")),
    pytest.param("initial_map", {"kind": "constant", "point": "2.5 , 0 , 0 ,"},
                 {"point": [2.5, 0.0, 0.0]}, id="point-trailing-comma"),
    pytest.param("scenario", {"seed": 1, "analyses": "flow, loja-fit,"},
                 {"analyses": ["flow", "loja-fit"]}, id="analyses-trailing-comma"),
    pytest.param("mult_probe", {"levels": "8, 404"}, {"levels": [8, 404]}, id="levels-8-404"),
    pytest.param("scenario", {"seed": 1, "output_dir": "runs/100%"}, {"output_dir": "runs/100%"},
                 id="output_dir-percent"),  # read literally, not as an interpolation
])
def test_config_spellings_accepted(tmp_path, section, keys, want):
    parsed = parse_config(minimal_cfg(tmp_path, **{section: keys})).echo[section]
    assert {key: parsed[key] for key in want} == want


@pytest.mark.parametrize("section,key,raw", [
    ("mult_probe", "levels", "405"),
    *((section, key, "3") for section, key in (
        ("flow", "dist_k"), ("verify", "k"), ("chart_audit", "k"), ("mult_probe", "k"))),
    *((section, key, raw) for section, key in (
        ("flow", "dist_p"), ("verify", "p"), ("chart_audit", "p"), ("mult_probe", "p"))
      for raw in ("0.99", "inf", "nan")),
])
def test_config_spellings_rejected(tmp_path, section, key, raw):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{raw}'"):
        parse_config(minimal_cfg(tmp_path, **{section: {key: raw}}))


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(Path(minimal_cfg(tmp_path)).read_bytes() + "# café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.cfg.*utf-8"):
        parse_config(str(path))


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
    with pytest.raises(ConfigError, match=r"\[mesh\] nv: kind flat_torus requires it"):
        parse_config(minimal_cfg(tmp_path, mesh={"kind": "flat_torus", "nu": 8}))
    with pytest.raises(ConfigError, match=r"\[target\] r: kind torus_rev requires it"):
        parse_config(minimal_cfg(tmp_path, target={"kind": "torus_rev", "R": 2.0}))


# a key another kind takes; each was ignored, so the run used the kind's defaults
@pytest.mark.parametrize("section,keys", [
    ("mesh", {"kind": "icosphere", "level": 1, "n": 64}),
    ("target", {"kind": "sphere", "ambient_dim": 3, "R": 7}),
    ("initial_map", {"kind": "constant", "amplitude": 0.3}),
    ("initial_map", {"kind": "identity_sphere", "point": "0, 0, 1"}),
], ids=["icosphere-n", "sphere-R", "constant-amplitude", "identity_sphere-point"])
def test_cli_key_of_another_kind_exit_2(tmp_path, capsys, section, keys):
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "flow"}, **{section: keys})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    key = list(keys)[-1]
    assert f"[{section}] {key}: kind {keys['kind']} takes" in capsys.readouterr().err
    assert not out.exists()


# an int key of each kind table given a number that is not an int; each was
# truncated (2.7 to 2, True to 1), so another mesh, target or map was built
@pytest.mark.parametrize("kinds,spec", [
    (MESH_KINDS, {"kind": "icosphere", "level": 2.7}),
    (MESH_KINDS, {"kind": "icosphere", "level": True}),
    (MESH_KINDS, {"kind": "circle", "n": 16.5}),
    (MESH_KINDS, {"kind": "flat_torus", "nu": 8, "nv": 12.5}),
    (TARGET_KINDS, {"kind": "sphere", "ambient_dim": 3.9}),
    (TARGET_KINDS, {"kind": "clifford_torus", "m": True}),
    (INITIAL_MAP_KINDS, {"kind": "degree_circle", "k": 1.5}),
], ids=["icosphere-level-2.7", "icosphere-level-true", "circle-n", "flat_torus-nv",
        "sphere-ambient_dim", "clifford_torus-m-true", "degree_circle-k"])
def test_int_spec_key_rejects_what_is_not_an_int(kinds, spec):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        take_kind(kinds, spec, "spec")


def test_int_spec_key_takes_an_integral_number():
    # a JSON 2.0 is the int 2: only a fractional part or a bool is rejected
    assert build_source({"kind": "icosphere", "level": 2.0}).spec == {"kind": "icosphere",
                                                                      "level": 2}


def test_cli_int_key_not_an_int_exit_2(tmp_path, capsys):
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "flow"},
                       mesh={"kind": "icosphere", "level": 2.7})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert "[mesh] level = '2.7'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_checkpoints_on_with_no_cadence_exit_2(tmp_path, capsys):
    # checkpoint_every = 0 switches checkpoints off, so write_checkpoints = true wrote none
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "flow"},
                       flow={"write_checkpoints": "true", "checkpoint_every": 0})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "write_checkpoints" in err and "checkpoint_every" in err
    assert not out.exists()


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    path = minimal_cfg(tmp_path, scenario={"seed": -1, "analyses": "flow"})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert "[scenario] seed = '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_stream_seeds_do_not_alias():
    # a seed past 64 bits is its own stream, not the masked one; below, the
    # stream is the SeedSequence of the seed itself, as before
    def draw(seed):
        return stream(seed, "initial-map").standard_normal(4).tolist()

    assert draw(2**64 + 1) != draw(1)
    assert draw(2**65) != draw(0)
    for seed in (0, 1, 21, 2**64 - 1):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(b"initial-map"),))
        assert draw(seed) == np.random.Generator(np.random.Philox(ss)).standard_normal(4).tolist()
    with pytest.raises(ValueError):
        stream(-1, "initial-map")


README = Path(__file__).parent.parent / "README.md"


def test_readme_config_example_parses_and_sets_up(tmp_path):
    text = README.read_text()
    blocks = text.split("```ini\n")[1:]
    assert len(blocks) == 1, "README has one ```ini config example"
    scn = parse_config(write_cfg(tmp_path, blocks[0].split("```")[0]))
    run = cli_module._Run(scn, str(tmp_path))  # mesh, target and initial map
    assert run.f0.values.shape == (run.mesh.vertex_count, run.target.ambient_dim)


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses_and_sets_up(tmp_path, path):
    scn = parse_config(str(path))
    run = cli_module._Run(scn, str(tmp_path))  # mesh, target and initial map
    assert run.f0.values.shape == (run.mesh.vertex_count, run.target.ambient_dim)
    # and runs to exit 0, every JSON artifact listed in the manifest and strict JSON
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    listed = {o["path"] for o in strict_json(out / "run_manifest.json")["outputs"]}
    artifacts = [p for p in out.glob("*.json") if p.name != "run_manifest.json"]
    assert artifacts and {p.name for p in artifacts} <= listed
    for artifact in artifacts:
        strict_json(artifact)


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


def test_cli_failed_analysis_manifest_lists_the_outputs_before_it(tmp_path, capsys):
    # five flow steps leave loja-fit no window: exit 3 after the flow wrote its outputs
    cfg = BASE_CFG.format(analyses="flow, loja-fit") + "max_steps = 5\n"
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert "InsufficientDecades" in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    listed = [entry["path"] for entry in manifest["outputs"]]
    assert listed == ["final_map.json", "flow_summary.json", "trace.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["run_manifest.json"])
    import hashlib

    for entry in manifest["outputs"]:
        assert hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
    assert manifest["failed"]["analysis"] == "loja-fit"
    assert manifest["failed"]["error"].startswith("InsufficientDecades: only 0 points")
    ok = tmp_path / "ok"  # a run that succeeds has no failed entry
    assert cli_main(["run", write_cfg(tmp_path, BASE_CFG.format(analyses="")), "--out", str(ok)]) == 0
    assert "failed" not in json.loads((ok / "run_manifest.json").read_text())


def test_cli_output_path_that_is_a_directory_exits_3(tmp_path):
    # the flow's trace.csv cannot be written over a directory: a numerical-failure
    # exit with a manifest that hashes only the files, never a traceback
    out = tmp_path / "o"
    (out / "trace.csv").mkdir(parents=True)
    path = write_cfg(tmp_path, BASE_CFG.format(analyses="flow"))
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicflow.cli", "run", path, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == []
    assert manifest["failed"]["analysis"] == "flow"
    assert manifest["failed"]["error"].startswith("IsADirectoryError")


def test_cli_verify_sampler_failure_surfaces_while_verify_measures(tmp_path, capsys):
    # sigma = 50 pushes the first sample stack past the chart radius; the sampler
    # yields its stacks lazily, so the error is raised inside verify's loop
    cfg = """
[scenario]
seed = 1
analyses = chart-audit, verify

[mesh]
kind = icosphere
level = 1

[target]
kind = sphere
ambient_dim = 3

[initial_map]
kind = constant

[verify]
sigma = 50
"""
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert "ChartRadiusExceeded" in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert [entry["path"] for entry in manifest["outputs"]] == ["chart_report.json"]
    assert manifest["failed"]["analysis"] == "verify"
    assert manifest["failed"]["error"].startswith("ChartRadiusExceeded")
    assert not (out / "verify_margins.json").exists()
    assert not (out / "verify_samples.csv").exists()


def test_cli_radius_guard_at_dt_min_is_step_collapse(tmp_path, ico2, s2):
    # from a rough map the guard halves 0.015 below dt_min before any candidate
    ck = tmp_path / "rough.json"
    save_checkpoint(rough_map(ico2, s2, 16), {"step": 0}, str(ck))
    cfg = BASE_CFG.format(analyses="flow").replace(
        "kind = perturbed_constant\namplitude = 0.1", f"kind = from_checkpoint\npath = {ck}"
    ).replace("dt0 = 1e-5", "dt0 = 0.015\ndt_min = 0.01")
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "flow_summary.json").read_text())
    assert summary["terminated_by"] == "step_collapse"
    assert summary["accepted_steps"] == 0
    assert (summary["radius_halvings"], summary["candidates"]) == (1, 0)


def test_cli_dt_min_above_first_step_exit_2(tmp_path, capsys):
    # the first step is dt0 = 1e-3 < dt_min: no step could ever be tried
    cfg = BASE_CFG.format(analyses="flow").replace("dt0 = 1e-5", "dt0 = 1e-3\ndt_min = 0.05")
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dt_min = 0.05" in err and "dt0 = 0.001" in err and "stability limit" in err
    assert not (out / "trace.csv").exists()


def test_cli_inadmissible_verify_rejected_before_flow(tmp_path, capsys):
    # d = 1: no (k, p) is admissible on a circle, and the flow must not run first
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "flow, verify"},
                       mesh={"kind": "circle", "n": 64}, target={"kind": "sphere", "ambient_dim": 2})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert "d = 1 < 2" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_cli_dt_min_checked_before_any_analysis_writes(tmp_path, capsys):
    # chart-audit runs first, and must not leave chart_report.json behind
    cfg = BASE_CFG.format(analyses="chart-audit, flow").replace(
        "dt0 = 1e-5", "dt0 = 1e-3\ndt_min = 0.05")
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert "dt_min = 0.05" in capsys.readouterr().err
    assert not (out / "chart_report.json").exists()


def test_cli_flow_checkpoints_written_unchecked(tmp_path, monkeypatch):
    # the checkpoints are projected candidates: writing them re-checks none
    cfg = BASE_CFG.format(analyses="flow") + "write_checkpoints = true\n"
    run = cli_module._Run(parse_config(write_cfg(tmp_path, cfg)), str(tmp_path))
    checked = []
    original = type(run.target).require_on_target
    monkeypatch.setattr(type(run.target), "require_on_target",
                        lambda self, x: checked.append(1) or original(self, x))
    run.run_flow()
    monkeypatch.undo()
    assert checked == []
    assert len(run.trace.checkpoints) > 1
    for step, f in run.trace.checkpoints:
        # the same bytes as a checked MapField of the same values
        ref = tmp_path / "ref.json"
        save_checkpoint(MapField(f.values, run.target, run.mesh), {"step": step}, str(ref))
        assert (tmp_path / f"checkpoint_{step:06d}.json").read_bytes() == ref.read_bytes()


def test_cli_flow_summary_dt_range_reaches_stability_limit(tmp_path, ico3):
    # on the ico3 basin dt grows from dt0 to 0.95 of 2/lambda_max, lambda_max the
    # largest eigenvalue of K/area, and no further; that is 1.48x the step the
    # Gershgorin bound lambda_G of K/area allows
    cfg = BASE_CFG.format(analyses="flow").replace("level = 2", "level = 3").replace(
        "grad_tol = 1e-8", "grad_tol = 1e-9")
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "flow_summary.json").read_text())
    lam_max = dense_laplacian_spectrum(ico3)[-1]
    lam_g = np.max(abs(ico3.stiffness).sum(axis=1).A1 / ico3.area)
    assert summary["dt_range"][0] == 1e-5
    assert summary["dt_range"][1] == pytest.approx(0.95 * 2.0 / lam_max, rel=1e-12)
    assert summary["dt_range"][1] >= 1.4 * 0.95 * 2.0 / lam_g
    assert summary["dt_stable"] == summary["dt_range"][1]
    assert summary["terminated_by"] == "grad_norm_below"


def test_cli_flow_and_fit_solve_for_the_spectral_radius_once(tmp_path, monkeypatch):
    # the dt_min pre-check and the flow read one cached lambda_max
    solves = []
    original = meshes_module._largest_eigenvalue
    monkeypatch.setattr(meshes_module, "_largest_eigenvalue",
                        lambda A: solves.append(1) or original(A))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BASE_CFG.format(analyses="flow, loja-fit"))
    assert cli_main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "loja_fit.json").exists()
    assert solves == [1]


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
    # inf times a zero component of the perturbation is NaN
    *(pytest.param("flow", "initial_map", {"amplitude": bad, "kind": "perturbed_constant"},
                   id=f"amplitude-{bad}") for bad in ("nan", "inf", "-0.1")),
    # a probe level must be an n x n flat torus the builder accepts
    pytest.param("mult-probe", "mult_probe", {"levels": "4"}, id="levels-4"),
    pytest.param("mult-probe", "mult_probe", {"levels": ""}, id="levels-empty"),
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, analysis, section, keys):
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": analysis}, **{section: keys})
    assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {next(iter(keys))}" in capsys.readouterr().err


def test_cli_bad_probe_levels_rejected_before_any_analysis(tmp_path):
    # chart-audit runs first: a level checked only when the probe builds its mesh
    # would leave chart_report.json behind
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "chart-audit, mult-probe"},
                       mult_probe={"levels": 4})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert not (out / "chart_report.json").exists()


def test_probe_levels_above_the_vertex_bound_rejected_at_parse(tmp_path):
    path = minimal_cfg(tmp_path, mult_probe={"levels": "16, 405"})
    with pytest.raises(ConfigError, match=r"\[mult_probe\] levels"):
        parse_config(path)


@pytest.mark.parametrize("variant", ["l2", "wk"])
def test_cli_verify_default_p_is_admissible(tmp_path, variant):
    verify = {"variant": variant, "norm": variant}
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "verify"}, verify=verify)
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    # the report names the norm as the config spells it
    assert json.loads((out / "verify_margins.json").read_text())["norm_used"] == variant


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


def test_cli_gap_ratio_without_an_eigenvalue_outside_the_band_is_null(tmp_path):
    # every eigenvalue lies in the kernel band: there is no gap to measure, and the
    # ratio was written as the bare token NaN, which strict JSON parsers reject
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "hessian-spec"},
                       hessian={"kernel_tol": 1e6, "expected_critical_dim": 2})
    out = tmp_path / "out"
    assert cli_main(["run", path, "--out", str(out)]) == 0
    spec = strict_json(out / "hessian_spectrum.json")
    mb = strict_json(out / "morse_bott.json")
    assert spec["kernel_dim"] == spec["basis_dim"]
    assert spec["gap_ratio"] is None and mb["gap_ratio"] is None
    assert mb["verdict"] == "inconclusive" and mb["predicted_theta"] is None


def test_cli_bogus_verify_variant_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="verify") + "\n[verify]\np = 3\nvariant = bogus\n"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "variant" in capsys.readouterr().err


@pytest.mark.parametrize("variant,norm,k,p", [("wk", "l2", 2, 1.5), ("l2", "wk", 1, 3.0)])
def test_cli_verify_variant_and_norm_must_agree(tmp_path, capsys, variant, norm, k, p):
    # admissibility reads variant and the measured norm reads norm: (2, 1.5) is
    # admissible for wk only on a 2-D source, (1, 3) for both
    verify = {"k": k, "p": p, "variant": variant, "norm": norm, "count": 4}
    path = minimal_cfg(tmp_path, scenario={"seed": 1, "analyses": "verify"}, verify=verify)
    assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "variant" in err and "norm" in err
    assert not (tmp_path / "out" / "verify_margins.json").exists()


def test_cli_hessian_spec_assembles_one_hessian(tmp_path, monkeypatch):
    # the spectrum assembles its form through energy's global, which is counted here
    calls = []
    for module, name in [(energy_module, "hessian_matrix"), (cli_module, "hessian_spectrum"),
                         (loja_module, "hessian_spectrum")]:
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
    assert written == json.loads(json.dumps(dataclasses.asdict(report)))


def test_cli_hessian_spec_not_critical_exit_3_before_spectrum(tmp_path, monkeypatch):
    def no_hessian(f):
        raise AssertionError("Hessian assembled at a non-critical map")

    monkeypatch.setattr(energy_module, "hessian_matrix", no_hessian)
    cfg = BASE_CFG.format(analyses="hessian-spec")  # perturbed map: not critical
    cfg += "\n[hessian]\nexpected_critical_dim = 2\n"
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    assert not (out / "hessian_spectrum.json").exists()
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


@pytest.mark.parametrize("kind", ["constant", "perturbed_constant"])
@pytest.mark.parametrize("target,point", [
    ({"kind": "torus_rev", "R": 2.0, "r": 0.5}, "2.5, 0"),
    ({"kind": "sphere", "ambient_dim": 3}, ""),
], ids=["r2-point-for-torus", "empty-point"])
def test_cli_point_of_wrong_length_exit_2(tmp_path, capsys, kind, target, point):
    path = minimal_cfg(tmp_path, target=target, initial_map={"kind": kind, "point": point})
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "rejected: [initial_map]" in capsys.readouterr().err


# |x|^2 overflows before the projection rejects the point; the suite turns
# a RuntimeWarning into an error, so passing also means none was printed
def test_cli_overflowing_point_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="").replace(
        "kind = perturbed_constant\namplitude = 0.1", "kind = constant\npoint = 1e200, 0, 0"
    )
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err and "Warning" not in err


def test_cli_overflowing_amplitude_exit_2(tmp_path, capsys):
    cfg = BASE_CFG.format(analyses="flow").replace("amplitude = 0.1", "amplitude = 1e300")
    assert cli_main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err and "Warning" not in err


@pytest.mark.parametrize("threads", ["2", "0"])
def test_cli_threads_other_than_one_exit_2(tmp_path, threads):
    # there is no --threads flag: the run is single-threaded, and the flag is an
    # unknown argument at any value, 1 included
    path = write_cfg(tmp_path, BASE_CFG.format(analyses=""))
    with pytest.raises(SystemExit) as exc:
        cli_main(["--threads", threads, "run", path, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli_main(["--threads", "1", "run", path, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_cli_validate_exponents_subcommand(capsys):
    assert cli_main(["validate-exponents", "2", "1", "3", "wk"]) == 0
    for p in ("nan", "inf"):  # the hypotheses take p in (1, inf)
        for variant in ("wk", "l2"):
            assert cli_main(["validate-exponents", "2", "1", p, variant]) == 2
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


def test_cli_unusable_output_dir_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"  # below a regular file
    cfg = BASE_CFG.format(analyses="").replace("[scenario]", f"[scenario]\noutput_dir = {out}")
    assert cli_main(["run", write_cfg(tmp_path, cfg)]) == 2
    assert f"config error: cannot make output directory {out}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("run_manifest.json"))


# a good config, and boundary cases that once ended in a traceback with exit 1
@pytest.mark.parametrize("case,code", [
    pytest.param(case, code, id=case) for case, code in (
        ("good", 0), ("output_dir-percent", 0), ("not-utf8", 2), ("output_dir-below-a-file", 2))
])
def test_cli_entry_point_subprocess(tmp_path, case, code):
    out = {"output_dir-percent": tmp_path / "100%",
           "output_dir-below-a-file": tmp_path / "afile" / "sub"}.get(case, tmp_path / "o")
    (tmp_path / "afile").write_text("")
    cfg = BASE_CFG.format(analyses="").replace("[scenario]", f"[scenario]\noutput_dir = {out}")
    path = tmp_path / "scn.cfg"
    path.write_bytes((cfg + ("# café\n" if case == "not-utf8" else "")).encode("latin-1"))
    proc = subprocess.run(
        [sys.executable, "-m", "harmonicflow.cli", "run", str(path)], capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "run_manifest.json").exists() == (code == 0)
