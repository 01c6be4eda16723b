"""Strict scenario configuration: INI sections, key = value, unknown keys error."""

from __future__ import annotations

import configparser
import math
from dataclasses import fields
from types import SimpleNamespace

from .checkpoint import load_checkpoint
from .errors import ConfigError
from .fields import constant_map, degree_circle_map, identity_sphere_map, perturbed_constant_map
from .flow import FlowControl
from .meshes import FLAT_TORUS_SIDE, MAX_VERTICES, MESH_KINDS, MIN_GRID_SIDE, SOBOLEV_ORDERS
from .meshes import VARIANTS, validate_exponents
from .rng import stream
from .targets import TARGET_KINDS

ANALYSES = ("flow", "loja-fit", "hessian-spec", "verify", "chart-audit", "mult-probe")

# section -> key -> (parser, default); REQUIRED means no default, and a section
# with a REQUIRED key must be present
REQUIRED = object()


def _number(typ, ok, what: str):
    """Parser for ``v = typ(s)`` with ``ok(v)`` true; NaN fails every ``ok``."""
    def parse(s: str):
        v = typ(s)
        if not ok(v):
            raise ValueError(f"must be {what}")
        return v
    return parse


def _one_of(choices, fold=str):
    """Parser for an enumerated key: ``fold(value)`` must be one of ``choices``."""
    def parse(s: str):
        v = fold(s)
        if v not in choices:
            raise ValueError(f"not one of {tuple(choices)}")
        return v
    return parse


def _listed(parse):
    """Parser for a comma list of ``parse``'s values; empty items are skipped."""
    return lambda s: [parse(x.strip()) for x in s.split(",") if x.strip()]


def _optional(parse, *words):
    """Parser for ``parse``'s values, or None for any of ``words`` in any case."""
    return lambda s: None if s.lower() in words else parse(s)


def _positive(typ):
    """Parser for a number of type ``typ`` that must be finite and > 0."""
    return _number(typ, lambda v: 0 < v < math.inf, "finite and > 0")


_count = _number(int, lambda v: v >= 0, "an int >= 0")
_nonnegative = _number(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_auto = _optional(_positive(float), "auto")  # None: chosen from the run
_order = _one_of(SOBOLEV_ORDERS, int)
_exponent = _number(float, lambda p: 1 <= p < math.inf, "finite and >= 1")  # sobolev_norm's p
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, yes/no, true/false, on/off
_MAX_SIDE = math.isqrt(MAX_VERTICES)  # the n x n flat tori build_flat_torus takes
_side = _number(int, lambda n: MIN_GRID_SIDE <= n <= _MAX_SIDE,
                f"a side in {MIN_GRID_SIDE}..{_MAX_SIDE}")


# [initial_map] kind -> builder(mesh, target, section, seed) of the map
INITIAL_MAP_KINDS = {
    "constant": lambda mesh, target, im, seed: constant_map(mesh, target, im["point"]),
    "identity_sphere": lambda mesh, target, im, seed: identity_sphere_map(mesh, target),
    "degree_circle": lambda mesh, target, im, seed: degree_circle_map(mesh, target, im["k"]),
    "perturbed_constant": lambda mesh, target, im, seed: perturbed_constant_map(
        mesh, target, im["amplitude"], stream(seed, "initial-map"), im["point"]
    ),
    "from_checkpoint": lambda mesh, target, im, seed: load_checkpoint(
        im["path"], mesh=mesh, target=target
    )[0],
}

_FLOW = FlowControl()

SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "seed": (int, REQUIRED),
        "output_dir": (str, "runs/scenario"),
        "analyses": (_listed(_one_of(ANALYSES)), []),
    },
    "mesh": {
        "kind": (_one_of(MESH_KINDS), REQUIRED),
        "n": (int, None),
        "nu": (int, None),
        "nv": (int, None),
        "lu": (_positive(float), FLAT_TORUS_SIDE),
        "lv": (_positive(float), FLAT_TORUS_SIDE),
        "level": (int, None),
    },
    "target": {
        "kind": (_one_of(TARGET_KINDS), REQUIRED),
        "ambient_dim": (int, None),
        "m": (int, None),
        "R": (_positive(float), None),
        "r": (_positive(float), None),
    },
    "initial_map": {
        "kind": (_one_of(INITIAL_MAP_KINDS), REQUIRED),
        "point": (_listed(float), None),
        "k": (int, 1),
        "amplitude": (_nonnegative, 0.1),
        "path": (str, None),
    },
    "flow": {
        "dt0": (_positive(float), _FLOW.dt0),
        "dt_min": (_positive(float), _FLOW.dt_min),
        "max_steps": (_positive(int), _FLOW.max_steps),
        "max_time": (_number(float, lambda v: v > 0, "> 0"), _FLOW.max_time),  # inf: no limit
        "grad_tol": (_nonnegative, _FLOW.grad_tol),
        "checkpoint_every": (_count, _FLOW.checkpoint_every),  # 0: off
        "write_checkpoints": (lambda s: _BOOLEANS[_one_of(_BOOLEANS, str.lower)(s)], False),
        "dist_k": (_order, _FLOW.dist_k),
        "dist_p": (_exponent, _FLOW.dist_p),
    },
    "loja_fit": {
        "window_lo": (_auto, None),
        "window_hi": (_auto, None),
    },
    "verify": {
        "sigma": (_positive(float), 0.1),
        "count": (_positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 3.0),  # k = 1, p = 2 is inadmissible on every 2-D source
        "variant": (_one_of(VARIANTS), "l2"),
        "theta": (_number(float, lambda v: 0.5 <= v < 1, "in the paper's [1/2, 1)"), 0.5),
        "z": (_positive(float), 0.9),
        "norm": (_one_of(VARIANTS), "l2"),
    },
    "hessian": {
        "kernel_tol": (_auto, None),
        "expected_critical_dim": (_optional(_count, "", "none"), None),
        "n_modes": (_positive(int), 32),
    },
    "chart_audit": {
        "radius": (_auto, None),  # auto = 0.1 * tubular radius
        "samples": (_positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 2.0),
    },
    "mult_probe": {
        "levels": (_number(_listed(_side), len, "one or more sides"), [16, 32, 64]),
        "k": (_order, 2),
        "p": (_exponent, 2.0),
        "trials": (_positive(int), 8),
    },
}

# what parse_config returns: [scenario]'s keys, each other section's dict, and echo
Scenario = SimpleNamespace


def parse_config(path: str) -> Scenario:
    # no interpolation: a '%' in a value, as in output_dir = runs/100%, is literal
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # keep option case: the torus radii R and r differ
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    out: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        present = cp.has_section(section)
        if not present and any(default is REQUIRED for _, default in keys.values()):
            raise ConfigError(f"missing required section [{section}]")
        got = cp[section] if present else {}
        out[section] = {}
        for key, (parse, default) in keys.items():
            if key in got:
                try:
                    out[section][key] = parse(got[key])
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {got[key]!r}: {exc}") from exc
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            else:
                out[section][key] = default

    if out["initial_map"]["kind"] == "from_checkpoint" and not out["initial_map"]["path"]:
        raise ConfigError("initial_map kind from_checkpoint requires path")
    lo, hi = out["loja_fit"]["window_lo"], out["loja_fit"]["window_hi"]
    if (lo is None) != (hi is None):
        raise ConfigError("[loja_fit] window_lo and window_hi must be set together")
    if lo is not None and not lo < hi:
        raise ConfigError(f"[loja_fit] window_lo = {lo} must be below window_hi = {hi}")
    vf = out["verify"]  # one decision: variant picks the hypothesis table, norm what is measured
    if vf["variant"] != vf["norm"]:
        raise ConfigError(f"[verify] variant = {vf['variant']} and norm = {vf['norm']} must agree")
    mp = out["mult_probe"]  # the probe's W^{k,p} x L2 -> L2 runs on the flat torus
    verdict = validate_exponents(MESH_KINDS["flat_torus"].dimension, mp["k"], mp["p"], "l2")
    if not verdict.admissible:
        raise ConfigError(f"[mult_probe] k = {mp['k']}, p = {mp['p']}: {verdict.reason}")

    echo = {sec: {k: _echo_value(v) for k, v in keys.items()}
            for sec, keys in out.items()}
    return Scenario(**out.pop("scenario"), **out, echo=echo)


def _echo_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _spec_from_config(section: str, values: dict, kinds: dict) -> dict:
    """The spec of a parsed [mesh] or [target] section; its kind is valid."""
    keys = kinds[values["kind"]].keys
    missing = [key for key in keys if values[key] is None]
    if missing:
        raise ConfigError(
            f"[{section}] {values['kind']} requires {' and '.join(missing)}"
        )
    return {"kind": values["kind"], **{key: values[key] for key in keys}}


def mesh_spec_from_config(mesh: dict) -> dict:
    return _spec_from_config("mesh", mesh, MESH_KINDS)


def target_spec_from_config(target: dict) -> dict:
    return _spec_from_config("target", target, TARGET_KINDS)


def flow_control_from_config(flow: dict) -> FlowControl:
    """The FlowControl of a parsed [flow] section."""
    return FlowControl(**{f.name: flow[f.name] for f in fields(FlowControl)})
