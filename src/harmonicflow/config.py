"""Strict scenario configuration: INI sections, key = value, unknown keys error."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .checkpoint import load_checkpoint
from .errors import ConfigError
from .fields import constant_map, degree_circle_map, identity_sphere_map, perturbed_constant_map
from .flow import FlowControl
from .meshes import FLAT_TORUS_SIDE, MESH_KINDS, SOBOLEV_ORDERS, VARIANTS, validate_exponents
from .rng import stream
from .targets import TARGET_KINDS

ANALYSES = ("flow", "loja-fit", "hessian-spec", "verify", "chart-audit", "mult-probe")

# section -> key -> (parser, default); REQUIRED means no default
REQUIRED = object()


def _floats_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",") if x.strip()]


def _ints_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _analyses(s: str) -> list[str]:
    items = [x.strip() for x in s.split(",") if x.strip()]
    for it in items:
        if it not in ANALYSES:
            raise ValueError(f"unknown analysis {it!r}; choose from {ANALYSES}")
    return items


def _number(typ, ok, what: str):
    """Parser for a number of type ``typ`` with ``ok(v)`` true; NaN fails every ``ok``."""
    def parse(s: str):
        v = typ(s)
        if not ok(v):
            raise ValueError(f"must be {what}")
        return v
    return parse


def _positive(typ):
    """Parser for a number of type ``typ`` that must be finite and > 0."""
    return _number(typ, lambda v: 0 < v < math.inf, "finite and > 0")


def _order(s: str) -> int:
    k = int(s)
    if k not in SOBOLEV_ORDERS:
        raise ValueError(f"Sobolev order not in {SOBOLEV_ORDERS}")
    return k


def _exponent(s: str) -> float:
    """A Sobolev exponent p: finite and >= 1, the range sobolev_norm takes."""
    p = float(s)
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("Sobolev exponent must be finite and >= 1")
    return p


def _opt_float(s: str) -> float | None:
    """``auto`` (None) or a finite float > 0."""
    return None if s.strip().lower() == "auto" else _positive(float)(s)


_count = _number(int, lambda v: v >= 0, "an int >= 0")


def _opt_count(s: str) -> int | None:
    """``none`` (None) or an int >= 0."""
    return None if s.strip().lower() in ("", "none") else _count(s)


def _one_of(choices):
    """Parser for an enumerated key: the value must be one of ``choices``."""
    def parse(s: str) -> str:
        if s not in choices:
            raise ValueError(f"not one of {tuple(choices)}")
        return s
    return parse


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
        "analyses": (_analyses, []),
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
        "point": (_floats_list, None),
        "k": (int, 1),
        "amplitude": (float, 0.1),
        "path": (str, None),
    },
    "flow": {
        "dt0": (_positive(float), _FLOW.dt0),
        "dt_min": (_positive(float), _FLOW.dt_min),
        "max_steps": (_positive(int), _FLOW.max_steps),
        "max_time": (_number(float, lambda v: v > 0, "> 0"), _FLOW.max_time),  # inf: no limit
        "grad_tol": (_number(float, lambda v: 0 <= v < math.inf, "in [0, inf)"), _FLOW.grad_tol),
        "checkpoint_every": (_count, _FLOW.checkpoint_every),  # 0: off
        "write_checkpoints": (_bool, False),
        "dist_k": (_order, _FLOW.dist_norm[0]),
        "dist_p": (_exponent, _FLOW.dist_norm[1]),
    },
    "loja_fit": {
        "window_lo": (_opt_float, None),
        "window_hi": (_opt_float, None),
    },
    "verify": {
        "sigma": (_positive(float), 0.1),
        "count": (_positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 3.0),  # k = 1, p = 2 is inadmissible on every 2-D source
        "variant": (_one_of(VARIANTS), "l2"),
        "theta": (_number(float, lambda v: 0.5 <= v < 1, "in the paper's [1/2, 1)"), 0.5),
        "z": (_positive(float), 0.9),
        "norm": (_one_of(("l2", "wk")), "l2"),
    },
    "hessian": {
        "kernel_tol": (_opt_float, None),
        "expected_critical_dim": (_opt_count, None),
        "n_modes": (_positive(int), 32),
    },
    "chart_audit": {
        "radius": (_opt_float, None),  # auto = 0.1 * tubular radius
        "samples": (_positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 2.0),
    },
    "mult_probe": {
        "levels": (_ints_list, [16, 32, 64]),
        "k": (_order, 2),
        "p": (_exponent, 2.0),
        "trials": (_positive(int), 8),
    },
}

@dataclass
class Scenario:
    seed: int
    output_dir: str
    analyses: list[str]
    mesh: dict
    target: dict
    initial_map: dict
    flow: dict
    loja_fit: dict
    verify: dict
    hessian: dict
    chart_audit: dict
    mult_probe: dict
    echo: dict = field(default_factory=dict)


def parse_config(path: str) -> Scenario:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep option case: the torus radii R and r differ
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    parsed: dict[str, dict] = {}
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        parsed[section] = {}
        for key, raw in cp[section].items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            parser, _ = SCHEMA[section][key]
            try:
                parsed[section][key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    for required_section in ("scenario", "mesh", "target", "initial_map"):
        if required_section not in parsed:
            raise ConfigError(f"missing required section [{required_section}]")

    out: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        out[section] = {}
        got = parsed.get(section, {})
        for key, (parser, default) in keys.items():
            if key in got:
                out[section][key] = got[key]
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
    mp = out["mult_probe"]  # the probe's W^{k,p} x L2 -> L2 runs on the flat torus
    verdict = validate_exponents(MESH_KINDS["flat_torus"].dimension, mp["k"], mp["p"], "l2")
    if not verdict.admissible:
        raise ConfigError(f"[mult_probe] k = {mp['k']}, p = {mp['p']}: {verdict.reason}")

    echo = {sec: {k: _echo_value(v) for k, v in keys.items()}
            for sec, keys in out.items()}
    return Scenario(
        seed=out["scenario"]["seed"],
        output_dir=out["scenario"]["output_dir"],
        analyses=out["scenario"]["analyses"],
        mesh=out["mesh"],
        target=out["target"],
        initial_map=out["initial_map"],
        flow=out["flow"],
        loja_fit=out["loja_fit"],
        verify=out["verify"],
        hessian=out["hessian"],
        chart_audit=out["chart_audit"],
        mult_probe=out["mult_probe"],
        echo=echo,
    )


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
    return FlowControl(
        dist_norm=(flow["dist_k"], flow["dist_p"]),
        **{f.name: flow[f.name] for f in fields(FlowControl) if f.name != "dist_norm"},
    )
