"""Strict scenario configuration: INI sections, key = value; a section, or the kind
of a [mesh], [target] or [initial_map], takes its own keys and no others."""

from __future__ import annotations

import configparser
import math
from dataclasses import fields
from types import SimpleNamespace

from .checkpoint import load_checkpoint
from .errors import ConfigError, InvalidSpec
from .fields import constant_map, degree_circle_map, identity_sphere_map, perturbed_constant_map
from .flow import FlowControl
from .meshes import MAX_VERTICES, MESH_KINDS, MIN_GRID_SIDE, SOBOLEV_ORDERS
from .meshes import VARIANTS, validate_exponents
from .rng import stream
from .specs import (REQUIRED, Kind, integer, listed, number, one_of, optional, positive, take,
                    take_kind)
from .targets import TARGET_KINDS

ANALYSES = ("flow", "loja-fit", "hessian-spec", "verify", "chart-audit", "mult-probe")

_count = number(int, lambda v: v >= 0, "an int >= 0")
_nonnegative = number(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_auto = optional(positive(float), "auto")  # None: chosen from the run
_order = one_of(SOBOLEV_ORDERS, int)
_exponent = number(float, lambda p: 1 <= p < math.inf, "finite and >= 1")  # sobolev_norm's p
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, yes/no, true/false, on/off
_MAX_SIDE = math.isqrt(MAX_VERTICES)  # the n x n flat tori build_flat_torus takes
_side = number(int, lambda n: MIN_GRID_SIDE <= n <= _MAX_SIDE,
               f"a side in {MIN_GRID_SIDE}..{_MAX_SIDE}")

_point = (listed(float), None)  # None: the target's base point

# each row is built with (mesh, target, seed) and then its keys' values
INITIAL_MAP_KINDS = {
    "constant": Kind(lambda mesh, target, seed, point: constant_map(mesh, target, point),
                     {"point": _point}),
    "identity_sphere": Kind(lambda mesh, target, seed: identity_sphere_map(mesh, target), {}),
    "degree_circle": Kind(lambda mesh, target, seed, k: degree_circle_map(mesh, target, k),
                          {"k": (integer, 1)}),
    "perturbed_constant": Kind(lambda mesh, target, seed, amplitude, point: perturbed_constant_map(
        mesh, target, amplitude, stream(seed, "initial-map"), point
    ), {"amplitude": (_nonnegative, 0.1), "point": _point}),
    "from_checkpoint": Kind(
        lambda mesh, target, seed, path: load_checkpoint(path, mesh=mesh, target=target)[0],
        {"path": (number(str, len, "a non-empty path"), REQUIRED)},
    ),
}

# [mesh], [target] and [initial_map]: a kind, then the keys its row names
KINDED = {"mesh": MESH_KINDS, "target": TARGET_KINDS, "initial_map": INITIAL_MAP_KINDS}

_FLOW = FlowControl()

# section -> specs.take's table of its keys; an absent section takes its defaults
SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "seed": (_count, REQUIRED),
        "output_dir": (str, "runs/scenario"),
        "analyses": (listed(one_of(ANALYSES)), []),
    },
    "flow": {
        "dt0": (positive(float), _FLOW.dt0),
        "dt_min": (positive(float), _FLOW.dt_min),
        "max_steps": (positive(int), _FLOW.max_steps),
        "max_time": (number(float, lambda v: v > 0, "> 0"), _FLOW.max_time),  # inf: no limit
        "grad_tol": (_nonnegative, _FLOW.grad_tol),
        "checkpoint_every": (_count, _FLOW.checkpoint_every),  # 0: off
        "write_checkpoints": (lambda s: _BOOLEANS[one_of(_BOOLEANS, str.lower)(s)], False),
        "dist_k": (_order, _FLOW.dist_k),
        "dist_p": (_exponent, _FLOW.dist_p),
    },
    "loja_fit": {
        "window_lo": (_auto, None),
        "window_hi": (_auto, None),
    },
    "verify": {
        "sigma": (positive(float), 0.1),
        "count": (positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 3.0),  # k = 1, p = 2 is inadmissible on every 2-D source
        "variant": (one_of(VARIANTS), "l2"),
        "theta": (number(float, lambda v: 0.5 <= v < 1, "in the paper's [1/2, 1)"), 0.5),
        "z": (positive(float), 0.9),
        "norm": (one_of(VARIANTS), "l2"),
    },
    "hessian": {
        "kernel_tol": (_auto, None),
        "expected_critical_dim": (optional(_count, "", "none"), None),
        "n_modes": (positive(int), 32),
    },
    "chart_audit": {
        "radius": (_auto, None),  # auto = 0.1 * tubular radius
        "samples": (positive(int), 32),
        "k": (_order, 1),
        "p": (_exponent, 2.0),
    },
    "mult_probe": {
        "levels": (number(listed(_side), len, "one or more sides"), [16, 32, 64]),
        "k": (_order, 2),
        "p": (_exponent, 2.0),
        "trials": (positive(int), 8),
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
        if section not in SCHEMA and section not in KINDED:
            raise ConfigError(f"unknown config section [{section}]")

    out: dict[str, dict] = {}
    try:
        for section in (*SCHEMA, *KINDED):
            got = cp[section] if cp.has_section(section) else {}
            out[section] = (take_kind(KINDED[section], got, f"[{section}]") if section in KINDED
                            else take(SCHEMA[section], got, f"[{section}]"))
    except InvalidSpec as exc:
        raise ConfigError(str(exc)) from exc

    fl = out["flow"]
    if fl["write_checkpoints"] and not fl["checkpoint_every"]:
        raise ConfigError("[flow] write_checkpoints = true needs checkpoint_every > 0")
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

    echo = {sec: {k: "inf" if v == math.inf else v for k, v in keys.items()}  # JSON has no inf
            for sec, keys in out.items()}
    return Scenario(**out.pop("scenario"), **out, echo=echo)


# the parsed [mesh] and [target] sections are the specs build_source and build_target take
mesh_spec_from_config = target_spec_from_config = dict


def flow_control_from_config(flow: dict) -> FlowControl:
    """The FlowControl of a parsed [flow] section."""
    return FlowControl(**{f.name: flow[f.name] for f in fields(FlowControl)})
