"""Flat layered configuration for the command-line tools.

Files hold one ``section.key = value`` assignment per line with ``#``
comments.  Resolution order is fixed: code defaults, then the file
(explicit path or the PNEUSOFT_CONFIG environment variable), then
``--set`` style overrides.  Every key must already exist in the
defaults and values are coerced to the default's type, so typos fail
loudly instead of silently configuring nothing.
"""

import dataclasses
import math
import os

from . import fea, material, pneumatics, robots

ENV_VAR = "PNEUSOFT_CONFIG"


def _fields(prefix, cls, skip=()):
    out = {}
    for f in dataclasses.fields(cls):
        if f.name.startswith("_") or f.name in skip:
            continue
        if f.default is dataclasses.MISSING:
            continue
        out[f"{prefix}.{f.name}"] = f.default
    return out


def defaults():
    """Fresh copy of every configurable key with its default value."""
    cfg = {
        "material.c10_mpa": material.DEFAULT_C10,
        "material.kappa_ratio": float(material.DEFAULT_KAPPA_RATIO),
        "solver.increments": fea.LoadCase.increments,
    }
    cfg.update(_fields("pneumatics", pneumatics.PneumaticPlant))
    cfg.update(_fields("bath", pneumatics.BathPlant, skip=("temp_c",)))
    cfg.update(_fields("bath", pneumatics.ThermostatController))
    cfg.update(_fields("earthworm", robots.EarthwormParams))
    cfg.update(_fields("quadruped", robots.QuadrupedParams))
    cfg.update(_fields("gripper", robots.GripperParams))
    return cfg


def _finite(value):
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def parse_value(key, text, reference):
    """Coerce ``text`` to the type of ``reference[key]``; float values and
    tuple entries must be finite."""
    if key not in reference:
        known = ", ".join(sorted(reference))
        raise KeyError(f"unknown config key {key!r}; known keys: {known}")
    ref = reference[key]
    text = text.strip()
    try:
        if isinstance(ref, int):
            return int(text)
        if isinstance(ref, float):
            return _finite(float(text))
        if isinstance(ref, tuple):
            return tuple(_finite(float(tok)) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    return text


def parse_assignment(line, reference):
    """Split a single ``key = value`` assignment and type its value."""
    if "=" not in line:
        raise ValueError(f"expected 'key = value', got {line!r}")
    key, _, text = line.partition("=")
    key = key.strip()
    return key, parse_value(key, text, reference)


def load_file(path, reference):
    """Typed assignments from a config file; line numbers on errors."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                key, value = parse_assignment(line, reference)
            except (KeyError, ValueError) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            out[key] = value
    return out


def resolve(path=None, overrides=()):
    """Defaults, then file, then overrides; returns the resolved dict."""
    cfg = defaults()
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is not None:
        cfg.update(load_file(path, cfg))
    for item in overrides:
        key, value = parse_assignment(item, cfg)
        cfg[key] = value
    return cfg


def dumps(cfg):
    """Deterministic ``key = value`` text, one line per key."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            text = ",".join(f"{v:g}" for v in value)
        else:
            text = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _section(cfg, prefix):
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def material_params(cfg):
    c10 = cfg["material.c10_mpa"]
    return material.HyperelasticParams(
        c10=c10, kappa=cfg["material.kappa_ratio"] * c10)


def pneumatic_plant(cfg):
    return pneumatics.PneumaticPlant(**_section(cfg, "pneumatics"))


def bath_plant(cfg):
    keys = ("heater_power_w", "loss_w_per_c", "capacity_j_per_c", "ambient_c")
    sec = _section(cfg, "bath")
    return pneumatics.BathPlant(**{k: sec[k] for k in keys})


def bath_thermostat(cfg):
    return pneumatics.ThermostatController(
        setpoint_c=cfg["bath.setpoint_c"], band_c=cfg["bath.band_c"])


def earthworm_params(cfg):
    return robots.EarthwormParams(**_section(cfg, "earthworm"))


def quadruped_params(cfg):
    return robots.QuadrupedParams(**_section(cfg, "quadruped"))


def gripper_params(cfg):
    return robots.GripperParams(**_section(cfg, "gripper"))
