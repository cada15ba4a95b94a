"""Flat layered configuration for the command-line tools.

Files hold one ``section.key = value`` assignment per line with ``#``
comments.  Resolution order is fixed: code defaults, then the file
(explicit path or the PNEUSOFT_CONFIG environment variable), then
``--set`` style overrides.  Every key must already exist in the
defaults and values are coerced to the default's type, so typos fail
loudly instead of silently configuring nothing.

Keys are scalar settings only.  ``SECTIONS`` names the dataclasses each
section configures: every field of theirs is a key of the section, with
the field's default, except private fields and the running ``STATE`` a
plant starts from.  ``build`` constructs any of those classes.
"""

import dataclasses
import math
import os

from . import fea, material, pneumatics, robots

ENV_VAR = "PNEUSOFT_CONFIG"

SECTIONS = {
    "pneumatics": (pneumatics.PneumaticPlant,),
    "bath": (pneumatics.BathPlant, pneumatics.ThermostatController),
    "earthworm": (robots.EarthwormParams,),
    "quadruped": (robots.QuadrupedParams,),
    "gripper": (robots.GripperParams,),
}
# a plant's initial condition, which a run evolves: not a setting
STATE = frozenset({"pressure_kpa", "temp_c"})

_SECTION_OF = {cls: name for name, classes in SECTIONS.items()
               for cls in classes}


def _settings(cls):
    return [f for f in dataclasses.fields(cls)
            if not f.name.startswith("_") and f.name not in STATE]


def defaults():
    """Fresh copy of every configurable key with its default value."""
    cfg = {
        "material.c10_mpa": material.DEFAULT_C10,
        "material.kappa_ratio": float(material.DEFAULT_KAPPA_RATIO),
        "solver.increments": fea.LoadCase.increments,
    }
    for cls, section in _SECTION_OF.items():
        cfg.update((f"{section}.{f.name}", f.default) for f in _settings(cls))
    return cfg


def build(cfg, cls):
    """An instance of a class in ``SECTIONS`` from its keys in ``cfg``."""
    section = _SECTION_OF[cls]
    return cls(**{f.name: cfg[f"{section}.{f.name}"] for f in _settings(cls)})


def parse_value(key, text, reference):
    """Coerce ``text`` to the type of ``reference[key]``; float values
    must be finite."""
    if key not in reference:
        known = ", ".join(sorted(reference))
        raise KeyError(f"unknown config key {key!r}; known keys: {known}")
    ref = reference[key]
    text = text.strip()
    try:
        if isinstance(ref, int):
            return int(text)
        if isinstance(ref, float):
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"{value} is not finite")
            return value
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
        text = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def material_params(cfg):
    c10 = cfg["material.c10_mpa"]
    return material.HyperelasticParams(
        c10=c10, kappa=cfg["material.kappa_ratio"] * c10)
