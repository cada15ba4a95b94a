"""Layered flat configuration: defaults, files, overrides, builders."""

import dataclasses
import math
from pathlib import Path

import pytest

from pneusoft import config as cfgmod
from pneusoft import fea, geometry, material

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(cfgmod.ENV_VAR, raising=False)


def test_defaults_cover_every_section():
    cfg = cfgmod.defaults()
    assert cfg["material.c10_mpa"] == 0.24
    assert cfg["material.kappa_ratio"] == 1000.0
    assert cfg["solver.increments"] == 10
    prefixes = {k.split(".", 1)[0] for k in cfg}
    assert prefixes == {"material", "solver", *cfgmod.SECTIONS}
    # keys are scalar settings: no table, no plant state
    assert all(type(v) in (int, float) for v in cfg.values())
    assert "pneumatics.pressure_kpa" not in cfg
    assert "bath.temp_c" not in cfg
    # defaults() hands out fresh copies
    a = cfgmod.defaults()
    a["material.c10_mpa"] = 99.0
    assert cfgmod.defaults()["material.c10_mpa"] == 0.24


def test_dumps_round_trips_through_a_file(tmp_path):
    cfg = cfgmod.defaults()
    path = tmp_path / "all.cfg"
    path.write_text(cfgmod.dumps(cfg))
    assert cfgmod.resolve(path=path) == cfg


def test_resolve_layering(tmp_path):
    path = tmp_path / "site.cfg"
    path.write_text("material.c10_mpa = 0.30\nsolver.increments = 60\n")
    cfg = cfgmod.resolve(path=path)
    assert cfg["material.c10_mpa"] == 0.30
    assert cfg["solver.increments"] == 60
    cfg = cfgmod.resolve(path=path, overrides=("material.c10_mpa=0.5",))
    assert cfg["material.c10_mpa"] == 0.5
    assert cfg["solver.increments"] == 60


def test_resolve_reads_environment(tmp_path, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_text("material.c10_mpa = 0.42\n")
    monkeypatch.setenv(cfgmod.ENV_VAR, str(path))
    assert cfgmod.resolve()["material.c10_mpa"] == 0.42


def test_unknown_key_is_rejected_with_suggestions():
    cfg = cfgmod.defaults()
    with pytest.raises(KeyError, match="known keys"):
        cfgmod.parse_value("material.c10", "1.0", cfg)
    with pytest.raises(KeyError, match="unknown config key"):
        cfgmod.resolve(overrides=("materail.c10_mpa=1.0",))


def test_value_coercion_by_reference_type():
    cfg = cfgmod.defaults()
    assert cfgmod.parse_value("solver.increments", "60", cfg) == 60
    assert isinstance(cfgmod.parse_value("solver.increments", "60", cfg), int)
    assert cfgmod.parse_value("material.c10_mpa", "0.3", cfg) == 0.3
    with pytest.raises(ValueError):
        cfgmod.parse_value("solver.increments", "sixty", cfg)
    # non-finite floats name their key
    for key, text in (("bath.setpoint_c", "nan"),
                      ("quadruped.cycle_s", "-inf")):
        with pytest.raises(ValueError, match=f"{key}.*not finite"):
            cfgmod.parse_value(key, text, cfg)


def test_file_errors_carry_path_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# fine\nmaterial.c10_mpa = abc\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2:"):
        cfgmod.load_file(path, cfgmod.defaults())
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1:.*key = value"):
        cfgmod.load_file(path, cfgmod.defaults())
    path.write_text("material.oops = 1\n")
    with pytest.raises(KeyError, match=r"bad\.cfg:1:"):
        cfgmod.load_file(path, cfgmod.defaults())


def test_builders_construct_domain_objects():
    # every key of every section, set off its default, reaches its object
    base = cfgmod.defaults()
    step = {"earthworm.duty": 0.25}  # a duty of 1.0 leaves (0, 1)
    cfg = cfgmod.resolve(overrides=[
        f"{k}={v + step.get(k, 1 if isinstance(v, int) else 0.5)}"
        for k, v in base.items()])
    carried = set()
    for section, classes in cfgmod.SECTIONS.items():
        for cls in classes:
            obj = cfgmod.build(cfg, cls)
            for name in vars(obj):
                key = f"{section}.{name}"
                if key in cfg:
                    assert getattr(obj, name) == cfg[key] != base[key], key
                    carried.add(key)
    params = cfgmod.material_params(cfg)
    assert params.c10 == cfg["material.c10_mpa"] == 0.74
    assert params.kappa == pytest.approx(1000.5 * 0.74)
    assert carried | {"material.c10_mpa", "material.kappa_ratio",
                      "solver.increments"} == set(cfg)


_GUARDED = [cls for classes in cfgmod.SECTIONS.values() for cls in classes] + [
    geometry.ActuatorSpec, material.HyperelasticParams, fea.LoadCase]
_REQUIRED = {material.HyperelasticParams: dict(c10=0.24),
             fea.LoadCase: dict(target_pressure_kpa=10.0)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in _GUARDED for f in dataclasses.fields(cls)
    if f.type in (int, float)])
def test_every_numeric_field_refuses_non_finite(cls, name, value):
    # enumerated from the dataclasses, so a field added without a rule fails
    kwargs = dict(_REQUIRED.get(cls, {}))
    if cls is geometry.ActuatorSpec:
        kwargs["kind"] = next(k for k in geometry.KINDS
                              if getattr(cls(kind=k), name) is not None)
    kwargs[name] = value
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        cls(**kwargs)


def test_default_builders_match_dataclass_defaults():
    cfg = cfgmod.defaults()
    for classes in cfgmod.SECTIONS.values():
        for cls in classes:
            assert cfgmod.build(cfg, cls) == cls()


def test_bundled_calibration_file_is_current():
    # the shipped file must stay generated from the code defaults
    text = (FIXTURES / "calibration.cfg").read_text()
    body = "\n".join(line for line in text.splitlines()
                     if line and not line.startswith("#")) + "\n"
    assert body == cfgmod.dumps(cfgmod.defaults())
    assert cfgmod.resolve(path=FIXTURES / "calibration.cfg") \
        == cfgmod.defaults()
