"""Layered flat configuration: defaults, files, overrides, builders."""

from pathlib import Path

import pytest

from pneusoft import config as cfgmod
from pneusoft import pneumatics, robots

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
    assert prefixes == {"material", "solver", "pneumatics", "bath",
                        "earthworm", "quadruped", "gripper"}
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
    table = cfgmod.parse_value("quadruped.bend_table_kpa", "0, 10, 20", cfg)
    assert table == (0.0, 10.0, 20.0)
    with pytest.raises(ValueError):
        cfgmod.parse_value("solver.increments", "sixty", cfg)
    # non-finite floats and tuple entries name their key
    for key, text in (("bath.setpoint_c", "nan"),
                      ("quadruped.bend_table_deg", "0, 2, -inf")):
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
    cfg = cfgmod.resolve(overrides=(
        "material.c10_mpa=0.3",
        "pneumatics.supply_kpa=100",
        "bath.setpoint_c=55",
        "earthworm.mu_backward=2.0",
        "quadruped.leg_length_mm=70",
        "gripper.mu_tape=4.0",
    ))
    params = cfgmod.material_params(cfg)
    assert params.c10 == 0.3
    assert params.kappa == pytest.approx(300.0)
    plant = cfgmod.pneumatic_plant(cfg)
    assert plant.supply_kpa == 100.0
    bath = cfgmod.bath_plant(cfg)
    assert bath.heater_power_w == 2000.0
    thermostat = cfgmod.bath_thermostat(cfg)
    assert thermostat.setpoint_c == 55.0
    assert cfgmod.earthworm_params(cfg).mu_backward == 2.0
    assert cfgmod.quadruped_params(cfg).leg_length_mm == 70.0
    assert cfgmod.gripper_params(cfg).mu_tape == 4.0


def test_default_builders_match_dataclass_defaults():
    cfg = cfgmod.defaults()
    assert cfgmod.pneumatic_plant(cfg) == pneumatics.PneumaticPlant()
    assert cfgmod.earthworm_params(cfg) == robots.EarthwormParams()
    assert cfgmod.quadruped_params(cfg) == robots.QuadrupedParams()
    assert cfgmod.gripper_params(cfg) == robots.GripperParams()


def test_bundled_calibration_file_is_current():
    # the shipped file must stay generated from the code defaults
    text = (FIXTURES / "calibration.cfg").read_text()
    body = "\n".join(line for line in text.splitlines()
                     if line and not line.startswith("#")) + "\n"
    assert body == cfgmod.dumps(cfgmod.defaults())
    assert cfgmod.resolve(path=FIXTURES / "calibration.cfg") \
        == cfgmod.defaults()
