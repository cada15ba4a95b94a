"""End-to-end command-line behaviour, exit codes and file outputs."""

import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pneusoft import cli, config as cfgmod, fea, geometry, robots, verify
from pneusoft import mesh as meshmod

from conftest import coarse_mesh, fully_clamped, with_orphan_node


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(cfgmod.ENV_VAR, raising=False)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "pneusoft" in capsys.readouterr().out


def test_python_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "pneusoft", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "pneusoft" in done.stdout


def test_missing_required_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["mesh"])  # --kind is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--kind", "pocket"])  # --pressure is required
    assert exc.value.code == 2


def test_mesh_reports_and_writes(tmp_path, capsys):
    out = tmp_path / "b2.msh"
    rc = cli.main(["mesh", "--kind", "bending2", "--wall", "4",
                   "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "inverted 0" in stdout
    assert out.exists()
    loaded = meshmod.load_mesh(out)
    assert loaded.n_elements > 0


def test_mesh_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.msh", tmp_path / "b.msh"
    argv = ["mesh", "--kind", "linear", "--element-size", "4"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mesh_invalid_spec_exits_2(capsys):
    rc = cli.main(["mesh", "--kind", "linear", "--wall", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_mesh_unread_dimension_exits_2(capsys):
    rc = cli.main(["mesh", "--kind", "tube", "--height", "50"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no height" in err


def test_mesh_half_tube_exits_2(capsys):
    rc = cli.main(["mesh", "--kind", "tube", "--half"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_mesh_over_node_cap_exits_2(monkeypatch, capsys):
    # a spec over the node cap fails as a usage error
    monkeypatch.setattr(geometry, "MAX_MESH_NODES", 100)
    rc = cli.main(["solve", "--kind", "pocket", "--element-size", "2",
                   "--pressure", "10"])
    assert rc == 2
    assert "mesh nodes" in capsys.readouterr().err


def test_mesh_spec_flags_are_the_spec_fields():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[-1]: a for a in sub.choices["mesh"]._actions}
    fields = {f.name: f.type for f in dataclasses.fields(geometry.ActuatorSpec)}
    fields.pop("symmetric_half")
    expected = {"--" + name.replace("_", "-") for name in fields} | {"--half"}
    assert set(flags) - {"--help", "--out"} == expected
    for name, typ in fields.items():
        if name != "kind":
            assert flags["--" + name.replace("_", "-")].type is typ


@pytest.mark.parametrize("argv", [
    ["mesh", "--kind", "linear", "--bellows-count", "10000000"],
    ["mesh", "--kind", "bending1", "--chambers", "10000000", "--gap", "0",
     "--wall", "0.000001", "--element-size", "1"],
    ["mesh", "--kind", "cube", "--element-size", "5e-324"],
    ["mesh", "--kind", "tube", "--element-size", "5e-324"],
    ["mesh", "--kind", "bending1", "--element-size", "1e-300"],
])
def test_mesh_huge_band_counts_exit_2(capsys, argv):
    # a huge band count is refused before one box per bellows band or
    # chamber is listed, and a vanishing element size before the step
    # counts reach math.ceil, which overflows on inf
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mesh nodes" in err


def test_solve_zero_pressure_writes_reference_row(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    argv = ["solve", "--kind", "pocket", "--element-size", "2.5",
            "--pressure", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("increment,pressure_kPa,elongation_mm,"
                        "bend_angle_deg,max_displacement_mm")
    assert lines[1].split(",")[:2] == ["0", "0"]
    assert len(lines) == 2
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_solve_default_increments_land_on_uniform_grid(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = cli.main(["solve", "--kind", "pocket", "--element-size", "2.5",
                   "--pressure", "20", "--out", str(out)])
    assert rc == 0
    n = cfgmod.defaults()["solver.increments"]
    assert f"in {n} increments" in capsys.readouterr().out
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[0] == n + 1
    assert np.array_equal(rows[:, 0], np.arange(n + 1))
    assert np.allclose(rows[:, 1], 20.0 * np.arange(n + 1) / n,
                       rtol=1e-6, atol=0.0)


def test_solve_needs_mesh_or_kind(capsys):
    rc = cli.main(["solve", "--pressure", "10"])
    assert rc == 2
    assert "either --mesh or --kind" in capsys.readouterr().err


def test_solve_unknown_config_key_exits_2(capsys):
    rc = cli.main(["solve", "--kind", "pocket", "--pressure", "0",
                   "--set", "material.c10=0.3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown config key")


@pytest.mark.parametrize("extra", [("--pressure", "nan"),
                                   ("--pressure", "inf"),
                                   ("--pressure", "10", "--increments", "0"),
                                   ("--pressure", "10", "--increments", "1000000000")])
def test_solve_invalid_load_case_exits_2(tmp_path, capsys, monkeypatch, extra):
    # the load case is refused before any mesh is built
    def no_mesh(spec):
        raise AssertionError("meshed before checking the load case")
    monkeypatch.setattr(geometry, "generate_mesh", no_mesh)
    out = tmp_path / "s.csv"
    rc = cli.main(["solve", "--kind", "pocket", "--element-size", "2.5",
                   "--out", str(out), *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_solve_nonconvergence_exits_1(tmp_path, capsys):
    # an absurd pressure dies by bisection exhaustion, not a traceback
    msh = tmp_path / "pocket.msh"
    meshmod.save_mesh(coarse_mesh("pocket", 2.5), msh)
    rc = cli.main(["solve", "--mesh", str(msh), "--pressure", "100000",
                   "--increments", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_orphan_node_exits_1(tmp_path, capsys):
    m = coarse_mesh("pocket", 2.5)
    msh = tmp_path / "orphan.msh"
    meshmod.save_mesh(with_orphan_node(m), msh)
    rc = cli.main(["solve", "--mesh", str(msh), "--pressure", "10",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"nodes [{m.n_nodes}]" in err


def test_solve_fully_constrained_mesh_exits_1(tmp_path, capsys):
    msh = tmp_path / "clamped.msh"
    meshmod.save_mesh(fully_clamped(coarse_mesh("pocket", 2.5)), msh)
    out = tmp_path / "s.csv"
    rc = cli.main(["solve", "--mesh", str(msh), "--pressure", "10",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: load case constrains every DOF")
    assert not out.exists()


def test_solve_mesh_with_impossible_count_exits_2(tmp_path, capsys):
    msh = tmp_path / "huge.msh"
    msh.write_text("pneusoft-mesh v1\nnodes 100000000000\n0 0 0 0\ntet10 0\n")
    out = tmp_path / "s.csv"
    rc = cli.main(["solve", "--mesh", str(msh), "--pressure", "10",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: unexpected end of file: nodes "
                          "declares 100000000000 entries")
    assert not out.exists()


def test_solve_tube_uses_plane_strain_supports(tmp_path, capsys,
                                               monkeypatch):
    solutions = []
    solve = fea.solve
    monkeypatch.setattr(fea, "solve",
                        lambda *a: solutions.append(solve(*a)) or solutions[-1])
    out = tmp_path / "tube.csv"
    rc = cli.main(["solve", "--kind", "tube", "--element-size", "4",
                   "--pressure", "50", "--increments", "5",
                   "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "solved to 50 kPa" in stdout
    # the summary adds up the work of the whole ramp
    (sol,) = solutions
    iters = sum(rec["iterations"] for rec in sol.log)
    factors = sum(rec["factorizations"] for rec in sol.log)
    assert f"({iters} Newton iterations, {factors} LU factorizations)" in stdout
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, 1] == pytest.approx(50.0)
    assert np.all(np.isfinite(rows))
    assert np.all(np.diff(rows[:, 4]) > 0.0)


def test_calibrate_recovers_constant(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    pressures = (10.0, 20.0, 30.0, 40.0, 50.0)
    lines = ["pressure_kPa,expansion_mm"]
    for p in pressures:
        expansion = verify.cylinder_inner_radius_mm(p, c10_mpa=0.30) - 5.0
        lines.append(f"{p},{expansion:.9f}")
    obs.write_text("\n".join(lines) + "\n")
    rc = cli.main(["calibrate", "--observations", str(obs)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("c10 = ")
    fitted = float(stdout.split()[2])
    assert abs(fitted - 0.30) < 0.003


def test_calibrate_malformed_observations_exit_2(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("pressure_kPa\n10\n20\n")
    rc = cli.main(["calibrate", "--observations", str(obs)])
    assert rc == 2
    assert "two columns" in capsys.readouterr().err
    rc = cli.main(["calibrate", "--observations", str(tmp_path / "no.csv")])
    assert rc == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("wall", ["20", "nan"])
def test_calibrate_impossible_tube_exits_2(tmp_path, capsys, wall):
    obs = tmp_path / "obs.csv"
    obs.write_text("pressure_kPa,expansion_mm\n10,0.5\n20,1.1\n")
    rc = cli.main(["calibrate", "--observations", str(obs), "--wall", wall])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "wall" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rows, names", [
    pytest.param("-5,0.1\n",
                 "pressure_kpa must be non-negative and finite, got -5.0",
                 id="negative"),
    # at or above the closed form's asymptote at the fit's trial c10
    pytest.param("20,0.5\n400,3\n", "never reaches 400 kPa: it tends to",
                 id="above-asymptote"),
])
def test_calibrate_unreachable_pressure_exits_2(tmp_path, capsys, rows, names):
    obs = tmp_path / "obs.csv"
    obs.write_text("pressure_kPa,expansion_mm\n" + rows)
    rc = cli.main(["calibrate", "--observations", str(obs),
                   "--width", "10", "--wall", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err


def test_calibrate_has_no_length_flag(tmp_path, capsys):
    # the plane-strain closed form reads only the width and the wall
    obs = tmp_path / "obs.csv"
    obs.write_text("pressure_kPa,expansion_mm\n10,0.5\n20,1.1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--observations", str(obs), "--length", "2"])
    assert exc.value.code == 2
    assert "--length" in capsys.readouterr().err


def test_robot_earthworm_sweep(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    grids = []
    sweep = robots.earthworm_frequency_sweep

    def record(params, freqs):
        grids.append(freqs)
        return sweep(params, freqs)

    monkeypatch.setattr(robots, "earthworm_frequency_sweep", record)
    rc = cli.main(["robot", "earthworm", "--sweep", "0.2:1.6:0.1",
                   "--out", str(out)])
    assert rc == 0
    # the default grid, bitwise as np.arange builds it
    assert np.array_equal(grids[0], np.arange(0.2, 1.6 + 1e-9, 0.1))
    assert "peak speed" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "freq_Hz,speed_mm_s"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(rows) == 15
    best = rows[np.argmax(rows[:, 1])]
    assert abs(best[0] - 0.8) <= 0.1 + 1e-9
    assert abs(best[1] - 16.0) <= 0.2 * 16.0


@pytest.mark.parametrize("sweep, freqs", [
    ("1e16:1e17:3e16", [1e16, 4e16, 7e16, 1e17]),
    ("1e17:1e17:1", [1e17]),
])
def test_robot_earthworm_sweep_at_high_frequency(tmp_path, capsys, sweep,
                                                 freqs):
    # the first grid ended in a ZeroDivisionError from the cycle closed
    # form; the second was empty and exited on an argmax of nothing
    out = tmp_path / "sweep.csv"
    assert cli.main(["robot", "earthworm", "--sweep", sweep,
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(rows[:, 0], freqs)
    assert np.all(np.isfinite(rows[:, 1]))
    assert "peak speed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["robot", "earthworm", "--sweep", "0.2:1.6:0"],
    ["robot", "earthworm", "--sweep", "1.6:0.2:0.1"],
    ["control", "deadband", "--duration", "inf"],
    ["control", "duty", "--sample-hz", "inf"],
    ["robot", "bath", "--duration", "inf"],
    # non-finite controller and robot inputs
    ["control", "deadband", "--setpoint", "nan"],
    ["control", "deadband", "--band", "nan"],
    ["control", "duty", "--frequency", "nan"],
    ["robot", "gripper", "--diameter", "nan"],
    ["robot", "gripper", "--diameter", "inf"],
    ["robot", "gripper", "--masses", "nan"],
    ["robot", "quadruped", "--load", "nan"],
    ["robot", "quadruped", "--pressure", "nan"],
    # non-finite mesh dimensions
    ["mesh", "--kind", "cube", "--element-size", "inf"],
    ["mesh", "--kind", "linear", "--length", "nan"],
    # non-finite config values
    ["robot", "quadruped", "--set", "quadruped.cycle_s=nan"],
    ["robot", "bath", "--duration", "10", "--set", "bath.setpoint_c=nan"],
    # sample counts over pneumatics.MAX_SAMPLES, refused before allocating
    ["control", "deadband", "--duration", "1e12"],
    ["robot", "bath", "--duration", "1e13"],
    ["robot", "earthworm", "--sweep", "0.2:1e12:0.1"],
    ["control", "duty", "--duration", "1e300", "--sample-hz", "1e300"],
    # a thermostat band that reaches the pump's limit
    ["robot", "bath", "--duration", "3000", "--set", "bath.setpoint_c=90"],
    # one heated step that carries the bath past the pump's limit
    ["robot", "bath", "--duration", "3000", "--dt", "1000"],
    ["robot", "bath", "--duration", "3000", "--dt", "100",
     "--set", "bath.setpoint_c=68.5"],
    # an ambient past the pump's limit, where an unheated bath drifts
    ["robot", "bath", "--duration", "20000", "--set", "bath.ambient_c=95"],
    # a negative earthworm force gain or resistance
    ["robot", "earthworm", "--set", "earthworm.force_gain_n_per_kpa=-1"],
    ["robot", "earthworm", "--set", "earthworm.resistance_n=-1"],
])
def test_bad_loop_lengths_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_robot_out_of_range_setting_exits_2(capsys):
    # a stance envelope of -5 kPa used to print a speed
    argv = ["robot", "quadruped", "--set", "quadruped.max_pressure_kpa=-5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("error: max_pressure_kpa must be "
                                       "positive and finite, got -5.0\n")


def test_robot_quadruped_above_bend_table_exits_2(capsys):
    # with the envelope raised past it, 90 kPa printed the 60 kPa speed
    argv = ["robot", "quadruped", "--pressure", "90",
            "--set", "quadruped.max_pressure_kpa=100"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("error: pressure_kpa must lie in the "
                                       "bend table's 0-60 kPa, got 90.0\n")


def test_robot_quadruped_reports_anchor(capsys):
    rc = cli.main(["robot", "quadruped", "--pressure", "50", "--load", "80"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "speed at 50 kPa under 80 g" in stdout
    speed = float(stdout.rsplit(":", 1)[1].split()[0])
    assert 7.0 <= speed <= 13.0


def test_robot_gripper_single_mass(capsys):
    rc = cli.main(["robot", "gripper", "--masses", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "plain    5.000 kPa" in stdout
    assert "ratio 1.000" in stdout


def test_robot_gripper_mass_table(tmp_path):
    out = tmp_path / "grip.csv"
    rc = cli.main(["robot", "gripper", "--masses", "100,150,200",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mass_g,p_min_plain_kPa,p_min_tape_kPa"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (3, 3)
    assert np.all(rows[:, 2] < rows[:, 1])


def test_robot_bath_short_run(tmp_path, capsys):
    out = tmp_path / "bath.csv"
    rc = cli.main(["robot", "bath", "--duration", "60", "--dt", "0.1",
                   "--out", str(out)])
    assert rc == 0
    assert "bath: final" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "time_s,temp_C,heater"


def test_control_deadband_and_duty(tmp_path, capsys):
    out = tmp_path / "ctl.csv"
    rc = cli.main(["control", "deadband", "--setpoint", "40",
                   "--duration", "2", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "time_s,pressure_kPa,inlet,vent"
    rc = cli.main(["control", "duty", "--frequency", "0.8",
                   "--duration", "2"])
    assert rc == 0
    assert "pressure after" in capsys.readouterr().out


@pytest.mark.parametrize("argv, extra", [
    (["robot", "earthworm"], ["--masses", "5"]),
    (["robot", "earthworm"], ["--pressure", "90"]),
    (["robot", "earthworm"], ["--dt", "7"]),
    (["robot", "gripper", "--masses", "0"], ["--sweep", "0.2:1:0.1"]),
    (["control", "duty"], ["--setpoint", "99"]),
    (["control", "deadband"], ["--duty", "0.2"]),
])
def test_commands_refuse_flags_they_do_not_read(capsys, argv, extra):
    assert cli.main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + extra)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" \
        in capsys.readouterr().err


def test_solve_mesh_refuses_spec_flags(tmp_path, capsys):
    # a saved mesh carries its own shape, so spec flags would be dropped
    msh = tmp_path / "p.msh"
    meshmod.save_mesh(coarse_mesh("pocket", 2.5), msh)
    out = tmp_path / "s.csv"
    argv = ["solve", "--mesh", str(msh), "--pressure", "0", "--out", str(out)]
    rc = cli.main(argv + ["--kind", "tube", "--wall", "9", "--half"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: --mesh reads the shape from the file; drop --kind, --wall, "
        "--half")
    assert not out.exists()
    assert cli.main(argv) == 0


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before refusing the arguments")


def test_solve_mesh_without_tip_set_exits_2_before_solving(tmp_path, capsys,
                                                          monkeypatch):
    m = coarse_mesh("pocket", 2.5)
    sets = {k: v for k, v in m.node_sets.items() if k != "tip"}
    msh = tmp_path / "notip.msh"
    meshmod.save_mesh(meshmod.Mesh(nodes=m.nodes, tets=m.tets, node_sets=sets,
                                   face_sets=m.face_sets), msh)
    monkeypatch.setattr(fea, "solve", _no_solve)
    out = tmp_path / "s.csv"
    rc = cli.main(["solve", "--mesh", str(msh), "--pressure", "10",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: the mesh has neither a 'tip' nor an 'end1' node set to "
        "measure; add one to the mesh file")
    assert not out.exists()


def test_solve_out_in_missing_directory_exits_2_before_solving(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fea, "solve", _no_solve)
    missing = tmp_path / "no" / "such"
    rc = cli.main(["solve", "--kind", "pocket", "--element-size", "2.5",
                   "--pressure", "10", "--out", str(missing / "s.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: --out directory {missing} does not exist")


def test_solve_out_naming_a_directory_exits_2_before_meshing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "generate_mesh", _no_solve)
    monkeypatch.setattr(fea, "solve", _no_solve)
    rc = cli.main(["solve", "--kind", "pocket", "--element-size", "2.5",
                   "--pressure", "10", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: --out {tmp_path} is a directory; name a file")


def test_verify_quick_passes(capsys):
    rc = cli.main(["verify"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "4/4 checks passed" in stdout
    assert "FAIL" not in stdout


def test_verify_flags_bad_material(capsys):
    # a compressible configuration must fail the volumetric checks
    rc = cli.main(["verify", "--full", "--set", "material.kappa_ratio=1"])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout


def test_verify_full_runs_every_check(capsys, monkeypatch):
    ran = []
    for name in list(verify.CHECKS):
        monkeypatch.setitem(verify.CHECKS, name,
                            lambda cfg, name=name: ran.append(name) or (1, ""))
    assert cli.main(["verify", "--full"]) == 0
    assert ran == list(verify.CHECKS)
    assert f"{len(ran)}/{len(ran)} checks passed" in capsys.readouterr().out
