"""Slower whole-model solves checked against independent references."""

from pathlib import Path

import numpy as np
import pytest

from pneusoft import fea, material, verify

from conftest import coarse_mesh

pytestmark = pytest.mark.slow

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_oracle():
    data = np.loadtxt(FIXTURES / "cylinder_oracle.csv", delimiter=",",
                      skiprows=1)
    return data[:, 0], data[:, 1]


def test_cylinder_oracle_file_matches_closed_form():
    # guards the frozen fixture against drift in the quadrature inverse
    pressures, radii = _load_oracle()
    for p, r in zip(pressures, radii):
        assert verify.cylinder_inner_radius_mm(p) == pytest.approx(r,
                                                                   abs=1e-8)


def test_tube_inflation_tracks_thick_wall_solution():
    (result,) = verify.run_checks(["cylinder"])
    assert result.passed, result.detail


def test_incompressibility_check_passes():
    (result,) = verify.run_checks(["incompressibility"])
    assert result.passed, result.detail


def test_linear_actuator_extends_under_pressure():
    mesh = coarse_mesh("linear", 3.0, symmetric_half=True)
    case = fea.LoadCase(target_pressure_kpa=40.0, increments=8,
                        extra_fixed=(("symx", "x"),))
    sol = fea.solve(mesh, material.HyperelasticParams(c10=0.24), case)
    elong = fea.measure_elongation(mesh, sol)
    assert np.all(np.diff(elong) > 0.0)
    assert elong[-1] > 0.5
    # the bellows wall also moves laterally, not just axially
    lateral = np.linalg.norm(sol.final_u()[:, :2], axis=1)
    assert lateral.max() > 0.05


def test_bend_ramp_counts_and_answer():
    # the bending2 half ramp at c10 = 0.24 that perfbench's bend-ramp
    # times: its LU and Newton counts, and the angle they reach
    mesh = coarse_mesh("bending2", 8.0, symmetric_half=True)
    case = fea.LoadCase(target_pressure_kpa=60.0, increments=60,
                        extra_fixed=(("symx", "x"),))
    sol = fea.solve(mesh, material.HyperelasticParams(c10=0.24), case)
    assert sum(rec["factorizations"] for rec in sol.log) <= 67
    assert sum(rec["iterations"] for rec in sol.log) <= 186
    angle = fea.measure_bend_angle(mesh, sol)[-1]
    assert abs(angle - 13.1431806804) <= 1e-8


def test_bending_angles_match_a_tight_solve(monkeypatch):
    # the softest tangent mode is the bending itself, so a residual test
    # alone leaves about 5e-6 deg of solver error in these angles; the
    # reference also tightens the correction test, or both solves would
    # stop on the same one
    mesh = coarse_mesh("bending1", 10.0, symmetric_half=True, chambers=1,
                       length=24.0)
    case = fea.LoadCase(target_pressure_kpa=60.0, increments=10,
                        extra_fixed=(("symx", "x"),))
    params = material.HyperelasticParams(c10=0.24)
    angle = fea.measure_bend_angle(mesh, fea.solve(mesh, params, case))
    monkeypatch.setattr(fea, "REL_TOL", 1e-10)
    monkeypatch.setattr(fea, "_CORRECTION_TOL", 1e-12)
    ref = fea.measure_bend_angle(mesh, fea.solve(mesh, params, case))
    assert len(angle) == len(ref) == case.increments + 1
    assert np.max(np.abs(angle - ref)) < 1e-6
