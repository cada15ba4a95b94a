"""End-to-end acceptance gates.

One test per criterion.  Each registers a single PASS/FAIL summary line
(printed after the pytest report, see conftest) before asserting at the
stated tolerance, so a red run still reports every criterion.
Criteria 1, 2, 3 and 5 run the checks of ``pneusoft verify`` itself.
The bending solves use the coarse settings (half meshes, 60
increments); no refinement study backs them yet (ROADMAP item 2).
"""

import time
import warnings

import numpy as np
import pytest

from pneusoft import fea, material, pneumatics, robots, verify

from conftest import coarse_mesh, record_criterion

pytestmark = pytest.mark.slow

PARAMS = material.HyperelasticParams(c10=0.24)


# ---------------------------------------------------------- solver gates

def _verify_gate(index, name, check, max_s=None):
    (result,) = verify.run_checks([check])
    fast = max_s is None or result.elapsed_s < max_s
    record_criterion(index, name, result.passed and fast,
                     f"{result.detail} in {result.elapsed_s:.1f}s")
    assert result.passed, result.detail
    assert fast, f"{result.elapsed_s:.1f}s (limit {max_s:g}s)"


def test_criterion_01_gradient_chain():
    _verify_gate(1, "gradient-chain", "gradient", max_s=10.0)


def test_criterion_02_stress_patch():
    _verify_gate(2, "stress-patch", "patch")


def test_criterion_03_closed_cavity():
    _verify_gate(3, "closed-cavity", "closed-cavity")


def test_criterion_04_tube_convergence():
    start = time.perf_counter()
    exact = verify.cylinder_inner_radius_mm(50.0) - 5.0
    errors = []
    for es in (4.0, 2.0, 1.0):
        mesh, sol = verify.solve_cylinder(es, PARAMS)
        got = float(fea.measure_radial_expansion(mesh, sol)[-1])
        errors.append(abs(got - exact) / exact)
    elapsed = time.perf_counter() - start
    monotone = errors[0] > errors[1] > errors[2]
    ok = errors[2] < 0.02 and monotone and elapsed < 300.0
    record_criterion(4, "tube-convergence", ok,
                     "errors " + "/".join(f"{e:.2%}" for e in errors)
                     + f" at 4/2/1 mm in {elapsed:.0f}s")
    assert monotone, errors
    assert errors[2] < 0.02
    assert elapsed < 300.0


# ------------------------------------------------------ pneumatic gates

def test_criterion_05_valve_cycle_map():
    _verify_gate(5, "valve-cycle", "valve-swing", max_s=10.0)


def test_criterion_08_bath_regulation():
    plant = pneumatics.BathPlant()
    ctl = pneumatics.ThermostatController()
    trace = pneumatics.run_bath(plant, ctl, duration_s=10800.0, dt_s=0.1)
    temps = np.asarray(trace.temp_c)
    times = np.asarray(trace.time_s)
    peak = float(temps.max())
    steady = temps[times >= 1800.0]
    lo, hi = float(steady.min()), float(steady.max())
    ok = peak < pneumatics.PUMP_LIMIT_C and 63.5 <= lo and hi <= 66.5
    record_criterion(8, "bath-regulation", ok,
                     f"peak {peak:.2f} degC (limit 70), steady band "
                     f"[{lo:.2f}, {hi:.2f}] degC (target 65 +- 1.5)")
    assert peak < pneumatics.PUMP_LIMIT_C
    assert lo >= 63.5 and hi <= 66.5


# ----------------------------------------------------- robot model gates

def test_criterion_06_friction_symmetry():
    params = robots.EarthwormParams(mu_forward=1.1, mu_backward=1.1)
    speeds = [robots.earthworm_speed(params, f)
              for f in (0.2, 0.5, 0.8, 1.0, 1.4)]
    ok = all(s == 0.0 for s in speeds)
    record_criterion(6, "friction-symmetry", ok,
                     "equal friction coefficients give exactly zero "
                     "advance at every frequency")
    assert all(s == 0.0 for s in speeds)


def test_criterion_07_model_monotonicity():
    quad = robots.QuadrupedParams()
    pressures = np.arange(0.0, 51.0, 10.0)
    loads = np.arange(0.0, 121.0, 20.0)
    speed = np.array([[robots.quadruped_speed(quad, p, load_g=m)
                       for m in loads] for p in pressures])
    quad_ok = (np.all(np.diff(speed, axis=0) >= 0.0)
               and np.all(np.diff(speed, axis=1) <= 0.0))

    grip = robots.GripperParams()
    masses = np.array([25.0, 75.0, 125.0, 175.0])
    p_min = np.array([robots.gripper_min_pressure_kpa(grip, m)
                      for m in masses])
    slope = (p_min[1] - p_min[0]) / (masses[1] - masses[0])
    affine_dev = float(np.max(np.abs(
        p_min - (p_min[0] + slope * (masses - masses[0])))))
    feasible_ok = all(
        robots.gripper_can_hold(grip, m, p, surface=surface)
        for m, surface in ((150.0, "plain"), (267.0, "tape"))
        for p in (40.0, 60.0, 100.0, 250.0))

    ok = quad_ok and affine_dev < 1e-9 and feasible_ok
    record_criterion(7, "model-monotonicity", ok,
                     f"quadruped grid monotone: {quad_ok}; gripper "
                     f"affine deviation {affine_dev:.1e} kPa; feasibility "
                     f"preserved above 40 kPa: {feasible_ok}")
    assert quad_ok
    assert affine_dev < 1e-9
    assert feasible_ok


def test_criterion_10_earthworm_peak():
    params = robots.EarthwormParams()
    grid = np.round(np.arange(0.2, 1.61, 0.1), 10)
    table = robots.earthworm_frequency_sweep(params, grid)
    speeds = table[:, 1]
    best_f = float(grid[np.argmax(speeds)])
    peak = float(speeds.max())
    stalled = bool(np.all(speeds[grid >= 1.3 - 1e-9] == 0.0))
    ok = abs(best_f - 0.8) <= 0.1 + 1e-9 \
        and abs(peak - 16.0) <= 0.2 * 16.0 and stalled
    record_criterion(10, "earthworm-peak", ok,
                     f"peak {peak:.2f} mm/s at {best_f:.1f} Hz "
                     f"(target 16 +- 20% at 0.8 +- 0.1), stalled past "
                     f"1.3 Hz: {stalled}")
    assert abs(best_f - 0.8) <= 0.1 + 1e-9
    assert abs(peak - 16.0) <= 0.2 * 16.0
    assert stalled


def test_criterion_11_quadruped_speed():
    quad = robots.QuadrupedParams()
    anchor = robots.quadruped_speed(quad, 50.0, load_g=80.0)
    loads = (0.0, 30.0, 60.0, 100.0, 120.0)
    by_load = [robots.quadruped_speed(quad, 50.0, load_g=m) for m in loads]
    by_pressure = [robots.quadruped_speed(quad, p, load_g=80.0)
                   for p in (10.0, 20.0, 30.0, 40.0, 50.0)]
    load_mono = all(b < a for a, b in zip(by_load, by_load[1:]))
    pressure_mono = all(b > a for a, b in
                        zip(by_pressure, by_pressure[1:]))
    ok = abs(anchor - 10.0) <= 3.0 and load_mono and pressure_mono
    record_criterion(11, "quadruped-speed", ok,
                     f"{anchor:.2f} mm/s at 50 kPa / 80 g (target 10 "
                     f"+- 30%); strictly slower under 4 heavier loads: "
                     f"{load_mono}; strictly faster at 4 higher "
                     f"pressures: {pressure_mono}")
    assert abs(anchor - 10.0) <= 3.0
    assert load_mono
    assert pressure_mono


def test_criterion_12_gripper_grasp():
    grip = robots.GripperParams()
    masses = (100.0, 150.0, 200.0)
    ratios = []
    for m in masses:
        plain = robots.gripper_min_pressure_kpa(grip, m, surface="plain")
        tape = robots.gripper_min_pressure_kpa(grip, m, surface="tape")
        ratios.append(tape / plain)
    ratios_ok = all(abs(r - 0.35) <= 0.10 for r in ratios)
    plain_cap = robots.gripper_max_mass_g(grip, pressure_cap_kpa=40.0)
    tape_p267 = robots.gripper_min_pressure_kpa(grip, 267.0, surface="tape")
    ok = ratios_ok and abs(plain_cap - 200.0) <= 20.0 and tape_p267 <= 40.0
    record_criterion(12, "gripper-grasp", ok,
                     "tape/plain ratios "
                     + "/".join(f"{r:.2f}" for r in ratios)
                     + f" (target 0.35 +- 0.10); plain max {plain_cap:.0f} g"
                     f" (target 200); 267 g on tape needs "
                     f"{tape_p267:.1f} kPa (<= 40)")
    assert ratios_ok, ratios
    assert abs(plain_cap - 200.0) <= 20.0
    assert tape_p267 <= 40.0


# ------------------------------------------------------- bending solves

@pytest.fixture(scope="module")
def bending_solutions():
    out = {}
    for kind, es in (("bending1", 5.0), ("bending2", 4.0)):
        msh = coarse_mesh(kind, es, symmetric_half=True)
        case = fea.LoadCase(target_pressure_kpa=60.0, increments=60,
                            extra_fixed=(("symx", "x"),))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = fea.solve(msh, PARAMS, case)
        out[kind] = (msh, sol, time.perf_counter() - start)
    return out


def test_criterion_09_bending_angles(bending_solutions):
    m1, sol1, t1 = bending_solutions["bending1"]
    m2, sol2, t2 = bending_solutions["bending2"]
    ang1 = fea.measure_bend_angle(m1, sol1)
    ang2 = fea.measure_bend_angle(m2, sol2)
    final1, final2 = float(ang1[-1]), float(ang2[-1])
    # compare on the shared pressure grid, reference state excluded
    p1 = sol1.pressures_kpa[1:]
    interp2 = np.interp(p1, sol2.pressures_kpa, ang2)
    ordered = bool(np.all(ang1[1:] > interp2))
    in_range = (abs(final1 - 60.0) <= 12.0 and abs(final2 - 15.0) <= 3.0)
    ok = in_range and ordered and t1 < 600.0 and t2 < 600.0
    record_criterion(9, "bending-angles", ok,
                     f"thin-wall {final1:.1f} deg (target 60 +- 20%) in "
                     f"{t1:.0f}s; thick-wall {final2:.1f} deg (target 15 "
                     f"+- 20%) in {t2:.0f}s; thin > thick at every "
                     f"pressure: {ordered}")
    assert abs(final1 - 60.0) <= 12.0
    assert abs(final2 - 15.0) <= 3.0
    assert ordered
    assert t1 < 600.0 and t2 < 600.0


def test_bending_solves_spend_no_fallback(bending_solutions):
    # the fast factors are accurate here, so none may be refactored
    logs = {kind: sol.log for kind, (_, sol, _) in bending_solutions.items()}
    for kind, log in logs.items():
        assert sum(rec["fallbacks"] for rec in log) == 0, kind
    # a load-free first factor after a discarded chord took bending1
    # from 151 to 131 LUs and left bending2 at 73
    assert sum(rec["factorizations"] for rec in logs["bending1"]) < 140
    assert sum(rec["factorizations"] for rec in logs["bending2"]) <= 73


def test_quadruped_bend_table_matches_bending_solve(bending_solutions):
    # the quadruped model's bend table is copied from this solve
    m2, sol2, _ = bending_solutions["bending2"]
    ang = np.interp(robots.QUADRUPED_BEND_TABLE_KPA, sol2.pressures_kpa,
                    fea.measure_bend_angle(m2, sol2))
    table = tuple(round(float(a), 3) for a in ang)
    assert np.max(np.abs(ang - robots.QUADRUPED_BEND_TABLE_DEG)) < 1e-3, \
        f"regenerated: QUADRUPED_BEND_TABLE_DEG = {table}"
