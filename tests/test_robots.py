"""Reduced-order models of the crawler, walker and gripper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneusoft import robots

EW = robots.EarthwormParams()
QUAD = robots.QuadrupedParams()
GRIP = robots.GripperParams()


# ------------------------------------------------------------- earthworm

def test_stroke_map_anchors():
    assert robots.stroke_map(EW, 0.0) == 0.0
    assert robots.stroke_map(EW, 12.0) == pytest.approx(
        36.8 * (1.0 - np.exp(-1.0)), rel=1e-12)
    assert robots.stroke_map(EW, 1e6) == pytest.approx(36.8, rel=1e-6)
    with pytest.raises(ValueError):
        robots.stroke_map(EW, -1.0)


@settings(max_examples=60, deadline=None)
@given(p1=st.floats(0.0, 200.0), p2=st.floats(0.0, 200.0))
def test_stroke_map_monotone(p1, p2):
    lo, hi = sorted((p1, p2))
    assert robots.stroke_map(EW, lo) <= robots.stroke_map(EW, hi)


def test_symmetric_friction_gives_exact_zero():
    params = robots.EarthwormParams(mu_forward=0.9, mu_backward=0.9)
    for freq in (0.2, 0.5, 0.8, 1.2):
        assert robots.earthworm_speed(params, freq) == 0.0


def test_mirrored_friction_negates_speed():
    fwd = robots.EarthwormParams(mu_forward=0.5, mu_backward=1.5)
    rev = robots.EarthwormParams(mu_forward=1.5, mu_backward=0.5)
    for freq in (0.3, 0.8, 1.1):
        assert robots.earthworm_speed(rev, freq) \
            == -robots.earthworm_speed(fwd, freq)


def test_speed_is_frequency_times_cycle_advance():
    for freq in (0.4, 0.8, 1.0):
        cycle = robots.earthworm_cycle_mm(EW, freq)
        assert robots.earthworm_speed(EW, freq) \
            == pytest.approx(freq * cycle, rel=1e-12)


def test_default_sweep_peaks_at_measured_point():
    grid = np.round(np.arange(0.2, 1.61, 0.1), 10)
    rows = robots.earthworm_frequency_sweep(EW, grid)
    freqs = np.array([r[0] for r in rows])
    speeds = np.array([r[1] for r in rows])
    best = freqs[np.argmax(speeds)]
    assert abs(best - 0.8) <= 0.1 + 1e-9
    assert speeds.max() == pytest.approx(16.0, rel=0.2)
    assert np.all(speeds[freqs >= 1.3 - 1e-9] == 0.0)


def test_stall_when_drive_cannot_beat_holding_friction():
    weak = robots.EarthwormParams(force_gain_n_per_kpa=1e-5)
    assert robots.earthworm_speed(weak, 0.8) == 0.0
    dragged = robots.EarthwormParams(resistance_n=100.0)
    assert robots.earthworm_speed(dragged, 0.8) == 0.0


def test_sweep_rises_then_falls():
    # anchor-and-drag gaits accelerate with frequency until the swing
    # collapses; past the peak they only slow down and finally stall
    rng = np.random.default_rng(20260814)
    grid = np.round(np.arange(0.2, 2.01, 0.1), 10)
    for _ in range(25):
        tau_fill = rng.uniform(0.05, 0.4)
        params = robots.EarthwormParams(
            tau_fill_s=tau_fill,
            tau_vent_s=tau_fill * rng.uniform(1.2, 3.0),
            force_gain_n_per_kpa=rng.uniform(0.008, 0.03),
            normal_n=rng.uniform(0.3, 1.0),
        )
        speeds = np.array([robots.earthworm_speed(params, f) for f in grid])
        positive = speeds > 0.0
        if not positive.any():
            continue
        # stalled points form a suffix of the grid
        first, last = np.flatnonzero(positive)[[0, -1]]
        assert first == 0 or not positive[:first].any()
        assert not positive[last + 1:].any()
        diffs = np.diff(speeds[first:last + 1])
        signs = [d > 0.0 for d in diffs if d != 0.0]
        # one rise phase followed by one fall phase
        assert all(a or not b for a, b in zip(signs, signs[1:]))


def test_fast_vent_pushes_peak_beyond_grid():
    params = robots.EarthwormParams(tau_vent_s=1e-6)
    grid = np.round(np.arange(0.2, 1.61, 0.1), 10)
    speeds = [robots.earthworm_speed(params, f) for f in grid]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))


def test_earthworm_validation():
    with pytest.raises(ValueError):
        robots.EarthwormParams(stroke_max_mm=-1.0)
    with pytest.raises(ValueError):
        robots.EarthwormParams(mu_forward=-0.5)
    with pytest.raises(ValueError, match="force_gain_n_per_kpa"):
        robots.EarthwormParams(force_gain_n_per_kpa=-1.0)
    with pytest.raises(ValueError, match="resistance"):
        robots.EarthwormParams(resistance_n=-1.0)
    with pytest.raises(ValueError):
        robots.earthworm_speed(EW, 0.0)
    with pytest.raises(ValueError):
        robots.earthworm_frequency_sweep(EW, [0.5, -1.0])


# ------------------------------------------------------------- quadruped

def test_bend_angle_interpolates_measured_table():
    assert robots.quadruped_bend_angle(0.0) == 0.0
    for p, ang in zip(robots.QUADRUPED_BEND_TABLE_KPA,
                      robots.QUADRUPED_BEND_TABLE_DEG):
        assert robots.quadruped_bend_angle(p) == pytest.approx(ang)
    mid = robots.quadruped_bend_angle(25.0)
    assert robots.QUADRUPED_BEND_TABLE_DEG[2] < mid \
        < robots.QUADRUPED_BEND_TABLE_DEG[3]
    with pytest.raises(ValueError):
        robots.quadruped_bend_angle(-1.0)


def test_quadruped_validation():
    for bad in ({"cycle_s": 0.0}, {"leg_length_mm": -1.0},
                {"stall_load_g": 0.0}):
        with pytest.raises(ValueError):
            robots.QuadrupedParams(**bad)


def test_quadruped_speed_anchor_and_monotonicity():
    assert robots.quadruped_speed(QUAD, 0.0) == 0.0
    assert robots.quadruped_speed(QUAD, 50.0, load_g=80.0) \
        == pytest.approx(10.0, rel=1e-3)
    speeds = [robots.quadruped_speed(QUAD, p) for p in range(10, 51, 10)]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    loads = (0.0, 30.0, 60.0, 100.0, 120.0)
    by_load = [robots.quadruped_speed(QUAD, 50.0, load_g=m) for m in loads]
    assert all(b < a for a, b in zip(by_load, by_load[1:]))
    assert robots.quadruped_speed(QUAD, 50.0, load_g=500.0) == 0.0
    with pytest.raises(ValueError):
        robots.quadruped_speed(QUAD, 50.0, load_g=-1.0)


def test_quadruped_pressure_warning():
    with pytest.warns(UserWarning, match="exceeds"):
        robots.quadruped_speed(QUAD, 60.0)


def test_quadruped_refuses_pressure_above_bend_table():
    # interpolation held the 60 kPa row above it: 35.40 mm/s at 60, 70,
    # 90 and 150 kPa alike
    top = robots.QUADRUPED_BEND_TABLE_KPA[-1]
    assert robots.quadruped_bend_angle(top) == robots.QUADRUPED_BEND_TABLE_DEG[-1]
    params = robots.QuadrupedParams(max_pressure_kpa=200.0)
    for p in (top + 1e-9, 70.0, 150.0):
        with pytest.raises(ValueError, match="bend table's 0-60 kPa"):
            robots.quadruped_speed(params, p)


def test_gait_schedule_tiles_cycle():
    phases = robots.quadruped_gait_schedule(QUAD)
    assert phases[0][:2] == (0.0, 0.45)
    assert phases[1][:2] == (0.45, 0.9)
    assert (phases[0][2], phases[1][2]) == robots.QUADRUPED_GAIT
    # phase boundaries tile the cycle with no gap or overlap
    assert phases[0][1] == phases[1][0]
    assert phases[1][1] == QUAD.cycle_s


def test_trajectory_is_a_staircase_with_matching_slope():
    rows = robots.quadruped_trajectory(QUAD, 50.0, load_g=80.0,
                                       duration_s=9.0)
    times = np.array([r[0] for r in rows])
    pos = np.array([r[1] for r in rows])
    assert times[0] == 0.0 and pos[0] == 0.0
    assert times[-1] == pytest.approx(9.0)
    # half-cycle steps of equal advance
    assert np.allclose(np.diff(times), 0.45)
    steps = np.diff(pos)
    assert np.allclose(steps, steps[0])
    speed = robots.quadruped_speed(QUAD, 50.0, load_g=80.0)
    assert pos[-1] / times[-1] == pytest.approx(speed, rel=1e-9)
    with pytest.raises(ValueError):
        robots.quadruped_trajectory(QUAD, 50.0, duration_s=0.0)


def test_quadruped_speed_table_grid():
    pressures = (10.0, 30.0, 50.0)
    loads = (0.0, 60.0, 120.0)
    rows = robots.quadruped_speed_table(QUAD, pressures, loads)
    assert len(rows) == 9
    for p, m, s in rows:
        assert s == pytest.approx(robots.quadruped_speed(QUAD, p, load_g=m))


# --------------------------------------------------------------- gripper

def test_contact_pressure_threshold():
    assert robots.gripper_contact_pressure(GRIP) == pytest.approx(5.0)
    assert robots.gripper_contact_pressure(GRIP, diameter_mm=80.0) \
        == pytest.approx(4.0)
    # clamped at zero for very large objects
    assert robots.gripper_contact_pressure(GRIP, diameter_mm=300.0) == 0.0


def test_min_pressure_anchors():
    # an empty hand still needs contact pressure
    assert robots.gripper_min_pressure_kpa(GRIP, 0.0) == pytest.approx(5.0)
    plain = [robots.gripper_min_pressure_kpa(GRIP, m, surface="plain")
             for m in (100.0, 150.0, 200.0)]
    tape = [robots.gripper_min_pressure_kpa(GRIP, m, surface="tape")
            for m in (100.0, 150.0, 200.0)]
    assert all(p <= 40.0 for p in plain)
    ratios = [t / p for t, p in zip(tape, plain)]
    assert all(0.25 <= r <= 0.45 for r in ratios)
    # past the feasible boundary the requirement is unbounded
    assert robots.gripper_min_pressure_kpa(GRIP, 205.0, surface="plain") \
        == np.inf


def test_min_pressure_affine_in_mass():
    masses = np.array([20.0, 60.0, 110.0, 150.0, 190.0])
    p = np.array([robots.gripper_min_pressure_kpa(GRIP, m) for m in masses])
    slope = (p[1] - p[0]) / (masses[1] - masses[0])
    predicted = p[0] + slope * (masses - masses[0])
    assert np.allclose(p, predicted, rtol=1e-12, atol=1e-12)


def test_pressure_offset_ratio_is_friction_ratio():
    c = robots.gripper_contact_pressure(GRIP)
    for m in (40.0, 90.0, 140.0):
        plain = robots.gripper_min_pressure_kpa(GRIP, m, surface="plain")
        tape = robots.gripper_min_pressure_kpa(GRIP, m, surface="tape")
        assert (tape - c) / (plain - c) \
            == pytest.approx(GRIP.mu_plain / GRIP.mu_tape, rel=1e-12)


def test_capacity_saturates():
    low = robots.gripper_capacity_n(GRIP, 40.0)
    assert robots.gripper_capacity_n(GRIP, 80.0) == pytest.approx(low)
    assert robots.gripper_capacity_n(GRIP, 20.0) < low


def test_max_mass_anchors():
    plain = robots.gripper_max_mass_g(GRIP, pressure_cap_kpa=40.0)
    assert plain == pytest.approx(200.0, rel=0.1)
    tape = robots.gripper_max_mass_g(GRIP, pressure_cap_kpa=40.0,
                                     surface="tape")
    assert tape >= 267.0
    assert robots.gripper_min_pressure_kpa(GRIP, 267.0, surface="tape") \
        <= 40.0
    with pytest.raises(ValueError):
        robots.gripper_max_mass_g(GRIP, pressure_cap_kpa=-1.0)


def test_max_mass_monotone_in_cap():
    caps = (5.0, 10.0, 20.0, 40.0, 60.0, 100.0)
    masses = [robots.gripper_max_mass_g(GRIP, pressure_cap_kpa=c)
              for c in caps]
    assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_feasibility_is_monotone_in_pressure():
    for m, surface in ((100.0, "plain"), (200.0, "plain"), (267.0, "tape")):
        assert robots.gripper_can_hold(GRIP, m, 40.0, surface=surface)
        for p in (50.0, 60.0, 100.0):
            assert robots.gripper_can_hold(GRIP, m, p, surface=surface)


def test_zero_gain_gripper():
    params = robots.GripperParams(normal_gain_n_per_kpa=0.0)
    assert robots.gripper_min_pressure_kpa(params, 50.0) == np.inf
    assert robots.gripper_max_mass_g(params, pressure_cap_kpa=40.0) == 0.0


def test_gripper_validation():
    with pytest.raises(ValueError):
        robots.GripperParams(normal_gain_n_per_kpa=-0.1)
    with pytest.raises(ValueError):
        robots.GripperParams(finger_count=0)
    with pytest.raises(ValueError):
        GRIP.friction("velcro")
    with pytest.raises(ValueError):
        robots.gripper_min_pressure_kpa(GRIP, -5.0)


def test_pressure_table_rows():
    rows = robots.gripper_pressure_table(GRIP, (0.0, 100.0, 200.0))
    assert len(rows) == 3
    for mass, p_plain, p_tape in rows:
        assert p_plain == pytest.approx(
            robots.gripper_min_pressure_kpa(GRIP, mass, surface="plain"))
        assert p_tape == pytest.approx(
            robots.gripper_min_pressure_kpa(GRIP, mass, surface="tape"))
        if mass > 0.0:
            assert p_tape < p_plain
