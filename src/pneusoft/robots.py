"""Reduced-order models of the three actuator-driven robots.

Each model maps an actuation setting to a body-level outcome without
running the full solver in the loop, and the pneumatic loop supplies
the pressure swings.  Only the quadruped bend table is copied from a
solve (with a drift test against it); the earthworm's stroke map
(``stroke_max_mm``, ``pressure_scale_kpa``), its ``force_gain_n_per_kpa``
and the gripper's ``normal_gain_n_per_kpa`` are set by hand, with no
solver path behind them yet.

earthworm   one linear actuator between two anisotropic-friction legs,
            driven by duty-cycled fill/vent switching
quadruped   four bending legs in antisymmetric pairs
gripper     three bending fingers closing on an object
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import pneumatics

GRAVITY_M_PER_S2 = 9.81


# ------------------------------------------------------------- earthworm

@dataclass(frozen=True)
class EarthwormParams:
    """Crawler built from one linear actuator and two friction legs.

    The actuator stroke saturates with pressure (stroke_map); the legs'
    convex claws slide easily along the travel direction and grip
    against it, which rectifies the periodic stroke into net motion.
    ``mu_forward``/``mu_backward`` are the sliding friction coefficients
    of one leg along/against travel and ``normal_n`` its ground load.
    """

    stroke_max_mm: float = 36.8
    pressure_scale_kpa: float = 12.0
    force_gain_n_per_kpa: float = 0.0124
    mu_forward: float = 0.5
    mu_backward: float = 1.5
    normal_n: float = 0.6
    resistance_n: float = 0.0
    supply_kpa: float = 40.0
    duty: float = 0.5
    tau_fill_s: float = pneumatics.DEFAULT_TAU_FILL_S
    tau_vent_s: float = pneumatics.DEFAULT_TAU_VENT_S

    def __post_init__(self):
        if self.stroke_max_mm <= 0 or self.pressure_scale_kpa <= 0:
            raise ValueError("stroke map parameters must be positive")
        if min(self.mu_forward, self.mu_backward, self.normal_n) < 0:
            raise ValueError("friction parameters must be non-negative")


def stroke_map(params, pressure_kpa):
    """Actuator extension at a held pressure, mm (saturating)."""
    p = np.asarray(pressure_kpa, dtype=float)
    if np.any(p < 0):
        raise ValueError("negative pressure in stroke map")
    out = params.stroke_max_mm * -np.expm1(-p / params.pressure_scale_kpa)
    return float(out) if np.isscalar(pressure_kpa) else out


def _slip_share(params):
    """Fraction of the stroke rectified into forward motion.

    Coulomb slip happens at the contact that resists least.  With
    anisotropic claws the whole stroke goes to the low-friction end in
    both half-cycles; with symmetric friction it splits evenly and the
    half-cycles cancel exactly.
    """
    fwd = params.mu_forward * params.normal_n
    bwd = params.mu_backward * params.normal_n
    if math.isclose(fwd, bwd, rel_tol=1e-12, abs_tol=1e-15):
        return 0.0
    return 1.0 if fwd < bwd else -1.0


def earthworm_cycle_mm(params, frequency_hz):
    """Net advance per valve cycle, mm (signed by the claw orientation).

    The pressure swing follows the valve loop's steady cycle; the net
    advance per cycle is the stroke difference between the cycle's
    pressure extremes, rectified by the friction asymmetry.  The crawl
    stalls when the actuator force over the swing cannot break the
    anchoring leg's grip.
    """
    p_min, p_max = pneumatics.cycle_amplitude(
        frequency_hz, duty=params.duty, supply_kpa=params.supply_kpa,
        tau_fill_s=params.tau_fill_s, tau_vent_s=params.tau_vent_s)
    swing = p_max - p_min
    drive_n = params.force_gain_n_per_kpa * swing
    mu_slip = min(params.mu_forward, params.mu_backward)
    hold_n = mu_slip * params.normal_n + params.resistance_n
    if drive_n <= hold_n:
        return 0.0
    advance = stroke_map(params, p_max) - stroke_map(params, p_min)
    return advance * _slip_share(params)


def earthworm_speed(params, frequency_hz):
    """Mean crawl speed in mm/s under duty-cycled switching."""
    return frequency_hz * earthworm_cycle_mm(params, frequency_hz)


def earthworm_frequency_sweep(params, frequencies_hz):
    """Speeds across a frequency grid; rows of (freq_Hz, speed_mm_s)."""
    freqs = np.asarray(frequencies_hz, dtype=float)
    speeds = np.fromiter((earthworm_speed(params, float(f)) for f in freqs),
                         float, count=len(freqs))
    return np.column_stack([freqs, speeds])


# ------------------------------------------------------------- quadruped

# Tip bend angle of the stock bending2 leg against held pressure,
# sampled from the 4 mm half-model solve that the acceptance test
# test_quadruped_bend_table_matches_bending_solve repeats; linear
# interpolation in between.
QUADRUPED_BEND_TABLE_KPA = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
QUADRUPED_BEND_TABLE_DEG = (0.0, 2.703, 5.332, 7.894, 10.397, 12.849, 15.257)

# two antisymmetric diagonal pairs, each powered for half the cycle
QUADRUPED_GAIT = (("front_left", "back_right"), ("front_right", "back_left"))


@dataclass(frozen=True)
class QuadrupedParams:
    """Four bending legs walking in antisymmetric diagonal pairs.

    One 0.9 s cycle pressurizes each pair once, so the body takes two
    steps per cycle.  A step swings the loaded leg by the bend angle
    the pressure commands; carried load derates the swing linearly to
    a stall mass.
    """

    cycle_s: float = 0.9
    leg_length_mm: float = 60.0
    stall_load_g: float = 120.33
    max_pressure_kpa: float = 50.0
    bend_table_kpa: tuple = QUADRUPED_BEND_TABLE_KPA
    bend_table_deg: tuple = QUADRUPED_BEND_TABLE_DEG

    def __post_init__(self):
        if self.cycle_s <= 0 or self.leg_length_mm <= 0:
            raise ValueError("cycle time and leg length must be positive")
        if self.stall_load_g <= 0:
            raise ValueError("stall load must be positive")
        kpa, deg = self.bend_table_kpa, self.bend_table_deg
        if len(kpa) != len(deg) or len(kpa) < 2:
            raise ValueError("bend table needs matching kPa/deg columns")
        if any(b <= a for a, b in zip(kpa, kpa[1:])):
            raise ValueError("bend table pressures must increase")
        if any(b < a for a, b in zip(deg, deg[1:])):
            raise ValueError("bend table angles must be non-decreasing")


def quadruped_bend_angle(params, pressure_kpa):
    """Leg tip angle in degrees at a held pressure (interpolated)."""
    p = np.asarray(pressure_kpa, dtype=float)
    if np.any(p < 0):
        raise ValueError("negative pressure in bend table lookup")
    out = np.interp(p, params.bend_table_kpa, params.bend_table_deg)
    return float(out) if np.isscalar(pressure_kpa) else out


def quadruped_speed(params, pressure_kpa, load_g=0.0):
    """Walking speed in mm/s at an actuation pressure and carried load.

    Each half-cycle the freshly pressurized pair swings the body
    forward by the chord of the commanded bend angle; load shrinks the
    effective swing linearly until the robot stalls.
    """
    if not (math.isfinite(pressure_kpa) and math.isfinite(load_g)):
        raise ValueError("pressure and load must be finite, got "
                         f"{pressure_kpa} kPa and {load_g} g")
    if load_g < 0:
        raise ValueError(f"negative load {load_g}")
    if pressure_kpa > params.max_pressure_kpa:
        warnings.warn(
            f"{pressure_kpa:g} kPa exceeds the {params.max_pressure_kpa:g} "
            f"kPa stance envelope of the legs; speed extrapolated")
    angle = math.radians(quadruped_bend_angle(params, pressure_kpa))
    step_mm = 2.0 * params.leg_length_mm * math.sin(angle / 2.0)
    derate = max(0.0, 1.0 - load_g / params.stall_load_g)
    return 2.0 * step_mm * derate / params.cycle_s


def quadruped_gait_schedule(params):
    """Per-phase (start_s, end_s, legs) tuples tiling one cycle exactly."""
    half = params.cycle_s / 2.0
    return tuple((i * half, (i + 1) * half, pair)
                 for i, pair in enumerate(QUADRUPED_GAIT))


def quadruped_trajectory(params, pressure_kpa, load_g=0.0, duration_s=9.0):
    """Body position sampled at each half-cycle; rows of (time_s, mm).

    The body advances by one leg-pair stroke per half cycle, so the
    trajectory is a staircase whose mean slope is quadruped_speed.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    advance = 0.5 * params.cycle_s * quadruped_speed(params, pressure_kpa,
                                                     load_g)
    half = params.cycle_s / 2.0
    n = int(duration_s / half)
    return np.array([(k * half, k * advance) for k in range(n + 1)])


def quadruped_speed_table(params, pressures_kpa=None, loads_g=None):
    """Rows of (pressure_kPa, load_g, speed_mm_s) over a grid."""
    if pressures_kpa is None:
        pressures_kpa = (20.0, 30.0, 40.0, 50.0)
    if loads_g is None:
        loads_g = (0.0, 40.0, 80.0, 120.0)
    rows = []
    for p in pressures_kpa:
        for m in loads_g:
            rows.append((float(p), float(m),
                         quadruped_speed(params, float(p), float(m))))
    return np.array(rows)


# --------------------------------------------------------------- gripper

@dataclass(frozen=True)
class GripperParams:
    """Three bending fingers gripping by friction against normal force.

    Finger normal force grows with pressure above the contact-making
    threshold and saturates at ``saturation_kpa``: beyond that the
    fingers are fully wrapped and extra pressure does not change the
    grasp.  The contact threshold falls affinely with object diameter
    (larger objects meet the fingers earlier in the close).  A
    nano-tape skin multiplies friction; any rate-independent adhesion
    adds a pressure-free term.
    """

    finger_count: int = 3
    mu_plain: float = 0.5
    mu_tape: float = 3.05
    normal_gain_n_per_kpa: float = 0.0374
    saturation_kpa: float = 40.0
    pressure_cap_kpa: float = 100.0
    contact_kpa_at_60mm: float = 5.0
    contact_slope_kpa_per_mm: float = -0.05
    adhesion_n: float = 0.0

    def __post_init__(self):
        if self.finger_count < 1:
            raise ValueError("need at least one finger")
        if min(self.mu_plain, self.mu_tape) <= 0:
            raise ValueError("friction coefficients must be positive")
        if self.normal_gain_n_per_kpa < 0:
            raise ValueError("normal gain must be non-negative")
        if self.saturation_kpa <= 0 or self.pressure_cap_kpa <= 0:
            raise ValueError("saturation and pressure cap must be positive")
        if self.adhesion_n < 0:
            raise ValueError("adhesion must be non-negative")

    def friction(self, surface):
        if surface == "plain":
            return self.mu_plain
        if surface == "tape":
            return self.mu_tape
        raise ValueError(f"unknown surface {surface!r}, "
                         f"expected 'plain' or 'tape'")


def gripper_contact_pressure(params, diameter_mm=60.0):
    """Pressure where the fingers first load the object, kPa."""
    if not (math.isfinite(diameter_mm) and diameter_mm > 0):
        raise ValueError("diameter must be positive and finite, got "
                         f"{diameter_mm}")
    c = (params.contact_kpa_at_60mm
         + params.contact_slope_kpa_per_mm * (diameter_mm - 60.0))
    return max(0.0, c)


def gripper_capacity_n(params, pressure_kpa, surface="plain",
                       diameter_mm=60.0):
    """Largest weight the grasp can hold at a pressure, N."""
    if pressure_kpa < 0:
        raise ValueError(f"negative pressure {pressure_kpa}")
    p_eff = min(pressure_kpa, params.saturation_kpa)
    squeeze = max(0.0, p_eff - gripper_contact_pressure(params, diameter_mm))
    per_finger = (params.friction(surface)
                  * params.normal_gain_n_per_kpa * squeeze
                  + params.adhesion_n)
    return params.finger_count * per_finger


def gripper_can_hold(params, mass_g, pressure_kpa, surface="plain",
                     diameter_mm=60.0):
    """True when the grasp supports the object weight at this pressure."""
    if not (math.isfinite(mass_g) and mass_g >= 0):
        raise ValueError("mass must be finite and non-negative, got "
                         f"{mass_g}")
    weight = mass_g * 1e-3 * GRAVITY_M_PER_S2
    return gripper_capacity_n(params, pressure_kpa, surface,
                              diameter_mm) >= weight


def gripper_min_pressure_kpa(params, mass_g, surface="plain",
                             diameter_mm=60.0):
    """Smallest holding pressure in kPa, or inf beyond the saturated grasp.

    A massless object still needs the contact pressure (the fingers
    must close onto it).  Above that the capacity line inverts to
    p = contact + (m g / n - adhesion) / (mu k); anything past the
    saturation knee or the supply cap is unreachable because extra
    pressure stops adding normal force there.
    """
    if not (math.isfinite(mass_g) and mass_g >= 0):
        raise ValueError("mass must be finite and non-negative, got "
                         f"{mass_g}")
    weight = mass_g * 1e-3 * GRAVITY_M_PER_S2
    contact = gripper_contact_pressure(params, diameter_mm)
    need = weight / params.finger_count - params.adhesion_n
    if need <= 0.0:
        return contact
    if params.normal_gain_n_per_kpa == 0.0:
        return math.inf
    mu_k = params.friction(surface) * params.normal_gain_n_per_kpa
    p = contact + need / mu_k
    if p > min(params.saturation_kpa, params.pressure_cap_kpa):
        return math.inf
    return p


def gripper_max_mass_g(params, pressure_cap_kpa=None, surface="plain",
                       diameter_mm=60.0):
    """Heaviest holdable object in grams at pressures up to the cap."""
    cap = params.pressure_cap_kpa if pressure_cap_kpa is None \
        else pressure_cap_kpa
    if cap < 0:
        raise ValueError(f"negative pressure cap {cap}")
    capacity = gripper_capacity_n(params, min(cap, params.saturation_kpa),
                                  surface, diameter_mm)
    return capacity / GRAVITY_M_PER_S2 * 1e3


def gripper_pressure_table(params, masses_g, diameter_mm=60.0):
    """Rows of (mass_g, p_min_plain_kPa, p_min_tape_kPa)."""
    rows = []
    for m in masses_g:
        rows.append((float(m),
                     gripper_min_pressure_kpa(params, float(m), "plain",
                                              diameter_mm),
                     gripper_min_pressure_kpa(params, float(m), "tape",
                                              diameter_mm)))
    return np.array(rows)
