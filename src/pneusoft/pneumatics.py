"""On-off pneumatic supply loops and the heated dissolution bath.

A single chamber fed through solenoid valves behaves as a first-order
system: filling relaxes the pressure toward the supply with one time
constant, venting decays it toward atmosphere with another.  Both
updates have exact exponential forms, so simulation steps are stable at
any step size.  Controllers are sampled; between samples the valve
state is held and the plant integrates exactly.

The bath model serves the fabrication rig: a resistive heater warms a
water tank whose loss to ambient is linear in the temperature excess.
Its thermostat must hold the dissolution temperature while never
reaching the pump's 70 deg C rating.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checks import check, check_fields

DEFAULT_TAU_FILL_S = 0.20
DEFAULT_TAU_VENT_S = 0.35
DEFAULT_SUPPLY_KPA = 250.0
DEFAULT_SAMPLE_HZ = 50.0
# the most samples sample_count allows: ~1.5 s, 20 MB (criterion 8 needs 108 000)
MAX_SAMPLES = 1_000_000


@dataclass
class PneumaticPlant:
    """Chamber pressure driven by inlet and vent valves.

    Pressures are gauge kPa.  Filling: p -> supply with tau_fill_s;
    venting: p -> 0 with tau_vent_s; both closed: hold.  Opening both
    valves at once shorts the supply to atmosphere, so the plant
    enforces the interlock and raises instead.
    """

    supply_kpa: float = DEFAULT_SUPPLY_KPA
    tau_fill_s: float = DEFAULT_TAU_FILL_S
    tau_vent_s: float = DEFAULT_TAU_VENT_S
    pressure_kpa: float = 0.0

    def __post_init__(self):
        check_fields(self, positive="supply_kpa tau_fill_s tau_vent_s",
                     non_negative="pressure_kpa")

    def step(self, dt_s, inlet_open, vent_open):
        """Advance dt_s with a held valve state; returns the new pressure."""
        return self._step(check("dt_s", dt_s, "non_negative"), inlet_open,
                          vent_open)

    def _step(self, dt_s, inlet_open, vent_open):
        # step for a loop that checked dt_s once
        if inlet_open and vent_open:
            raise ValueError("valve interlock: inlet and vent both open")
        p = self.pressure_kpa
        if inlet_open:
            p += (self.supply_kpa - p) * -math.expm1(-dt_s / self.tau_fill_s)
        elif vent_open:
            p *= math.exp(-dt_s / self.tau_vent_s)
        self.pressure_kpa = p
        return p


@dataclass
class DeadbandController:
    """Holds pressure inside [setpoint - band, setpoint + band].

    Fills below the band, vents above it and closes both valves inside
    it, so once captured the pressure can never leave the band.
    """

    setpoint_kpa: float
    band_kpa: float = 2.0

    def __post_init__(self):
        check_fields(self, non_negative="setpoint_kpa", positive="band_kpa")

    def command(self, t_s, pressure_kpa):
        if pressure_kpa < self.setpoint_kpa - self.band_kpa:
            return True, False
        if pressure_kpa > self.setpoint_kpa + self.band_kpa:
            return False, True
        return False, False


@dataclass
class DutyCycleController:
    """Periodic fill/vent switching: fill for duty/f, vent the rest."""

    frequency_hz: float
    duty: float = 0.5

    def __post_init__(self):
        check_fields(self, positive="frequency_hz")
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must lie in (0, 1), got {self.duty}")

    def command(self, t_s, pressure_kpa):
        phase = math.fmod(t_s * self.frequency_hz, 1.0)
        return (True, False) if phase < self.duty else (False, True)


@dataclass
class ControlTrace:
    """Sampled pressure history; valve columns hold over [t, t + dt)."""

    time_s: np.ndarray
    pressure_kpa: np.ndarray
    inlet: np.ndarray
    vent: np.ndarray

    def write_csv(self, path):
        np.savetxt(path, np.column_stack([self.time_s, self.pressure_kpa,
                                          self.inlet, self.vent]),
                   fmt="%.6g", delimiter=",", comments="",
                   header="time_s,pressure_kPa,inlet,vent")


def sample_count(count):
    """The float ``count`` of a loop's samples; ValueError above MAX_SAMPLES or nan."""
    if not count <= MAX_SAMPLES:
        raise ValueError(f"{count:.3g} samples asked for, more than the "
                         f"{MAX_SAMPLES} allowed")
    return count


def run_control(plant, controller, duration_s, sample_hz=DEFAULT_SAMPLE_HZ):
    """Sample the controller against the plant for duration_s.

    Row k holds the pressure at t_k and the valve command applied until
    t_{k+1}; the final row carries the end pressure with closed valves.
    """
    check("duration_s", duration_s, "positive")
    check("sample_hz", sample_hz, "positive")
    n = int(round(sample_count(duration_s * sample_hz)))
    dt = 1.0 / sample_hz
    time_s = np.arange(n + 1) * dt
    pressure = np.empty(n + 1)
    inlet = np.zeros(n + 1, dtype=bool)
    vent = np.zeros(n + 1, dtype=bool)
    for k in range(n):
        pressure[k] = plant.pressure_kpa
        inlet[k], vent[k] = controller.command(float(time_s[k]),
                                               plant.pressure_kpa)
        plant._step(dt, bool(inlet[k]), bool(vent[k]))
    pressure[n] = plant.pressure_kpa
    return ControlTrace(time_s=time_s, pressure_kpa=pressure,
                        inlet=inlet, vent=vent)


def cycle_amplitude(frequency_hz, duty=0.5, supply_kpa=DEFAULT_SUPPLY_KPA,
                    tau_fill_s=DEFAULT_TAU_FILL_S,
                    tau_vent_s=DEFAULT_TAU_VENT_S):
    """Steady-state (p_min, p_max) under exact duty-cycle switching.

    One period fills for duty/f and vents for (1 - duty)/f.  Composing
    the two exponential maps and solving the fixed point gives

        p_max = supply * (1 - a) / (1 - a * b),   p_min = b * p_max

    with a = exp(-x), x = duty / (f * tau_fill), and b = exp(-y),
    y = (1 - duty) / (f * tau_vent).  Both differences are taken as
    -expm1, so they keep their digits as a and b near 1 and p_max tends
    to supply * x / (x + y) at high frequency.  The swing p_max - p_min
    shrinks monotonically as the frequency grows.
    """
    ctl = DutyCycleController(frequency_hz=frequency_hz, duty=duty)
    plant = PneumaticPlant(supply_kpa=supply_kpa, tau_fill_s=tau_fill_s,
                           tau_vent_s=tau_vent_s)
    x = ctl.duty / (frequency_hz * plant.tau_fill_s)
    y = (1.0 - ctl.duty) / (frequency_hz * plant.tau_vent_s)
    p_max = supply_kpa * math.expm1(-x) / math.expm1(-(x + y))
    return math.exp(-y) * p_max, p_max


DEFAULT_HEATER_W = 2000.0
DEFAULT_LOSS_W_PER_C = 15.0
DEFAULT_CAPACITY_J_PER_C = 33907.0
DEFAULT_BATH_SETPOINT_C = 65.0
PUMP_LIMIT_C = 70.0


@dataclass
class BathPlant:
    """Heated water tank: linear loss to ambient, exact exponential step.

    The default capacity corresponds to roughly 8.1 litres of water;
    with a 2 kW heater and 15 W/degC loss the equilibrium when heating
    sits far above any sane setpoint, so the thermostat does the work.
    """

    heater_power_w: float = DEFAULT_HEATER_W
    loss_w_per_c: float = DEFAULT_LOSS_W_PER_C
    capacity_j_per_c: float = DEFAULT_CAPACITY_J_PER_C
    ambient_c: float = 20.0
    temp_c: float = 20.0

    def __post_init__(self):
        check_fields(self, non_negative="heater_power_w",
                     positive="loss_w_per_c capacity_j_per_c",
                     finite="ambient_c temp_c")

    def equilibrium_c(self, heater_on):
        excess = self.heater_power_w / self.loss_w_per_c if heater_on else 0.0
        return self.ambient_c + excess

    def step(self, dt_s, heater_on):
        return self._step(check("dt_s", dt_s, "non_negative"), heater_on)

    def _step(self, dt_s, heater_on):
        # step for a loop that checked dt_s once
        t_inf = self.equilibrium_c(heater_on)
        decay = math.exp(-dt_s * self.loss_w_per_c / self.capacity_j_per_c)
        self.temp_c = t_inf + (self.temp_c - t_inf) * decay
        return self.temp_c


@dataclass
class ThermostatController:
    """Bang-bang heater switching with a hold band around the setpoint."""

    setpoint_c: float = DEFAULT_BATH_SETPOINT_C
    band_c: float = 1.0
    _on: bool = field(default=False, repr=False)

    def __post_init__(self):
        check_fields(self, finite="setpoint_c", positive="band_c")
        if not self.setpoint_c + self.band_c < PUMP_LIMIT_C:
            raise ValueError(
                f"setpoint {self.setpoint_c:g} + band {self.band_c:g} degC "
                f"must stay below the pump's {PUMP_LIMIT_C:g} degC limit")

    def command(self, t_s, temp_c):
        if temp_c < self.setpoint_c - self.band_c:
            self._on = True
        elif temp_c > self.setpoint_c + self.band_c:
            self._on = False
        return self._on


@dataclass
class BathTrace:
    time_s: np.ndarray
    temp_c: np.ndarray
    heater: np.ndarray

    def write_csv(self, path):
        np.savetxt(path, np.column_stack([self.time_s, self.temp_c,
                                          self.heater]),
                   fmt="%.6g", delimiter=",", comments="",
                   header="time_s,temp_C,heater")


def bath_peak_bound_c(plant, controller, dt_s):
    """The highest temperature a heated step of ``dt_s`` can end at: the
    heater is on only up to setpoint + band, and one step from there ends
    here.  An unheated step moves toward the ambient, so no sample of the
    thermostat loop exceeds the largest of this, the ambient and the
    starting temperature."""
    t_on = plant.equilibrium_c(True)
    decay = math.exp(-dt_s * plant.loss_w_per_c / plant.capacity_j_per_c)
    return t_on - (t_on - controller.setpoint_c - controller.band_c) * decay


def run_bath(plant, controller, duration_s, dt_s=0.1):
    """Run the thermostat loop; warns when the setpoint is unreachable.

    Raises ValueError when the bath starts at the pump's limit, its
    ambient lies there, so that an unheated bath drifts to it, or one
    heated step of ``dt_s`` can carry it there (``bath_peak_bound_c``).
    """
    check("duration_s", duration_s, "positive")
    check("dt_s", dt_s, "positive")
    if not plant.temp_c < PUMP_LIMIT_C:
        raise ValueError(f"bath starts at {plant.temp_c:g} degC, at or above "
                         f"the pump's {PUMP_LIMIT_C:g} degC limit")
    if not plant.ambient_c < PUMP_LIMIT_C:
        raise ValueError(f"ambient {plant.ambient_c:g} degC is at or above "
                         f"the pump's {PUMP_LIMIT_C:g} degC limit, and an "
                         "unheated bath drifts to it")
    bound = bath_peak_bound_c(plant, controller, dt_s)
    if bound >= PUMP_LIMIT_C:
        raise ValueError(
            f"one heated step of {dt_s:g} s can carry the bath to "
            f"{bound:.2f} degC, past the pump's {PUMP_LIMIT_C:g} degC limit; "
            "use a shorter time step")
    reachable = plant.equilibrium_c(True)
    if controller.setpoint_c - controller.band_c > reachable:
        warnings.warn(
            f"setpoint {controller.setpoint_c:g} degC exceeds the heater "
            f"equilibrium {reachable:g} degC; the band will never be reached")
    n = int(round(sample_count(duration_s / dt_s)))
    time_s = np.arange(n + 1) * dt_s
    temp = np.empty(n + 1)
    heater = np.zeros(n + 1, dtype=bool)
    for k in range(n):
        temp[k] = plant.temp_c
        heater[k] = controller.command(float(time_s[k]), plant.temp_c)
        plant._step(dt_s, bool(heater[k]))
    temp[n] = plant.temp_c
    return BathTrace(time_s=time_s, temp_c=temp, heater=heater)
