"""Valve-driven pressure dynamics, control loops and the heated bath."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneusoft import config, verify
from pneusoft import pneumatics as pneu


def test_fill_one_time_constant():
    plant = pneu.PneumaticPlant(supply_kpa=100.0, tau_fill_s=0.2)
    plant.step(0.2, inlet_open=True, vent_open=False)
    assert plant.pressure_kpa == pytest.approx(100.0 * (1.0 - math.exp(-1.0)),
                                               abs=1e-9)


def test_vent_ten_time_constants():
    plant = pneu.PneumaticPlant(tau_vent_s=0.35, pressure_kpa=40.0)
    plant.step(3.5, inlet_open=False, vent_open=True)
    assert plant.pressure_kpa < 0.005
    assert plant.pressure_kpa == pytest.approx(40.0 * math.exp(-10.0),
                                               rel=1e-9)


def test_both_closed_holds_pressure():
    plant = pneu.PneumaticPlant(pressure_kpa=17.0)
    plant.step(123.0, inlet_open=False, vent_open=False)
    assert plant.pressure_kpa == 17.0


def test_valve_interlock():
    plant = pneu.PneumaticPlant()
    with pytest.raises(ValueError, match="interlock|both"):
        plant.step(0.1, inlet_open=True, vent_open=True)


def test_plant_validation():
    with pytest.raises(ValueError):
        pneu.PneumaticPlant(supply_kpa=-1.0)
    with pytest.raises(ValueError):
        pneu.PneumaticPlant(tau_fill_s=0.0)
    with pytest.raises(ValueError):
        pneu.PneumaticPlant(pressure_kpa=-5.0)
    plant = pneu.PneumaticPlant()
    with pytest.raises(ValueError):
        plant.step(-0.1, inlet_open=True, vent_open=False)


def test_exact_exponential_step_is_step_size_invariant():
    # one long step equals many short ones because the map is exact
    a = pneu.PneumaticPlant(pressure_kpa=5.0)
    b = pneu.PneumaticPlant(pressure_kpa=5.0)
    a.step(0.4, inlet_open=True, vent_open=False)
    for _ in range(400):
        b.step(0.001, inlet_open=True, vent_open=False)
    assert a.pressure_kpa == pytest.approx(b.pressure_kpa, rel=1e-12)


def test_deadband_keeps_pressure_in_band():
    plant = pneu.PneumaticPlant(supply_kpa=250.0)
    ctl = pneu.DeadbandController(setpoint_kpa=40.0, band_kpa=2.0)
    trace = pneu.run_control(plant, ctl, duration_s=5.0, sample_hz=50.0)
    settled = trace.time_s >= 1.0
    assert np.all(trace.pressure_kpa[settled] >= 38.0)
    assert np.all(trace.pressure_kpa[settled] <= 42.0)


def test_deadband_sampling_rate_does_not_widen_band():
    def width(sample_hz):
        plant = pneu.PneumaticPlant(supply_kpa=250.0)
        ctl = pneu.DeadbandController(setpoint_kpa=40.0, band_kpa=0.5)
        trace = pneu.run_control(plant, ctl, duration_s=6.0,
                                 sample_hz=sample_hz)
        steady = trace.pressure_kpa[trace.time_s >= 4.0]
        return steady.max() - steady.min()

    assert width(100.0) <= width(50.0) + 1e-12


def test_duty_cycle_period():
    plant = pneu.PneumaticPlant(supply_kpa=40.0)
    ctl = pneu.DutyCycleController(frequency_hz=0.8)
    trace = pneu.run_control(plant, ctl, duration_s=5.0, sample_hz=50.0)
    inlet = np.asarray(trace.inlet, dtype=bool)
    rising = np.flatnonzero(inlet[1:] & ~inlet[:-1]) + 1
    gaps = np.diff(trace.time_s[rising])
    assert np.all(np.abs(gaps - 1.25) <= 0.02 + 1e-12)


def test_run_control_calls_controller_once_per_sample():
    calls = []

    class Counting:
        def command(self, t, pressure):
            calls.append(t)
            return True, False

    plant = pneu.PneumaticPlant()
    trace = pneu.run_control(plant, Counting(), duration_s=1.0,
                             sample_hz=50.0)
    assert len(calls) == 50
    assert len(trace.time_s) == 51


def test_run_control_validation():
    plant = pneu.PneumaticPlant()
    ctl = pneu.DeadbandController(setpoint_kpa=40.0)
    with pytest.raises(ValueError):
        pneu.run_control(plant, ctl, duration_s=-1.0)
    with pytest.raises(ValueError):
        pneu.run_control(plant, ctl, duration_s=1.0, sample_hz=0.0)
    with pytest.raises(ValueError):
        pneu.run_control(plant, ctl, duration_s=math.inf)
    with pytest.raises(ValueError):
        pneu.run_control(plant, ctl, duration_s=1.0, sample_hz=math.inf)
    with pytest.raises(ValueError, match="samples"):
        pneu.run_control(plant, ctl, duration_s=1e12)


def test_control_trace_csv(tmp_path):
    plant = pneu.PneumaticPlant()
    ctl = pneu.DeadbandController(setpoint_kpa=40.0)
    trace = pneu.run_control(plant, ctl, duration_s=0.1, sample_hz=50.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,pressure_kPa,inlet,vent"
    assert len(lines) == len(trace.time_s) + 1


def test_cycle_amplitude_matches_brute_force_stepping():
    # the balanced-valve case of the one plant-stepping check
    cfg = config.defaults()
    cfg["earthworm.tau_fill_s"] = cfg["earthworm.tau_vent_s"] = 0.3
    result = verify.check_valve_swing(cfg)
    assert result.passed, result.detail


def test_cycle_amplitude_limits():
    # slow cycling swings across the whole range
    lo, hi = pneu.cycle_amplitude(1e-4)
    assert lo < 1e-6
    assert hi > 250.0 * (1.0 - 1e-6)
    # at 10 Hz with balanced valves the residual ripple amplitude is
    # under five percent of supply
    lo, hi = pneu.cycle_amplitude(10.0, supply_kpa=40.0,
                                  tau_fill_s=0.3, tau_vent_s=0.3)
    assert 0.5 * (hi - lo) < 0.05 * 40.0


def test_cycle_amplitude_swing_shrinks_with_frequency():
    freqs = np.linspace(0.3, 3.0, 20)
    swings = [hi - lo for lo, hi in
              (pneu.cycle_amplitude(f, supply_kpa=40.0) for f in freqs)]
    assert all(b < a for a, b in zip(swings, swings[1:]))


def test_cycle_amplitude_validation():
    with pytest.raises(ValueError):
        pneu.cycle_amplitude(0.0)
    with pytest.raises(ValueError):
        pneu.cycle_amplitude(1.0, duty=1.5)


@settings(max_examples=60, deadline=None)
@given(freq=st.floats(0.01, 20.0), duty=st.floats(0.05, 0.95),
       supply=st.floats(1.0, 500.0))
def test_cycle_amplitude_bounds(freq, duty, supply):
    lo, hi = pneu.cycle_amplitude(freq, duty=duty, supply_kpa=supply)
    assert 0.0 <= lo <= hi <= supply


def test_bath_equilibria_and_exact_step():
    bath = pneu.BathPlant()
    assert bath.equilibrium_c(False) == 20.0
    assert bath.equilibrium_c(True) == pytest.approx(20.0 + 2000.0 / 15.0)
    a = pneu.BathPlant()
    b = pneu.BathPlant()
    a.step(30.0, heater_on=True)
    for _ in range(3000):
        b.step(0.01, heater_on=True)
    assert a.temp_c == pytest.approx(b.temp_c, rel=1e-12)


def test_bath_validation():
    with pytest.raises(ValueError):
        pneu.BathPlant(heater_power_w=-1.0)
    with pytest.raises(ValueError):
        pneu.BathPlant(loss_w_per_c=0.0)
    with pytest.raises(ValueError):
        pneu.BathPlant(capacity_j_per_c=0.0)
    bath = pneu.BathPlant()
    with pytest.raises(ValueError):
        bath.step(-1.0, heater_on=True)
    # an unpowered heater is allowed: pure decay to ambient
    bath = pneu.BathPlant(heater_power_w=0.0, capacity_j_per_c=1000.0,
                          temp_c=50.0)
    for _ in range(3600):
        bath.step(1.0, heater_on=True)
    assert bath.temp_c == pytest.approx(20.0, abs=0.01)


def test_thermostat_regulates_into_band():
    bath = pneu.BathPlant()
    ctl = pneu.ThermostatController()
    trace = pneu.run_bath(bath, ctl, duration_s=10800.0, dt_s=0.1)
    temps = np.asarray(trace.temp_c)
    heater = np.asarray(trace.heater, dtype=float)[:-1]
    assert temps.max() < pneu.PUMP_LIMIT_C

    steady = np.asarray(trace.time_s) >= 1800.0
    over = 0.1 * 2000.0 / 33907.0          # one-step heating overshoot
    under = 0.1 * 15.0 * 46.0 / 33907.0    # one-step cooling undershoot
    assert temps[steady].max() <= 66.0 + over
    assert temps[steady].min() >= 64.0 - under

    # duty settles near loss * (setpoint - ambient) / power
    window = np.asarray(trace.time_s[:-1]) >= 3600.0
    duty = heater[window].mean()
    assert duty == pytest.approx(15.0 * 45.0 / 2000.0, rel=0.05)


def test_thermostat_warns_when_setpoint_unreachable():
    bath = pneu.BathPlant(heater_power_w=100.0, loss_w_per_c=50.0)
    ctl = pneu.ThermostatController(setpoint_c=65.0)
    with pytest.warns(UserWarning, match="unreachable|equilibrium"):
        trace = pneu.run_bath(bath, ctl, duration_s=10.0, dt_s=0.1)
    assert max(trace.temp_c) < 65.0


def test_thermostat_band_stays_below_pump_limit():
    for setpoint, band in ((69.0, 1.0), (90.0, 1.0), (65.0, math.nan),
                           (math.nan, 1.0)):
        with pytest.raises(ValueError, match="pump"):
            pneu.ThermostatController(setpoint_c=setpoint, band_c=band)
    pneu.ThermostatController(setpoint_c=68.9, band_c=1.0)  # just below


def test_bath_peak_bound_holds_over_time_steps(monkeypatch):
    # the step bound sits at or above the simulated peak at every dt, and
    # close to it, also where it passes the pump's limit and run_bath
    # refuses the loop
    monkeypatch.setattr(pneu, "PUMP_LIMIT_C", math.inf)
    for dt in (0.1, 1.0, 10.0, 100.0, 1000.0):
        ctl = pneu.ThermostatController()
        bound = pneu.bath_peak_bound_c(pneu.BathPlant(), ctl, dt)
        trace = pneu.run_bath(pneu.BathPlant(), ctl, duration_s=20000.0,
                              dt_s=dt)
        assert trace.temp_c.max() <= bound, dt
        assert bound - trace.temp_c.max() < 2.5, dt


def test_bath_trace_csv(tmp_path):
    bath = pneu.BathPlant()
    ctl = pneu.ThermostatController()
    trace = pneu.run_bath(bath, ctl, duration_s=1.0, dt_s=0.1)
    path = tmp_path / "bath.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,temp_C,heater"


def test_run_bath_validation():
    bath = pneu.BathPlant()
    ctl = pneu.ThermostatController()
    with pytest.raises(ValueError):
        pneu.run_bath(bath, ctl, duration_s=-1.0)
    with pytest.raises(ValueError):
        pneu.run_bath(bath, ctl, duration_s=1.0, dt_s=0.0)
    with pytest.raises(ValueError):
        pneu.run_bath(bath, ctl, duration_s=math.inf)
    with pytest.raises(ValueError):
        pneu.run_bath(bath, ctl, duration_s=1.0, dt_s=math.inf)
    with pytest.raises(ValueError, match="samples"):
        pneu.run_bath(bath, ctl, duration_s=1e13)
    # a bath that starts at the pump's limit, or one heated step that
    # can carry it there
    with pytest.raises(ValueError, match="pump"):
        pneu.run_bath(pneu.BathPlant(temp_c=70.0), ctl, duration_s=1.0)
    with pytest.raises(ValueError, match="pump"):
        pneu.run_bath(bath, ctl, duration_s=3000.0, dt_s=1000.0)
