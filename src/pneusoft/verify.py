"""Self-contained correctness checks runnable from the command line.

Each check has one implementation, here; acceptance criteria 1, 2, 3
and 5 and the tube test call the same functions.  The quick suite
covers the discrete mechanics (derivative consistency, patch test on
displacement and stress, closed-cavity force and moment balance) and
the valve-loop closed form against the plant stepped phase by phase;
the full suite adds the near-incompressibility guarantee and one coarse
(2.5 mm) tube solve against the plane-strain closed form at every
increment from 5 kPa.  Every check takes only the configuration and
returns a CheckResult instead of raising, so one bad configuration
fails the run without hiding later checks.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import config as cfgmod
from . import fea, geometry, pneumatics
from . import material as mat
from .mesh import face_normal_sum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _result(name, t0, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       elapsed_s=time.perf_counter() - t0)


# ------------------------------------------------------- closed forms

def cylinder_pressure_kpa(inner_radius_mm, spec=None, c10_mpa=None):
    """Inflation pressure of the plane-strain incompressible cylinder.

    For an inner radius ``a`` (deformed) the exact pressure follows by
    integrating the hoop-radial stress difference across the wall with
    the incompressible map r^2 = R^2 + a^2 - A^2 at unit axial
    stretch.  Used as the independent reference for the tube solves.
    """
    spec = spec or geometry.ActuatorSpec(kind="tube")
    c10 = mat.DEFAULT_C10 if c10_mpa is None else c10_mpa
    rout = spec.width / 2.0
    rin = rout - spec.wall
    a = float(inner_radius_mm)
    if a < rin:
        raise ValueError(f"deformed inner radius {a} below reference {rin}")

    def integrand(big_r):
        r2 = big_r * big_r + a * a - rin * rin
        return 2.0 * c10 * (r2 / big_r**2 - big_r**2 / r2) * big_r / r2

    mpa = quad(integrand, rin, rout, epsabs=1e-12, epsrel=1e-12)[0]
    return mpa / fea.KPA_TO_MPA


def cylinder_inner_radius_mm(pressure_kpa, spec=None, c10_mpa=None):
    """Inverse of cylinder_pressure_kpa via bracketed root finding."""
    spec = spec or geometry.ActuatorSpec(kind="tube")
    rout = spec.width / 2.0
    rin = rout - spec.wall
    if pressure_kpa == 0.0:
        return rin
    return brentq(
        lambda a: cylinder_pressure_kpa(a, spec, c10_mpa) - pressure_kpa,
        rin + 1e-12, 4.0 * rin, xtol=1e-12)


CYLINDER_FIXED = (("end0", "z"), ("end1", "z"), ("xaxis", "y"),
                  ("yaxis", "x"))


def _cylinder_solution(element_size, c10):
    """Plane-strain tube inflated to 50 kPa over 10 stations."""
    spec = geometry.ActuatorSpec(kind="tube", element_size=element_size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = geometry.generate_mesh(spec)
    case = fea.LoadCase(target_pressure_kpa=50.0, increments=10,
                        fixed_set=None, extra_fixed=CYLINDER_FIXED)
    return mesh, fea.solve(mesh, mat.HyperelasticParams(c10=c10), case)


def solve_cylinder(element_size):
    """Tube inflation at 50 kPa; returns the mean inner expansion, mm."""
    mesh, sol = _cylinder_solution(element_size, mat.DEFAULT_C10)
    return float(fea.measure_radial_expansion(mesh, sol)[-1])


# ------------------------------------------------------------- checks

def check_gradient(cfg=None):
    """Energy, internal force, tangent and pressure terms agree with
    central finite differences over random admissible states."""
    t0 = time.perf_counter()
    mesh = geometry.generate_mesh(
        geometry.ActuatorSpec(kind="cube", element_size=0.5))
    pm = cfgmod.material_params(cfg or cfgmod.defaults())
    model = fea.Model(mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pocket = geometry.generate_mesh(
            geometry.ActuatorSpec(kind="pocket", element_size=2.5))
    pocket_model = fea.Model(pocket)
    rng = np.random.default_rng(20260814)
    n_states = 100
    h = 1e-5
    worst_force = worst_tangent = worst_press = 0.0
    for k in range(n_states):
        if k % 3 < 2:
            u = 0.02 * rng.standard_normal((mesh.n_nodes, 3))
            v = rng.standard_normal((mesh.n_nodes, 3))
            v /= np.linalg.norm(v)
            ep = fea.total_strain_energy(mesh, pm, u + h * v, model=model)
            em = fea.total_strain_energy(mesh, pm, u - h * v, model=model)
            f = fea.internal_force(mesh, pm, u, model=model)
            dot = float(np.sum(f * v))
            scale = max(abs(dot), 1e-9)
            worst_force = max(worst_force, abs((ep - em) / (2 * h) - dot)
                              / scale)
            fp = fea.internal_force(mesh, pm, u + h * v, model=model)
            fm = fea.internal_force(mesh, pm, u - h * v, model=model)
            kt = fea.tangent_stiffness(mesh, pm, u, model=model)
            kv = (kt @ v.reshape(-1)).reshape(-1, 3)
            num = (fp - fm) / (2 * h)
            worst_tangent = max(
                worst_tangent,
                float(np.linalg.norm(num - kv) / max(np.linalg.norm(kv),
                                                     1e-9)))
        else:
            u = 0.02 * rng.standard_normal((pocket.n_nodes, 3))
            v = rng.standard_normal((pocket.n_nodes, 3))
            v /= np.linalg.norm(v)
            p = 30.0
            fp = fea.pressure_force(pocket, p, u + h * v, model=pocket_model)
            fm = fea.pressure_force(pocket, p, u - h * v, model=pocket_model)
            kp = fea.pressure_stiffness(pocket, p, u, model=pocket_model)
            kv = (kp @ v.reshape(-1)).reshape(-1, 3)
            num = (fp - fm) / (2 * h)
            worst_press = max(
                worst_press,
                float(np.linalg.norm(num - kv) / max(np.linalg.norm(kv),
                                                     1e-9)))
    ok = worst_force < 1e-6 and worst_tangent < 1e-5 and worst_press < 1e-5
    return _result(
        "gradient", t0, ok,
        f"force {worst_force:.2e} (tol 1e-6), tangent {worst_tangent:.2e}, "
        f"pressure {worst_press:.2e} (tol 1e-5), {n_states} states")


def check_patch(cfg=None):
    """Affine boundary displacement reproduces the affine field inside
    and its homogeneous PK2 stress at every quadrature point."""
    t0 = time.perf_counter()
    mesh = geometry.generate_mesh(
        geometry.ActuatorSpec(kind="cube", element_size=0.25))
    pm = cfgmod.material_params(cfg or cfgmod.defaults())
    grad = np.array([[0.03, 0.01, 0.0],
                     [0.0, -0.02, 0.015],
                     [0.005, 0.0, 0.025]])
    x = mesh.nodes
    lo, hi = x.min(axis=0), x.max(axis=0)
    on_bound = np.any((np.abs(x - lo) < 1e-9) | (np.abs(x - hi) < 1e-9),
                      axis=1)
    mask = np.repeat(on_bound[:, None], 3, axis=1)
    values = x @ grad.T
    case = fea.LoadCase(target_pressure_kpa=0.0, increments=1,
                        fixed_set=None, pressure_set=None)
    u = fea.solve(mesh, pm, case, prescribed=(mask, values)).final_u()
    disp = float(np.max(np.abs(u - values)))
    s = mat.pk2_stress(pm, fea.Model(mesh).def_grad(u).reshape(-1, 3, 3))
    s_exact = mat.pk2_stress(pm, np.eye(3) + grad)
    stress = float(np.max(np.abs(s - s_exact)) / np.max(np.abs(s_exact)))
    return _result(
        "patch", t0, disp < 1e-10 and stress < 1e-10,
        f"max deviation from affine field {disp:.2e} mm, relative PK2 "
        f"stress deviation {stress:.2e} (tol 1e-10 each)")


def check_closed_cavity(cfg=None):
    """Pressure on a sealed cavity exerts no net force or moment in any
    of five random deformed states."""
    t0 = time.perf_counter()
    mesh = geometry.generate_mesh(
        geometry.ActuatorSpec(kind="pocket", element_size=1.0))
    model = fea.Model(mesh)
    _, area = face_normal_sum(mesh, "cavity")
    p = 30.0
    tol = 1e-8 * p * fea.KPA_TO_MPA * area
    rng = np.random.default_rng(7)
    worst_force = worst_moment = 0.0
    for _ in range(5):
        grad = 0.08 * rng.standard_normal((3, 3))
        u = mesh.nodes @ grad.T \
            + 0.3 * np.sin(mesh.nodes / 2.5 + rng.standard_normal(3))
        f = fea.pressure_force(mesh, p, u, model=model)
        worst_force = max(worst_force, float(np.linalg.norm(f.sum(axis=0))))
        moment = np.cross(mesh.nodes + u, f).sum(axis=0)
        worst_moment = max(worst_moment, float(np.linalg.norm(moment)))
    return _result(
        "closed-cavity", t0, worst_force < tol and worst_moment < tol,
        f"|net force| {worst_force:.2e} N, |net moment| {worst_moment:.2e} "
        f"N mm (tol {tol:.2e} each) over 5 states")


def check_valve_swing(cfg=None):
    """Closed-form duty-cycle extremes match the valve plant stepped
    through whole fill and vent phases until the cycle repeats."""
    t0 = time.perf_counter()
    cfg = cfg or cfgmod.defaults()
    supply = cfg["earthworm.supply_kpa"]
    tf = cfg["earthworm.tau_fill_s"]
    tv = cfg["earthworm.tau_vent_s"]
    duty = cfg["earthworm.duty"]
    freqs = np.linspace(0.2, 2.0, 20)
    worst = 0.0
    for f in freqs:
        lo, hi = pneumatics.cycle_amplitude(f, duty, supply, tf, tv)
        blo, bhi = _plant_cycle(f, duty, supply, tf, tv)
        worst = max(worst, abs(lo - blo) / blo, abs(hi - bhi) / bhi)
    return _result("valve-swing", t0, worst < 1e-3,
                   f"worst relative gap {worst:.2e} over {len(freqs)} "
                   f"frequencies from 0.2 to 2 Hz (tol 1e-3)")


def _plant_cycle(freq, duty, supply, tau_fill, tau_vent):
    # the plant's exponential step is exact for any length, so one step
    # per valve phase, repeated until the peak stops moving, gives the
    # periodic extremes without the closed form
    plant = pneumatics.PneumaticPlant(supply_kpa=supply, tau_fill_s=tau_fill,
                                      tau_vent_s=tau_vent)
    lo = hi = math.nan
    for _ in range(10000):
        last = hi
        hi = plant.step(duty / freq, True, False)
        lo = plant.step((1.0 - duty) / freq, False, True)
        if hi == last:
            break
    return lo, hi


def check_incompressibility(cfg=None):
    """The configured material keeps solid volume within 0.5 percent."""
    t0 = time.perf_counter()
    try:
        pm = cfgmod.material_params(cfg or cfgmod.defaults())
    except ValueError as exc:
        return _result("incompressibility", t0, False,
                       f"material rejected: {exc}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = geometry.generate_mesh(
            geometry.ActuatorSpec(kind="pocket", element_size=2.0))
    pressure_kpa = 40.0
    case = fea.LoadCase(target_pressure_kpa=pressure_kpa, increments=8)
    sol = fea.solve(mesh, pm, case)
    model = fea.Model(mesh)
    f = model.def_grad(sol.final_u())
    v0 = float(model.detjw.sum())
    v1 = float((np.linalg.det(f) * model.detjw).sum())
    rel = abs(v1 - v0) / v0
    return _result("incompressibility", t0, rel < 5e-3,
                   f"solid volume change {rel:.2%} at {pressure_kpa:g} kPa "
                   f"(tol 0.50%)")


def check_cylinder(cfg=None):
    """A coarse tube inflation tracks the plane-strain closed form at
    every increment from 5 kPa to 50 kPa."""
    t0 = time.perf_counter()
    cfg = cfg or cfgmod.defaults()
    c10 = cfg["material.c10_mpa"]
    spec = geometry.ActuatorSpec(kind="tube")
    rin = spec.width / 2.0 - spec.wall
    mesh, sol = _cylinder_solution(2.5, c10)
    got = fea.measure_radial_expansion(mesh, sol)
    gaps = []
    for p, g in zip(sol.pressures_kpa, got):
        if p >= 5.0:
            ref = cylinder_inner_radius_mm(p, spec, c10) - rin
            gaps.append(abs(g - ref) / ref)
    worst, final = max(gaps), gaps[-1]
    return _result(
        "cylinder", t0, worst < 0.04 and final < 0.03,
        f"2.5 mm tube: worst gap to the closed form {worst:.2%} over "
        f"{len(gaps)} increments from 5 kPa (tol 4%), {final:.2%} at "
        f"{sol.pressures_kpa[-1]:g} kPa (tol 3%)")


QUICK_CHECKS = ("gradient", "patch", "closed-cavity", "valve-swing")
FULL_CHECKS = QUICK_CHECKS + ("incompressibility", "cylinder")

_CHECKS = {
    "gradient": check_gradient,
    "patch": check_patch,
    "closed-cavity": check_closed_cavity,
    "valve-swing": check_valve_swing,
    "incompressibility": check_incompressibility,
    "cylinder": check_cylinder,
}


def run_checks(names=QUICK_CHECKS, cfg=None):
    """Run the named checks in order; never raises on a failing check."""
    results = []
    for name in names:
        if name not in _CHECKS:
            known = ", ".join(_CHECKS)
            raise KeyError(f"unknown check {name!r}; known: {known}")
        try:
            results.append(_CHECKS[name](cfg))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name=name, passed=False,
                                       detail=f"crashed: {exc}",
                                       elapsed_s=0.0))
    return results
