"""Self-contained correctness checks runnable from the command line.

``run_checks`` is the one runner that ``pneusoft verify``, acceptance
criteria 1, 2, 3 and 5 and the tube, incompressibility and valve tests
call.  It resolves the configuration (the defaults when none is given)
and names and times each check of ``CHECKS``; a check takes the
configuration and returns ``(passed, detail)``, and one that raises
fails with the exception named, without hiding later checks.  The
quick suite covers the discrete mechanics (derivative consistency,
patch test, closed-cavity force and moment balance) and the valve-loop
closed form against the plant stepped phase by phase; the full suite
adds the near-incompressibility guarantee and a coarse (2.5 mm) tube
solve against the plane-strain closed form at every increment from
5 kPa.  Checks read the material through ``config.material_params``.
"""

import math
import time
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import config as cfgmod
from . import fea, geometry, pneumatics, robots
from . import material as mat
from .checks import check
from .mesh import face_normal_sum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


# ------------------------------------------------------- closed forms

_TUBE = geometry.ActuatorSpec(kind="tube")


def tube_radii(spec=None):
    """(inner, outer) radii in mm of a tube spec, the default when None."""
    spec = spec or _TUBE
    rout = spec.width / 2.0
    return rout - spec.wall, rout


def cylinder_pressure_kpa(inner_radius_mm, spec=None, c10_mpa=None):
    """Inflation pressure of the plane-strain incompressible cylinder.

    For an inner radius ``a`` (deformed) the exact pressure follows by
    integrating the hoop-radial stress difference across the wall with
    the incompressible map r^2 = R^2 + a^2 - A^2 at unit axial
    stretch.  Used as the independent reference for the tube solves.
    """
    c10 = mat.DEFAULT_C10 if c10_mpa is None else c10_mpa
    rin, rout = tube_radii(spec)
    a = float(inner_radius_mm)
    if not rin <= a < math.inf:
        raise ValueError("deformed inner radius must be finite and at least "
                         f"the reference {rin:g} mm, got {a}")

    def integrand(big_r):
        r2 = big_r * big_r + a * a - rin * rin
        return 2.0 * c10 * (r2 / big_r**2 - big_r**2 / r2) * big_r / r2

    mpa = quad(integrand, rin, rout, epsabs=1e-12, epsrel=1e-12)[0]
    return mpa / fea.KPA_TO_MPA


def cylinder_inner_radius_mm(pressure_kpa, spec=None, c10_mpa=None):
    """Inverse of cylinder_pressure_kpa via bracketed root finding.

    The pressure rises with the bore toward the asymptote
    2 c10 ln(r_out / r_in), so the bracket widens until it holds the
    root.  Raises ValueError for a negative or non-finite pressure, and
    for one at or above the asymptote.
    """
    check("pressure_kpa", pressure_kpa, "non_negative")
    c10 = mat.DEFAULT_C10 if c10_mpa is None else check("c10_mpa", c10_mpa,
                                                        "positive")
    rin, rout = tube_radii(spec)
    limit = 2.0 * c10 * math.log(rout / rin) / fea.KPA_TO_MPA
    if not pressure_kpa < limit:
        raise ValueError(f"the cylinder closed form at c10 = {c10:.4g} MPa "
                         f"never reaches {pressure_kpa:g} kPa: it tends to "
                         f"2 c10 ln(r_out / r_in) = {limit:.5g} kPa")
    if pressure_kpa == 0.0:
        return rin

    def gap(a):
        return cylinder_pressure_kpa(a, spec, c10) - pressure_kpa

    top = 4.0 * rin
    while gap(top) < 0.0:
        if top > 1e6 * rout:
            raise ValueError(f"{pressure_kpa:.9g} kPa lies within rounding of "
                             f"the cylinder asymptote {limit:.9g} kPa")
        top *= 4.0
    return brentq(gap, rin + 1e-12, top, xtol=1e-12)


def _fixture_mesh(kind, element_size):
    """A check's mesh, built without the coarse-element warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return geometry.generate_mesh(
            geometry.ActuatorSpec(kind=kind, element_size=element_size))


def solve_cylinder(element_size, params):
    """(mesh, solution) of the plane-strain tube at 50 kPa in 10 steps."""
    mesh = _fixture_mesh("tube", element_size)
    case = fea.LoadCase(target_pressure_kpa=50.0, increments=10,
                        fixed_set=None, extra_fixed=fea.TUBE_SUPPORTS)
    return mesh, fea.solve(mesh, params, case)


# ------------------------------------------------------------- checks

def _fd_gap(f, df, u, v, h=1e-5):
    """Relative gap between the central difference of ``f`` at ``u``
    along ``v`` and the directional derivative ``df(u, v)``."""
    num = (f(u + h * v) - f(u - h * v)) / (2 * h)
    exact = df(u, v)
    return float(np.linalg.norm(num - exact)
                 / max(np.linalg.norm(exact), 1e-9))


def _along(matrix):
    """``df(u, v)`` of a derivative given as a sparse matrix ``matrix(u)``."""
    return lambda u, v: (matrix(u) @ v.reshape(-1)).reshape(-1, 3)


def check_gradient(cfg):
    """Energy, internal force, tangent and pressure terms agree with
    central finite differences over random admissible states."""
    pm = cfgmod.material_params(cfg)
    cube, pocket = _fixture_mesh("cube", 0.5), _fixture_mesh("pocket", 2.5)
    model, pocket_model = fea.Model(cube), fea.Model(pocket)
    energy = partial(fea.total_strain_energy, cube, pm, model=model)
    force = partial(fea.internal_force, cube, pm, model=model)
    tangent = partial(fea.tangent_stiffness, cube, pm, model=model)
    press = partial(fea.pressure_force, pocket, 30.0, model=pocket_model)
    press_k = partial(fea.pressure_stiffness, pocket, 30.0, model=pocket_model)
    # two of every three states test the solid, the third the pressure
    solid = cube, (("force", energy, lambda u, v: np.sum(force(u) * v)),
                   ("tangent", force, _along(tangent)))
    cavity = pocket, (("pressure", press, _along(press_k)),)
    rng = np.random.default_rng(20260814)
    n_states = 100
    worst = dict.fromkeys(("force", "tangent", "pressure"), 0.0)
    for k in range(n_states):
        mesh, terms = solid if k % 3 < 2 else cavity
        u = 0.02 * rng.standard_normal((mesh.n_nodes, 3))
        v = rng.standard_normal((mesh.n_nodes, 3))
        v /= np.linalg.norm(v)
        for key, f, df in terms:
            worst[key] = max(worst[key], _fd_gap(f, df, u, v))
    ok = (worst["force"] < 1e-6 and worst["tangent"] < 1e-5
          and worst["pressure"] < 1e-5)
    return ok, (f"force {worst['force']:.2e} (tol 1e-6), tangent "
                f"{worst['tangent']:.2e}, pressure {worst['pressure']:.2e} "
                f"(tol 1e-5), {n_states} states")


def check_patch(cfg):
    """Affine boundary displacement reproduces the affine field inside
    and its homogeneous PK2 stress at every quadrature point."""
    mesh = _fixture_mesh("cube", 0.25)
    pm = cfgmod.material_params(cfg)
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
    return (disp < 1e-10 and stress < 1e-10,
            f"max deviation from affine field {disp:.2e} mm, relative PK2 "
            f"stress deviation {stress:.2e} (tol 1e-10 each)")


def check_closed_cavity(cfg):
    """Pressure on a sealed cavity exerts no net force or moment in any
    of five random deformed states."""
    mesh = _fixture_mesh("pocket", 1.0)
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
    return (worst_force < tol and worst_moment < tol,
            f"|net force| {worst_force:.2e} N, |net moment| "
            f"{worst_moment:.2e} N mm (tol {tol:.2e} each) over 5 states")


def check_valve_swing(cfg):
    """Closed-form duty-cycle extremes match the valve plant stepped
    through whole fill and vent phases until the cycle repeats."""
    ew = cfgmod.build(cfg, robots.EarthwormParams)
    freqs = np.linspace(0.2, 2.0, 20)
    worst = 0.0
    for f in freqs:
        lo, hi = pneumatics.cycle_amplitude(f, ew.duty, ew.supply_kpa,
                                            ew.tau_fill_s, ew.tau_vent_s)
        blo, bhi = _plant_cycle(f, ew)
        worst = max(worst, abs(lo - blo) / blo, abs(hi - bhi) / bhi)
    return worst < 1e-3, (f"worst relative gap {worst:.2e} over "
                          f"{len(freqs)} frequencies from 0.2 to 2 Hz "
                          f"(tol 1e-3)")


def _plant_cycle(freq, ew):
    # the plant's exponential step is exact for any length, so one step
    # per valve phase, repeated until the peak stops moving, gives the
    # periodic extremes without the closed form
    plant = pneumatics.PneumaticPlant(supply_kpa=ew.supply_kpa,
                                      tau_fill_s=ew.tau_fill_s,
                                      tau_vent_s=ew.tau_vent_s)
    lo = hi = math.nan
    for _ in range(10000):
        last = hi
        hi = plant.step(ew.duty / freq, True, False)
        lo = plant.step((1.0 - ew.duty) / freq, False, True)
        if hi == last:
            break
    return lo, hi


def check_incompressibility(cfg):
    """The configured material keeps solid volume within 0.5 percent."""
    pm = cfgmod.material_params(cfg)
    mesh = _fixture_mesh("pocket", 2.0)
    pressure_kpa = 40.0
    case = fea.LoadCase(target_pressure_kpa=pressure_kpa, increments=8)
    sol = fea.solve(mesh, pm, case)
    model = fea.Model(mesh)
    f = model.def_grad(sol.final_u())
    v0 = float(model.detjw.sum())
    v1 = float((np.linalg.det(f) * model.detjw).sum())
    rel = abs(v1 - v0) / v0
    return rel < 5e-3, (f"solid volume change {rel:.2%} at "
                        f"{pressure_kpa:g} kPa (tol 0.50%)")


def check_cylinder(cfg):
    """A coarse tube inflation tracks the plane-strain closed form at
    every increment from 5 kPa to 50 kPa."""
    pm = cfgmod.material_params(cfg)
    mesh, sol = solve_cylinder(2.5, pm)
    rin, _ = tube_radii()
    got = fea.measure_radial_expansion(mesh, sol)
    gaps = []
    for p, g in zip(sol.pressures_kpa, got):
        if p >= 5.0:
            ref = cylinder_inner_radius_mm(p, c10_mpa=pm.c10) - rin
            gaps.append(abs(g - ref) / ref)
    worst, final = max(gaps), gaps[-1]
    return (worst < 0.04 and final < 0.03,
            f"2.5 mm tube: worst gap to the closed form {worst:.2%} over "
            f"{len(gaps)} increments from 5 kPa (tol 4%), {final:.2%} at "
            f"{sol.pressures_kpa[-1]:g} kPa (tol 3%)")


CHECKS = {
    "gradient": check_gradient,
    "patch": check_patch,
    "closed-cavity": check_closed_cavity,
    "valve-swing": check_valve_swing,
    "incompressibility": check_incompressibility,
    "cylinder": check_cylinder,
}
FULL_CHECKS = tuple(CHECKS)
QUICK_CHECKS = FULL_CHECKS[:4]


def run_checks(names=QUICK_CHECKS, cfg=None):
    """A CheckResult for each named check, run in order at ``cfg`` (the
    defaults when None); a check that raises fails instead.  KeyError
    before any check runs if a name is not in ``CHECKS``."""
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: "
                           + ", ".join(CHECKS))
    cfg = cfgmod.defaults() if cfg is None else cfg
    results = []
    for name in names:
        t0 = time.perf_counter()
        try:
            passed, detail = CHECKS[name](cfg)
        except Exception as exc:  # a crashed check is a failed check
            passed = False
            detail = f"crashed: {type(exc).__name__}: {exc}".removesuffix(": ")
        results.append(CheckResult(name, bool(passed), detail,
                                   time.perf_counter() - t0))
    return results
