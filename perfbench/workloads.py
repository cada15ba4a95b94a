"""The three benchmark workloads: inputs from a seed, one round, checks.

A round is the unit of timed work; every round of a run repeats the same
operations (solves) on the same inputs.  `round` returns one `Op` per
solve; `check` returns the problems found in a round's outputs, with
references computed here rather than taken from the program.
"""

import csv
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from pneusoft import cli, config, fea, geometry, material

C10 = 0.24                    # MPa, the program's default silicone
AXES = {"x": 0, "y": 1, "z": 2}


@dataclass
class Op:
    name: str
    ok: bool
    data: dict = field(default_factory=dict)


def _spread(seed, name, width):
    """Seeded factor in [1 - width, 1 + width], fixed per (workload, seed)."""
    return 1.0 + width * random.Random(f"{name}:{seed}").uniform(-1.0, 1.0)


def _free_dofs(mesh, fixed_set, extra_fixed):
    mask = np.zeros((mesh.n_nodes, 3), dtype=bool)
    if fixed_set:
        mask[mesh.node_set(fixed_set)] = True
    for name, axis in extra_fixed:
        mask[mesh.node_set(name), AXES[axis]] = True
    return ~mask.reshape(-1)


def _makeup(kind, spec, mesh, free, increments, **extra):
    return dict(kind=kind, element_size_mm=spec.element_size,
                increments=increments, nodes=int(mesh.n_nodes),
                tets=int(len(mesh.tets)), free_dofs=int(free.sum()), **extra)


def read_response_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def check_response(table, target_kpa, band_deg=None, strict=False):
    """Properties every pressure ramp must have, whatever its row count."""
    problems = []
    p = table["pressure_kPa"]
    ang = table["bend_angle_deg"]
    disp = table["max_displacement_mm"]
    if not all(np.all(np.isfinite(v)) for v in table.values()):
        problems.append("non-finite value in the response")
    if len(p) < 2 or abs(p[-1] - target_kpa) > 1e-5 * target_kpa:
        problems.append(f"ramp ends at {p[-1]:g} kPa, target {target_kpa:g}")
    if np.any(np.diff(p) <= 0.0):
        problems.append("pressure does not rise along the ramp")
    steps = np.diff(ang)
    if np.any(steps <= 0.0) if strict else np.any(steps < 0.0):
        problems.append("bend angle does not rise with pressure")
    if np.any(np.diff(disp) < 0.0):
        problems.append("peak displacement falls along the ramp")
    if band_deg and not band_deg[0] <= ang[-1] <= band_deg[1]:
        problems.append(f"final angle {ang[-1]:.3f} deg outside {band_deg}")
    return problems


def cylinder_expansion_mm(pressure_kpa, r_in, r_out, c10):
    """Plane-strain inflation of an incompressible neo-Hookean tube.

    With the deformed inner radius a, a material circle R maps to
    r^2 = R^2 + a^2 - r_in^2; radial equilibrium gives the pressure as
    the integral of (sigma_theta - sigma_r) / r across the wall, taken
    here over R.  The expansion a - r_in follows by root finding.
    """
    def pressure_mpa(a):
        def integrand(big_r):
            r2 = big_r * big_r + a * a - r_in * r_in
            return 2.0 * c10 * (r2 / big_r ** 2 - big_r ** 2 / r2) * big_r / r2
        return quad(integrand, r_in, r_out, epsabs=1e-13, epsrel=1e-12)[0]

    target = pressure_kpa * 1e-3
    a = brentq(lambda a: pressure_mpa(a) - target, r_in, 3.0 * r_out,
               xtol=1e-13)
    return a - r_in


class BendRamp:
    """Thick-wall bending2 half model on the 60-increment grid."""

    name = "bend-ramp"
    element_size = 8.0
    increments = 60
    pressure_kpa = 60.0
    band_deg = (12.0, 18.0)           # 15 deg +- 20 %
    extra_fixed = (("symx", "x"),)

    def __init__(self, seed, outdir):
        self.params = material.HyperelasticParams(
            c10=C10 * _spread(seed, self.name, 0.005))
        self.csv = outdir / f"{self.name}-seed{seed}.csv"
        self.spec = geometry.ActuatorSpec(
            kind="bending2", element_size=self.element_size,
            symmetric_half=True)
        self.case = fea.LoadCase(target_pressure_kpa=self.pressure_kpa,
                                 increments=self.increments,
                                 extra_fixed=self.extra_fixed)

    def setup(self):
        self.mesh = geometry.generate_mesh(self.spec)

    def round(self):
        self.csv.unlink(missing_ok=True)
        try:
            sol = fea.solve(self.mesh, self.params, self.case)
        except Exception as exc:           # a failed solve is a failed op
            return [Op("bend", False, {"error": repr(exc)})]
        fea.write_solution_csv(self.mesh, sol, self.csv)
        return [Op("bend", True, {"u": sol.final_u(),
                                  "p": float(sol.pressures_kpa[-1])})]

    def check(self, ops):
        (op,) = ops
        if not op.ok:
            return []
        problems = check_response(read_response_csv(self.csv),
                                  self.pressure_kpa, self.band_deg,
                                  strict=True)
        free = self.free()
        u = op.data["u"]
        fint = fea.internal_force(self.mesh, self.params, u)
        fext = fea.pressure_force(self.mesh, op.data["p"], u,
                                  self.case.pressure_set)
        resid = np.linalg.norm((fint - fext).reshape(-1)[free])
        tol = max(fea.REL_TOL * np.linalg.norm(fext.reshape(-1)[free]),
                  fea.ABS_TOL)
        if not resid <= tol:
            problems.append(f"final residual {resid:.3e} N above {tol:.3e}")
        return problems

    def free(self):
        return _free_dofs(self.mesh, self.case.fixed_set, self.extra_fixed)

    def makeup(self):
        return _makeup("bending2 half", self.spec, self.mesh, self.free(),
                       self.increments, c10_mpa=self.params.c10,
                       pressure_kpa=self.pressure_kpa)


class TubeStudy:
    """Criterion-4 convergence study on the plane-strain tube slice.

    The finest size is 1.5 mm rather than 1 mm: the 1 mm solve alone
    takes about a minute here, and at 1.5 mm the study keeps its make-up
    (two element layers, factorization-bound) in a quarter of the time.
    The sizes are solved finest first: the largest solve then meets a
    fresh heap, and the peak RSS no longer depends on how the allocator
    kept the smaller solves' memory.
    """

    name = "tube-study"
    sizes = (1.5, 2.0, 4.0)
    increments = 10
    supports = (("end0", "z"), ("end1", "z"), ("xaxis", "y"),
                ("yaxis", "x"))

    def __init__(self, seed, outdir):
        self.pressure_kpa = 50.0 * _spread(seed, self.name, 0.02)
        self.params = material.HyperelasticParams(c10=C10)
        self.case = fea.LoadCase(target_pressure_kpa=self.pressure_kpa,
                                 increments=self.increments, fixed_set=None,
                                 extra_fixed=self.supports)
        self.specs = [geometry.ActuatorSpec(kind="tube", element_size=es)
                      for es in self.sizes]

    def setup(self):
        self.meshes = [geometry.generate_mesh(spec) for spec in self.specs]

    def round(self):
        ops = []
        for spec, mesh in zip(self.specs, self.meshes):
            name = f"tube {spec.element_size:g} mm"
            try:
                sol = fea.solve(mesh, self.params, self.case)
            except Exception as exc:
                ops.append(Op(name, False, {"error": repr(exc)}))
                continue
            ops.append(Op(name, True, {
                "p": float(sol.pressures_kpa[-1]),
                "expansion": float(fea.measure_radial_expansion(mesh, sol)[-1])}))
        return ops

    def check(self, ops):
        spec = self.specs[0]
        r_out = spec.width / 2.0
        exact = cylinder_expansion_mm(self.pressure_kpa, r_out - spec.wall,
                                      r_out, self.params.c10)
        problems = []
        errors = []
        for op in ops:
            if not op.ok:
                continue
            if abs(op.data["p"] - self.pressure_kpa) > 1e-9 * self.pressure_kpa:
                problems.append(f"{op.name} stopped at {op.data['p']:g} kPa")
            errors.append(abs(op.data["expansion"] - exact) / exact)
        if len(errors) == len(ops):
            # sizes run finest first, so the errors must rise along the list
            if not all(a < b for a, b in zip(errors, errors[1:])):
                problems.append(f"errors do not fall with refinement: {errors}")
            if not errors[0] < 0.02:
                problems.append(f"finest error {errors[0]:.2%} not below 2%")
        self.detail = {"exact_mm": exact, "errors": dict(zip(self.sizes, errors))}
        return problems

    def makeup(self):
        return [_makeup("tube slice", spec, mesh,
                        _free_dofs(mesh, None, self.supports),
                        self.increments, length_mm=spec.length,
                        pressure_kpa=self.pressure_kpa)
                for spec, mesh in zip(self.specs, self.meshes)]


class CliRamp:
    """`pneusoft solve` at the default config on a coarse one-chamber bender."""

    name = "cli-ramp"
    spec = geometry.ActuatorSpec(kind="bending1", symmetric_half=True,
                                 chambers=1, length=24.0, element_size=10.0)

    def __init__(self, seed, outdir):
        self.pressure_kpa = round(60.0 * _spread(seed, self.name, 0.02), 3)
        self.csv = outdir / f"{self.name}-seed{seed}.csv"
        s = self.spec
        self.argv = ["solve", "--kind", s.kind, "--half",
                     "--chambers", str(s.chambers), "--length", f"{s.length:g}",
                     "--element-size", f"{s.element_size:g}",
                     "--pressure", f"{self.pressure_kpa:g}",
                     "--out", str(self.csv)]

    def setup(self):
        pass

    def round(self):
        self.csv.unlink(missing_ok=True)
        try:
            code = cli.main(self.argv)
        except Exception as exc:
            return [Op("cli", False, {"error": repr(exc)})]
        return [Op("cli", code == 0, {"exit": code})]

    def check(self, ops):
        (op,) = ops
        if not op.ok:
            return []
        return check_response(read_response_csv(self.csv), self.pressure_kpa)

    def makeup(self):
        mesh = geometry.generate_mesh(self.spec)
        free = _free_dofs(mesh, "fixed", (("symx", "x"),))
        return _makeup("bending1 half, 1 chamber, 24 mm", self.spec, mesh,
                       free, config.defaults()["solver.increments"],
                       pressure_kpa=self.pressure_kpa,
                       argv=" ".join(self.argv[:-2]))


WORKLOADS = {w.name: w for w in (BendRamp, TubeStudy, CliRamp)}
