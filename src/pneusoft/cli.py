"""Command-line entry points.

Exit codes: 0 on success, 1 when a verification check fails or a solve
cannot converge, 2 for usage and input errors (bad flags, invalid specs,
unknown config keys, malformed files).

``calibrate`` and ``verify`` alone import ``verify`` and with it SciPy's
quadrature and optimizer, about 0.3 s that the other commands skip.
"""

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from . import fea, geometry, pneumatics, robots
from . import material as mat
from .mesh import load_mesh, mesh_quality, save_mesh

log = logging.getLogger("pneusoft")


def _add_config_args(parser):
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="config file (default: $PNEUSOFT_CONFIG if set)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (repeatable)")


# each ActuatorSpec field but these two is a flag: strain_wall is --strain-wall
_SPEC_FIELDS = tuple(f for f in dataclasses.fields(geometry.ActuatorSpec)
                     if f.name not in ("kind", "symmetric_half"))


def _add_spec_args(parser, kind_required=True):
    parser.add_argument("--kind", choices=geometry.KINDS,
                        required=kind_required, default=None)
    parser.add_argument("--half", action="store_true",
                        help="mesh only x >= 0 of the mirror-symmetric "
                             "solid (adds the symx node set)")
    for f in _SPEC_FIELDS:
        parser.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                            default=None, metavar="MM" if f.type is float else None)


def _spec_from_args(args):
    return geometry.ActuatorSpec(
        kind=args.kind, symmetric_half=args.half,
        **{f.name: getattr(args, f.name) for f in _SPEC_FIELDS})


def _resolve_config(args):
    cfg = cfgmod.resolve(path=args.config, overrides=args.overrides)
    log.info("resolved configuration:\n%s", cfgmod.dumps(cfg))
    return cfg


def _cmd_mesh(args):
    spec = _spec_from_args(args)
    msh = geometry.generate_mesh(spec)
    q = mesh_quality(msh)
    log.info("mesh: %d nodes, %d tets", msh.n_nodes, len(msh.tets))
    print(f"nodes {msh.n_nodes}  tets {len(msh.tets)}  "
          f"min_jacobian_ratio {q.min_jacobian_ratio:.3f}  "
          f"min_dihedral_deg {q.min_dihedral_deg:.1f}  "
          f"inverted {q.n_inverted}")
    if q.n_inverted:
        print("error: mesh has inverted elements", file=sys.stderr)
        return 1
    if args.out:
        save_mesh(msh, args.out)
        log.info("wrote %s", args.out)
    return 0


def _load_or_build_mesh(args):
    if args.mesh is None:
        if args.kind is None:
            raise ValueError("need either --mesh or --kind")
        return geometry.generate_mesh(_spec_from_args(args))
    given = [name for name in ("kind", *(f.name for f in _SPEC_FIELDS))
             if getattr(args, name) is not None]
    if args.half:
        given.append("half")
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"--mesh reads the shape from the file; drop {flags}")
    return load_mesh(args.mesh)


def _supports(msh):
    """(fixed_set, extra_fixed) from the mesh's node sets: the clamped
    end ``fixed`` (plus the symmetry plane ``symx`` of a half model), or
    else the plane-strain supports of a tube slice."""
    if "fixed" not in msh.node_sets and all(
            name in msh.node_sets for name, _ in fea.TUBE_SUPPORTS):
        return None, fea.TUBE_SUPPORTS
    extra = (("symx", "x"),) if "symx" in msh.node_sets else ()
    return "fixed", extra


def _cmd_solve(args):
    cfg = _resolve_config(args)
    params = cfgmod.material_params(cfg)
    increments = (cfg["solver.increments"] if args.increments is None
                  else args.increments)
    # checked before meshing, which can take seconds; supports come after
    case = fea.LoadCase(target_pressure_kpa=args.pressure,
                        increments=increments)
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ValueError(f"--out directory {out.parent} does not exist")
    if out.is_dir():
        raise ValueError(f"--out {out} is a directory; name a file")
    msh = _load_or_build_mesh(args)
    fea.tip_set(msh)                       # the end the table measures
    fixed, extra = _supports(msh)
    case = dataclasses.replace(case, fixed_set=fixed, extra_fixed=extra)
    try:
        sol = fea.solve(msh, params, case)
    except fea.SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _, _, elo, bend, _ = fea.write_solution_csv(msh, sol, args.out)[-1]
    iters, factors = (sum(rec[key] for rec in sol.log)
                      for key in ("iterations", "factorizations"))
    print(f"solved to {sol.pressures_kpa[-1]:g} kPa in "
          f"{len(sol.pressures_kpa) - 1} increments: "
          f"elongation {elo:.3f} mm, bend {bend:.2f} deg "
          f"({iters} Newton iterations, {factors} LU factorizations)")
    log.info("wrote %s", args.out)
    return 0


def _cmd_calibrate(args):
    from . import verify
    cfg = _resolve_config(args)
    spec = geometry.ActuatorSpec(kind="tube", width=args.width, wall=args.wall)
    rows = np.loadtxt(args.observations, delimiter=",", skiprows=1,
                      ndmin=2)
    if rows.shape[1] != 2:
        raise ValueError("observations need two columns "
                         "(pressure_kPa,expansion_mm)")
    pressures, expansions = rows[:, 0], rows[:, 1]
    rin, _ = verify.tube_radii(spec)

    def forward(c10, pressure_kpa):
        return np.array([
            verify.cylinder_inner_radius_mm(float(p), spec, c10) - rin
            for p in np.atleast_1d(pressure_kpa)])

    c10 = mat.calibrate_c10(pressures, expansions, forward)
    resid = [forward(c10, p) - e for p, e in zip(pressures, expansions)]
    rms = float(np.sqrt(np.mean(np.square(resid))))
    print(f"c10 = {c10:.6g} MPa  (rms residual {rms:.4g} mm over "
          f"{len(pressures)} points)")
    if abs(c10 - cfg["material.c10_mpa"]) > 0.05 * cfg["material.c10_mpa"]:
        log.warning("fitted c10 differs from configured %g MPa by more "
                    "than 5%%", cfg["material.c10_mpa"])
    return 0


def _cmd_robot(args):
    cfg = _resolve_config(args)
    if args.robot == "earthworm":
        params = cfgmod.build(cfg, robots.EarthwormParams)
        table = robots.earthworm_frequency_sweep(params, _sweep(args.sweep))
        _write_rows(args.out, "freq_Hz,speed_mm_s", table)
        freq, speed = table[np.argmax(np.abs(table[:, 1]))]
        print("peak speed 0.00 mm/s: the worm stalls at every frequency"
              if speed == 0.0 else f"peak speed {abs(speed):.2f} mm/s "
              f"{'forward' if speed > 0 else 'backward'} at {freq:.2f} Hz")
    elif args.robot == "quadruped":
        params = cfgmod.build(cfg, robots.QuadrupedParams)
        table = robots.quadruped_speed_table(params, _floats(args.pressures),
                                             _floats(args.loads))
        _write_rows(args.out, "pressure_kPa,load_g,speed_mm_s", table)
        ref = robots.quadruped_speed(params, args.pressure, args.load)
        print(f"speed at {args.pressure:g} kPa under {args.load:g} g: "
              f"{ref:.2f} mm/s")
    elif args.robot == "gripper":
        params = cfgmod.build(cfg, robots.GripperParams)
        table = robots.gripper_pressure_table(params, _floats(args.masses),
                                              args.diameter)
        _write_rows(args.out, "mass_g,p_min_plain_kPa,p_min_tape_kPa", table)
        for m, pp, pt in table:
            ratio = pt / pp if np.isfinite(pp) and pp > 0 else float("nan")
            print(f"mass {m:6.1f} g: plain {pp:8.3f} kPa, tape {pt:7.3f} "
                  f"kPa, ratio {ratio:.3f}")
    else:  # bath
        plant = cfgmod.build(cfg, pneumatics.BathPlant)
        thermostat = cfgmod.build(cfg, pneumatics.ThermostatController)
        trace = pneumatics.run_bath(plant, thermostat, args.duration,
                                    args.dt)
        if args.out:
            trace.write_csv(args.out)
        print(f"bath: final {trace.temp_c[-1]:.2f} degC, "
              f"max {trace.temp_c.max():.2f} degC over {args.duration:g} s")
    return 0


def _cmd_control(args):
    cfg = _resolve_config(args)
    plant = cfgmod.build(cfg, pneumatics.PneumaticPlant)
    if args.mode == "deadband":
        ctl = pneumatics.DeadbandController(setpoint_kpa=args.setpoint,
                                            band_kpa=args.band)
    else:
        ctl = pneumatics.DutyCycleController(frequency_hz=args.frequency,
                                             duty=args.duty)
    trace = pneumatics.run_control(plant, ctl, args.duration,
                                   args.sample_hz)
    if args.out:
        trace.write_csv(args.out)
    print(f"pressure after {args.duration:g} s: "
          f"{trace.pressure_kpa[-1]:.3f} kPa "
          f"(min {trace.pressure_kpa.min():.3f}, "
          f"max {trace.pressure_kpa.max():.3f})")
    return 0


def _cmd_verify(args):
    from . import verify
    cfg = _resolve_config(args)
    names = verify.FULL_CHECKS if args.full else verify.QUICK_CHECKS
    results = verify.run_checks(names, cfg)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:18s} ({r.elapsed_s:.2f}s)  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _floats(text):
    return tuple(float(tok) for tok in text.split(","))


def _sweep(text):
    """The grid START, START + STEP, ... up to STOP of 'START:STOP:STEP'."""
    vals = [float(tok) for tok in text.split(":")]
    if (len(vals) != 3 or not np.all(np.isfinite(vals)) or vals[2] <= 0.0
            or vals[1] < vals[0]):
        raise ValueError("--sweep needs finite START:STOP:STEP with "
                         f"START <= STOP and STEP > 0, got {text!r}")
    start, stop, step = vals
    n = int(pneumatics.sample_count((stop - start) / step + 1.0 + 1e-9))
    # the step np.arange fills with, (START + STEP) - START, so a grid that
    # np.arange(START, STOP + 1e-9, STEP) does not leave empty is bitwise its
    return start + ((start + step) - start) * np.arange(n)


def _write_rows(path, header, rows):
    if not path:
        return
    np.savetxt(path, rows, fmt="%.6g", delimiter=",", header=header,
               comments="")
    log.info("wrote %s", path)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pneusoft",
        description="design and simulation toolkit for single-chamber "
                    "pneumatic soft actuators")
    parser.add_argument("--version", action="version",
                        version=f"pneusoft {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress and the resolved config")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate and inspect an actuator mesh")
    _add_spec_args(p)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the mesh in the native text format")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", help="quasi-static pressure ramp")
    _add_spec_args(p, kind_required=False)
    p.add_argument("--mesh", metavar="FILE", default=None,
                   help="solve a saved mesh instead of a built-in kind")
    p.add_argument("--pressure", type=float, required=True, metavar="KPA")
    p.add_argument("--increments", type=int, default=None)
    p.add_argument("--out", metavar="FILE", default="solution.csv")
    _add_config_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("calibrate",
                       help="fit c10 to tube inflation measurements")
    p.add_argument("--observations", metavar="CSV", required=True,
                   help="columns pressure_kPa,expansion_mm")
    p.add_argument("--width", type=float, default=None, metavar="MM")
    p.add_argument("--wall", type=float, default=None, metavar="MM")
    _add_config_args(p)
    p.set_defaults(func=_cmd_calibrate)

    # each robot model and control mode takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="CSV", default=None)
    _add_config_args(out)

    p = sub.add_parser("robot", help="reduced-order robot predictions")
    p.set_defaults(func=_cmd_robot)
    models = p.add_subparsers(dest="robot", required=True)
    q = models.add_parser("earthworm", parents=[out])
    q.add_argument("--sweep", metavar="START:STOP:STEP", default="0.2:1.6:0.1",
                   help="frequency grid in Hz (default %(default)s)")
    q = models.add_parser("quadruped", parents=[out])
    q.add_argument("--pressure", type=float, default=50.0, metavar="KPA",
                   help="point to report (default %(default)s)")
    q.add_argument("--load", type=float, default=80.0, metavar="G",
                   help="load to report (default %(default)s)")
    q.add_argument("--pressures", default="20,30,40,50",
                   metavar="KPA[,KPA...]")
    q.add_argument("--loads", default="0,40,80,120", metavar="G[,G...]")
    q = models.add_parser("gripper", parents=[out])
    q.add_argument("--masses", default="100,150,200", metavar="G[,G...]")
    q.add_argument("--diameter", type=float, default=60.0, metavar="MM")
    q = models.add_parser("bath", parents=[out])
    q.add_argument("--duration", type=float, default=3600.0, metavar="S")
    q.add_argument("--dt", type=float, default=0.1, metavar="S")

    p = sub.add_parser("control", help="simulate one valve control loop")
    p.set_defaults(func=_cmd_control)
    modes = p.add_subparsers(dest="mode", required=True)
    loop = argparse.ArgumentParser(add_help=False, parents=[out])
    loop.add_argument("--duration", type=float, default=5.0, metavar="S")
    loop.add_argument("--sample-hz", type=float,
                      default=pneumatics.DEFAULT_SAMPLE_HZ)
    q = modes.add_parser("deadband", parents=[loop])
    q.add_argument("--setpoint", type=float, default=40.0, metavar="KPA")
    q.add_argument("--band", type=float, default=2.0, metavar="KPA")
    q = modes.add_parser("duty", parents=[loop])
    q.add_argument("--frequency", type=float, default=0.8, metavar="HZ")
    q.add_argument("--duty", type=float, default=0.5)

    p = sub.add_parser("verify", help="run the built-in check suite")
    p.add_argument("--full", action="store_true",
                   help="include the slower solver checks (default: the "
                        "fast subset only)")
    _add_config_args(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
