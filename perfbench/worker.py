"""One benchmark process: set up a workload, run timed rounds, check them.

Started by run.py as a fresh interpreter, so the set-up it times covers
the interpreter, the imports, the inputs and the meshes.  Modes:

    setup  stop at the first solver call and report the set-up time
    run    untraced rounds for end-to-end timings
    trace  traced rounds (wrapped layers) alternating with untraced ones

The last line of standard output is one JSON object for run.py.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pneusoft import fea, geometry, material  # noqa: E402

import workloads  # noqa: E402
from spans import TracedFactor, Tracer  # noqa: E402


class SetupDone(BaseException):
    """Raised at the first solver call of a set-up-only process.

    A BaseException, so that the workloads' per-operation `except
    Exception` does not count it as a failed solve."""


class FirstSolve:
    """Stamps wall and CPU time at the first `fea.solve` call of a round."""

    def __init__(self, stop):
        self.original = fea.solve
        self.stop = stop
        self.reset()

        def solve(*args, **kwargs):
            if self.wall is None:
                self.wall, self.cpu = time.monotonic(), time.process_time()
                if self.stop:
                    raise SetupDone
            return self.original(*args, **kwargs)

        fea.solve = solve

    def reset(self):
        self.wall = self.cpu = None

    def restore(self):
        fea.solve = self.original


def install_tracer(tracer):
    def factor(span, lu):
        span["nnz"] = int(lu.nnz)
        return TracedFactor(lu, tracer)

    def solution(span, sol):
        span["increments"] = sol.n_increments - 1
        span["newton_iters"] = sum(rec["iterations"] for rec in sol.log)
        return sol

    tracer.wrap(geometry, "generate_mesh")
    for name in ("pk2_stress", "lagrangian_tangent"):
        tracer.wrap(material, name)
    for name in ("internal_force", "tangent_stiffness", "pressure_force",
                 "pressure_stiffness", "measure_elongation",
                 "measure_bend_angle", "measure_max_displacement",
                 "measure_radial_expansion", "write_solution_csv"):
        tracer.wrap(fea, name)
    tracer.wrap(fea, "splu", factor)
    tracer.wrap(fea, "solve", solution)


OUTPUT_SPANS = {"fea.measure_elongation", "fea.measure_bend_angle",
                "fea.measure_max_displacement", "fea.measure_radial_expansion",
                "fea.write_solution_csv"}

# per-layer metric prefix -> span whose calls and self time it reports
LAYER_SPANS = {
    "material.stress": "material.pk2_stress",
    "material.tangent": "material.lagrangian_tangent",
    "fea.internal_force": "fea.internal_force",
    "fea.tangent": "fea.tangent_stiffness",
    "fea.pressure_force": "fea.pressure_force",
    "fea.pressure_stiffness": "fea.pressure_stiffness",
}


def layer_metrics(tracer, rounds):
    """Per-layer figures per traced round, from the recorded spans."""
    spans = tracer.spans
    own = tracer.self_times()
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def count(name):
        return len(by.get(name, [])) / rounds

    def self_s(name):
        return sum(own[s["id"]] for s in by.get(name, [])) / rounds

    first_solve = min(s["start"] for s in by["fea.solve"])
    ids = {s["id"]: s for s in spans}
    m = {"geometry.mesh_s": (sum(s["end"] - s["start"]
                                 for s in by.get("geometry.generate_mesh", [])
                                 if s["end"] <= first_solve), "s")}
    for metric, name in LAYER_SPANS.items():
        m[f"{metric}_calls"] = (count(name), "count")
        m[f"{metric}_s"] = (self_s(name), "s")
    factors = by.get("fea.splu", [])
    m["fea.factorizations"] = (count("fea.splu"), "count")
    m["fea.factor_s"] = (self_s("fea.splu"), "s")
    m["fea.lu_nnz"] = (statistics.fmean(s["nnz"] for s in factors)
                       if factors else 0.0, "count")
    m["fea.backsolves"] = (count("fea.backsolve"), "count")
    m["fea.backsolve_s"] = (self_s("fea.backsolve"), "s")
    solves = by["fea.solve"]
    # a solve that raised has no result, so no counts
    m["fea.increments"] = (sum(s.get("increments", 0) for s in solves)
                           / rounds, "count")
    iters = sum(s.get("newton_iters", 0) for s in solves) / rounds
    m["fea.newton_iters"] = (iters, "count")
    m["fea.iters_per_factorization"] = (
        iters / m["fea.factorizations"][0] if factors else 0.0, "ratio")
    m["fea.solve_self_s"] = (self_s("fea.solve"), "s")
    outer = [s for s in spans if s["name"] in OUTPUT_SPANS
             and not (s["parent"] is not None
                      and ids[s["parent"]]["name"] in OUTPUT_SPANS)]
    m["cli.output_s"] = (sum(s["end"] - s["start"] for s in outer) / rounds,
                         "s")
    return m


def span_cost_s(calls=20000):
    """Extra wall time of one traced call over a plain one, measured here."""
    box = types.SimpleNamespace(__name__="calibration", call=lambda: None)
    plain = box.call
    t = time.perf_counter()
    for _ in range(calls):
        plain()
    t_plain = time.perf_counter() - t
    Tracer(0.0).wrap(box, "call")
    t = time.perf_counter()
    for _ in range(calls):
        box.call()
    return max(0.0, time.perf_counter() - t - t_plain) / calls


def run_round(wl, stamp):
    """One round; returns (ops, wall_s, cpu_s) timed from the first solve."""
    stamp.reset()
    ops = wl.round()
    wall, cpu = time.monotonic(), time.process_time()
    if stamp.wall is None:
        return ops, None, None
    return ops, wall - stamp.wall, cpu - stamp.cpu


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    stamp = FirstSolve(stop=args.mode == "setup")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    tracer = Tracer(args.t0)
    result = {"attempted": 0, "failed": 0, "problems": []}

    def account(ops):
        result["attempted"] += len(ops)
        failed = [op for op in ops if not op.ok]
        result["failed"] += len(failed)
        for op in failed:
            print(f"{op.name} failed: {op.data}", file=sys.stderr)
        result["problems"] += wl.check(ops)

    traced = args.mode == "trace"
    if traced:
        install_tracer(tracer)
    try:
        wl.setup()
        t_start = time.monotonic()
        tracer.round = 1
        pending = run_round(wl, stamp)
    except SetupDone:
        print(json.dumps({"setup_s": stamp.wall - args.t0}))
        return 0
    tracer.restore()
    if stamp.wall is None:
        raise RuntimeError("the first round made no solver call")
    result["setup_s"] = stamp.wall - args.t0
    walls, cpus, traced_walls = [], [], []

    def record(round_result, into):
        ops, wall, cpu = round_result
        if wall is not None:                # None: no solver call was made
            into.append(wall)
            if into is walls:
                cpus.append(cpu)
        # the peak after one round, so that it does not depend on how
        # many rounds fit into the run
        result.setdefault("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        account(ops)

    def traced_round():
        tracer.round += 1
        install_tracer(tracer)
        try:
            return run_round(wl, stamp)
        finally:
            tracer.restore()

    # A group is one round, or in trace mode a traced and an untraced
    # round; start another only if it should end within --seconds.
    groups = 0
    while True:
        record(pending, traced_walls if traced else walls)
        if traced:
            record(run_round(wl, stamp), walls)
        groups += 1
        elapsed = time.monotonic() - t_start
        if elapsed * (groups + 1) / groups > args.seconds:
            break
        pending = traced_round() if traced else run_round(wl, stamp)
    stamp.restore()

    result["solve_s"] = walls
    result["cpu_s"] = cpus
    result["makeup"] = wl.makeup()
    result["detail"] = getattr(wl, "detail", None)
    result["env"] = {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if args.mode == "trace":
        n = len(traced_walls)
        result["layers"] = layer_metrics(tracer, n)
        # The traced and untraced rounds differ by more from machine
        # noise than from tracing, so the overhead is the spans' measured
        # cost against the untraced solve_s; the raw ratio is kept too.
        spans = sum(1 for s in tracer.spans if s["round"] > 0) / n
        result["spans_per_round"] = spans
        result["span_cost_s"] = span_cost_s()
        untraced = statistics.median(walls)
        result["trace_overhead_pct"] = (
            100.0 * spans * result["span_cost_s"] / untraced)
        result["traced_solve_s"] = traced_walls
        result["traced_vs_untraced_pct"] = 100.0 * (
            statistics.median(traced_walls) / untraced - 1.0)
        result["nesting_errors"] = tracer.nesting_errors()
        tracer.write(args.out / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": n})
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
