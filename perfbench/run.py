"""Run one benchmark workload of the pneusoft solver and print its metrics.

    python3 perfbench/run.py --workload bend-ramp --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each workload runs in fresh worker processes with at most nproc
BLAS threads.  --trace 0 prints the end-to-end metrics (solve_s,
setup_s, cpu_s, peak_rss_mb), --trace 1 the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record,
including the workload's make-up and the environment, goes to
perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bend-ramp", "tube-study", "cli-ramp")   # as in workloads.py,
# which run.py does not import: it must fail fast without the program
SETUP_SAMPLES = 5          # fresh processes timed up to the first solve
DEADLINE_S = 170.0         # the whole run, set-up samples included

UNITS = {"solve_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pneusoft" / "__init__.py").is_file():
        print(f"error: no pneusoft sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PNEUSOFT_CONFIG", None)          # the default config, always
    deadline = time.monotonic() + DEADLINE_S

    def worker(mode):
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode,
               "--t0", repr(t0), "--out", str(outdir)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline - t0)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setups = [worker("setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1) if args.trace == 0]
        rec = worker("trace" if args.trace else "run")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in rec["layers"].items()}
        metrics["trace.overhead"] = {"value": rec["trace_overhead_pct"],
                                     "unit": "%"}
        if rec["nesting_errors"]:
            rec["problems"].append(f"{len(rec['nesting_errors'])} spans "
                                   "with self times above their duration")
    else:
        setups.append(rec["setup_s"])
        rec["setup_samples"] = setups
        values = {"solve_s": statistics.median(rec["solve_s"]),
                  "setup_s": statistics.median(setups),
                  "cpu_s": statistics.median(rec["cpu_s"]),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    rec["env"].update(nproc=int(threads), blas_threads=int(threads))

    for problem in rec["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rec['solve_s'])} "
          f"untraced rounds, {rec['attempted']} solves attempted, "
          f"{rec['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    summary = {"correct": not rec["problems"],
               "attempted": rec["attempted"], "failed": rec["failed"],
               "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(outdir / name, "w") as fh:
        json.dump(dict(summary, record=rec), fh, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
