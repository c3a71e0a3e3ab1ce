"""Benchmark of certified ``mfgstop`` solves.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from ``src/``
of that checkout; nothing is installed. Writes only under
``perfbench/.work/``.

Steps:

1. Generate the workload's run configs from the seed (workloads.py).
2. Run fresh processes of worker.py, one after the other: SETUP_PROBES
   that only set up (import, config build, cache warm-up), each between
   two runs of the reference kernel of speed.py (one here, one in the
   probe), then one that runs units of work for S seconds with the
   kernel between them. BLAS and OpenMP are pinned to one thread.
3. Report the end-to-end metrics (--trace 0) or the per-layer metrics
   of one traced unit of work (--trace 1), after the gate in checks.py
   has judged every output. Each timed sample is scaled to the kernel's
   nominal speed by the kernel runs next to it, because the shared host's
   own speed swings by more than any bound could absorb (speed.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output passed the gate, 1 when one failed, and 2 when the
benchmark could not run (no program sources, a worker that crashed or
timed out); in that last case no result line is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170.0  # every run ends within 180 s
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# end-to-end metrics (--trace 0), in BENCHMARK.json order. The times are
# medians over the units (solve_s, verify_s) or the set-up probes
# (setup_s) of one run, each sample scaled to the nominal host speed of
# speed.py; the wall times are printed beside them.
END_TO_END = {
    "solve_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
}

# per-layer metrics (--trace 1), in BENCHMARK.json order
PER_LAYER = {
    "scipy.assemble_s": "s", "scipy.bmat_calls": "count", "scipy.diags_calls": "count",
    "scipy.factor_s": "s", "scipy.factor_calls": "count", "scipy.factor_n_max": "count",
    "scipy.factor_nnz_max": "count", "scipy.factor_solve_s": "s",
    "scipy.factor_solve_calls": "count", "scipy.iterative_s": "s",
    "scipy.iterative_calls": "count", "scipy.banded_s": "s", "scipy.banded_calls": "count",
    "scipy.self_s": "s",
    "coupled.fb_solve_s": "s", "coupled.self_s": "s", "coupled.stages": "count",
    "coupled.outer_passes": "count", "coupled.outer_passes_max": "count",
    "coupled.passes_per_stage": "ratio",
    "evolutive.obstacle_s": "s", "evolutive.obstacle_calls": "count",
    "evolutive.verify_s": "s", "evolutive.self_s": "s",
    "control.hamiltonian_s": "s", "control.hamiltonian_calls": "count",
    "control.verify_s": "s", "control.self_s": "s",
    "density.drift_matrix_s": "s", "density.drift_matrix_calls": "count",
    "density.self_s": "s",
    "stationary.penalized_s": "s", "stationary.stages": "count",
    "stationary.newton_iters": "count", "stationary.verify_s": "s", "stationary.self_s": "s",
    "scenarios.evidence_s": "s", "scenarios.self_s": "s",
    "obstacle.self_s": "s",
    "grid.csv_write_s": "s", "grid.csv_read_s": "s", "grid.csv_files": "count",
    "grid.csv_bytes": "B", "grid.self_s": "s",
    "costs.evaluate_calls": "count", "costs.derivative_calls": "count",
    "costs.evaluate_per_step": "ratio", "costs.self_s": "s",
    "cli.run_s": "s", "cli.verify_s": "s", "cli.self_s": "s", "other.self_s": "s",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
    "trace.self_sum_s": "s", "trace.spans": "count", "trace.hook_errors": "count",
}


ADDR_NO_RANDOMIZE = 0x0040000


def fix_address_layout() -> bool:
    """Turn off address-space randomization for this process and the
    workers it starts. With it on, each fresh process lands in one of a
    few layouts, and the verify path runs about 1.5x slower in some of
    them, so the process, not the program, would set the figures. The
    flag touches only these processes."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)
        return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


def environment(versions: dict, fixed_layout: bool) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**versions, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": THREAD_PINS, "fixed_address_layout": fixed_layout}


def _worker(args, work, mode, deadline) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MFGSTOP_OUT", "PYTHONPATH")}
    env.update(THREAD_PINS)
    result = os.path.join(work, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--work", work, "--seconds", str(args.seconds), "--mode", mode, "--result", result]
    # the worker's own output goes to stderr: stdout ends with the result line
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result, encoding="ascii") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "mfgstop", "__init__.py")):
        print(f"perfbench: no mfgstop sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    all_configs = workloads.configs(args.seed)
    for kind, job in workloads.WORKLOADS[args.workload]:
        if kind == "run":
            with open(os.path.join(work, "configs", f"{job}.json"), "w", encoding="ascii") as fh:
                json.dump(all_configs[job], fh, sort_keys=True)

    fixed_layout = fix_address_layout()
    os.environ.update(THREAD_PINS)  # before numpy is imported
    import speed

    speed.kernel()  # the first call pays for lazy initialisation
    deadline = t_start + DEADLINE_S
    try:
        probes = []
        for _ in range(SETUP_PROBES):
            before = speed.kernel()
            probe = _worker(args, work, "setup", deadline)
            probe["kernel_s"].insert(0, before)
            probes.append(probe)
        res = _worker(args, work, "trace" if args.trace else "units", deadline)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        print(f"perfbench: {args.workload} could not run: {err}", file=sys.stderr)
        return 2
    return report(args, environment(res["versions"], fixed_layout), probes, res,
                  speed.NOMINAL_S)


def _describe(values) -> str:
    """Median, and the highest of p90/p99 that has ten samples above it."""
    if not values:
        return "no samples"
    text = f"median {statistics.median(values):.4f} s"
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            text += f", p{pct} {cut:.4f} s"
            break
    return text + f" over {len(values)} samples (min {min(values):.4f}, max {max(values):.4f})"


def report(args, env_info, probes, res, nominal: float) -> int:
    units = res["units"]
    jobs = [job for unit in units for job in unit["jobs"]]
    attempted = len(jobs)
    failed = sum(1 for job in jobs if job["failures"])
    digests = [unit["digest"] for unit in units]

    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)["seed0_digest"].get(args.workload)
    if args.seed != 0:
        ref_note = "no reference digest for this seed"
    elif digests[0] == reference:
        ref_note = "identical to the seed-0 reference"
    else:
        ref_note = f"DIFFERS from the seed-0 reference {reference}"
    same = len(set(digests)) == 1
    label = "traced and untraced units" if args.trace else "repeated units"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env_info, sort_keys=True))
    for job in units[0]["jobs"]:
        cells = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v!r}"
                          for k, v in sorted(job["residuals"].items()))
        print(f"residuals {job['job']}: {cells}")
    for job in jobs:
        for failure in job["failures"]:
            print(f"GATE FAILED {job['job']}: {failure}")
    print(f"gate: {attempted - failed}/{attempted} solves certified")
    print(f"digest: {digests[0]} ({ref_note}; {label} "
          f"{'identical' if same else 'DIFFER: ' + ', '.join(map(str, digests))})")

    if args.trace:
        layers = res["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        # wall times, and the same scaled to the reference kernel's nominal
        # speed by the kernel runs around each of them (speed.py); the
        # worker scales each verify by the read kernel run before it
        kernel = [statistics.mean(unit["kernel_s"]) for unit in units]
        kernel_setup = [statistics.mean(p["kernel_s"]) for p in probes]
        solve = [unit["solve_s"] for unit in units]
        setup = [p["setup_s"] for p in probes]
        series = {
            "solve_s": (solve, [t * nominal / k for t, k in zip(solve, kernel)]),
            "verify_s": ([sum(unit["verify_s"]) for unit in units],
                         [sum(unit["verify_scaled_s"]) for unit in units]),
            "setup_s": (setup, [t * nominal / k for t, k in zip(setup, kernel_setup)]),
        }
        samples = {}
        for name, (wall, scaled) in series.items():
            samples[name] = scaled
            print(f"{name} wall: {_describe(wall)}")
            print(f"{name} at nominal host speed: {_describe(scaled)}")
        print(f"reference kernel: {_describe(kernel + kernel_setup)}, "
              f"nominal {nominal:.4f} s")
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = res["peak_rss_mb"]
        values["certified_frac"] = (attempted - failed) / attempted
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    ok = failed == 0 and same
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
