"""One workload in one fresh process, for run.py.

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S
        --mode setup|units|trace --result PATH

Every mode first sets up, timed from the first line of this file: import
mfgstop, build every run config of the workload, and warm the
lru-cached elliptic matrices of its grids. Then:

- setup: the reference kernel of speed.py, once;
- units: units of work run back to back until S seconds have passed, at
  least one, with the reference kernel before the first and after every
  unit. A unit runs each job of the workload; a run job is
  ``mfgstop run`` plus VERIFIES runs of ``mfgstop verify`` on what it
  wrote. Every output is gated;
- trace: one untraced unit, then one unit with every layer wrapped by
  tracer.Tracer; the spans are written to DIR/spans.json.

The raw samples go to PATH as JSON.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VERIFIES = 15  # mfgstop verify runs per run job in a timed unit


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mfgstop", "__init__.py")):
        raise SystemExit(f"perfbench: no mfgstop sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from mfgstop import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported mfgstop from {cli.__file__}, not from {src}")
    return cli


class Workload:
    """The jobs of one workload and the gate applied to their outputs."""

    def __init__(self, cli, name: str, work: str):
        import checks
        import speed
        import workloads

        self.cli = cli
        self.checks = checks
        self.speed = speed
        self.work = work
        self.jobs = workloads.WORKLOADS[name]
        self.configs = {}
        for kind, job in self.jobs:
            if kind == "run":
                path = os.path.join(work, "configs", f"{job}.json")
                with open(path, encoding="ascii") as fh:
                    raw = json.load(fh)
                self.configs[job] = (path, raw, cli.load_config(path))

    def warm_up(self):
        """Fill the lru cache of the grid operators the solves will use."""
        from mfgstop import grid

        elliptic = getattr(grid, "elliptic_matrix", None)
        if elliptic is None:
            return
        for _, _, cfg in self.configs.values():
            for zero_order in (True, False):
                elliptic(cfg.grid, zero_order)

    def _call(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        return rc, buf.getvalue()

    def _verify(self, job, out) -> tuple[int, str]:
        path, raw, _ = self.configs[job]
        if raw["problem"] == "sosmfg":
            u, m = os.path.join(out, "u.csv"), os.path.join(out, "m.csv")
        else:
            u, m = os.path.join(out, "u_manifest.json"), os.path.join(out, "m_manifest.json")
        return self._call(["verify", "--u", u, "--m", m, "--config", path])

    def unit(self, tag: str, verifies: int = 1) -> dict:
        """One unit of work; the wall time covers the CLI calls only.

        A run job's ``mfgstop verify`` runs ``verifies`` times, each right
        after the read kernel of speed.py; the first counts towards the
        solve time. The job's verify time is the median of all of them,
        as measured and scaled to the read kernel's nominal speed, since
        one verify takes only milliseconds.
        """
        outs, results, solve_s, verify_s, verify_scaled_s = [], [], 0.0, [], []
        for kind, job in self.jobs:
            out = os.path.join(self.work, tag, job)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            outs.append((kind, job, out))
            res = {"job": job, "failures": [], "residuals": {}}
            results.append(res)
            try:
                t0 = time.perf_counter()
                if kind == "scenario":
                    rc = self._call(["scenario", job, "--out", out])[0]
                    solve_s += time.perf_counter() - t0
                    self._check_exit(rc, res)
                    continue
                rc = self._call(["run", "--config", self.configs[job][0], "--out", out])[0]
                solve_s += time.perf_counter() - t0
                self._check_exit(rc, res)
                times, scaled = [], []
                for _ in range(verifies):
                    reference = self.speed.read_kernel()
                    t1 = time.perf_counter()
                    rc_v, printed = self._verify(job, out)
                    times.append(time.perf_counter() - t1)
                    scaled.append(times[-1] * self.speed.NOMINAL_READ_S / reference)
                    self._gate_verify(job, rc_v, printed, res)
                solve_s += times[0]
                verify_s.append(statistics.median(times))
                verify_scaled_s.append(statistics.median(scaled))
            except Exception:
                res["failures"].append("exception: " + traceback.format_exc(limit=8))
        for (kind, job, out), res in zip(outs, results):
            self._gate(kind, job, out, res)
        digest = None
        if not any(res["failures"] for res in results):
            digest = self.checks.digest([(job, out) for _, job, out in outs])
        return {"solve_s": solve_s, "verify_s": verify_s, "verify_scaled_s": verify_scaled_s,
                "jobs": results, "digest": digest}

    @staticmethod
    def _check_exit(rc, res):
        if rc != 0:
            res["failures"].append(f"exit code {rc!r}")

    def _gate_verify(self, job, rc, printed, res):
        self._check_exit(rc, res)
        try:
            report = json.loads(printed)
        except ValueError as err:
            res["failures"].append(f"verify printed no report: {err}")
            return
        problem = self.configs[job][1]["problem"]
        res["failures"] += [f"verify: {f}" for f in self.checks.gate_report(report, problem)]

    def _gate(self, kind, job, out, res):
        """Apply the benchmark's gate to the artifacts of one job."""
        checks = self.checks
        fail = res["failures"]
        try:
            if kind == "scenario":
                with open(os.path.join(out, f"scenario_{job}.json"), encoding="ascii") as fh:
                    bundle = json.load(fh)
                report = bundle.get("report", bundle.get("final_report", {}))
                res["residuals"] = checks.residuals(report) if isinstance(report, dict) else {}
                density, grid = None, None
                if "final_report" in bundle:
                    density, grid = checks.read_density(out), bundle["final_report"]["grid"]
                fail += checks.gate_bundle(bundle, job, density, grid)
                return
            raw = self.configs[job][1]
            with open(os.path.join(out, "report.json"), encoding="ascii") as fh:
                report = json.load(fh)
            res["residuals"] = checks.residuals(report)
            fail += [f"run report: {f}" for f in checks.gate_report(report, raw["problem"])]
            n_slices = raw["timegrid"]["n_steps"] + 1 if "timegrid" in raw else 1
            fail += checks.gate_density(checks.read_density(out), raw["grid"], n_slices)
        except (OSError, ValueError, KeyError, TypeError) as err:
            fail.append(f"unreadable output: {err!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "units", "trace"))
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    cli = _import_program()
    wl = Workload(cli, args.workload, args.work)
    wl.warm_up()
    setup_s = time.perf_counter() - T_START
    import numpy
    import scipy

    result = {"setup_s": setup_s, "versions": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__}}
    import speed

    if args.mode == "setup":
        result["kernel_s"] = [speed.kernel()]
    elif args.mode == "trace":
        result.update(_traced(wl, args))
    else:
        units = []
        deadline = time.perf_counter() + args.seconds
        before = speed.kernel()
        while True:
            unit = wl.unit("unit", VERIFIES)
            after = speed.kernel()
            unit["kernel_s"] = [before, after]
            units.append(unit)
            before = after
            if time.perf_counter() >= deadline or any(res["failures"] for res in unit["jobs"]):
                break
        result["units"] = units
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def _traced(wl, args) -> dict:
    import tracer

    plain = wl.unit("untraced")
    tr = tracer.Tracer(run_id=f"{args.workload}-{os.getpid()}")
    with tr:
        traced = wl.unit("traced")
    tr.dump(os.path.join(args.work, "spans.json"))
    metrics = tracer.layer_metrics(tr)
    csv = [os.path.join(d, f) for d, _, files in os.walk(os.path.join(args.work, "traced"))
           for f in files if f.endswith(".csv")]
    metrics["grid.csv_files"] = float(len(csv))
    metrics["grid.csv_bytes"] = float(sum(os.path.getsize(p) for p in csv))
    metrics["trace.traced_s"] = traced["solve_s"]
    metrics["trace.untraced_s"] = plain["solve_s"]
    metrics["trace.overhead_s"] = traced["solve_s"] - plain["solve_s"]
    return {"units": [plain, traced], "layers": metrics}


if __name__ == "__main__":
    sys.exit(main())
