"""Spans around the program's layers, recorded from outside the program.

Tracer.install() wraps

- every public module-level function of every ``mfgstop`` module (the
  layer is the module name; ``_coupled`` is layer ``coupled``);
- the methods in METHODS, which carry the per-node work of costs,
  Hamiltonians and obstacle operators;
- scipy's sparse assembly and linear-algebra entry points in SCIPY
  (layer ``scipy``), including solves through the factor objects that
  ``splu``, ``spilu`` and ``factorized`` return.

A wrapped name is rebound in every namespace that binds the same
object, because the modules import each other's functions by name. A
name that does not exist is skipped, so it shows as a layer with zero
calls. The spans stay in memory (name, parent, start, end) and are
written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

# public scipy entry points by namespace -> metric group
SCIPY = {
    "scipy.sparse": {
        "bmat": "bmat", "block_array": "bmat",
        "diags": "diags", "diags_array": "diags", "spdiags": "diags",
    },
    "scipy.sparse.linalg": {
        "spsolve": "factor", "splu": "factor", "spilu": "factor", "factorized": "factor",
        "gmres": "iterative", "lgmres": "iterative", "gcrotmk": "iterative",
        "bicgstab": "iterative", "cg": "iterative", "cgs": "iterative",
        "minres": "iterative", "qmr": "iterative", "tfqmr": "iterative",
    },
    "scipy.linalg": {"solve_banded": "banded", "solveh_banded": "banded"},
}

# (module, class, methods) wrapped as spans named layer.Class.method
METHODS = (
    ("mfgstop.costs", "CostOperator", ("evaluate", "derivative")),
    ("mfgstop.control", "Hamiltonian", ("value", "gradient", "face_weight")),
    ("mfgstop.evolutive", "ObstacleOperator", ("apply_arrays",)),
)

LAYERS = ("cli", "scenarios", "stationary", "evolutive", "control", "coupled",
          "density", "obstacle", "costs", "grid", "scipy")

FACTOR_SOLVE = "scipy.factor_solve"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class _FactorProxy:
    """A factor object whose ``solve`` is recorded as a span."""

    def __init__(self, inner, solve):
        self._inner = inner
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack = [-1]
        self.factor_sizes: list[tuple[int, int]] = []
        self.iterations: dict[str, list[int]] = {}
        self.hook_errors = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is None:
                return result
            try:
                return hook(args, result)
            except Exception:  # a hook must never break the traced program
                self.hook_errors += 1
                return result

        return traced

    def _record_factor(self, args, result):
        """Record the matrix size; route solves through a returned factor
        object (splu, spilu) or solve function (factorized) into spans."""
        matrix = args[0]
        self.factor_sizes.append((int(matrix.shape[0]), int(matrix.nnz)))
        if hasattr(result, "solve"):
            return _FactorProxy(result, self.wrap(FACTOR_SOLVE, result.solve))
        if callable(result):
            return self.wrap(FACTOR_SOLVE, result)
        return result

    def _iteration_hook(self, key):
        def hook(args, result):
            self.iterations.setdefault(key, []).append(int(result.iterations))
            return result
        return hook

    # -- installation ----------------------------------------------------

    def _targets(self):
        import mfgstop

        for info in pkgutil.iter_modules(mfgstop.__path__):
            importlib.import_module(f"mfgstop.{info.name}")
        hooks = {
            "coupled.forward_backward_solve": self._iteration_hook("coupled"),
            "stationary.penalized_coupled_solve": self._iteration_hook("stationary"),
        }
        for mod_name in sorted(m for m in sys.modules if m.startswith("mfgstop.")):
            mod = sys.modules[mod_name]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and _is_function(obj)
                        and getattr(obj, "__module__", None) == mod_name):
                    name = f"{layer_of(mod_name)}.{attr}"
                    yield name, obj, hooks.get(name)
        for mod_name, names in SCIPY.items():
            mod = importlib.import_module(mod_name)
            for attr, group in names.items():
                obj = getattr(mod, attr, None)
                if callable(obj):
                    yield f"scipy.{attr}", obj, self._record_factor if group == "factor" else None

    def install(self):
        """Wrap every target and rebind it wherever it is bound."""
        wrappers = {}
        for name, obj, hook in self._targets():
            if id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, self.wrap(name, obj, hook))
        namespaces = [sys.modules[m] for m in sorted(sys.modules)
                      if m == "mfgstop" or m.startswith("mfgstop.") or m in SCIPY]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for mod_name, cls_name, methods in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if inspect.isfunction(fn):
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(f"{layer_of(mod_name)}.{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics

# inclusive-time groups: metric prefix -> span names
GROUPS = {
    "scipy.assemble": {f"scipy.{n}" for n in SCIPY["scipy.sparse"]},
    "scipy.factor": {f"scipy.{n}" for n, g in SCIPY["scipy.sparse.linalg"].items() if g == "factor"},
    "scipy.factor_solve": {FACTOR_SOLVE},
    "scipy.iterative": {f"scipy.{n}" for n, g in SCIPY["scipy.sparse.linalg"].items()
                        if g == "iterative"},
    "scipy.banded": {f"scipy.{n}" for n in SCIPY["scipy.linalg"]},
    "coupled.fb_solve": {"coupled.forward_backward_solve"},
    "evolutive.obstacle": {"evolutive.ObstacleOperator.apply_arrays",
                           "evolutive.apply_obstacle_operator"},
    "evolutive.verify": {"evolutive.verify_mixed_evolutive"},
    "control.hamiltonian": {"control.Hamiltonian.value", "control.Hamiltonian.gradient"},
    "control.verify": {"control.verify_cosmfg"},
    "density.drift_matrix": {"density.drift_divergence_matrix"},
    "stationary.penalized": {"stationary.penalized_coupled_solve"},
    "stationary.verify": {"stationary.verify_mixed"},
    "grid.csv_write": {"grid.write_field_csv", "grid.write_trajectory_csv"},
    "grid.csv_read": {"grid.read_field_csv", "grid.read_trajectory_csv"},
    "scenarios.evidence": {"scenarios.run_scenario_evidence", "scenarios.scenario_standard",
                           "scenarios.scenario_nonexistence", "scenarios.scenario_nonuniqueness",
                           "scenarios.scenario_obstacle_nonuniqueness"},
    "cli.run": {"cli.cmd_run"},
    "cli.verify": {"cli.cmd_verify"},
}

COUNTS = {
    "scipy.bmat_calls": {f"scipy.{n}" for n, g in SCIPY["scipy.sparse"].items() if g == "bmat"},
    "scipy.diags_calls": {f"scipy.{n}" for n, g in SCIPY["scipy.sparse"].items() if g == "diags"},
    "scipy.factor_calls": GROUPS["scipy.factor"],
    "scipy.factor_solve_calls": GROUPS["scipy.factor_solve"],
    "scipy.iterative_calls": GROUPS["scipy.iterative"],
    "scipy.banded_calls": GROUPS["scipy.banded"],
    "coupled.stages": GROUPS["coupled.fb_solve"],
    "evolutive.obstacle_calls": GROUPS["evolutive.obstacle"],
    "control.hamiltonian_calls": GROUPS["control.hamiltonian"],
    "density.drift_matrix_calls": GROUPS["density.drift_matrix"],
    "stationary.stages": GROUPS["stationary.penalized"],
    "costs.evaluate_calls": {"costs.CostOperator.evaluate"},
    "costs.derivative_calls": {"costs.CostOperator.derivative"},
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded so far: inclusive time of
    each group (outermost spans only), call counts, self time per layer
    (duration minus the time covered by child spans) and solver counts."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS + ("other",):
        out[f"{layer}.self_s"] = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        layer = name.split(".", 1)[0]
        key = f"{layer}.self_s" if layer in LAYERS else "other.self_s"
        out[key] += end - start - child[i]
    for group, names in GROUPS.items():
        total = 0.0
        for name, parent, start, end in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][1]
            if p < 0:
                total += end - start
        out[f"{group}_s"] = total
    counts: dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    for metric, names in COUNTS.items():
        out[metric] = float(sum(counts.get(n, 0) for n in names))
    sizes = tracer.factor_sizes
    out["scipy.factor_n_max"] = float(max((n for n, _ in sizes), default=0))
    out["scipy.factor_nnz_max"] = float(max((nnz for _, nnz in sizes), default=0))
    passes = tracer.iterations.get("coupled", [])
    out["coupled.outer_passes"] = float(sum(passes))
    out["coupled.outer_passes_max"] = float(max(passes, default=0))
    out["coupled.passes_per_stage"] = sum(passes) / len(passes) if passes else 0.0
    out["stationary.newton_iters"] = float(sum(tracer.iterations.get("stationary", [])))
    steps = out["scipy.bmat_calls"]
    out["costs.evaluate_per_step"] = out["costs.evaluate_calls"] / steps if steps else 0.0
    out["trace.spans"] = float(len(spans))
    out["trace.hook_errors"] = float(tracer.hook_errors)
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS + ("other",))
    return out
