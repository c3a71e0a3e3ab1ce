"""Static checks of the package and its test oracles, read from the
sources with ast:

- every __all__ entry resolves and has a caller in a program file (the
  package modules but __init__, the demos and the perfbench harness but
  its tests), and so does every public method and property of an
  exported class;
- every defaulted parameter of an exported callable is passed by a
  program call;
- the package __init__ imports only names its modules export, no
  module imports a name it never uses or scipy.optimize, and no test
  file imports a name it never uses;
- every grid comparison is the one grid check, every range check of a
  number the one range check, and only the Hamiltonian tells its kinds
  apart;
- no module calls a Krylov solver of scipy, the one GMRES being
  _coupled._gmres;
- every direct solve goes through the factor functions of obstacle,
  only obstacle keeps the base operators B = -lap + I/dt, and only
  three solves outside it factor by LU;
- the Hamiltonian data of the controlled system has one source, and the
  Jacobian and the drifted density steps take their drift from its one
  stencil layout;
- every verifier takes its residuals from the one residual core, every
  coupled Newton solve runs in the one penalty stage, and the one penalty
  continuation is entered only by scenarios.solve_problem and the
  stationary nesting below it;
- time is stepped in one loop, _coupled._sweep;
- the CLI builds no problem object of its own, and the problem dispatch
  takes the one problem record, scenarios.Scenario;
- tests/oracles.py takes from the package only the grid's data types
  and builders.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mfgstop

PACKAGE = Path(mfgstop.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _exports(tree: ast.Module) -> list[str]:
    """The names of the module-level __all__, [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"mfgstop.{module}")
    missing = [name for name in _exports(_tree(module)) if not hasattr(mod, name)]
    assert missing == []


def _uses(tree: ast.AST) -> set[str]:
    """Every name read as a name or an attribute below tree, but within
    a def or class of that same name (its own definition)."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def _program_files():
    """The program's sources: the package modules but __init__, the
    demos, and the perfbench harness but its tests."""
    root = PACKAGE.parent.parent
    return [*(PACKAGE / f"{module}.py" for module in MODULES), *(root / "demos").glob("*.py"),
            *(path for path in (root / "perfbench").glob("*.py")
              if path.name != "test_perfbench.py")]


def test_every_exported_name_has_a_caller():
    # a use is a name or an attribute read in a program file outside the
    # name's own definition; the __all__ strings, the imports and the
    # tests are not uses. The public methods and properties of an
    # exported class are held to the same rule
    used = set()
    for path in _program_files():
        used |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for module in MODULES:
        mod = importlib.import_module(f"mfgstop.{module}")
        for name in _exports(_tree(module)):
            obj = getattr(mod, name)
            members = [(name, name)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", attr) for attr, value in vars(obj).items()
                            if not attr.startswith("_") and (
                                isinstance(value, property)
                                or inspect.isfunction(getattr(value, "__func__", value)))]
            uncalled += [f"{module}.{member}" for member, use in members if use not in used]
    assert uncalled == []


def _defaulted_parameters():
    """module.callable(parameter) of every defaulted parameter of every
    exported function, constructor and public method, mapped to the
    name a call uses, the parameter's position among those a call
    passes and the parameter."""
    out = {}
    for module in MODULES:
        mod = importlib.import_module(f"mfgstop.{module}")
        for name in _exports(_tree(module)):
            obj = getattr(mod, name)
            if not callable(obj):
                continue
            targets = [(name, name, inspect.signature(obj))]
            if inspect.isclass(obj):
                targets += [(f"{name}.{attr}", attr, inspect.signature(getattr(obj, attr)))
                            for attr, value in vars(obj).items()
                            if not attr.startswith("_")
                            and inspect.isfunction(getattr(value, "__func__", value))]
            for qualified, callee, signature in targets:
                params = [p for p in signature.parameters.values() if p.name != "self"]
                for position, param in enumerate(params):
                    if param.default is not param.empty:
                        out[f"{module}.{qualified}({param.name})"] = (callee, position, param)
    return out


def _passes(call: ast.Call, position: int, param) -> bool:
    """Whether call passes param, by keyword, by position or through a
    * or ** argument."""
    if any(keyword.arg in (None, param.name) for keyword in call.keywords):
        return True
    return param.kind != param.KEYWORD_ONLY and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_by_a_program_call():
    # a call is one in a program file by the callable's name, as a name
    # or an attribute; a default that no program call passes is a
    # setting with one value in use
    calls = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    unpassed = sorted(key for key, (callee, position, param) in _defaulted_parameters().items()
                      if not any(_passes(call, position, param) for call in calls.get(callee, [])))
    assert unpassed == []


def test_package_imports_only_exported_names():
    unexported = []
    for node in ast.walk(_tree("__init__")):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            if node.module is None:  # from . import <module>
                ok = alias.name in MODULES
            else:
                ok = alias.name in _exports(_tree(node.module))
            if not ok:
                unexported.append(f"{node.module or '.'}.{alias.name}")
    assert unexported == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names tree imports and never reads, but for its __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(_exports(tree)))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert _unused_imports(_tree(module)) == []


def test_no_test_file_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def _comparisons(node, module, matches, scope=None):
    """(function, line) of each comparison below node for which
    matches(operands) holds; function is module.name of the enclosing
    module-level function or class."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if scope is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{module}.{child.name}"
        if isinstance(child, ast.Compare) and matches([child.left, *child.comparators]):
            yield inner or module, child.lineno
        yield from _comparisons(child, module, matches, inner)


def _compares_a_grid(operands):
    return any(isinstance(operand, ast.Attribute) and operand.attr in ("grid", "timegrid")
               for operand in operands)


def test_every_grid_comparison_is_the_one_grid_check():
    found = [(where, line) for module in MODULES
             for where, line in _comparisons(_tree(module), module, _compares_a_grid)
             if where != "grid._on_grid"]
    assert found == [], found
    check = _functions("grid")["grid._on_grid"]
    assert any(isinstance(node, ast.Compare) for node in ast.walk(check))


# the one range check: only grid._checked decides whether a number is
# finite and in range, so no other if that raises a ValueError (or the
# config's ConfigError) tests an ordering against a numeric bound or
# calls isfinite
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_bound(node) -> bool:
    """Whether node is a numeric literal, signed or not, or np.inf."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            or isinstance(node, ast.Attribute) and node.attr == "inf")


def _checks_a_range(test) -> bool:
    return any(isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops)
               and any(map(_is_bound, [node.left, *node.comparators]))
               or isinstance(node, ast.Call) and "isfinite" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))
               for node in ast.walk(test))


def _raises_a_value_error(body) -> bool:
    return any(isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
               and getattr(stmt.exc.func, "id", None) in ("ValueError", "ConfigError")
               for stmt in body)


def test_every_range_check_is_the_one_range_check():
    found = [(f"{module}.{getattr(top, 'name', '')}", node.lineno) for module in MODULES
             for top in _tree(module).body for node in ast.walk(top)
             if isinstance(node, ast.If) and _raises_a_value_error(node.body)
             and _checks_a_range(node.test)]
    assert found == [], found
    for test in ("not 0 < x < np.inf", "not np.all(v >= -1e-12)", "not math.isfinite(x)",
                 "any(k < 3 for k in n)"):
        assert _checks_a_range(ast.parse(test, mode="eval").body), test
    assert not _checks_a_range(ast.parse("not np.all(b[:, 1] > b[:, 0])", mode="eval").body)


# the kinds of Hamiltonian: only the class tells them apart, so a new
# kind needs no case outside its own methods (value, gradient, hessian,
# conjugate and the face weights)
HAMILTONIAN_KINDS = {"smoothed_norm", "quadratic"}


def _compares_a_hamiltonian_kind(operands):
    strings = {node.value for operand in operands for node in ast.walk(operand)
               if isinstance(node, ast.Constant)}
    return (any(isinstance(operand, ast.Attribute) and operand.attr == "kind"
                for operand in operands)
            and bool(strings & HAMILTONIAN_KINDS))


def test_hamiltonian_kinds_are_told_apart_only_inside_the_hamiltonian():
    found = [(where, line) for module in MODULES
             for where, line in _comparisons(_tree(module), module, _compares_a_hamiltonian_kind)]
    assert found and {where for where, _ in found} == {"control.Hamiltonian"}, found


def test_no_module_imports_scipy_optimize():
    found = []
    for module in MODULES + ["__init__"]:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.optimize") for name in names):
                found.append((module, node.lineno))
    assert found == [], found


# the Krylov solvers of scipy.sparse.linalg and its operator wrappers:
# the package's one GMRES is its own _coupled._gmres
KRYLOV = {"gmres", "lgmres", "gcrotmk", "bicg", "bicgstab", "cg", "cgs", "minres", "qmr",
          "tfqmr", "lsqr", "lsmr", "LinearOperator", "aslinearoperator"}


def test_no_module_calls_a_scipy_krylov_solver():
    found = [(where, line) for module in MODULES + ["__init__"]
             for where, line in _references(_tree(module), module, KRYLOV)]
    found += [(module, node.lineno) for module in MODULES + ["__init__"]
              for node in ast.walk(_tree(module)) if isinstance(node, ast.ImportFrom)
              and any(alias.name in KRYLOV for alias in node.names)]
    assert found == [], found
    defined = [f"{module}.{node.name}" for module in MODULES for node in ast.walk(_tree(module))
               if isinstance(node, ast.FunctionDef) and "gmres" in node.name.lower()]
    assert defined == ["_coupled._gmres"], defined


# the direct solvers of numpy and scipy, and the functions that may call
# them: the SuperLU call and the banded LU behind obstacle._lu_factor, the
# banded Cholesky of the shifted operators and the ordering of a pattern
DIRECT_SOLVERS = {"splu", "spilu", "spsolve", "factorized", "solve_banded", "solveh_banded",
                  "cholesky_banded", "cho_solve_banded", "dpbtrf", "dpbtrs", "dgbtrf",
                  "dgbtrs", "inv"}
FACTORING_FUNCTIONS = {"obstacle._splu_factor", "obstacle._band_lu_factor",
                       "obstacle._band_factor", "obstacle._elimination_order"}


def _direct_solves(node, module, scope=None):
    """(function, line) of each direct-solver call below node; function
    is module.name of the enclosing module-level function or method."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if scope is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{module}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            linalg_solve = (name == "solve" and isinstance(func, ast.Attribute)
                            and getattr(func.value, "attr", None) == "linalg")
            if name in DIRECT_SOLVERS or linalg_solve:
                yield inner or module, child.lineno
        yield from _direct_solves(child, module, inner)


def test_every_direct_solve_goes_through_lu_factor():
    found = [(where, line) for module in MODULES
             for where, line in _direct_solves(_tree(module), module)]
    assert found and {where for where, _ in found} <= FACTORING_FUNCTIONS, found


# the Newton steps of the penalized coupled systems, which only the one
# system builder may take: a second builder would need its own Jacobian
NEWTON_STEPS = {"_schur_step", "_whole_step"}


def _references(node, module, names, scope=None):
    """(function, line) of each use of one of names below node, by name
    or attribute; function is module.name of the enclosing module-level
    function."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if scope is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{module}.{child.name}"
        name = (child.id if isinstance(child, ast.Name)
                else child.attr if isinstance(child, ast.Attribute) else None)
        if name in names:
            yield inner or module, child.lineno
        yield from _references(child, module, names, inner)


def test_newton_steps_are_taken_only_by_the_one_system_builder():
    found = [(where, line) for module in MODULES
             for where, line in _references(_tree(module), module, NEWTON_STEPS)]
    assert found and {where for where, _ in found} == {"_coupled._frozen_system"}, found


# the Hamiltonian data of the controlled system: only the one state
# builder applies the difference matrices to u and only the positions
# builder lays out their stencils (the drift's among them), so the
# residual, the Jacobian, the verifier and the density steps read one
# source of H and of the drift
HAMILTONIAN_DATA = {"_gradient_matrices"}


def test_hamiltonian_data_is_evaluated_only_by_the_state_and_pattern_builders():
    found = [(where, line) for module in MODULES
             for where, line in _references(_tree(module), module, HAMILTONIAN_DATA)]
    assert {where for where, _ in found} == {"_coupled._hamiltonian_state",
                                             "_coupled._hamiltonian_positions"}, found


def test_the_jacobian_and_the_density_steps_take_their_drift_from_one_stencil_layout():
    # the drift stencils are laid out by _hamiltonian_positions alone and
    # given their values by _drift_values alone: the Jacobian's density
    # rows and the drifted density steps read both, and nothing else
    # builds a drift operator
    found = {name: {where for module in MODULES
                    for where, _ in _references(_tree(module), module, {name})}
             for name in ("_hamiltonian_positions", "_drift_values")}
    assert found == {
        "_hamiltonian_positions": {"_coupled._jacobian_assembler", "_coupled._hamiltonian_values",
                                   "_coupled._drift_values", "density._drifted_step"},
        "_drift_values": {"_coupled._hamiltonian_values", "density.solve_density_parabolic"},
    }, found


# the record of B = -lap + I/dt kept per grid and time step, through
# which obstacle._shifted_factor factors every B + diag(d)
BASE_OPERATOR = {"_BaseOperator", "_base_operator"}
# the matrices factored by LU outside obstacle: the whole Jacobian of the
# coupled systems, the exclusion-set operator and the drifted steps
LU_OUTSIDE_OBSTACLE = {"_coupled._whole_step", "density.solve_density_on_set",
                       "density.solve_density_parabolic"}


def test_the_base_operators_are_kept_and_factored_only_in_obstacle():
    found = [(where, line) for module in MODULES
             for where, line in _references(_tree(module), module, BASE_OPERATOR)]
    assert found and {where.split(".")[0] for where, _ in found} == {"obstacle"}, found
    found = [(where, line) for module in MODULES if module != "obstacle"
             for where, line in _references(_tree(module), module, {"_lu_solve", "_lu_factor"})]
    assert {where for where, _ in found} == LU_OUTSIDE_OBSTACLE, found


def test_hamiltonian_state_selects_the_upwind_difference_without_a_loop():
    state = _functions("_coupled")["_coupled._hamiltonian_state"]
    assert not any(isinstance(node, (ast.For, ast.AsyncFor, ast.While))
                   for node in ast.walk(state))


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _divides_by_dt(node) -> bool:
    """Whether node divides by dt, a name or an attribute."""
    return any(isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
               and "dt" in (getattr(child.right, "id", None), getattr(child.right, "attr", None))
               for child in ast.walk(node))


def test_time_is_stepped_only_by_the_one_sweep():
    # a loop that divides by dt steps time; the one that may is
    # _coupled._sweep, and every implicit Euler sweep of the package is
    # a call of it. Functions are the module-level ones and the methods
    # of module-level classes, each with the functions nested in it
    defs = {}
    for module in MODULES:
        for node in _tree(module).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                defs.update({f"{module}.{node.name}.{item.name}": item for item in node.body
                             if isinstance(item, ast.FunctionDef)})
    found = sorted(name for name, node in defs.items()
                   if any(isinstance(loop, LOOPS) and _divides_by_dt(loop)
                          for loop in ast.walk(node)))
    assert found == ["_coupled._sweep"], found


# the verifiers and the one residual core behind them
VERIFIERS = {"stationary.verify_mixed", "evolutive.verify_mixed_evolutive",
             "control.verify_cosmfg"}


def _functions(module):
    """module.name -> node of every module-level function of module."""
    return {f"{module}.{node.name}": node for node in _tree(module).body
            if isinstance(node, ast.FunctionDef)}


def test_every_verifier_takes_its_residuals_from_the_one_core_without_a_slice_loop():
    functions = {name: node for module in MODULES for name, node in _functions(module).items()}
    callers = {where for module in MODULES
               for where, _ in _references(_tree(module), module, {"_residuals"})}
    assert callers == VERIFIERS, callers
    loops = (ast.For, ast.While, ast.comprehension)
    for name in VERIFIERS | {"_coupled._residuals"}:
        assert not any(isinstance(node, loops) for node in ast.walk(functions[name])), name


def test_hamiltonian_state_is_made_only_by_the_solver_the_core_and_face_drift():
    found = [(where, line) for module in MODULES
             for where, line in _references(_tree(module), module, {"_hamiltonian_state"})]
    assert {where for where, _ in found} == {"_coupled._frozen_system", "_coupled._residuals",
                                             "control.face_drift"}, found


# the one penalty stage of the coupled systems: only it builds their
# Newton system, and the two public stage solvers, its one-slice and
# K-slice calls, run no Newton of their own
STAGE_SOLVERS = {"stationary.penalized_coupled_solve", "_coupled.forward_backward_solve"}


def test_every_coupled_newton_runs_in_the_one_penalized_stage():
    builders = {where for module in MODULES
                for where, _ in _references(_tree(module), module, {"_frozen_system"})}
    assert builders == {"_coupled._penalized_stage"}, builders
    functions = {name: node for module in MODULES for name, node in _functions(module).items()}
    for name in STAGE_SOLVERS:
        assert not list(_references(functions[name], name, {"semismooth_newton"})), name
        assert list(_references(functions[name], name, {"_penalized_stage"})), name


# the one penalty continuation: scenarios.solve_problem is the entry of
# every problem's continuation, and stationary._continuation, below it,
# nests the stationary one on coarser grids; the time-dependent modules
# build on no stationary solver
def test_the_penalty_continuation_has_one_entry():
    callers = {where for module in MODULES
               for where, _ in _references(_tree(module), module, {"penalty_continuation"})}
    assert callers == {"stationary._continuation", "scenarios.solve_problem"}, callers
    for module in ("evolutive", "control"):
        imported = [node.module for node in ast.walk(_tree(module))
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "stationary"]
        assert imported == [], module


# what tests/oracles.py may import from the package: the grid's data
# types and builders, so that no reference shares the assembly or the
# factorizations of the solves it judges
ORACLE_IMPORTS = {f"mfgstop.grid.{name}" for name in (
    "Grid", "TimeGrid", "ScalarField", "FieldTrajectory", "NodeMask", "build_grid",
    "build_timegrid")}


def test_the_oracles_import_only_the_grid_data_types_and_builders():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names if alias.name.split(".")[0] == "mfgstop"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mfgstop":
            taken |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert taken and taken <= ORACLE_IMPORTS, taken


# the one problem record: scenarios.problem_from_config builds every
# problem a config describes, so the CLI makes no grid, operator or field
# of its own, and the problem dispatch takes that record
PROBLEM_BUILDERS = {"build_grid", "build_timegrid", "_build_field", "_build_cost",
                    "raised_cosine_bump", "gaussian_density"}
PROBLEM_OPERATORS = {"CostOperator", "ObstacleOperator", "Hamiltonian"}


def test_the_cli_builds_no_problem_object():
    built = []
    for node in ast.walk(_tree("cli")):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        owner = func.value if isinstance(func, ast.Attribute) else func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in PROBLEM_BUILDERS or getattr(owner, "id", None) in PROBLEM_OPERATORS:
            built.append((name, node.lineno))
    assert built == []
    functions = _functions("cli")
    assert list(_references(functions["cli._run_config"], "cli", {"problem_from_config"}))


@pytest.mark.parametrize("name", ["solve_problem", "verify_problem"])
def test_the_problem_dispatch_takes_a_scenario(name):
    node = _functions("scenarios")[f"scenarios.{name}"]
    first = node.args.args[0]
    assert ast.unparse(first.annotation) == "Scenario"
    checks = [call for call in ast.walk(node) if isinstance(call, ast.Call)
              and getattr(call.func, "id", None) == "isinstance"]
    assert [ast.unparse(call) for call in checks] == [f"isinstance({first.arg}, Scenario)"]
