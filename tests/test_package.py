"""Static checks of the package's names, read from the sources with ast:
every __all__ entry resolves, the package __init__ imports only names
its modules export, and no module imports a name it never uses."""

import ast
import importlib
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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(_exports(tree))) == []
