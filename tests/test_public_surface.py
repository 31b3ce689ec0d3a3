"""The package's public surface: every name a module exports exists, the
package namespace re-exports only names their modules list as public, and no
module keeps an import it does not use, so a deleted function left in an
``__all__`` or an import fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cospectral

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(cospectral.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cospectral.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    unlisted = []
    for node in ast.parse(Path(cospectral.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"cospectral.{node.module}")
            public = getattr(module, "__all__", None)
            if public is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert unlisted == []


def _bound_names(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.partition(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def test_no_module_keeps_an_unused_import():
    unused = []
    for path in sorted(Path(cospectral.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.stem}.{name}" for node in tree.body for name in _bound_names(node)
                   if name not in used]
    assert unused == []
