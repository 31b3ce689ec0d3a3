"""The package's public surface: every name a module exports exists, no
module keeps an import it does not use, so a deleted function left in an
``__all__`` or an import fails here, and the package namespace re-exports
nothing, so importing one module loads only what that module imports.
Files are opened in one reader and one writer only."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cospectral

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(cospectral.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cospectral.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


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
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.stem}.{name}" for node in tree.body for name in _bound_names(node)
                   if name not in used]
    assert unused == []


def test_importing_one_module_loads_only_its_imports():
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cospectral.words; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
        cwd=Path(cospectral.__file__).parent.parent,
    ).stdout.split()
    assert [m for m in loaded if m.startswith("cospectral")] == [
        "cospectral", "cospectral.errors", "cospectral.words",
    ]
    assert "numpy" not in loaded


def test_files_are_opened_only_by_the_text_reader_and_writer():
    calls = []
    for path in sorted(Path(cospectral.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                calls.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
    assert sorted(calls) == ["errors._read_text", "experiments._write_text"]
