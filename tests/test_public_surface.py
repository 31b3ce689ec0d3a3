"""The package's public surface: every name a module exports exists, and the
package namespace re-exports only names their modules list as public, so a
deleted function left in an ``__all__`` or an import fails here."""

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
