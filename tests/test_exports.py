"""Every name a module exports in ``__all__`` exists: a stale entry left by
a deletion would otherwise pass ``import`` silently and fail only at
``from module import *``.  And the package imports nothing beyond numpy and
the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import kitaev_bures

MODULES = [
    importlib.import_module(f"kitaev_bures.{info.name}")
    for info in pkgutil.iter_modules(kitaev_bures.__path__)
]


def test_every_module_with_an_export_list_is_checked():
    assert {m.__name__ for m in MODULES if hasattr(m, "__all__")} >= {
        "kitaev_bures.bures", "kitaev_bures.quadrature", "kitaev_bures.scaling",
        "kitaev_bures.spectrum", "kitaev_bures.thermal_metric",
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_the_package_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency; scipy, mpmath and hypothesis
    # are installed for the tests, so an import of one would still run here
    imported = set()
    for source in Path(kitaev_bures.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert sorted(imported - set(sys.stdlib_module_names) - {"numpy"}) == []
