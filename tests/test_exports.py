"""Every name a module exports in ``__all__`` exists: a stale entry left by
a deletion would otherwise pass ``import`` silently and fail only at
``from module import *``."""

import importlib
import pkgutil

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
