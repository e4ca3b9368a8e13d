"""The benchmark's layer tracer must still fit the package.

``perfbench/tracing.py`` rebinds public names of the package's modules
(``thermal_metric.compensated_sum``, ``cli.tensor_finite``, ...) to time the
layers.  A rename or deletion of one of those names breaks only traced
benchmark runs; installing and removing the tracer here makes it fail in the
test suite too.
"""

import importlib.util
from pathlib import Path

from kitaev_bures import bures, cli, quadrature, scaling, thermal_metric

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    modules = (bures, cli, quadrature, scaling, thermal_metric)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        rebound = [
            name
            for m, names in zip(modules, before)
            for name, obj in names.items()
            if vars(m)[name] is not obj
        ]
        assert "tensor_finite" in rebound and "compensated_sum" in rebound
    for m, names in zip(modules, before):
        assert all(vars(m)[name] is obj for name, obj in names.items())
