"""The benchmark must still fit the package.

``perfbench/tracing.py`` rebinds public names of the package's modules
(``thermal_metric.compensated_sum``, ``cli.tensor_finite``, ...) to time the
layers.  A rename or deletion of one of those names breaks only traced
benchmark runs; installing and removing the tracer here makes it fail in the
test suite too.  Likewise every benchmark operation runs here through
``perfbench/workloads.py`` and its output must pass the benchmark's own
check against ``perfbench/reference.json``.
"""

import json

import pytest

from helpers import PERFBENCH, load_perfbench as _load
from kitaev_bures import bures, cli, quadrature, scaling, thermal_metric

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["ops"]


def test_tracer_installs_and_restores_every_name():
    modules = (bures, cli, quadrature, scaling, thermal_metric)
    before = [dict(vars(m)) for m in modules]
    tracer = _load("tracing").Tracer()
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


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", list(REFERENCE))
def test_benchmark_output_passes_its_gate(workloads, name):
    # each benchmark operation, run as the benchmark runs it, must pass its
    # own check against the stored reference: an output pushed past its
    # gate fails here, not only in a benchmark run.  A second run must
    # give the same bytes: an output depends on its operation alone
    [op] = [op for w in workloads.WORKLOADS.values() for op in w.ops if op.name == name]
    code, text = workloads.execute(op)
    assert code == 0, text
    assert workloads.check(op, text, REFERENCE[name]["output"]) == []
    assert workloads.execute(op) == (code, text)


@pytest.mark.parametrize("name", ["critical", "gapped", "gapless"])
def test_benchmark_output_passes_its_gate_under_the_tracer(workloads, name):
    # the tracer calls integrate_bz(f, grid) and integrate_bz_refined(f,
    # disk, r_min, grid, radius=...) through its own wrappers: a call
    # shape they do not pass on breaks only traced runs, and fails here.
    # critical refines a corner disk (its own mirror), gapless a +-K disk
    # (the half disk that -s leaves), gapped none.  The wrappers must leave
    # every rule as it is, so the traced output is the untraced one
    tracing = _load("tracing")
    [op] = [op for op in workloads.WORKLOADS["tensor-phases"].ops if op.name == name]
    tracer = tracing.Tracer()
    with tracer.installed():
        code, text = workloads.execute(op)
    assert code == 0, text
    assert workloads.check(op, text, REFERENCE[name]["output"]) == []
    assert workloads.execute(op) == (code, text)
    quadrature_spans = {tracing.BASE} | ({tracing.REFINED} if name != "gapped" else set())
    assert quadrature_spans <= {span.name for span in tracer.spans}
