"""Outside-in layer tracing for the benchmark.

Nothing inside ``kitaev_bures`` knows about this module.  ``Tracer.installed``
rebinds public names at the places where the consumer modules look them up
(``thermal_metric.spectral_arrays``, ``quadrature.integrate_bz``,
``scaling.tensor_thermodynamic``, ...), wraps the integrand handed to the
quadrature and the pair fidelity handed to the finite-difference metric, and
restores every original name on exit.

Each call becomes a span: name, enclosing span, start/end times and work
counts.  Spans of one benchmark pass share a pass id, and spans serving one
operation share its name, also on the pool threads where ratio-map cells
run.  Stacks are kept per thread because those cells overlap.  Spans stay in
memory; ``write_jsonl`` dumps them when the run ends.

A span's self time is its duration minus the durations of its direct
children (children always run on the span's own thread), so on a
single-threaded pass the self times of all spans partition the pass wall
time exactly.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time

import numpy as np

from kitaev_bures import bures, cli, quadrature, scaling, thermal_metric

# span names, grouped by the layer they report on
PASS = "bench.pass"
CLI = "cli"
TENSOR = "tensor"
MAP = "scaling.map"
CELL = "scaling.cell"
FIT = "scaling.fit"
REFINED = "quadrature.disk"
BASE = "quadrature.base"
INTEGRAND = "thermal_metric.kernel"
SPECTRUM = "spectrum"
REDUCE = "reduce"
FD = "bures.fd"
FIDELITY = "bures.fidelity"
DECOMP = "bures.decomp"
ANALYTIC = "bures.analytic"

# work counts that must repeat exactly from pass to pass and run to run
COUNT_METRICS = (
    "spectrum.calls",
    "spectrum.points",
    "quadrature.base_evals",
    "quadrature.disk_evals",
    "quadrature.doublings",
    "quadrature.nonconverged",
    "reduce.calls",
    "reduce.elements",
    "bures.fidelity_calls",
    "scaling.cells",
    "scaling.cells_failed",
    "trace.spans",
)

# every metric the traced run reports, with its unit
LAYER_METRICS = {
    "spectrum.calls": "count",
    "spectrum.points": "count",
    "spectrum.busy_s": "s",
    "spectrum.ns_per_point": "ns",
    "thermal_metric.kernel_s": "s",
    "thermal_metric.kernel_ns_per_point_component": "ns",
    "quadrature.base_s": "s",
    "quadrature.base_evals": "count",
    "quadrature.disk_s": "s",
    "quadrature.disk_evals": "count",
    "quadrature.disk_ns_per_node": "ns",
    "quadrature.doublings": "count",
    "quadrature.nonconverged": "count",
    "reduce.calls": "count",
    "reduce.elements": "count",
    "reduce.busy_s": "s",
    "reduce.ns_per_element": "ns",
    "bures.fd_s": "s",
    "bures.fidelity_calls": "count",
    "bures.fidelity_s": "s",
    "bures.decomp_s": "s",
    "bures.analytic_s": "s",
    "scaling.cells": "count",
    "scaling.cells_failed": "count",
    "scaling.cell_busy_s": "s",
    "scaling.cell_cpu_s": "s",
    "scaling.parallel_eff": "ratio",
    "scaling.fit_s": "s",
    "cli.self_s": "s",
    "tensor.self_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def _points(px, py) -> int:
    return int(np.broadcast(np.asarray(px), np.asarray(py)).size)


class Span:
    """One call into a layer.  Work counts are filled in by the wrappers."""

    __slots__ = ("name", "parent", "pass_id", "op", "t0", "t1", "children_s", "failed",
                 "cpu", "points", "comps", "quadrature", "doublings", "converged", "workers")

    def __init__(self, name, parent, pass_id, op):
        self.name = name
        self.parent = parent      # enclosing span on the same thread
        self.pass_id = pass_id
        self.op = op              # operation (request) the span serves
        self.t0 = self.t1 = 0.0
        self.children_s = 0.0
        self.failed = False
        self.cpu = None           # thread CPU seconds, map cells only
        self.points = 0           # momenta evaluated, or elements reduced
        self.comps = 0            # integrand components per point
        self.quadrature = None    # integrand: enclosing quadrature span name
        self.doublings = 0        # base trapezoid: resolution doublings
        self.converged = None     # outermost quadrature call: its flag
        self.workers = 1          # ratio map: worker threads

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Collects spans from rebound library entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = -1
        self.op = ""
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, cpu: bool = False):
        stack = self._stack()
        s = Span(name, stack[-1] if stack else None, self.pass_id, self.op)
        self.spans.append(s)  # list.append is atomic under the GIL
        stack.append(s)
        c0 = time.thread_time() if cpu else 0.0
        s.t0 = time.perf_counter()
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.t1 = time.perf_counter()
            if cpu:
                s.cpu = time.thread_time() - c0
            stack.pop()
            if s.parent is not None:
                s.parent.children_s += s.duration

    def pass_span(self, pass_id: int):
        """Root span of one benchmark pass; later spans carry its id."""
        self.pass_id = pass_id
        return self.span(PASS)

    def _enclosing_quadrature(self) -> str | None:
        for s in reversed(self._stack()):
            if s.name in (BASE, REFINED):
                return s.name
        return None

    # -- wrappers -----------------------------------------------------------

    def _plain(self, name, fn, *, cpu=False):
        def wrapped(*args, **kwargs):
            with self.span(name, cpu=cpu):
                return fn(*args, **kwargs)
        return wrapped

    def _spectrum(self, fn):
        def wrapped(px, py, couplings):
            with self.span(SPECTRUM) as s:
                s.points = _points(px, py)
                return fn(px, py, couplings)
        return wrapped

    def _integrand(self, f):
        def wrapped(px, py):
            with self.span(INTEGRAND) as s:
                s.points = _points(px, py)
                s.quadrature = self._enclosing_quadrature()
                out = f(px, py)
                s.comps = int(np.size(out)) // max(s.points, 1)
                return out
        return wrapped

    def _base(self, fn, *, outer: bool):
        def wrapped(f, grid):
            with self.span(BASE) as s:
                res = fn(self._integrand(f) if outer else f, grid)
                s.doublings = _doublings(grid.base_n, res.evaluations)
                if outer:
                    s.converged = res.converged
                return res
        return wrapped

    def _refined(self, fn):
        def wrapped(f, singular_pts, width, grid, **kwargs):
            with self.span(REFINED) as s:
                res = fn(self._integrand(f), singular_pts, width, grid, **kwargs)
                s.converged = res.converged
                return res
        return wrapped

    def _reduce(self, fn):
        def wrapped(values, **kwargs):
            with self.span(REDUCE) as s:
                s.points = int(np.size(values))
                return fn(values, **kwargs)
        return wrapped

    def _fd(self, fn):
        def wrapped(pair_fidelity, lambda0, step):
            def fidelity(a, b):
                with self.span(FIDELITY):
                    return pair_fidelity(a, b)
            with self.span(FD):
                return fn(fidelity, lambda0, step)
        return wrapped

    def _map(self, fn):
        def wrapped(*args, **kwargs):
            with self.span(MAP) as s:
                s.workers = kwargs.get("threads") or 1
                return fn(*args, **kwargs)
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        tm = thermal_metric
        plan = [
            (tm, "spectral_arrays", self._spectrum),
            (tm, "integrate_bz", lambda fn: self._base(fn, outer=True)),
            (tm, "integrate_bz_refined", self._refined),
            (quadrature, "integrate_bz", lambda fn: self._base(fn, outer=False)),
            (quadrature, "compensated_sum", self._reduce),
            (tm, "compensated_sum", self._reduce),
            (bures, "finite_difference_metric_pairs", self._fd),
            (bures, "spectral_decomposition", lambda fn: self._plain(DECOMP, fn)),
            (bures, "analytic_metric", lambda fn: self._plain(ANALYTIC, fn)),
            (tm, "tensor_finite", lambda fn: self._plain(TENSOR, fn)),
            (tm, "tensor_oracle", lambda fn: self._plain(TENSOR, fn)),
            (cli, "main", lambda fn: self._plain(CLI, fn)),
            (cli, "tensor_thermodynamic", lambda fn: self._plain(TENSOR, fn)),
            (cli, "tensor_finite", lambda fn: self._plain(TENSOR, fn)),
            (scaling, "tensor_thermodynamic", lambda fn: self._plain(CELL, fn, cpu=True)),
            (scaling, "ratio_map", self._map),
        ]
        plan += [(scaling, fit, lambda fn: self._plain(FIT, fn))
                 for fit in ("fit_log_divergence", "fit_power_law")]
        saved = []
        try:
            for module, attr, make in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reporting ----------------------------------------------------------

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Layer metrics of one traced pass (times in s, counts exact)."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        by: dict[str, list[Span]] = {}
        for s in spans:
            by.setdefault(s.name, []).append(s)

        def get(name):
            return by.get(name, [])

        def total(name, attr="duration"):
            return sum(getattr(s, attr) for s in get(name))

        def per(busy, count, scale=1e9):
            return busy * scale / count if count else 0.0

        m: dict[str, float] = {}
        spec = get(SPECTRUM)
        m["spectrum.calls"] = len(spec)
        m["spectrum.points"] = sum(s.points for s in spec)
        m["spectrum.busy_s"] = total(SPECTRUM)
        m["spectrum.ns_per_point"] = per(m["spectrum.busy_s"], m["spectrum.points"])

        kern = get(INTEGRAND)
        m["thermal_metric.kernel_s"] = total(INTEGRAND, "self_s")
        m["thermal_metric.kernel_ns_per_point_component"] = per(
            m["thermal_metric.kernel_s"], sum(s.points * s.comps for s in kern))

        base = get(BASE)
        m["quadrature.base_s"] = total(BASE, "self_s")
        m["quadrature.base_evals"] = sum(s.points for s in kern if s.quadrature == BASE)
        m["quadrature.disk_s"] = total(REFINED, "self_s")
        m["quadrature.disk_evals"] = sum(s.points for s in kern if s.quadrature == REFINED)
        m["quadrature.disk_ns_per_node"] = per(
            m["quadrature.disk_s"], m["quadrature.disk_evals"])
        m["quadrature.doublings"] = sum(s.doublings for s in base)
        m["quadrature.nonconverged"] = sum(
            1 for s in base + get(REFINED) if s.converged is False)

        red = get(REDUCE)
        m["reduce.calls"] = len(red)
        m["reduce.elements"] = sum(s.points for s in red)
        m["reduce.busy_s"] = total(REDUCE)
        m["reduce.ns_per_element"] = per(m["reduce.busy_s"], m["reduce.elements"])

        m["bures.fd_s"] = total(FD, "self_s")
        m["bures.fidelity_calls"] = len(get(FIDELITY))
        m["bures.fidelity_s"] = total(FIDELITY, "self_s")
        m["bures.decomp_s"] = total(DECOMP, "self_s")
        m["bures.analytic_s"] = total(ANALYTIC, "self_s")

        cells = get(CELL)
        maps = get(MAP)
        m["scaling.cells"] = len(cells)
        m["scaling.cells_failed"] = sum(1 for s in cells if s.failed)
        m["scaling.cell_busy_s"] = total(CELL)
        m["scaling.cell_cpu_s"] = sum(s.cpu for s in cells)
        capacity = sum(s.duration * s.workers for s in maps)
        m["scaling.parallel_eff"] = m["scaling.cell_busy_s"] / capacity if capacity else 0.0
        m["scaling.fit_s"] = total(FIT)

        m["cli.self_s"] = total(CLI, "self_s")
        m["tensor.self_s"] = total(TENSOR, "self_s") + total(CELL, "self_s")
        m["bench.self_s"] = total(PASS, "self_s")
        m["trace.spans"] = len(spans)
        return m

    def main_thread_self_s(self, pass_id: int) -> float:
        """Sum of self times of the spans on the pass's own thread."""
        root = next(s for s in self.spans if s.pass_id == pass_id and s.name == PASS)
        total = 0.0
        for s in self.spans:
            if s.pass_id != pass_id:
                continue
            top = s
            while top.parent is not None:
                top = top.parent
            if top is root:
                total += s.self_s
        return total

    def write_jsonl(self, path: str):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "pass": s.pass_id,
                    "op": s.op,
                    "start": s.t0,
                    "end": s.t1,
                    "self_s": s.self_s,
                }
                if s.points:
                    rec["points"] = s.points
                if s.comps:
                    rec["components"] = s.comps
                if s.cpu is not None:
                    rec["cpu_s"] = s.cpu
                if s.failed:
                    rec["failed"] = True
                fh.write(json.dumps(rec) + "\n")


def _doublings(base_n: int, evaluations: int) -> int:
    """Resolution doublings of one ``integrate_bz`` call, from its node count."""
    n, seen, d = base_n, base_n * base_n, 0
    while seen < evaluations:
        n *= 2
        seen += n * n
        d += 1
    return d


def summarize(tracer: Tracer, pass_ids: list[int]) -> tuple[dict, list[str]]:
    """Median layer metrics over traced passes, plus count mismatches."""
    per_pass = [tracer.pass_metrics(p) for p in pass_ids]
    problems = []
    for name in COUNT_METRICS:
        values = {m[name] for m in per_pass}
        if len(values) > 1:
            problems.append(f"work count {name} differs between passes: {sorted(values)}")
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    return out, problems
