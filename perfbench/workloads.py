"""Benchmark workloads: the operations of one pass and the checks on their output.

Every operation goes through a public entry point: ``kitaev_bures.cli.main``
for the commands that exist on the command line, and
``thermal_metric.tensor_oracle`` / ``tensor_finite`` for the oracle.  Names
are looked up on their modules at call time, so the tracer's rebinding
reaches them.

Each check compares an output with the reference stored in
``reference.json`` (made by ``make_reference.py``) within the command's own
tolerance, and returns a list of problems (empty when the output is good).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from kitaev_bures import cli, thermal_metric
from kitaev_bures.spectrum import Couplings

THIRD = repr(1.0 / 3.0)
TWO_THIRDS = repr(2.0 / 3.0)

# Finite-size sums and the oracle have no quadrature tolerance; they are
# judged against the largest entry of the same output, loosely enough to
# admit a reordered floating-point reduction and tightly enough to catch a
# changed formula.  The oracle amplifies rounding by 1/step^2 = 1e8.
FINITE_RTOL = 1e-9
ORACLE_RTOL = 1e-7
# acceptance criterion 1: the oracle equals the finite sums entrywise
ORACLE_AGREEMENT_RTOL = 1e-4
QUADRATURE_DEFAULT_TOL = 1e-6  # `tensor` default --tol


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation, or the oracle cross-check."""

    name: str
    argv: tuple[str, ...]
    check: str
    tol: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    ops: tuple[Op, ...]
    why: str


def _tensor(name, jx, jy, jz, temp, *extra, check="tensor", tol=QUADRATURE_DEFAULT_TOL):
    argv = ("tensor", "--jx", jx, "--jy", jy, "--jz", jz, "--temp", temp) + extra
    return Op(name, argv, check, tol)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tensor-phases",
            1,
            (
                _tensor("gapped", "0.1", "0.1", "0.8", "0.5"),
                _tensor("gapless", THIRD, THIRD, THIRD, "0.01"),
                _tensor("critical", "0.25", "0.25", "0.5", "0.01"),
                _tensor("near-critical", "0.255", "0.255", "0.49", "0.002"),
            ),
            "all 16 components at one temperature per phase: integrand kernels "
            "and disk refinement dominate, temperature batching is bypassed",
        ),
        Workload(
            "scaling-sweep",
            1,
            (
                Op("gapless-log",
                   ("scaling", "--jx", "0.3333", "--jy", "0.3333", "--jz", "0.3334",
                    "--tmin", "1e-3", "--tmax", "1e-2", "--points", "6",
                    "--tol", "1e-6", "--model", "log", "--element", "nc:jz-jz"),
                   "scaling", 1e-6),
                Op("critical-power",
                   ("scaling", "--jx", "0.25", "--jy", "0.25", "--jz", "0.5",
                    "--tmin", "1e-4", "--tmax", "1e-2", "--points", "6",
                    "--tol", "1e-6", "--model", "power", "--element", "nc:jz-jz"),
                   "scaling", 1e-6),
            ),
            "one component over many temperatures at one coupling: spectrum and "
            "quadrature dominate, the target of temperature batching",
        ),
        Workload(
            "ratio-map",
            2,
            (
                Op("map-8x8",
                   ("ratio-map", "--res", "8x8", "--jz-min", "0.56", "--jz-max", "0.70",
                    "--t-min", "0.002", "--t-max", "0.05", "--tol", "1e-4",
                    "--threads", "2"),
                   "ratio-map", 1e-4),
            ),
            "64 independent cells on 2 threads: the only workload with cell "
            "scheduling and two threads contending for the interpreter lock",
        ),
        Workload(
            "finite-oracle",
            1,
            (
                Op("sweep-L101",
                   ("sweep", "--path", f"start={TWO_THIRDS},0,{THIRD}",
                    f"end=0,{TWO_THIRDS},{THIRD}", "--steps", "81",
                    "--temp", "0.01", "--size", "101"),
                   "sweep", FINITE_RTOL),
                _tensor("gapped-L1001", "0.1", "0.1", "0.8", "0.5", "--size", "1001",
                        check="tensor", tol=FINITE_RTOL),
                Op("oracle-L101", ("oracle", "0.4", "0.3", "0.3", "0.5", "101"),
                   "oracle", ORACLE_RTOL),
            ),
            "no quadrature: finite momentum sums, reductions, the bures module "
            "and the grid spectrum dominate; memory grows as L^2",
        ),
    )
}

# run once in every fresh process before the first timed operation
WARMUP = (
    ("tensor", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--temp", "0.5"),
    ("tensor", "--jx", "0.1", "--jy", "0.1", "--jz", "0.8", "--temp", "0.5", "--size", "5"),
)


def execute(op: Op) -> tuple[int, str]:
    """Run one operation; return its exit code and output text."""
    if op.check == "oracle":
        return 0, _oracle_output(*op.argv[1:])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    text = out.getvalue()
    if code != 0:
        text += err.getvalue()
    return code, text


def _oracle_output(jx, jy, jz, temp, size) -> str:
    tp = thermal_metric.ThermoPoint.from_temperature(
        Couplings(float(jx), float(jy), float(jz)), float(temp))
    orc = thermal_metric.tensor_oracle(tp, int(size))
    fin = thermal_metric.tensor_finite(tp, int(size))
    d = orc.evaluation.details
    doc = {
        "oracle": {
            "classical": orc.classical.tolist(),
            "nonclassical": orc.nonclassical.tolist(),
            "fd_classical": d["fd_classical"].tolist(),
            "fd_nonclassical": d["fd_nonclassical"].tolist(),
        },
        "finite": {
            "classical": fin.classical.tolist(),
            "nonclassical": fin.nonclassical.tolist(),
        },
    }
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# checks


def check(op: Op, text: str, reference: str) -> list[str]:
    try:
        return _CHECKS[op.check](op, text, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"]


def _within(name, actual, expected, tol, scale=None) -> list[str]:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return [f"{name}: shape {a.shape} != reference {e.shape}"]
    if scale is None:
        scale = float(np.max(np.abs(e))) if e.size else 0.0
    dev = float(np.max(np.abs(a - e))) if a.size else 0.0
    if not dev <= tol * scale:
        return [f"{name}: deviation {dev:.3e} from reference exceeds {tol:g} x {scale:.3e}"]
    return []


def _check_tensor(op, text, reference):
    got, ref = json.loads(text), json.loads(reference)
    problems = []
    if got["params"] != ref["params"] or got["phase"] != ref["phase"]:
        problems.append(f"{op.name}: params or phase differ from reference")
    expected = np.array([ref["classical"], ref["nonclassical"]])
    actual = np.array([got["classical"], got["nonclassical"]])
    return problems + _within(op.name, actual, expected, op.tol)


def _read_csv(text):
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_sweep(op, text, reference):
    head, rows = _read_csv(text)
    ref_head, ref_rows = _read_csv(reference)
    if head != ref_head or len(rows) != len(ref_rows):
        return [f"{op.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    if any(r[:6] != q[:6] for r, q in zip(rows, ref_rows)):
        return [f"{op.name}: sweep coordinates differ from reference"]
    actual = np.array([[float(v) for v in r[6:]] for r in rows])
    expected = np.array([[float(v) for v in q[6:]] for q in ref_rows])
    return (_within(f"{op.name} classical", actual[:, 0], expected[:, 0], op.tol)
            + _within(f"{op.name} nonclassical", actual[:, 1], expected[:, 1], op.tol))


def _check_scaling(op, text, reference):
    got, ref = json.loads(text), json.loads(reference)
    problems = []
    if got["params"] != ref["params"] or got["fit"]["model"] != ref["fit"]["model"]:
        problems.append(f"{op.name}: params or fit model differ from reference")
    s, r = np.array(got["samples"]), np.array(ref["samples"])
    if s.shape != r.shape or not np.array_equal(s[:, 0], r[:, 0]):
        return problems + [f"{op.name}: sample temperatures differ from reference"]
    problems += _within(f"{op.name} samples", s[:, 1], r[:, 1], op.tol)
    # refit the reported samples independently of the library's fitting code
    t, g = s[:, 0], s[:, 1]
    params = got["fit"]["params"]
    if got["fit"]["model"] == "LogDivergenceFit":
        design, y, names = np.stack([np.log(1.0 / t), np.ones_like(t)], 1), g, ("a", "b")
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
    else:
        design, y = np.stack([np.log(t), np.ones_like(t)], 1), np.log(g)
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        coef[1] = math.exp(coef[1])
        names = ("exponent", "prefactor")
    for name, value in zip(names, coef):
        if not abs(params[name] - value) <= 1e-9 * max(abs(value), 1e-300):
            problems.append(f"{op.name}: fit {name}={params[name]!r}, refit gives {value!r}")
    return problems


def _check_ratio_map(op, text, reference):
    head, rows = _read_csv(text)
    ref_head, ref_rows = _read_csv(reference)
    if head != ref_head or len(rows) != len(ref_rows):
        return [f"{op.name}: {len(rows)} cells, reference has {len(ref_rows)}"]
    if any(r[:2] != q[:2] for r, q in zip(rows, ref_rows)):
        return [f"{op.name}: cell coordinates differ from reference"]
    bad = 0
    for r, q in zip(rows, ref_rows):
        got, ref = float(r[2]), float(q[2])
        # each part is within tol of the larger part, so the ratio c/nc is
        # within tol * (max(|r|, 1) + max(r^2, |r|))
        a = abs(ref)
        if not abs(got - ref) <= op.tol * (max(a, 1.0) + max(a * a, a)):
            bad += 1
    return [f"{op.name}: {bad} cells outside tolerance of reference"] if bad else []


def _check_oracle(op, text, reference):
    got, ref = json.loads(text), json.loads(reference)
    problems = []
    for route in ("classical", "nonclassical", "fd_classical", "fd_nonclassical"):
        problems += _within(f"{op.name} {route}", got["oracle"][route],
                            ref["oracle"][route], op.tol)
    for part in ("classical", "nonclassical"):
        problems += _within(f"{op.name} finite {part}", got["finite"][part],
                            ref["finite"][part], FINITE_RTOL)
        target = np.asarray(got["finite"][part])
        for route in (part, "fd_" + part):
            if not _entrywise_close(got["oracle"][route], target, ORACLE_AGREEMENT_RTOL):
                problems.append(f"{op.name}: oracle {route} disagrees with finite sums")
    return problems


def _entrywise_close(actual, expected, rtol, scale_frac=1e-3) -> bool:
    """Entrywise relative agreement, with an absolute floor for near-zero entries."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return bool(np.all(np.abs(actual - expected)
                       <= rtol * np.maximum(np.abs(expected), scale_frac * scale)))


_CHECKS = {
    "tensor": _check_tensor,
    "sweep": _check_sweep,
    "scaling": _check_scaling,
    "ratio-map": _check_ratio_map,
    "oracle": _check_oracle,
}
