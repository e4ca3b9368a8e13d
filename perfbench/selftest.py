"""Self-checks of the benchmark itself; not part of a timed run.

    python3 perfbench/selftest.py

1. ``ratio-map`` prints identical bytes with ``--threads 1`` and ``--threads 2``
   (values must not depend on the worker count).
2. Two traced runs of every workload, each in a fresh process, report
   identical work counts (spectrum points, quadrature evaluations, reduced
   elements, fidelity calls, ...), so a later change can cite a count.
3. Every stored reference output passes its own check, and a copy with one
   value moved by ten times the check's tolerance fails it.

Takes about six minutes on two cores.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_threads() -> list[str]:
    op = workloads.WORKLOADS["ratio-map"].ops[0]
    outputs = {}
    for threads in ("1", "2"):
        argv = list(op.argv)
        argv[argv.index("--threads") + 1] = threads
        code, outputs[threads] = workloads.execute(workloads.Op(op.name, tuple(argv), op.check))
        if code != 0:
            return [f"ratio-map --threads {threads} exited with {code}"]
    if outputs["1"] != outputs["2"]:
        return ["ratio-map output differs between --threads 1 and --threads 2"]
    return []


def traced_counts(name: str) -> dict:
    cmd = [sys.executable, run.WORKER, "--workload", name, "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True,
                          timeout=600, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["problems"]:
        raise AssertionError(f"{name}: {report['problems']}")
    return {k: report["layers"][k] for k in tracing.COUNT_METRICS}


def check_counts() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        print(f"  {name}: " + ", ".join(f"{k}={v:.0f}" for k, v in first.items()))
        problems += [f"{name}: {k} {first[k]} != {second[k]} between runs"
                     for k in first if first[k] != second[k]]
    return problems


def _perturb(op: workloads.Op, text: str) -> str:
    """Move one value of an output by ten times what its check allows."""
    step = 10.0 * op.tol
    if op.check in ("sweep", "ratio-map"):
        lines = text.split("\n")
        rows = [line.split(",") for line in lines[1:] if line]
        value = float(rows[0][-1])
        if op.check == "sweep":
            step *= max(abs(float(r[-1])) for r in rows)
        else:
            step *= max(abs(value), 1.0) + max(value * value, abs(value))
        rows[0][-1] = repr(value + step)
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    doc = json.loads(text)
    if op.check == "scaling":
        doc["samples"][0][1] += step * max(abs(g) for _, g in doc["samples"])
        return json.dumps(doc)
    # tensor checks judge against both parts, the oracle route by route
    parts = [doc["oracle"]["classical"]] if op.check == "oracle" else [
        doc["classical"], doc["nonclassical"]]
    parts[0][1][1] += step * max(abs(v) for m in parts for row in m for v in row)
    return json.dumps(doc)


def check_gate() -> list[str]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["ops"]
    problems = []
    for wl in workloads.WORKLOADS.values():
        for op in wl.ops:
            text = reference[op.name]["output"]
            if workloads.check(op, text, text):
                problems.append(f"{op.name}: reference output fails its own check")
            if not workloads.check(op, _perturb(op, text), text):
                problems.append(f"{op.name}: check accepts an output moved by 10x tolerance")
    return problems


def main() -> int:
    problems = []
    for title, fn in (("output gate", check_gate),
                      ("ratio-map threads 1 vs 2", check_threads),
                      ("work counts in two fresh runs", check_counts)):
        print(f"{title} ...", flush=True)
        found = fn()
        print("  ok" if not found else "\n".join(f"  FAIL {p}" for p in found), flush=True)
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
