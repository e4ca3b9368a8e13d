"""Regenerate ``reference.json``: the output of every benchmark operation.

The stored outputs are what the correctness gate compares against, each
within its command's own tolerance.  Regenerate only on purpose (for a
change that is meant to move values) and say so where the change is
described:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ops = {}
    for wl in workloads.WORKLOADS.values():
        for op in wl.ops:
            code, text = workloads.execute(op)
            if code != 0:
                sys.stderr.write(f"{op.name} failed with exit code {code}:\n{text}")
                return 1
            ops[op.name] = {"workload": wl.name, "argv": list(op.argv), "output": text}
    doc = {"source": f"kitaev_bures at commit {_commit()}", "ops": ops}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
