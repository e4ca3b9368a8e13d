"""Benchmark of kitaev_bures: end-to-end timings and an outside-in layer trace.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh processes (see
``worker.py``): a few set-up probes that import the package and warm it up,
then one process that runs closed-loop passes of the workload for about
``--seconds`` seconds (an untimed first pass, then at least two timed ones)
and checks every output.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every output passed its check; a
checkout without the package exits with code 2 and prints no result.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "kitaev_bures", "cli.py")
RESULT_DIR = ".perfbench"
WORKLOADS = ("tensor-phases", "scaling-sweep", "ratio-map", "finite-oracle")
SETUP_PROBES = 6
DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "run_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILE = 90
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("KITAEV_BURES_THREADS", None)
    return env


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
    }


def _worker(args: list[str], deadline: float) -> dict:
    """Run one fresh worker process and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    cmd = [sys.executable, WORKER, "--spawn-time", repr(time.time())] + args
    try:
        proc = subprocess.run(cmd, cwd=os.getcwd(), env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _tail(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Measure one workload; return (metrics, report, human-readable lines)."""
    common = ["--workload", name, "--seed", str(seed)]
    probes = [] if trace else [
        _worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    rep = _worker(common + ["--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    lines = [f"workload {name}: seed {seed}, {rep['threads']} thread(s), closed loop, "
             f"one client, {'traced' if trace else 'untraced'}"]
    if trace:
        units = rep["layer_units"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in rep["layers"].items()}
        for k, m in metrics.items():
            lines.append(f"  {k:<46} {m['value']:>16.6g} {m['unit']}")
        lay = rep["layers"]
        lines.append(
            f"  self times of all spans sum to {rep['self_time_sum_s']:.4f} s of the "
            f"traced pass ({lay['trace.run_s']:.4f} s); tracing overhead "
            f"{lay['trace.overhead_s']:+.4f} s over the untraced pass "
            f"({lay['trace.untraced_run_s']:.4f} s)")
        lines.append(f"  spans written to {rep['spans_file']}")
    else:
        per_op = rep["op_latency_s"]
        lat = [x for xs in per_op.values() for x in xs]
        setups = probes + [rep["setup_s"]]
        values = {
            "run_s": statistics.median(rep["pass_s"]),
            "op_p50_s": statistics.median(statistics.median(xs) for xs in per_op.values()),
            "op_tail_s": _tail(lat),
            "cpu_s": statistics.median(rep["pass_cpu_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        beyond = sum(1 for x in lat if x > values["op_tail_s"])
        notes = {
            "run_s": f"median wall time of {len(rep['pass_s'])} passes after an untimed "
                     f"first pass of {rep['first_pass_s']:.3f} s",
            "op_p50_s": f"median over {len(per_op)} commands of each one's median "
                        f"latency ({len(lat)} samples)",
            "op_tail_s": f"p{TAIL_PERCENTILE} of {len(lat)} operation latencies, "
                         f"{beyond} beyond it",
            "cpu_s": "median process CPU time of a pass",
            "setup_s": f"median import + warm-up of {len(setups)} fresh processes",
            "peak_rss_mb": "peak resident set of the measuring process",
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, m in metrics.items():
            lines.append(f"  {k:<12} {m['value']:>12.6f} {m['unit']:<3} {notes[k]}")
    lines.append(f"  fail_ratio   {rep['failed']}/{rep['attempted']} operations failed")
    lines += [f"  FAILED CHECK: {p}" for p in rep["problems"]]
    return metrics, rep, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        sys.stderr.write(f"error: {PACKAGE} not found; run from a full checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    host = machine()
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            m, rep, lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         deadline)
        except BenchError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 3
        print("\n".join(lines), flush=True)
        host["numpy"] = rep["numpy"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += rep["attempted"]
        failed += rep["failed"]
        correct = correct and not rep["problems"]
        os.makedirs(RESULT_DIR, exist_ok=True)
        path = os.path.join(RESULT_DIR,
                            f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": host, "seconds": args.seconds, "metrics": m,
                       "report": rep}, fh, indent=1)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
