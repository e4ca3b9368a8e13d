"""One benchmark process: set up, run passes of a workload, report JSON.

``run.py`` starts this in a fresh process for every run (and for every
set-up probe), so import cost, caches and peak memory never carry over from
one workload or run to the next.  The last stdout line is a JSON document.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawn-time UNIX_TIME [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_PASSES = 2
SPAN_DIR = ".perfbench"


def _setup(spawn_time: float):
    """Import the package and warm it up; return (modules, setup seconds)."""
    import workloads

    for argv in workloads.WARMUP:
        workloads.execute(workloads.Op("warmup", argv, "tensor"))
    return workloads, time.time() - spawn_time


def _run_pass(workloads, order, reference, digests, tracer=None, pass_id=0):
    """Run every op of the workload once.

    Returns (wall, cpu, latency by op name, failed ops, problems)."""
    latencies, problems, failed = {}, [], 0
    c0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.pass_span(pass_id) if tracer else contextlib.nullcontext():
        for op in order:
            if tracer:
                tracer.op = op.name
            s = time.perf_counter()
            try:
                code, text = workloads.execute(op)
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                code, text = -1, f"{type(exc).__name__}: {exc}"
            latencies[op.name] = time.perf_counter() - s
            if code != 0:
                op_problems = [f"{op.name}: exit code {code}: {text.strip()[-300:]}"]
            else:
                op_problems = workloads.check(op, text, reference[op.name]["output"])
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != digests.setdefault(op.name, digest):
                    op_problems.append(f"{op.name}: output bytes differ between passes")
            failed += bool(op_problems)
            problems += op_problems
    wall = time.perf_counter() - t0
    return wall, time.process_time() - c0, latencies, failed, problems


def measure(args) -> dict:
    workloads, setup_s = _setup(args.spawn_time)
    if args.setup_only:
        return {"setup_s": setup_s}
    import numpy

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["ops"]
    rng = random.Random(args.seed)
    digests: dict[str, str] = {}
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "threads": wl.threads,
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "attempted": 0,
        "failed": 0,
        "problems": [],
    }

    def passes(budget, tracer=None, min_passes=MIN_PASSES):
        walls, cpus, lats = [], [], {op.name: [] for op in wl.ops}
        start = time.perf_counter()
        while len(walls) < min_passes or (
            time.perf_counter() - start + statistics.median(walls) <= budget
        ):
            order = list(wl.ops)
            rng.shuffle(order)
            wall, cpu, lat, failed, problems = _run_pass(
                workloads, order, reference, digests, tracer, len(walls))
            walls.append(wall)
            cpus.append(cpu)
            for op_name, seconds in lat.items():
                lats[op_name].append(seconds)
            result["attempted"] += len(order)
            result["failed"] += failed
            result["problems"] += problems
        return walls, cpus, lats

    # the first pass fills caches and allocator pools; it is checked, not timed
    warm, _, _ = passes(0.0, min_passes=1)
    result["first_pass_s"] = warm[0]
    budget = args.seconds - warm[0]
    if not args.trace:
        walls, cpus, lats = passes(budget)
        result.update(pass_s=walls, pass_cpu_s=cpus, op_latency_s=lats)
    else:
        import tracing

        # untraced passes first, for the tracing overhead, then traced ones
        plain, _, _ = passes(budget / 3.0, min_passes=1)
        tracer = tracing.Tracer()
        with tracer.installed():
            walls, _, _ = passes(budget - sum(plain), tracer)
        layers, problems = tracing.summarize(tracer, list(range(len(walls))))
        result["problems"] += problems
        layers["trace.run_s"] = statistics.median(walls)
        layers["trace.untraced_run_s"] = statistics.median(plain)
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        result["layers"] = layers
        result["layer_units"] = tracing.LAYER_METRICS
        result["self_time_sum_s"] = statistics.median(
            tracer.main_thread_self_s(p) for p in range(len(walls)))
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        result["spans_file"] = path
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="tensor-phases")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.spawn_time is None:
        args.spawn_time = time.time()
    sys.path[:0] = [HERE, SRC]
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
