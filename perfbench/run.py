#!/usr/bin/env python3
"""Benchmark of the twisted-hecke verifier: time to exact verdicts.

Run from the repository root:

    python3 perfbench/run.py --workload grid-sym --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload oracle-spec --seed 1 --seconds 50 --trace 1

One process, one thread, closed loop: each verdict starts when the previous
one has finished.  The run visits the workload's points in order, cycle
after cycle, until ``--seconds`` have passed and at least one cycle is
complete; cycle k draws its inputs from ``cycle_seed(seed, k)``.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` visits each
point untraced and then traced on the same inputs, reports the per-layer
metrics and the tracing overhead, and writes the spans to
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "twisted_hecke" / "__init__.py").is_file():
    sys.exit(f"error: package source not found under {SRC}")
sys.path.insert(0, str(SRC))

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GRID_CHECKS,
    PAIR,
    NullTracer,
    cycle_seed,
    load_golden,
    make_workloads,
)

OUT = HERE / "out"
WORKLOADS = ("grid-sym", "oracle-spec")

# Runs in a fresh interpreter: import the package and build both algebras
# for the workload's first point, timing from before the import.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import twisted_hecke as th
n, ell, spec = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
t = None if spec == "sym" else tuple(th.eval_scalar(s, ell) for s in spec.split(";"))
th.HeckeAlgebra(n, ell, t)
th.LaurentAlgebra(n, ell, t)
print(time.perf_counter() - start)
"""


def setup_command(workload) -> list[str]:
    n, ell = workload.points[0]
    return [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(n), str(ell), workload.setup_t()]


def measure_setup(cmd) -> float:
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def visit(workload, point, seed: int, cycle: int, tracer=None) -> dict:
    """Run one point's verdicts and time the whole point.  The previous
    point's garbage is collected first, outside the timed region, so that
    every point starts from the same collector state."""
    gc.collect()
    start = time.perf_counter()
    found, checks = workload.run_point(point, seed, tracer or NullTracer())
    return {
        "cycle": cycle,
        "point": point,
        "traced": tracer is not None,
        "seconds": time.perf_counter() - start,
        "verdicts": found,
        "checks": checks,
        "failures": [
            f"{v.name} at (n, ell) = {point}, seed {seed}, {v.cases} cases"
            for v in found
            if not v.ok
        ],
    }


def run_workload(workload, seed: int, seconds: float, tracer=None):
    """Visit the points in order, cycle after cycle, until ``seconds`` have
    passed and at least one cycle is complete.  Returns (visits, setup times).

    Untraced, the run may stop between any two points, and one set-up
    time is taken before each visit, so that set-up is sampled across the
    whole run rather than in one burst.  Traced, each point is visited
    untraced and then traced on the same inputs, and the run stops only at
    the end of a cycle.
    """
    cmd = setup_command(workload)
    if tracer is None:
        measure_setup(cmd)  # warms the byte-code caches; not a sample
    visits, setup_times = [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_s = cycle_seed(seed, cycle)
        for point in workload.points:
            if tracer is None:
                setup_times.append(measure_setup(cmd))
            visits.append(visit(workload, point, cycle_s, cycle))
            if tracer is not None:
                with tracer.patched():
                    visits.append(visit(workload, point, cycle_s, cycle, tracer))
            elif cycle and time.perf_counter() - start >= seconds:
                return visits, setup_times
        cycle += 1
        if time.perf_counter() - start >= seconds:
            return visits, setup_times


def complete_cycles(visits) -> set:
    points = {v["point"] for v in visits}
    per_cycle = Counter(v["cycle"] for v in visits if not v["traced"])
    return {c for c, count in per_cycle.items() if count == len(points)}


def pair_latencies(visits) -> list[float]:
    """Seconds of each theta pair of the run's complete cycles: the samples
    of the latency percentiles."""
    full = complete_cycles(visits)
    return [
        x.seconds
        for v in visits
        if v["cycle"] in full
        for x in v["verdicts"]
        if x.name == PAIR
    ]


def end_to_end_metrics(visits, setup_times) -> dict:
    point_s: dict = {}
    for v in visits:
        point_s.setdefault(v["point"], []).append(v["seconds"])
    medians = [statistics.median(ts) for ts in point_s.values()]
    latencies = pair_latencies(visits)
    p75 = statistics.quantiles(latencies, n=4, method="inclusive")[2]
    return {
        "verdict_s": (sum(medians), "s"),
        "slowest_point_s": (max(medians), "s"),
        "pair_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "pair_p75_ms": (p75 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, visits) -> dict:
    """Counts and times per traced cycle; ``visits`` holds whole cycles."""
    k = len(complete_cycles(visits))
    calls = {name: count / k for name, count in tracer.calls.items()}
    layer_s = {name: s / k for name, s in tracer.layer_self_s().items()}
    self_s = {name: s / k for name, s in tracer.self_s.items()}
    other_s = sum(s for name, s in self_s.items() if name.startswith("verdict."))
    untraced_s = sum(v["seconds"] for v in visits if not v["traced"]) / k
    traced_s = sum(v["seconds"] for v in visits if v["traced"]) / k
    m = {
        "cyclotomic.mul.calls": (calls.get("cyclotomic.mul", 0), "count"),
        "cyclotomic.self_s": (layer_s["cyclotomic"], "s"),
        "coeffring.mul.calls": (calls.get("coeffring.mul", 0), "count"),
        "coeffring.self_s": (layer_s["coeffring"], "s"),
        "coeffring.max_terms": (tracer.max_terms["coeffring"], "count"),
        "group.init.calls": (calls.get("group.init", 0), "count"),
        "group.mul.calls": (calls.get("group.mul", 0), "count"),
        "group.self_s": (layer_s["group"], "s"),
        "hecke.mul.self_s": (self_s.get("hecke.mul", 0.0), "s"),
        "hecke.self_s": (layer_s["hecke"], "s"),
        "hecke.insert.calls": (calls.get("hecke.insert", 0), "count"),
        "hecke.insert.hit_ratio": (tracer.hit_ratio("hecke.insert"), "ratio"),
        "hecke.normal_product.hit_ratio": (tracer.hit_ratio("hecke.normal_product"), "ratio"),
        "hecke.max_terms": (tracer.max_terms["hecke"], "count"),
        "laurent.lmul.calls": (calls.get("laurent.lmul", 0), "count"),
        "laurent.lmul.self_s": (self_s.get("laurent.lmul", 0.0), "s"),
        "laurent.theta.self_s": (self_s.get("laurent.theta", 0.0), "s"),
        "laurent.self_s": (layer_s["laurent"], "s"),
        "laurent.max_terms": (tracer.max_terms["laurent"], "count"),
        "exprs.self_s": (layer_s["exprs"], "s"),
        "render.self_s": (layer_s["render"], "s"),
        "chebyshev.self_s": (layer_s["chebyshev"], "s"),
        "other.self_s": (other_s, "s"),
        "trace.untraced_verdict_s": (untraced_s, "s"),
        "trace.traced_verdict_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans_kept": (len(tracer.spans), "count"),
        "trace.spans_dropped": (tracer.dropped, "count"),
    }
    for name in GRID_CHECKS:
        seconds = sum(v["checks"].get(name, 0.0) for v in visits if not v["traced"]) / k
        m[f"suite.{name}.s"] = (seconds, "s")
    return m


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sha = "unknown"  # a checkout without .git, as the benchmark may be run from
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "twisted_hecke").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    workload = make_workloads(load_golden())[args.workload]
    tracer = Tracer() if args.trace else None
    visits, setup_times = run_workload(workload, args.seed, args.seconds, tracer)

    attempted = sum(len(v["verdicts"]) for v in visits)
    failed = [f for v in visits for f in v["failures"]]
    if tracer is None:
        metrics = end_to_end_metrics(visits, setup_times)
        print(
            f"samples: {len(pair_latencies(visits))} pair latencies, "
            f"{len(setup_times)} set-ups"
        )
    else:
        metrics = per_layer_metrics(tracer, visits)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(path, {"env": env, "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans written to {path.relative_to(ROOT)}")

    print("env " + json.dumps(env))
    print(
        f"{args.workload}: {len(visits)} point visits in "
        f"{len({v['cycle'] for v in visits})} cycles, "
        f"{attempted} verdicts, {len(failed)} failed, "
        f"fail_share = {len(failed) / attempted:.6g}"
    )
    for failure in failed[:10]:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
