"""Smoke test of the benchmark at the tiny point (3, 2).  Run from the
repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from twisted_hecke import Config, Cyclotomic, HeckeAlgebra, run_suite  # noqa: E402

TINY = ((3, 2),)


def tiny_workloads():
    golden = {"3,2": workloads.golden_digests(HeckeAlgebra(3, 2))}
    return {
        name: replace(w, points=TINY)
        for name, w in workloads.make_workloads(golden).items()
    }


def test_tiny_untraced_run_is_correct_and_reports_every_metric():
    for w in tiny_workloads().values():
        visits, setup_times = run.run_workload(w, 7, 0.5)
        assert all(v.ok for visit in visits for v in visit["verdicts"])
        metrics = run.end_to_end_metrics(visits, setup_times)
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())


def trace_tiny(w, max_spans):
    tracer = Tracer(max_spans=max_spans)
    visits, _ = run.run_workload(w, 3, 0.5, tracer)
    return tracer, visits


def test_tiny_traced_run_reports_every_layer_and_restores_the_package():
    original_mul = Cyclotomic.__mul__
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in tiny_workloads().values():
        tracer, visits = trace_tiny(w, 10**6)
        assert Cyclotomic.__mul__ is original_mul
        assert all(v.ok for visit in visits for v in visit["verdicts"])
        metrics = run.per_layer_metrics(tracer, visits)
        assert set(metrics) == {m["name"] for m in bench["per_layer"]}
        assert metrics["cyclotomic.mul.calls"][0] > 0
        ids = {s[0] for s in tracer.spans}
        assert tracer.dropped == 0
        assert all(s[2] in ids or s[2] == 0 for s in tracer.spans)
        assert {s[1] for s in tracer.spans} - {0}, "spans carry verdict ids"


def test_span_store_is_capped():
    tracer, _ = trace_tiny(tiny_workloads()["grid-sym"], 50)
    assert len(tracer.spans) == 50 and tracer.dropped > 0


def test_zero_case_checks_count_as_failed():
    cfg = Config(3, 2, degree_bound=-1)
    verdicts = {v.name: v for v in workloads.grid_verdicts(cfg, run_suite(cfg))}
    assert not verdicts["pbw-independence"].ok
    assert not verdicts["injectivity-spotcheck"].ok
    assert verdicts["cocycle-identity"].ok


def test_changed_canonical_form_counts_as_failed():
    wrong = {"3,2": {"w": "0" * 64, "w_power_ell": "0" * 64}}
    verdicts, _ = workloads.run_grid_point((3, 2), 0, workloads.NullTracer(), wrong)
    assert [v.name for v in verdicts if not v.ok] == ["golden-digests"]


def test_golden_digests_cover_the_grid_points():
    golden = workloads.load_golden()
    assert set(golden) == {f"{n},{ell}" for n, ell in workloads.GRID_POINTS}


def test_benchmark_lists_the_runnable_workloads():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_package_source(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sym",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
