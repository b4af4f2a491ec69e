"""Smoke check of the benchmark: every workload at a tiny length emits every
metric named in BENCHMARK.json with its unit, and passes its correctness gate.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_metric_tables_match_benchmark_json():
    assert set(WORKLOADS) == set(run.workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == \
        set(spans.PER_LAYER_UNITS) | set(run.TRACE_UNITS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)


def test_wrappers_cover_names_bound_by_import():
    detctl = run.load_detctl()
    fields, dynamics = detctl.fields, detctl.dynamics
    original = fields.samples_of
    tracer = spans.Tracer()
    with tracer.installed(detctl):
        assert dynamics.samples_of is fields.samples_of
        assert dynamics.samples_of.__wrapped__ is original
        assert dynamics.coeffs_of.__wrapped__ is not None
        assert dynamics.Stepper.cube.__wrapped__ is not None
    assert fields.samples_of is original and dynamics.samples_of is original
    assert not hasattr(dynamics.Stepper.cube, "__wrapped__")


def test_self_times_add_up_to_root_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    dur, self_ns = tracer.durations()
    assert len(tracer) == 4
    assert self_ns.sum() == tracer.root_ns() == dur[0]
    assert (self_ns >= 0).all()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
