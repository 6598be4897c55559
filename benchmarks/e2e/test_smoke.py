"""Smoke test of the end-to-end benchmark (about a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload once with ``--quick --trace 1`` (one pass, or ten
service jobs, each untraced and then traced) at seed 7, plus one fig6a
run against a corrupted expected digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: BENCHMARK.json's workloads plus service-mixed, which run.py also runs.
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["service-mixed"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _printed(stdout: str) -> Dict[Tuple[str, str], Tuple[float, str]]:
    """``(workload, metric) -> (value, unit)`` from the metric lines."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and not line.startswith(("#", "{")):
            rows[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    return rows


@pytest.fixture(scope="module")
def traced():
    proc = _run("--trace", "1")
    return proc, _printed(proc.stdout)


def test_every_end_to_end_metric_is_printed_with_its_unit(traced):
    _, rows = traced
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            value, unit = rows[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value > 0


def test_no_op_fails(traced):
    proc, rows = traced
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for workload in WORKLOADS:
        assert rows[(workload, "error_rate")][0] == 0
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0


def test_traced_run_emits_every_per_layer_metric(traced):
    _, rows = traced
    for workload in WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            assert rows[(workload, metric["name"])][1] == metric["unit"]


def test_spans_cover_the_op_wall_time(traced):
    _, rows = traced
    for workload in WORKLOADS:
        assert rows[(workload, "trace.coverage")][0] >= 0.9


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    ops = expected["7"]["fig6a-sweep"]
    ops[sorted(ops)[0]] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    proc = _run("--workload", "fig6a-sweep", "--expected", str(corrupted))
    assert proc.returncode != 0
    assert _printed(proc.stdout)[("fig6a-sweep", "error_rate")][0] > 0
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] > 0
