"""Smoke test of the benchmark: ``python -m pytest bench -q``.

Every workload runs once at toy size (a few hundred to 1.5k records,
one second, traced, so both the end-to-end and the per-layer metrics
are produced), through ``run.run_workload``'s arguments.  Separate runs
check that a flipped output bit fails the run and that the benchmark
refuses to report anything where the program is missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
from spec import BENCH_DIR, ROOT, WORK_ROOT, WORKLOADS, load_declaration

TOY_SCALE = 0.02
TOY_SECONDS = 1.0


@pytest.fixture(scope="module")
def declaration():
    return load_declaration()


@pytest.fixture(scope="module")
def traced_results():
    return {
        name: run.run_workload(
            name, seed=5, seconds=TOY_SECONDS, trace=True,
            scale=TOY_SCALE, setup_samples=1,
        )
        for name in WORKLOADS
    }


def test_declaration_follows_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declaration["paths"] == ["bench"]
    assert [w["name"] for w in declaration["workloads"]] == list(WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in declaration[kind]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_every_metric_correctly(
    name, traced_results, declaration
):
    result = traced_results[name]
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    for trace, kind, source in ((False, "end_to_end", "e2e"),
                                (True, "per_layer", "layers")):
        assert set(result[source]) == {
            m["name"] for m in declaration[kind]
        }
        emitted = run.metric_values(result, trace, declaration)
        for metric in declaration[kind]:
            value = emitted[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert math.isfinite(value["value"])
    assert result["unhooked"] == []
    assert result["layers"]["trace.unhooked"] == 0
    if name != "gateway-mixed":
        assert result["config"]["pytest_loaded"] is False


@pytest.mark.parametrize("name", ["replay-qs1", "gateway-mixed"])
def test_flipped_bit_fails_the_run(name):
    result = run.run_workload(
        name, seed=5, seconds=0.5, scale=TOY_SCALE, setup_samples=1,
        flip_bit=True,
    )
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_without_the_program():
    copy = os.path.join(WORK_ROOT, "bare-checkout")
    shutil.rmtree(copy, ignore_errors=True)
    os.makedirs(copy)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        shutil.copytree(
            BENCH_DIR, os.path.join(copy, "bench"),
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cold-qs1"],
            cwd=copy, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
