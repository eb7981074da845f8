"""Workload definitions shared by every process of the benchmark.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics (with units, directions and bounds); this module holds what
each workload *does*: its corpora, filter expressions, engine shape and
pacing.  Sizes are given at full scale; ``scale`` (a function argument
of the runner, used by the smoke test) shrinks every corpus.
"""

from __future__ import annotations

import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

#: the paper's RiotBench QS1 as five structural groups (the same
#: expression ``benchmarks/test_perf_compiled.py`` measures)
QS1_EXPRESSION = (
    "and("
    "group(s:1:temperature,v:float:-12.5:43.1),"
    "group(s:1:humidity,v:float:10.7:95.2),"
    "group(s:1:light,v:float:1345:26282),"
    "group(s:1:dust,v:float:186.61:5188.21),"
    "group(s:1:airquality_raw,v:int:17:363)"
    ")"
)
#: QS0 in the same shape; weakly selective, so RESULT frames carry
#: most of the records back
QS0_EXPRESSION = (
    "and("
    "group(s:1:temperature,v:float:0.7:35.1),"
    "group(s:1:humidity,v:float:20.3:69.1),"
    "group(s:1:light,v:float:0:5153),"
    "group(s:1:dust,v:float:83.36:3322.67),"
    "group(s:1:airquality_raw,v:int:12:49)"
    ")"
)
#: the paper's Table VII Pareto filter for QT (flat taxi records,
#: string-heavy steps)
QT_PARETO_EXPRESSION = (
    "and(s:1:tip_amount,v:float:0.65:38.55,"
    "s:N:tolls_amount,v:float:2.50:18.00)"
)

#: corpus name -> (dataset, records at full scale, generator seed
#: offset, filter expression, exact-oracle query name)
CORPORA = {
    "smartcity-qs1": ("smartcity", 75_000, 0, QS1_EXPRESSION, "QS1"),
    "taxi-qt": ("taxi", 40_000, 1, QT_PARETO_EXPRESSION, "QT"),
    "smartcity-qs0": ("smartcity", 20_000, 2, QS0_EXPRESSION, "QS0"),
    "replay-qs1": ("smartcity", 10_000, 3, QS1_EXPRESSION, "QS1"),
}

CHUNK_BYTES = 1 << 20
WARMUP_BYTES = 1 << 20

#: engine workloads: corpus, resident workers, input shape, and whether
#: every pass gets a fresh record permutation (cold) or replays the
#: primed payload
ENGINE_WORKLOADS = {
    "cold-qs1": {
        "corpus": "smartcity-qs1", "workers": 1, "input": "handle",
        "fresh": True,
    },
    "replay-qs1": {
        "corpus": "smartcity-qs1", "workers": 1, "input": "handle",
        "fresh": False,
    },
    "cold-qt-par": {
        "corpus": "taxi-qt", "workers": 2, "input": "path",
        "fresh": True,
    },
}

#: the gateway workload: two tenants on one connection each, open loop
GATEWAY_TENANTS = {
    "fresh": {
        "corpus": "smartcity-qs0", "rate_bytes": 1_500_000,
        "fresh": True,
    },
    "replay": {
        "corpus": "replay-qs1", "rate_bytes": 4_000_000,
        "fresh": False,
    },
}
GATEWAY_CHUNK_BYTES = 32 * 1024
GATEWAY_ENGINES = 2

WORKLOADS = tuple(ENGINE_WORKLOADS) + ("gateway-mixed",)


def corpora_for(workload):
    """The corpus names a workload needs prepared before it runs."""
    if workload == "gateway-mixed":
        return [tenant["corpus"] for tenant in GATEWAY_TENANTS.values()]
    return [ENGINE_WORKLOADS[workload]["corpus"]]


def scaled_records(corpus, scale):
    return max(200, int(CORPORA[corpus][1] * scale))


def load_declaration():
    """``BENCHMARK.json``: workload names and metric units/bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env():
    """Environment for every process the benchmark starts (``src`` on
    the import path, so the program is built from the checkout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
