"""Compiled fused-kernel backend throughput (not a paper experiment).

Drives the real ``repro bench`` CLI (the same ``--json`` plumbing users
get) over the RiotBench QS1-style smartcity filter — five structural
group conjuncts whose record-level number prefilters are highly
selective, the workload the fused kernel is built for — and records the
result as ``results/BENCH_compiled.json``: per-backend records/s and
bytes/s plus the kernel-cache counters.

The acceptance bar asserted here: the compiled backend is at least 3x
the cold-serial throughput of the harness's vectorised full-batch
evaluation (``evaluate_expression`` over a fresh ``DatasetView`` of
each batch, every atom sweeping the whole batch), timed in-process over
the same framed batches.  Both sides run the AtomCache disabled, so
every batch is evaluated from raw bytes, and get the same number of
passes, of which each keeps its best; the process-wide kernel registry
is cleared first so compilation cost is inside the measurement.
"""

import json
import os
import time

from repro import cli
from repro.cli import parse_filter_expression
from repro.data import load_dataset
from repro.engine import RecordFramer, clear_kernels
from repro.eval.harness import DatasetView, evaluate_expression

from common import RESULTS_DIR, write_result

# RiotBench QS1 (Table 4): five sensor-range conjuncts over smartcity
QS1_EXPRESSION = (
    "and("
    "group(s:1:temperature,v:float:-12.5:43.1),"
    "group(s:1:humidity,v:float:10.7:95.2),"
    "group(s:1:light,v:float:1345:26282),"
    "group(s:1:dust,v:float:186.61:5188.21),"
    "group(s:1:airquality_raw,v:int:17:363)"
    ")"
)

NUM_RECORDS = 8000
SEED = 7
# one framed chunk per pass: per-chunk dispatch overhead would
# otherwise blur the comparison on small corpora
CHUNK_BYTES = 4 << 20
# best of this many passes per side: one pass takes ~25 ms, so a
# single scheduler stall must not decide the ratio
PASSES = 7


def best_pass(document, backend):
    """Highest-throughput pass of one backend (filters CI scheduler
    noise; every pass here is equally AtomCache-cold)."""
    passes = [
        entry for entry in document["passes"]
        if entry["backend"] == backend
    ]
    assert passes, f"no bench passes for backend {backend!r}"
    return max(passes, key=lambda entry: entry["bytes_per_second"])


def best_harness_pass(payload):
    """Best of :data:`PASSES` cold harness passes over the batches the
    bench's memory source frames: ``(bytes/s, records/s, accepted)``."""
    expr = parse_filter_expression(QS1_EXPRESSION)
    best = None
    for _ in range(PASSES):
        start = time.perf_counter()
        framer = RecordFramer()
        batches = [
            framer.push(payload[lo:lo + CHUNK_BYTES])
            for lo in range(0, len(payload), CHUNK_BYTES)
        ]
        records = accepted = 0
        for batch in batches + [framer.flush()]:
            if batch:
                bits = evaluate_expression(DatasetView(batch), expr, {})
                records += len(batch)
                accepted += int(bits.sum())
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, records, accepted)
    elapsed, records, accepted = best
    return len(payload) / elapsed, records / elapsed, accepted


def test_compiled_backend_speedup_over_vectorized():
    clear_kernels()
    json_path = os.path.join(RESULTS_DIR, "BENCH_compiled.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    status = cli.main([
        "bench", QS1_EXPRESSION,
        "--dataset", "smartcity",
        "--records", str(NUM_RECORDS),
        "--seed", str(SEED),
        "--backends", "compiled",
        "--no-cache",
        "--chunk-bytes", str(CHUNK_BYTES),
        "--repeat", str(PASSES),
        "--json", json_path,
    ])
    assert status == 0

    with open(json_path) as handle:
        document = json.load(handle)

    compiled = best_pass(document, "compiled")
    payload = load_dataset(
        "smartcity", NUM_RECORDS, seed=SEED
    ).stream.tobytes()
    assert len(payload) == document["payload_bytes"]
    harness_rate, harness_record_rate, harness_accepted = (
        best_harness_pass(payload)
    )
    assert compiled["accepted"] == harness_accepted

    speedup = compiled["bytes_per_second"] / harness_rate
    kernel_stats = document["compiled"]
    assert kernel_stats is not None
    # one kernel, compiled once, reused on the remaining chunk batches
    assert kernel_stats["kernels_compiled"] == 1
    assert kernel_stats["kernels_reused"] >= 1
    assert kernel_stats["atoms_short_circuited"] > 0
    assert document["selectivity"], "observed selectivity missing"

    # stamp the derived comparison into the document the CI uploads
    document["speedup_compiled_vs_harness"] = speedup
    with open(json_path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)
        handle.write("\n")

    mb = document["payload_bytes"] / 1e6
    lines = [
        "Compiled fused-kernel backend vs the harness's full-batch "
        f"evaluation (cold serial, {mb:.1f} MB smartcity, QS1-style "
        f"filter, best of {PASSES} passes each)",
        f"compiled: {compiled['bytes_per_second'] / 1e6:6.1f} MB/s "
        f"({compiled['records_per_second']:.0f} records/s)",
        f"harness:  {harness_rate / 1e6:6.1f} MB/s "
        f"({harness_record_rate:.0f} records/s)",
        f"speedup:  {speedup:.2f}x",
        "kernels: "
        f"{kernel_stats['kernels_compiled']} compiled / "
        f"{kernel_stats['kernels_reused']} reused; "
        f"{kernel_stats['atoms_short_circuited']} record-scans "
        "short-circuited",
    ]
    write_result("perf_compiled", "\n".join(lines))

    assert speedup >= 3.0, (
        f"compiled backend must be >=3x the harness's cold serial "
        f"evaluation, measured {speedup:.2f}x"
    )
