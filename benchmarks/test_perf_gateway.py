"""Concurrent-clients throughput curve for the filter gateway.

The serve layer's acceptance bars (ISSUE 5):

* the gateway serves **>= 4 concurrent clients** streaming distinct
  corpora with results bit-identical to offline
  ``FilterEngine.stream`` runs;
* a second tenant streaming the *same* corpus is served warm from the
  shared AtomCache — its per-tenant hit rate is **strictly higher**
  than the first tenant's, and the shared cache absorbs the repeat
  evaluation.

The curve itself (aggregate MB/s over 1/2/4 concurrent clients) is
reported, written to ``results/perf_gateway.txt`` and — as the
machine-readable perf trajectory — ``results/BENCH_gateway.json``.
Client threads and the asyncio gateway share one Python process, so
the curve measures service overhead (framing, protocol, queues), not
multi-core scaling; on hosts with >= 4 *effective* cores a
no-collapse plateau bar is asserted (4 concurrent clients keep at
least half of the single-client aggregate throughput); on smaller
hosts the curve is reported only.
"""

import os
import threading
import time

from common import write_json_result, write_result
from repro.data import load_dataset
from repro.engine import FilterEngine
from repro.eval.report import render_table
from repro.serve import GatewayClient, GatewayThread

EXPR = "group(s:1:temperature,v:float:0.7:35.1)"
NUM_RECORDS = 1500
CLIENT_COUNTS = (1, 2, 4)
CHUNK_BYTES = 16 * 1024


def _effective_cores():
    """CPUs this process may actually run on (the affinity mask, not
    the host's core count — the usual CI cgroup shape grants fewer)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


EFFECTIVE_CORES = _effective_cores()


def _corpora(count):
    return {
        f"tenant-{seed}": load_dataset(
            "smartcity", NUM_RECORDS, seed=seed
        ).stream.tobytes()
        for seed in range(count)
    }


def _offline_bits(payload):
    from repro.cli import parse_filter_expression

    # the gateway runs the default compiled backend; the offline
    # reference runs the scalar oracle so the two paths are independent
    engine = FilterEngine(backend="scalar")
    bits = []
    for batch in engine.stream(
        parse_filter_expression(EXPR), payload
    ):
        bits.extend(batch.matches.tolist())
    return bits


def _stream_tenant(port, tenant, payload, results, errors):
    try:
        with GatewayClient(
            "127.0.0.1", port, tenant=tenant,
            chunk_bytes=CHUNK_BYTES,
        ) as client:
            bits = []
            for batch in client.submit(EXPR, payload):
                bits.extend(batch.matches.tolist())
            results[tenant] = bits
    except Exception as err:  # pragma: no cover - diagnostics
        errors.append((tenant, err))


def test_gateway_concurrency_curve_and_warm_tenant():
    corpora = _corpora(max(CLIENT_COUNTS))
    expected = {
        name: _offline_bits(payload)
        for name, payload in corpora.items()
    }
    rows = []
    curve = []

    with GatewayThread(engines=2) as gw:
        for clients in CLIENT_COUNTS:
            active = dict(list(corpora.items())[:clients])
            total_bytes = sum(len(p) for p in active.values())
            results, errors = {}, []
            threads = [
                threading.Thread(
                    target=_stream_tenant,
                    args=(gw.port, name, payload, results, errors),
                )
                for name, payload in active.items()
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            elapsed = time.perf_counter() - start
            assert not errors, errors

            # acceptance: every concurrent client is bit-identical
            # to the offline engine run over its corpus
            for name in active:
                assert results[name] == expected[name], name

            rate = total_bytes / elapsed / 1e6
            rows.append([
                f"{clients}", f"{total_bytes}", f"{elapsed:.3f}",
                f"{rate:.1f}",
            ])
            curve.append({
                "clients": clients,
                "bytes": total_bytes,
                "seconds": elapsed,
                "bytes_per_second": total_bytes / elapsed,
            })

        # warm tenant: re-stream tenant-0's corpus under a new name —
        # every batch fingerprint is already cached, so this tenant
        # must show a strictly higher hit rate than the cold tenant
        results, errors = {}, []
        start = time.perf_counter()
        _stream_tenant(
            gw.port, "warm-rerun", corpora["tenant-0"],
            results, errors,
        )
        warm_seconds = time.perf_counter() - start
        assert not errors, errors
        assert results["warm-rerun"] == expected["tenant-0"]

        snapshot = gw.snapshot()

    cold = snapshot["tenants"]["tenant-0"]
    warm = snapshot["tenants"]["warm-rerun"]
    assert warm["cache_hit_rate"] > cold["cache_hit_rate"], (
        f"second tenant not served warm: {warm['cache_hit_rate']:.1%} "
        f"vs {cold['cache_hit_rate']:.1%}"
    )
    assert warm["cache_hit_rate"] > 0.9
    cache = snapshot["engine"]["cache"]
    assert cache["hits"] > 0

    table = render_table(
        ["Clients", "Bytes", "Seconds", "Aggregate MB/s"],
        rows,
        title=(
            f"Gateway throughput, concurrent clients over distinct "
            f"{NUM_RECORDS}-record corpora (chunk={CHUNK_BYTES}, "
            f"2 engines, shared AtomCache, {EFFECTIVE_CORES} "
            f"effective cores; warm re-run {warm_seconds:.3f}s at "
            f"hit rate {warm['cache_hit_rate']:.0%})"
        ),
    )
    write_result("perf_gateway", table)
    write_json_result("gateway", {
        "benchmark": "gateway-concurrency",
        "expression": EXPR,
        "records_per_corpus": NUM_RECORDS,
        "chunk_bytes": CHUNK_BYTES,
        "engines": 2,
        "effective_cores": EFFECTIVE_CORES,
        "curve": curve,
        "warm_rerun": {
            "seconds": warm_seconds,
            "cold_hit_rate": cold["cache_hit_rate"],
            "warm_hit_rate": warm["cache_hit_rate"],
        },
        "cache": cache,
    })

    # concurrency plateau: admitting 4 clients must not collapse the
    # aggregate rate — only assertable when the scheduler actually
    # grants the cores to run gateway + clients side by side
    if EFFECTIVE_CORES >= 4:
        single = curve[0]["bytes_per_second"]
        quad = curve[-1]["bytes_per_second"]
        assert quad >= single * 0.5, (
            f"4-client aggregate ({quad / 1e6:.1f} MB/s) collapsed "
            f"below half the single-client rate "
            f"({single / 1e6:.1f} MB/s) on a {EFFECTIVE_CORES}-"
            f"effective-core host"
        )
