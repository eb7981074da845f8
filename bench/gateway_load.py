"""The gateway workload: ``repro serve`` under an open-loop tenant mix.

The server runs in its own process, started the way a user starts it
(``python -m repro.cli serve --port 0 --engines 2``, or
``serve_traced.py`` around the same call for a traced run).  This
process is the one load generator: two ``AsyncGatewayClient``
connections, one per tenant, each sending record-aligned ~32 KB chunks
on a fixed schedule that does not slow when the server does.

* tenant ``fresh``: QS0 over fresh SmartCity record permutations at
  1.5 MB/s.  Every chunk misses the shared AtomCache and writes to it,
  and QS0 accepts most records, so RESULT frames are large.
* tenant ``replay``: QS1 over a 10k-record corpus primed during set-up,
  cycled at 4 MB/s.  Every chunk is served from the cache.

Each chunk is timed from when it was *due* to when its RESULT arrived,
so a stall also charges the chunks queued behind it, and every RESULT
is checked against the reference bits.  A chunk whose RESULT is wrong,
missing or replaced by an ERROR frame counts as failed.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading

import numpy as np

from measure import (
    clock,
    corpus_arrays,
    layer_metrics,
    percentile,
    read_corpus,
    tail_slice,
)
from proctree import (
    cpu_seconds,
    descendants,
    peak_rss_bytes,
    reset_peak_rss,
)
from spec import (
    BENCH_DIR,
    CORPORA,
    GATEWAY_CHUNK_BYTES,
    GATEWAY_ENGINES,
    GATEWAY_TENANTS,
    ROOT,
    WARMUP_BYTES,
    child_env,
)

SERVER_STOP_SECONDS = 20


# -- the server process -------------------------------------------------------

class Server:
    """One ``repro serve`` process: started, listening, stopped."""

    def __init__(self, spans_path=None):
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro.cli"]
        else:
            command += [os.path.join(BENCH_DIR, "serve_traced.py"),
                        spans_path]
        command += ["serve", "--host", "127.0.0.1", "--port", "0",
                    "--engines", str(GATEWAY_ENGINES)]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stderr=subprocess.PIPE
        )
        self.port = None
        for raw in self.process.stderr:
            line = raw.decode("utf-8", "replace")
            found = re.search(r"listening on [^ ]+:(\d+) ", line)
            if found:
                self.port = int(found.group(1))
                break
            sys.stderr.write("serve: " + line)
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve exited before listening")
        # keep reading so the server never blocks on a full pipe
        self._drain = threading.Thread(
            target=self._echo, daemon=True, name="serve-stderr"
        )
        self._drain.start()

    def _echo(self):
        for raw in self.process.stderr:
            sys.stderr.write("serve: " + raw.decode("utf-8", "replace"))

    def stop(self):
        """SIGINT (the server drains and exits), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_STOP_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        self.process.stderr.close()


# -- chunks and expected results ----------------------------------------------

class TenantCorpus:
    """A tenant's base corpus cut into record-aligned chunks.

    ``prime`` is what set-up streams (the whole corpus for the replay
    tenant; a warm-up tail slice for the fresh one, which compiles its
    kernel), and :meth:`timed_chunks` what the open loop sends: the
    primed chunks over and over, or chunks of new permutations.
    """

    def __init__(self, work, name, seed, seconds):
        tenant = GATEWAY_TENANTS[name]
        corpus = tenant["corpus"]
        self.expression = CORPORA[corpus][3]
        self.rate = tenant["rate_bytes"]
        self.fresh = tenant["fresh"]
        data = read_corpus(work, corpus)
        self.records, self.lengths, self.ref = corpus_arrays(
            data, work, corpus
        )
        self.rng = np.random.default_rng([seed, 29, CORPORA[corpus][2]])
        count = len(self.records)
        if self.fresh:
            warm = tail_slice(data, WARMUP_BYTES).count(b"\n")
            self.prime = self.chunks(range(count - warm, count))
            self.run = self.fresh_chunks(self.rate * seconds * 1.2)
        else:
            self.prime = self.chunks(range(count))
            self.run = self.prime

    def timed_chunks(self):
        return iter(self.run) if self.fresh else itertools.cycle(self.run)

    def chunks(self, order):
        """``[(payload, expected bits, expected accepted bytes)]`` over
        the records in ``order``, each chunk at most ~32 KB."""
        order = list(order)
        plan = []
        start, count = 0, len(order)
        while start < count:
            end, size = start, 0
            while end < count and (
                size == 0
                or size + self.lengths[order[end]] <= GATEWAY_CHUNK_BYTES
            ):
                size += int(self.lengths[order[end]])
                end += 1
            indices = order[start:end]
            expected = self.ref[indices]
            plan.append((
                b"".join([self.records[i] for i in indices]),
                expected,
                int(self.lengths[indices][expected].sum()),
            ))
            start = end
        return plan

    def fresh_chunks(self, nbytes):
        """Chunks of new record permutations, at least ``nbytes``."""
        plan, total = [], 0
        while total < nbytes:
            for chunk in self.chunks(
                self.rng.permutation(len(self.records))
            ):
                plan.append(chunk)
                total += len(chunk[0])
        return plan


class TenantLog:
    """What one tenant saw during the timed region."""

    def __init__(self):
        self.latencies = []
        self.late = []
        self.attempted = 0
        self.failed = 0
        self.bytes_sent = 0
        self.bytes_returned = 0
        self.accepted_bytes = 0
        self.last_result = None


def _result_ok(batch, expected, accepted_bytes):
    return (
        np.array_equal(batch.matches, expected)
        and sum(len(record) + 1 for record in batch.accepted)
        == accepted_bytes
    )


async def closed_loop(client, expression, chunks):
    """Send chunks one at a time, each after the previous RESULT (the
    priming stream); returns how many RESULTs differed from reference."""
    await client.query(expression)
    results = client.results()
    failed = 0
    for payload, expected, accepted_bytes in chunks:
        await client.send_chunk(payload)
        batch = await results.__anext__()
        failed += not _result_ok(batch, expected, accepted_bytes)
    await client.end()
    async for _ in results:
        failed += 1  # a RESULT nobody asked for
    return failed


async def open_loop(client, expression, chunks, rate, start, stop, log):
    """Send ``chunks`` on schedule (chunk k is due once the bytes
    before it have been sent at ``rate``) until ``stop``; collect every
    RESULT."""
    from repro.serve import GatewayError

    await client.query(expression)
    pending = collections.deque()

    async def send():
        for payload, expected, accepted_bytes in chunks:
            due = start + log.bytes_sent / rate
            if due >= stop:
                break
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            log.late.append(clock() - due)
            pending.append((due, expected, accepted_bytes, len(payload)))
            log.attempted += 1
            log.bytes_sent += len(payload)
            await client.send_chunk(payload)
        await client.end()

    sender = asyncio.ensure_future(send())
    try:
        async for batch in client.results():
            now = clock()
            if not pending:
                log.failed += 1
                continue
            due, expected, accepted_bytes, size = pending.popleft()
            if not _result_ok(batch, expected, accepted_bytes):
                log.failed += 1
                continue
            log.latencies.append(now - due)
            log.bytes_returned += size
            log.accepted_bytes += accepted_bytes
            log.last_result = now
        await sender
    except (GatewayError, OSError) as err:
        print(f"gateway: {err}", file=sys.stderr)
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
    # chunks sent but never answered (missing RESULT or an ERROR frame)
    log.failed += len(pending)


# -- one server lifetime ------------------------------------------------------

async def _session(port, tenants, seconds, server_pid, measure):
    """Prime both tenants, then (if ``measure``) run the open loop.

    Returns (priming seconds, priming chunks that failed, run summary
    or None)."""
    from repro.serve import AsyncGatewayClient

    clients = {
        name: AsyncGatewayClient("127.0.0.1", port, tenant=name)
        for name in GATEWAY_TENANTS
    }
    try:
        for client in clients.values():
            await client.connect()
        primed = clock()
        prime_failed = 0
        for name, client in clients.items():
            prime_failed += await closed_loop(
                client, tenants[name].expression, tenants[name].prime
            )
        priming_s = clock() - primed
        if not measure:
            return priming_s, prime_failed, None
        before = await clients["replay"].stats()
        pids = descendants(server_pid)
        hwm_reset = reset_peak_rss(pids)
        cpu_before = cpu_seconds(pids)
        start = clock() + 0.05
        stop = start + seconds
        logs = {name: TenantLog() for name in GATEWAY_TENANTS}
        await asyncio.gather(*(
            open_loop(
                clients[name], tenant.expression, tenant.timed_chunks(),
                tenant.rate, start, stop, logs[name],
            )
            for name, tenant in tenants.items()
        ))
        cpu = cpu_seconds(pids) - cpu_before
        peak = peak_rss_bytes(pids)
        after = await clients["replay"].stats()
        return priming_s, prime_failed, {
            "start": start, "logs": logs, "cpu_s": cpu,
            "peak_rss_bytes": peak, "hwm_reset": hwm_reset,
            "before": before, "after": after,
        }
    finally:
        for client in clients.values():
            await client.close()


def _serve_once(tenants, seconds, measure, spans_path=None):
    """Start a server, prime it, optionally measure, stop it.

    Returns (set-up seconds, priming chunks that failed, run summary or
    None)."""
    begin = clock()
    server = Server(spans_path)
    listening_s = clock() - begin
    try:
        priming_s, prime_failed, run = asyncio.run(_session(
            server.port, tenants, seconds, server.process.pid, measure
        ))
    finally:
        server.stop()
    return listening_s + priming_s, prime_failed, run


def _pooled(run):
    logs = run["logs"].values()
    latencies = [value for log in logs for value in log.latencies]
    sent = sum(log.bytes_sent for log in logs)
    returned = sum(log.bytes_returned for log in logs)
    accepted = sum(log.accepted_bytes for log in logs)
    ends = [log.last_result for log in logs if log.last_result]
    wall = max(ends) - run["start"] if ends else 0.0
    return latencies, sent, returned, accepted, wall


def end_to_end(run, setup_s):
    """The gateway's end-to-end metrics, as measured (no host-speed
    scaling: the probe of :mod:`hostspeed` does not track this
    workload's run-to-run variation, so scaling would only add its
    noise)."""
    latencies, sent, returned, accepted, wall = _pooled(run)
    return {
        "throughput_mb_s": returned / wall / 1e6 if wall else 0.0,
        "cpu_s_per_gb": run["cpu_s"] / (sent / 1e9) if sent else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_bytes"] / 1e6,
        "filtered_frac": 1 - accepted / returned if returned else 0.0,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
    }


def serve_extras(untraced, traced, spans, traced_bytes):
    """Per-layer values of the gateway workload beyond span rows.

    Span totals cover the traced server's whole life (``traced_bytes``
    includes the priming streams); counter deltas cover its timed
    region only."""
    gigabytes = traced_bytes / 1e9
    run_gigabytes = _pooled(traced)[1] / 1e9
    before, after = traced["before"], traced["after"]
    cache_b = before["engine"]["cache"]
    cache_a = after["engine"]["cache"]
    hits = cache_a["hits"] - cache_b["hits"]
    misses = cache_a["misses"] - cache_b["misses"]
    tenants_a = after["tenants"]
    extras = {
        "atom_cache.hits": hits / run_gigabytes,
        "atom_cache.misses": misses / run_gigabytes,
        "atom_cache.evictions": (
            cache_a["evictions"] - cache_b["evictions"]
        ) / run_gigabytes,
        "atom_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.queue_peak": max(
            tenant["peak_queued_chunks"] for tenant in tenants_a.values()
        ),
        "loadgen.late_ms_p99": percentile(
            [v for log in untraced["logs"].values() for v in log.late],
            99,
        ) * 1e3,
    }
    for name in GATEWAY_TENANTS:
        tenant_b = before["tenants"].get(name, {})
        tenant_a = tenants_a.get(name, {})
        tenant_hits = tenant_a.get("cache_hits", 0) - tenant_b.get(
            "cache_hits", 0
        )
        lookups = tenant_hits + tenant_a.get(
            "cache_misses", 0
        ) - tenant_b.get("cache_misses", 0)
        extras[f"serve.{name}.cache_hit_rate"] = (
            tenant_hits / lookups if lookups else 0.0
        )
        latencies = untraced["logs"][name].latencies
        extras[f"serve.{name}_p50_ms"] = percentile(latencies, 50) * 1e3
        extras[f"serve.{name}_p95_ms"] = percentile(latencies, 95) * 1e3
    cpu_per_gb = {
        side: run["cpu_s"] / (_pooled(run)[1] / 1e9)
        for side, run in (("untraced", untraced), ("traced", traced))
    }
    extras.update({
        "trace.coverage": spans["attributed_s"] / spans["cpu_s"],
        "trace.unattributed_s": (
            spans["cpu_s"] - spans["attributed_s"]
        ) / gigabytes,
        "trace.overhead": (
            cpu_per_gb["traced"] / cpu_per_gb["untraced"] - 1
        ),
        "trace.unhooked": len(spans["unhooked"]),
    })
    return extras


def run_gateway_workload(config):
    work = config["work"]
    # a traced run gives each of its two servers half the time; set-up
    # samples send no timed chunks at all
    half = 0 if config["mode"] == "setup" else (
        config["seconds"] / (2 if config["trace"] else 1)
    )
    tenants = {
        name: TenantCorpus(work, name, config["seed"], half)
        for name in GATEWAY_TENANTS
    }
    if config.get("flip_bit"):
        payload, expected, accepted = tenants["fresh"].run[0]
        flipped = expected.copy()
        flipped[0] = not flipped[0]
        tenants["fresh"].run[0] = (payload, flipped, accepted)

    document = {"config": {
        "workload": "gateway-mixed",
        "server": f"repro serve --engines {GATEWAY_ENGINES}",
        "verify_kernels": True,
        "chunk_bytes": GATEWAY_CHUNK_BYTES,
        "rates_bytes": {
            name: tenant["rate_bytes"]
            for name, tenant in GATEWAY_TENANTS.items()
        },
    }}
    if config["mode"] == "setup":
        document["setup_s"], _, _ = _serve_once(tenants, 0, False)
        return document

    primed = sum(len(corpus.prime) for corpus in tenants.values())
    setup_s, failed, run = _serve_once(tenants, half, True)
    attempted = primed
    document["setup_s"] = setup_s
    document["hwm_reset"] = run["hwm_reset"]
    document["e2e"] = end_to_end(run, setup_s)
    logs = list(run["logs"].values())
    if config["trace"]:
        # a second server, traced: it sees the same chunks, and its
        # cache starts as cold as the first one's did
        spans_path = os.path.join(work, "serve-spans.json")
        _, traced_failed, traced = _serve_once(
            tenants, half, True, spans_path
        )
        attempted += primed
        failed += traced_failed
        with open(spans_path) as handle:
            spans = json.load(handle)
        traced_bytes = sum(
            len(chunk[0]) for corpus in tenants.values()
            for chunk in corpus.prime
        ) + _pooled(traced)[1]
        extras = serve_extras(run, traced, spans, traced_bytes)
        document["layers"] = layer_metrics(
            spans["rows"], traced_bytes / 1e9, extras
        )
        document["unhooked"] = spans["unhooked"]
        logs += list(traced["logs"].values())
    document["attempted"] = attempted + sum(
        log.attempted for log in logs
    )
    document["failed"] = failed + sum(log.failed for log in logs)
    document["samples"] = sum(
        len(log.latencies) for log in run["logs"].values()
    )
    return document
