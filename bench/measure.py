"""The measured process: one workload, set up and timed from scratch.

Usage: ``python3 bench/measure.py CONFIG.json`` (written by ``run.py``,
which starts one fresh process per workload run and per set-up probe).
The base corpora and their reference bits were prepared by
``gate.py`` in another process; this one only loads them.

Engine workloads drive ``FilterEngine(backend="compiled")`` through
``stream``/``warm_up``/``stats``/``close``.  Every pass is checked bit
for bit against ``ref[perm]`` (the gate's reference bits under the
pass's record permutation) and its accepted records are written to a
null sink whose byte count must match the reference too.  The result
document goes to the path named in the config.

The end-to-end numbers (config ``trace`` 0) cover the whole timed
region.  A traced run (``trace`` 1) times half the region untraced,
then installs the stage hooks of :mod:`tracing` and times the other
half, so ``trace.overhead`` compares the two halves of one process.

numpy and ``repro`` are imported inside functions, never at module
level: ``setup_s`` starts its clock before the program (and the numpy
it depends on) is imported.
"""

from __future__ import annotations

import bisect
import io
import json
import os
import statistics
import sys
import time
import traceback

from hostspeed import ProbeProcess, scale
from proctree import (
    cpu_seconds,
    descendants,
    peak_rss_bytes,
    reset_peak_rss,
)
from spec import (
    CHUNK_BYTES,
    CORPORA,
    ENGINE_WORKLOADS,
    WARMUP_BYTES,
    load_declaration,
)
from tracing import Hooks, Tracer

clock = time.perf_counter

#: stop a run after this many passes in a row raised
MAX_CONSECUTIVE_ERRORS = 3
#: untimed passes before the timed region (caches fill, pages fault in)
WARM_PASSES = 2
#: pass time between two host-speed probes
PROBE_EVERY_S = 0.25

#: per-layer metric -> (span name, row field); times are self seconds
#: except the gateway's executor-side evaluation, reported inclusive
#: (its service time); every value is divided by the traced GB of input
SPAN_METRICS = {
    "sources.read_s": ("sources.read", "self_s"),
    "sources.chunks": ("sources.read", "calls"),
    "framing.push_s": ("framing.push", "self_s"),
    "framing.records": ("framing.push", "count"),
    "batch.build_s": ("batch.build", "self_s"),
    "batch.count": ("batch.build", "count"),
    "atom_cache.fingerprint_s": ("atom_cache.fingerprint", "self_s"),
    "atom_cache.lookup_s": ("atom_cache.lookup", "self_s"),
    "atom_cache.put_s": ("atom_cache.put", "self_s"),
    "atom_cache.merge_s": ("atom_cache.merge", "self_s"),
    "compiled.match_bits_s": ("compiled.match_bits", "self_s"),
    "compiled.kernel_compile_s": ("compiled.kernel_compile", "self_s"),
    "compiled.atom_bits_s": ("compiled.atom_bits", "self_s"),
    "compiled.string_bits_s": ("compiled.string_bits", "self_s"),
    "compiled.refine_s": ("compiled.refine", "self_s"),
    "harness.tokens_s": ("harness.tokens", "self_s"),
    "harness.structure_s": ("harness.structure", "self_s"),
    "number_filter.token_accepts_s": (
        "number_filter.token_accepts", "self_s"
    ),
    "string_match.record_match_s": ("string_match.record_match", "self_s"),
    "string_match.fire_s": ("string_match.fire", "self_s"),
    "transport.sync_s": ("transport.sync", "self_s"),
    "transport.submit_s": ("transport.submit", "self_s"),
    "transport.wait_s": ("transport.wait", "self_s"),
    "engine.self_s": ("engine", "self_s"),
    "engine.emit_s": ("engine.emit", "self_s"),
    "serve.evaluate_s": ("serve.evaluate", "total_s"),
    "serve.engine_wait_s": ("serve.engine_wait", "total_s"),
    "serve.encode_result_s": ("serve.encode_result", "self_s"),
}


# -- helpers shared with the gateway workload ---------------------------------

def read_corpus(work, corpus):
    with open(os.path.join(work, f"{corpus}.ndjson"), "rb") as handle:
        return handle.read()


def corpus_arrays(data, work, corpus):
    """(records with their newline, per-record byte lengths, ref bits)."""
    import numpy as np

    records = [line + b"\n" for line in data.split(b"\n")[:-1]]
    lengths = np.fromiter(
        (len(record) for record in records), dtype=np.int64,
        count=len(records),
    )
    ref = np.load(os.path.join(work, f"{corpus}.ref.npy"))
    if ref.shape[0] != len(records):
        raise RuntimeError(
            f"{corpus}: {ref.shape[0]} reference bits for "
            f"{len(records)} records"
        )
    return records, lengths, ref


def tail_slice(data, nbytes):
    """The record-aligned last ``nbytes`` (or so) of an NDJSON corpus:
    a warm-up input whose batches never recur in the measured passes,
    which are permutations of the whole corpus."""
    if len(data) <= nbytes:
        return data
    return data[data.rfind(b"\n", 0, len(data) - nbytes) + 1:]


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rows, gigabytes, extra):
    """Every declared per-layer metric: span rows per GB, plus the
    workload's own ``extra`` values; layers a workload never crosses
    read 0."""
    declared = [m["name"] for m in load_declaration()["per_layer"]]
    values = dict.fromkeys(declared, 0.0)
    for metric, (span, field) in SPAN_METRICS.items():
        row = rows.get(span)
        if row is not None and gigabytes > 0:
            values[metric] = row[field] / gigabytes
    # step x record scans the kernels skipped, of all they could run
    possible = rows.get("compiled.finish", {}).get("count", 0)
    scanned = rows.get("compiled.refine", {}).get("count", 0)
    if possible:
        values["compiled.short_circuit_frac"] = 1 - scanned / possible
    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return values


def stamped_source_class(base):
    """A ``ChunkSource`` subclass (``base`` is the program's class,
    imported after set-up starts) that passes an engine source's chunks
    through and notes when each reached the engine.

    It overrides ``__iter__`` so that a traced run's hook on the base
    class times the wrapped source once, not twice.
    """

    class StampedSource(base):
        name = "stamped"

        def __init__(self, inner):
            super().__init__()
            self.inner = inner
            self.ends = []
            self.times = []

        def __iter__(self):
            total = 0
            for chunk in self.inner:
                total += len(chunk)
                self.ends.append(total)
                self.times.append(clock())
                yield chunk

        def arrival(self, consumed):
            """When the chunk that brought the stream to ``consumed``
            bytes reached the engine."""
            index = bisect.bisect_left(self.ends, consumed)
            return self.times[min(index, len(self.times) - 1)]

        def close(self):
            self.inner.close()

    return StampedSource


class NullSink:
    """Where accepted records go: counts them and drops them."""

    def __init__(self):
        self.bytes = 0

    def write(self, record):
        self.bytes += len(record) + 1  # the record's newline


class Region:
    """Accumulated measurements of one timed region (a run of passes)."""

    def __init__(self):
        self.pass_seconds = []
        self.pass_bytes = []
        self.pass_cpu = []
        self.pass_latencies = []
        #: per pass: reference probe time over the probe time around it
        self.pass_scale = []
        self.input_bytes = 0
        self.accepted_bytes = 0
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self):
        return sum(self.pass_seconds)

    def rates(self, scaled=True):
        """Per-pass input bytes per second, at reference host speed
        unless ``scaled`` is false."""
        factors = self.pass_scale if scaled else [1.0] * len(
            self.pass_seconds
        )
        return [
            size / (seconds * factor)
            for size, seconds, factor in zip(
                self.pass_bytes, self.pass_seconds, factors
            )
        ]

    def median_rate(self, scaled=True):
        rates = self.rates(scaled)
        return statistics.median(rates) if rates else 0.0

    def cpu_per_byte(self):
        """Per-pass CPU seconds per input byte, at reference speed."""
        return [
            cpu * factor / size
            for size, cpu, factor in zip(
                self.pass_bytes, self.pass_cpu, self.pass_scale
            )
        ]

    def scaled_latencies(self):
        return [
            value * factor
            for batch, factor in zip(self.pass_latencies, self.pass_scale)
            for value in batch
        ]


# -- engine workloads ---------------------------------------------------------

class EngineRun:
    """Set-up and timed passes of one engine workload in this process."""

    def __init__(self, config):
        self.config = config
        self.spec = ENGINE_WORKLOADS[config["workload"]]
        self.corpus = self.spec["corpus"]
        self.data = read_corpus(config["work"], self.corpus)
        self.flip_pending = bool(config.get("flip_bit"))
        self.pass_files = 0
        #: passes checked but not timed: the replay priming pass and
        #: the warm-up passes
        self.untimed = Region()

    def set_up(self):
        """Import the program, build and warm the engine; returns the
        seconds until the first warm-up batch came back."""
        warmup = tail_slice(self.data, WARMUP_BYTES)
        start = clock()
        from repro.cli import parse_filter_expression
        from repro.engine import ChunkSource, FilterEngine

        self.expr = parse_filter_expression(CORPORA[self.corpus][3])
        self.engine = FilterEngine(
            backend="compiled", cache=True, chunk_bytes=CHUNK_BYTES,
            num_workers=self.spec["workers"],
        )
        self.engine.warm_up()
        batches = self.engine.stream(self.expr, io.BytesIO(warmup))
        next(batches)
        setup_s = clock() - start
        for _ in batches:
            pass
        self.stamped = stamped_source_class(ChunkSource)
        return setup_s

    def load_reference(self):
        import numpy as np

        self.records, self.lengths, self.ref = corpus_arrays(
            self.data, self.config["work"], self.corpus
        )
        self.rng = np.random.default_rng([self.config["seed"], 17])

    def fresh_input(self):
        """A new record permutation of the base corpus, as the pass's
        input (built outside the pass timing) and its expected bits."""
        perm = self.rng.permutation(len(self.records))
        payload = b"".join([self.records[i] for i in perm])
        expected = self.ref[perm]
        accepted = int(self.lengths[perm][expected].sum())
        return payload, expected, accepted

    def next_input(self):
        return self.fresh_input() if self.spec["fresh"] else self.replay

    def source(self, payload):
        """The engine's own source for the workload's input shape,
        wrapped to note when each chunk reaches the engine."""
        from repro.engine import as_chunk_source

        if self.spec["input"] == "handle":
            data = io.BytesIO(payload)
        else:
            # a path: large regular files take the engine's mmap path;
            # two names alternate so a file is never rewritten while
            # it is mapped
            data = os.path.join(
                self.config["work"], f"pass-{self.pass_files % 2}.ndjson"
            )
            self.pass_files += 1
            with open(data, "wb") as handle:
                handle.write(payload)
        return self.stamped(as_chunk_source(data, CHUNK_BYTES))

    def run_pass(self, engine, pass_input, region, tracer):
        """Stream one pass, check it, and add it to ``region``.

        A batch's latency runs from when the chunk that completed it
        reached the engine to when the batch came back."""
        import numpy as np

        payload, expected, expected_accepted = pass_input
        source = self.source(payload)
        sink = NullSink()
        parts = []
        latencies = []
        region.attempted += 1
        cpu_before = cpu_seconds(self.pids)
        begin = clock()
        batches = engine.stream(self.expr, source)
        try:
            for batch in batches:
                arrived = source.arrival(batch.bytes_seen)
                latencies.append(clock() - arrived)
                parts.append(batch.matches)
                with tracer.span("engine.emit"):
                    for record in batch.accepted:
                        sink.write(record)
        finally:
            batches.close()
            source.close()
        seconds = clock() - begin
        cpu = cpu_seconds(self.pids) - cpu_before
        bits = np.concatenate(parts) if parts else np.zeros(0, bool)
        if self.flip_pending and bits.shape[0]:
            bits[0] = not bits[0]
            self.flip_pending = False
        if (bits.shape != expected.shape
                or not np.array_equal(bits, expected)
                or sink.bytes != expected_accepted):
            region.failed += 1
            print(
                f"measure: pass {region.attempted} differs from the "
                "reference bits", file=sys.stderr,
            )
            return
        region.pass_seconds.append(seconds)
        region.pass_bytes.append(len(payload))
        region.pass_cpu.append(cpu)
        region.pass_latencies.append(latencies)
        region.input_bytes += len(payload)
        region.accepted_bytes += sink.bytes

    def prime(self, tracer):
        """Replay workload: one priming pass of the payload every timed
        pass repeats, part of set-up.  Returns its seconds."""
        if self.spec["fresh"]:
            return 0.0
        self.replay = self.fresh_input()
        begin = clock()
        self.run_pass(self.engine, self.replay, self.untimed, tracer)
        return clock() - begin

    def warm(self, tracer):
        """Untimed passes before the timed region, so the engine's
        caches reach their bounded size first."""
        for _ in range(WARM_PASSES):
            self.run_pass(
                self.engine, self.next_input(), self.untimed, tracer
            )

    def timed(self, seconds, tracer):
        """Passes until ``seconds`` of wall time have gone by.

        The host probe runs before the first pass and again whenever
        ``PROBE_EVERY_S`` of pass time has gone by; the passes between
        two probes are scaled by the mean of the two."""
        region = Region()
        errors = 0
        stop = clock() + seconds
        probed = self.probe.sample()
        segment_start = 0.0
        while clock() < stop and errors < MAX_CONSECUTIVE_ERRORS:
            failed_before = region.failed
            try:
                self.run_pass(
                    self.engine, self.next_input(), region, tracer
                )
            except Exception:
                region.failed += 1
                traceback.print_exc()
            errors = errors + 1 if region.failed > failed_before else 0
            if (region.wall_s - segment_start >= PROBE_EVERY_S
                    or clock() >= stop):
                now = self.probe.sample()
                pending = len(region.pass_seconds) - len(region.pass_scale)
                region.pass_scale += [scale((probed + now) / 2)] * pending
                probed, segment_start = now, region.wall_s
        pending = len(region.pass_seconds) - len(region.pass_scale)
        region.pass_scale += [scale(probed)] * pending
        return region

    def serial_rate(self, tracer):
        """Throughput of one serial pass over a fresh permutation (the
        baseline of ``transport.speedup_vs_serial``)."""
        from repro.engine import FilterEngine

        serial = FilterEngine(
            backend="compiled", cache=True, chunk_bytes=CHUNK_BYTES
        )
        region = Region()
        before = self.probe.sample()
        try:
            self.run_pass(serial, self.fresh_input(), region, tracer)
        finally:
            serial.close()
        factor = scale((before + self.probe.sample()) / 2)
        region.pass_scale = [factor] * len(region.pass_seconds)
        return region.median_rate()


def delta(new, old, key):
    return new.get(key, 0) - old.get(key, 0)


def engine_extras(before, after, region, untraced, tracer, hooks,
                  serial_rate):
    """Per-layer values of an engine workload that come from engine
    counters and the two halves of the run, not from span rows."""
    gigabytes = region.input_bytes / 1e9 or 1.0
    wall = region.wall_s or 1.0
    cache_b, cache_a = before["cache"] or {}, after["cache"] or {}
    pool_b, pool_a = before["workers"] or {}, after["workers"] or {}
    hits = delta(cache_a, cache_b, "hits") + delta(
        pool_a, pool_b, "cache_hits"
    )
    misses = delta(cache_a, cache_b, "misses") + delta(
        pool_a, pool_b, "cache_misses"
    )
    ring = delta(pool_a, pool_b, "ring_results")
    pickled = delta(pool_a, pool_b, "pickled_results")
    per_worker = [
        counters["records"]
        - (pool_b.get("workers") or {}).get(pid, {}).get("records", 0)
        for pid, counters in (pool_a.get("workers") or {}).items()
    ]
    mean_records = (
        sum(per_worker) / len(per_worker) if per_worker else 0
    )
    attributed = tracer.attributed_seconds()
    traced_rate = region.median_rate()
    return {
        "atom_cache.hits": hits / gigabytes,
        "atom_cache.misses": misses / gigabytes,
        "atom_cache.evictions": (
            delta(cache_a, cache_b, "evictions") / gigabytes
        ),
        "atom_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "transport.ring_frac": (
            ring / (ring + pickled) if ring + pickled else 0.0
        ),
        "transport.fallback_batches": (
            delta(pool_a, pool_b, "fallback_batches") / gigabytes
        ),
        "transport.worker_skew": (
            max(per_worker) / mean_records - 1 if mean_records else 0.0
        ),
        "transport.speedup_vs_serial": (
            untraced.median_rate() / serial_rate if serial_rate else 0.0
        ),
        "trace.coverage": attributed / wall,
        "trace.unattributed_s": (wall - attributed) / gigabytes,
        "trace.overhead": (
            untraced.median_rate() / traced_rate - 1 if traced_rate
            else 0.0
        ),
        "trace.unhooked": len(hooks.unhooked),
    }


def end_to_end(region, setup_s, peak_rss_bytes):
    """The end-to-end metrics of an engine workload's timed region.

    Timings are per pass and at reference host speed (see
    :mod:`hostspeed`), summarised by their median; latencies pool every
    batch of the region."""
    latencies = region.scaled_latencies()
    cpu = region.cpu_per_byte()
    return {
        "throughput_mb_s": region.median_rate() / 1e6,
        "cpu_s_per_gb": statistics.median(cpu) * 1e9 if cpu else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_bytes / 1e6,
        "filtered_frac": (
            1 - region.accepted_bytes / region.input_bytes
            if region.input_bytes else 0.0
        ),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
    }


def run_engine_workload(config):
    run = EngineRun(config)
    tracer = Tracer()
    setup_s = run.set_up()
    run.load_reference()
    run.pids = descendants(os.getpid())
    setup_s += run.prime(tracer)
    document = {
        "setup_s": setup_s,
        "config": {
            "workload": config["workload"],
            "backend": "compiled",
            "num_workers": run.spec["workers"],
            "chunk_bytes": CHUNK_BYTES,
            "input": run.spec["input"],
            "cache": True,
            "verify_kernels": run.engine.config.verify_kernels,
            "pytest_loaded": "pytest" in sys.modules,
        },
    }
    if config["mode"] == "setup":
        run.engine.close()
        return document

    run.warm(tracer)
    # started after the process tree was listed: not part of the program
    run.probe = ProbeProcess()
    try:
        measure_engine(run, config, document, tracer)
    finally:
        run.probe.close()
        run.engine.close()
    return document


def measure_engine(run, config, document, tracer):
    """The timed region(s) of an engine workload, into ``document``."""
    setup_s = document["setup_s"]
    document["hwm_reset"] = reset_peak_rss(run.pids)
    seconds = config["seconds"]
    if not config["trace"]:
        region = untraced = run.timed(seconds, tracer)
        document["e2e"] = end_to_end(
            region, setup_s, peak_rss_bytes(run.pids)
        )
    else:
        untraced = run.timed(seconds / 2, tracer)
        document["e2e"] = end_to_end(
            untraced, setup_s, peak_rss_bytes(run.pids)
        )
        before = run.engine.stats()
        hooks = Hooks(tracer)
        tracer.enabled = True
        try:
            region = run.timed(seconds / 2, tracer)
        finally:
            tracer.enabled = False
            hooks.remove()
        after = run.engine.stats()
        serial_rate = (
            run.serial_rate(tracer) if run.spec["workers"] > 1 else 0.0
        )
        extras = engine_extras(
            before, after, region, untraced, tracer, hooks, serial_rate
        )
        extras["host.probe_ms"] = run.probe.median() * 1e3
        document["layers"] = layer_metrics(
            tracer.rows(), region.input_bytes / 1e9, extras
        )
        document["unhooked"] = hooks.unhooked
        region.attempted += untraced.attempted
        region.failed += untraced.failed
    document["host_probe_ms"] = run.probe.median() * 1e3
    document["attempted"] = region.attempted + run.untimed.attempted
    document["failed"] = region.failed + run.untimed.failed
    # what the printed end-to-end numbers rest on
    document["samples"] = sum(
        len(batch) for batch in untraced.pass_latencies
    )
    document["unscaled_throughput_mb_s"] = (
        untraced.median_rate(scaled=False) / 1e6
    )


def main(config_path):
    with open(config_path) as handle:
        config = json.load(handle)
    if config["workload"] == "gateway-mixed":
        from gateway_load import run_gateway_workload

        document = run_gateway_workload(config)
    else:
        document = run_engine_workload(config)
    with open(config["result"], "w") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
