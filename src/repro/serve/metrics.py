"""Per-tenant and aggregate observability of the filter gateway.

Every session the :class:`~repro.serve.server.FilterGateway` accepts is
charged to a *tenant* (the name the client sent in its HELLO frame).
:class:`TenantMetrics` accumulates that tenant's traffic counters —
bytes, records, accept rate, queue depth/bytes (with peaks), filter
swaps and their reconfiguration downtime, per-tenant AtomCache
hits/misses — and :class:`GatewayMetrics` aggregates them next to the
shared engine's ``stats()`` (cache hit rate, backend, workers).  The
same snapshot is rendered by the STATS frame and by
``repro serve --status``.

Per-tenant cache hits/misses are attributed by sampling the calling
executor thread's own lookup counts
(:meth:`~repro.engine.atom_cache.AtomCache.thread_counts`) around each
batch evaluation, so concurrent engine-pool evaluations of different
tenants never book each other's lookups.
"""

from __future__ import annotations

import threading


class TenantMetrics:
    """Traffic counters of one tenant (across all of its sessions).

    Deliberately lock-free: every write happens on the gateway's
    single event-loop thread (session handlers, queue accounting,
    evaluation results are all awaited there), so writes never race.
    The only cross-thread reads are stats snapshots
    (``GatewayMetrics.snapshot`` polled by ``GatewayThread``), which
    are approximate by design — a snapshot racing one in-flight
    increment reads a value at most one update stale, never a torn
    one (CPython int/float attribute stores are atomic).  Keeping the
    hot per-chunk counters unlocked avoids a lock acquisition per
    queue event on the busiest path the gateway has.
    """

    def __init__(self, tenant):
        self.tenant = tenant
        self.sessions = 0
        self.active_sessions = 0
        self.queries = 0
        self.bytes_in = 0
        self.chunks = 0
        self.records = 0
        self.accepted = 0
        self.result_batches = 0
        self.swaps = 0
        self.reconfiguration_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.errors = 0
        self.disconnects = 0
        #: chunks/bytes currently queued awaiting evaluation
        self.queued_chunks = 0
        self.queued_bytes = 0
        self.peak_queued_chunks = 0
        self.peak_queued_bytes = 0

    # -- session lifecycle ------------------------------------------------

    def session_opened(self):
        self.sessions += 1
        self.active_sessions += 1

    def session_closed(self, disconnected=False):
        self.active_sessions -= 1
        if disconnected:
            self.disconnects += 1

    # -- queue accounting --------------------------------------------------

    def enqueued(self, nbytes):
        self.queued_chunks += 1
        self.queued_bytes += nbytes
        self.peak_queued_chunks = max(
            self.peak_queued_chunks, self.queued_chunks
        )
        self.peak_queued_bytes = max(
            self.peak_queued_bytes, self.queued_bytes
        )

    def dequeued(self, nbytes):
        self.queued_chunks -= 1
        self.queued_bytes -= nbytes

    # -- evaluation accounting ---------------------------------------------

    def evaluated(self, records, accepted, cache_delta=None):
        self.records += records
        self.accepted += accepted
        self.result_batches += 1
        if cache_delta is not None:
            hits, misses = cache_delta
            self.cache_hits += hits
            self.cache_misses += misses

    def swapped(self, downtime_seconds):
        self.swaps += 1
        self.reconfiguration_seconds += downtime_seconds

    # -- reporting ----------------------------------------------------------

    @property
    def accept_rate(self):
        return self.accepted / self.records if self.records else 0.0

    @property
    def cache_hit_rate(self):
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def snapshot(self):
        return {
            "tenant": self.tenant,
            "sessions": self.sessions,
            "active_sessions": self.active_sessions,
            "queries": self.queries,
            "bytes_in": self.bytes_in,
            "chunks": self.chunks,
            "records": self.records,
            "accepted": self.accepted,
            "accept_rate": self.accept_rate,
            "result_batches": self.result_batches,
            "swaps": self.swaps,
            "reconfiguration_seconds": self.reconfiguration_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "errors": self.errors,
            "disconnects": self.disconnects,
            "queued_chunks": self.queued_chunks,
            "queued_bytes": self.queued_bytes,
            "peak_queued_chunks": self.peak_queued_chunks,
            "peak_queued_bytes": self.peak_queued_bytes,
        }


class GatewayMetrics:
    """Aggregate view over every tenant plus gateway-level counters."""

    def __init__(self):
        self._tenants = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self.admission_rejections = 0  # guarded-by: _lock
        self.protocol_errors = 0  # guarded-by: _lock
        #: bytes queued across every session right now (the quantity
        #: the gateway's max_inflight_bytes policy bounds)
        self.inflight_bytes = 0  # guarded-by: _lock
        self.peak_inflight_bytes = 0  # guarded-by: _lock

    def tenant(self, name):
        with self._lock:
            metrics = self._tenants.get(name)
            if metrics is None:
                metrics = self._tenants[name] = TenantMetrics(name)
            return metrics

    @property
    def active_sessions(self):
        with self._lock:
            return sum(
                t.active_sessions for t in self._tenants.values()
            )

    def note_admission_rejection(self):
        with self._lock:
            self.admission_rejections += 1

    def note_protocol_error(self):
        with self._lock:
            self.protocol_errors += 1

    def inflight_changed(self, delta):
        with self._lock:
            self.inflight_bytes += delta
            self.peak_inflight_bytes = max(
                self.peak_inflight_bytes, self.inflight_bytes
            )

    def snapshot(self, engine_stats=None):
        """One JSON-serialisable stats document (the STATS_OK payload).

        Safe to call from any thread: the tenant registry is copied
        under the lock before iteration (`GatewayThread.snapshot()`
        polls from outside the event-loop thread).
        """
        with self._lock:
            registry = sorted(self._tenants.items())
            gateway_counters = {
                "admission_rejections": self.admission_rejections,
                "protocol_errors": self.protocol_errors,
                "inflight_bytes": self.inflight_bytes,
                "peak_inflight_bytes": self.peak_inflight_bytes,
            }
        tenants = {
            name: metrics.snapshot() for name, metrics in registry
        }
        totals = {
            "sessions": sum(t["sessions"] for t in tenants.values()),
            "active_sessions": sum(
                t["active_sessions"] for t in tenants.values()
            ),
            "bytes_in": sum(t["bytes_in"] for t in tenants.values()),
            "records": sum(t["records"] for t in tenants.values()),
            "accepted": sum(t["accepted"] for t in tenants.values()),
            "swaps": sum(t["swaps"] for t in tenants.values()),
            "reconfiguration_seconds": sum(
                t["reconfiguration_seconds"] for t in tenants.values()
            ),
            "errors": sum(t["errors"] for t in tenants.values()),
            "disconnects": sum(
                t["disconnects"] for t in tenants.values()
            ),
            **gateway_counters,
        }
        records = totals["records"]
        totals["accept_rate"] = (
            totals["accepted"] / records if records else 0.0
        )
        snapshot = {"gateway": totals, "tenants": tenants}
        if engine_stats is not None:
            snapshot["engine"] = _jsonable(engine_stats)
        return snapshot


def _jsonable(obj):
    """Engine stats contain tuples/numpy scalars; make them JSON-safe."""
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, bytes):
        return obj.decode("utf-8", "replace")
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def render_status(snapshot):
    """Human-readable rendering of a stats snapshot (CLI --status)."""
    from ..eval.report import render_table

    gateway = snapshot["gateway"]
    lines = [
        "gateway: "
        f"{gateway['active_sessions']} active / "
        f"{gateway['sessions']} total sessions, "
        f"{gateway['bytes_in']} bytes in, "
        f"{gateway['accepted']}/{gateway['records']} records accepted "
        f"({gateway['accept_rate']:.1%}), "
        f"{gateway['admission_rejections']} admission rejections, "
        f"{gateway['inflight_bytes']} bytes in flight "
        f"(peak {gateway['peak_inflight_bytes']})",
    ]
    engine = snapshot.get("engine") or {}
    cache = engine.get("cache")
    if cache:
        lines.append(
            "shared cache: "
            f"{cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {cache['hit_rate']:.1%}), "
            f"{cache['entries']} entries, {cache['bytes']} bytes"
        )
    workers = engine.get("workers")
    if workers:
        lines.append(
            "resident workers: "
            f"{workers['num_workers']} per engine, "
            f"{workers['sessions']} sessions / "
            f"{workers['configures']} configures / "
            f"{workers['respawns']} respawns, "
            f"{workers['shipped_entries']} cache entries shipped, "
            f"{workers['cache_hits']} worker hits / "
            f"{workers['cache_misses']} misses"
        )
    tenants = snapshot["tenants"]
    if tenants:
        rows = [
            [
                name,
                f"{t['sessions']}",
                f"{t['bytes_in']}",
                f"{t['accepted']}/{t['records']}",
                f"{t['accept_rate']:.1%}",
                f"{t['cache_hit_rate']:.1%}",
                f"{t['swaps']}",
                f"{t['peak_queued_bytes']}",
            ]
            for name, t in tenants.items()
        ]
        lines.append(render_table(
            ["Tenant", "Sessions", "Bytes", "Accepted", "Rate",
             "Cache hits", "Swaps", "Peak queue B"],
            rows,
        ))
    return "\n".join(lines)
