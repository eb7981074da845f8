"""Multi-stream operation and reconfiguration (paper §IV-B, last ¶).

"Since the presented RFs require only a small amount of resources, even
more RFs can be used to process multiple data streams in parallel.
Furthermore, the programmable logic can be reconfigured, allowing the
RFs to be replaced when a new query is to be executed."

Two facilities model that:

* :class:`MultiStreamSoC` — partition the lanes among several streams,
  each with its own raw filter, and run them concurrently;
* :class:`ReconfigurableSoC` — swap the active raw filter at run time,
  paying a partial-reconfiguration latency proportional to the region's
  configuration-frame count (estimated from the filter's LUT footprint).
"""

from __future__ import annotations

import time

from ..core.cost import exact_luts
from ..engine import FilterEngine
from ..errors import ReproError
from .soc import RawFilterSoC, SoCConfig


class StreamAssignment:
    """One input stream with its raw filter and lane share."""

    __slots__ = ("name", "expr", "lanes")

    def __init__(self, name, expr, lanes):
        if lanes <= 0:
            raise ReproError("each stream needs at least one lane")
        self.name = name
        self.expr = expr
        self.lanes = lanes


class MultiStreamSoC:
    """Several independent filter pipelines sharing one device.

    Each stream gets a dedicated lane group (the paper's lanes are
    independent, so this is a static partition of the 7 lanes) and its
    own DMA channel; streams run concurrently and report individually.
    All streams share one :class:`FilterEngine` — the engine is
    expression-agnostic, so its backend caches and configuration are
    reused across every stream's filter.  The default engine carries an
    :class:`~repro.engine.atom_cache.AtomCache`, so streams whose
    filters share atoms over the same corpus reuse each other's atom
    masks (the default compiled backend reads and fills the cache).
    """

    def __init__(self, assignments, clock_hz=200_000_000, engine=None):
        total = sum(a.lanes for a in assignments)
        if not assignments:
            raise ReproError("need at least one stream")
        self.assignments = list(assignments)
        self.clock_hz = clock_hz
        self.total_lanes = total
        self.engine = engine or FilterEngine(cache=True)

    def run(self, datasets, functional=True):
        """Run every stream; ``datasets`` maps stream name -> corpus.

        A corpus is a ``Dataset`` or any ingest object the shared
        engine accepts (chunk sources, raw bytes, binary handles),
        framed through the engine's ingest layer.

        Returns {stream name: ThroughputReport}.  Wall-clock time of the
        whole device is the max over streams (they are concurrent).

        Functional runs time the shared engine's evaluation per stream
        and record it as :attr:`ThroughputReport.host_seconds`: the
        engine acts as the host co-processing model (the same filter
        run in software on the PS, against which the PL lanes report
        their speedup).  The measured time is the engine's *actual*
        cost, cache included — a warm AtomCache models a host that has
        already filtered this corpus, so repeated runs legitimately
        report near-zero host time (check ``engine.stats()`` in
        :meth:`host_coprocessing` to separate cold evaluation from
        cache service before comparing against the lanes).
        """
        reports = {}
        for assignment in self.assignments:
            if assignment.name not in datasets:
                raise ReproError(f"no dataset for stream {assignment.name!r}")
            dataset = self.engine.ingest(
                datasets[assignment.name],
                name=f"stream-{assignment.name}",
            )
            matches = None
            host_seconds = None
            if functional:
                host_start = time.perf_counter()
                matches = self.engine.match_bits(assignment.expr, dataset)
                host_seconds = time.perf_counter() - host_start
            soc = RawFilterSoC(
                assignment.expr,
                SoCConfig(
                    num_lanes=assignment.lanes, clock_hz=self.clock_hz
                ),
                engine=self.engine,
            )
            report = soc.run(
                dataset,
                precomputed_matches=matches,
                functional=functional,
            )
            report.host_seconds = host_seconds
            reports[assignment.name] = report
        return reports

    def aggregate_bandwidth(self, reports):
        """Sum of achieved stream bandwidths (device-level throughput)."""
        return sum(report.achieved_bandwidth
                   for report in reports.values())

    def device_seconds(self, reports):
        return max(report.seconds for report in reports.values())

    def host_seconds(self, reports):
        """Total software co-processing time across streams (the host
        evaluates streams sequentially, unlike the concurrent lanes)."""
        return sum(report.host_seconds or 0.0
                   for report in reports.values())

    def host_coprocessing(self, reports):
        """Summary of the host-vs-device co-processing model.

        Includes the shared engine's cache counters, making visible how
        much software evaluation the AtomCache absorbed across streams.
        """
        host = self.host_seconds(reports)
        device = self.device_seconds(reports)
        return {
            "host_seconds": host,
            "device_seconds": device,
            "device_speedup": host / device if device else None,
            "engine": self.engine.stats(),
        }


#: Zynq-7045-style ICAP configuration bandwidth (bytes/s)
ICAP_BYTES_PER_SECOND = 400_000_000
#: rough bitstream bytes per LUT in a partial region (frame overheads in)
BITSTREAM_BYTES_PER_LUT = 220


def reconfiguration_seconds(expr, spare_factor=1.5):
    """Partial-reconfiguration latency estimate for a raw-filter region.

    The region must be sized for the filter plus placement slack; the
    bitstream is streamed through the ICAP at its fixed bandwidth.
    """
    luts = exact_luts(expr)
    region_bytes = int(luts * spare_factor * BITSTREAM_BYTES_PER_LUT)
    return region_bytes / ICAP_BYTES_PER_SECOND


class ReconfigurableSoC:
    """A single-stream SoC whose raw filter can be swapped at run time."""

    def __init__(self, expr, config=None, engine=None):
        self.config = config or SoCConfig()
        self.expr = expr
        #: kept across reconfigurations — swapping the filter does not
        #: discard the execution layer, so the AtomCache keeps serving
        #: atoms the old and new filters share
        self.engine = engine or FilterEngine(cache=True)
        self.reconfigurations = 0
        self.reconfiguration_time = 0.0

    def reconfigure(self, expr, spare_factor=1.5):
        """Swap in a new filter; returns the downtime in seconds."""
        downtime = reconfiguration_seconds(expr, spare_factor)
        self.expr = expr
        self.reconfigurations += 1
        self.reconfiguration_time += downtime
        return downtime

    def run(self, dataset, functional=True):
        soc = RawFilterSoC(self.expr, self.config, engine=self.engine)
        return soc.run(dataset, functional=functional)

    def amortized_bandwidth(self, report):
        """Effective bytes/s including reconfiguration downtime so far."""
        busy = report.seconds + self.reconfiguration_time
        if busy == 0:
            return 0.0
        return report.total_bytes / busy
