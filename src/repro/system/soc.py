"""System-level simulation of the Fig. 4 architecture (§IV-B).

A Zynq-7000-style SoC: JSON preloaded in PS RAM, DMA'd into 7 parallel
byte-per-cycle raw-filter lanes in the programmable logic at 200 MHz,
match bitmap DMA'd back.  The simulation interleaves input bursts, lane
consumption and result write-back on a shared AXI port and reports the
achieved end-to-end rate, which lands near the paper's 1.33 GB/s against
the 1.4 GB/s theoretical lane bandwidth.

The lanes' functional output (the match bits) comes from the behavioural
filter evaluation, so the experiment also *verifies* that filtering at
line rate loses no records.
"""

from __future__ import annotations

from ..engine import FilterEngine
from ..errors import ReproError
from .dma import DMAConfig, DMAEngine
from .pipeline import FilterLane

GIGABYTE = 1e9


class SoCConfig:
    """Platform parameters of the ZC706-style target."""

    def __init__(self, num_lanes=7, clock_hz=200_000_000,
                 lane_fifo_bytes=8192, dma=None):
        if num_lanes <= 0:
            raise ReproError("need at least one lane")
        self.num_lanes = num_lanes
        self.clock_hz = clock_hz
        self.lane_fifo_bytes = lane_fifo_bytes
        self.dma = dma or DMAConfig()

    @property
    def theoretical_bandwidth(self):
        """Bytes/s if every lane consumed one byte every cycle forever."""
        return self.num_lanes * self.clock_hz


class ThroughputReport:
    """Outcome of one system run."""

    def __init__(self, total_bytes, total_cycles, clock_hz,
                 theoretical_bandwidth, matches, per_lane_bytes,
                 host_seconds=None):
        self.total_bytes = total_bytes
        self.total_cycles = total_cycles
        self.clock_hz = clock_hz
        self.theoretical_bandwidth = theoretical_bandwidth
        self.matches = matches
        self.per_lane_bytes = per_lane_bytes
        #: wall-clock seconds the host CPU spent producing the same
        #: match bits through the software FilterEngine (the host
        #: co-processing model — includes AtomCache service, so warm
        #: repeats are near zero); ``None`` for non-functional runs
        self.host_seconds = host_seconds

    @property
    def seconds(self):
        return self.total_cycles / self.clock_hz

    @property
    def host_bandwidth(self):
        """Bytes/s of the software engine run on the host, if measured."""
        if not self.host_seconds:
            return None
        return self.total_bytes / self.host_seconds

    @property
    def coprocessing_speedup(self):
        """FPGA-lane speedup over the measured host software path."""
        if not self.host_seconds or self.seconds == 0:
            return None
        return self.host_seconds / self.seconds

    @property
    def achieved_bandwidth(self):
        """End-to-end bytes/s (the paper measures 1.33 GB/s)."""
        if self.total_cycles == 0:
            return 0.0
        return self.total_bytes / self.seconds

    @property
    def achieved_gbps(self):
        return self.achieved_bandwidth / GIGABYTE

    @property
    def utilization(self):
        return self.achieved_bandwidth / self.theoretical_bandwidth

    def sustains_line_rate(self, nic_gbit_per_s=10.0):
        """Can the system keep up with a NIC of the given line rate?"""
        nic_bytes_per_s = nic_gbit_per_s * 1e9 / 8.0
        return self.achieved_bandwidth >= nic_bytes_per_s

    def __repr__(self):
        return (
            f"ThroughputReport({self.achieved_gbps:.2f} GB/s, "
            f"util={self.utilization:.2%})"
        )


class RawFilterSoC:
    """The complete Fig. 4 system: DMA + N parallel raw-filter lanes."""

    def __init__(self, expr, config=None, engine=None):
        self.expr = expr
        self.config = config or SoCConfig()
        #: the shared execution layer producing functional match bits
        self.engine = engine or FilterEngine()
        self.lanes = [
            FilterLane(expr, lane_id=i, engine=self.engine)
            for i in range(self.config.num_lanes)
        ]

    def _partition(self, dataset):
        """Round-robin record distribution across lanes (record-granular,
        as a real splitter keyed on newline boundaries would do)."""
        assignments = [[] for _ in self.lanes]
        for index in range(len(dataset)):
            assignments[index % len(self.lanes)].append(index)
        return assignments

    def run(self, dataset, precomputed_matches=None, functional=True):
        """Stream a dataset through the system; returns ThroughputReport.

        Args:
            dataset: the (inflated) record corpus — a ``Dataset``, or
                any ingest object the engine accepts (a
                :class:`~repro.engine.sources.ChunkSource`, raw bytes,
                a binary handle …), framed on newline boundaries by the
                engine's ingest layer exactly as the hardware splitter
                would.
            precomputed_matches: optional per-record accept bits; when
                absent and ``functional`` is true they are computed by
                the shared engine (identical to the lanes' logic).
            functional: evaluate match bits at all (disable for pure
                timing runs on very large corpora).
        """
        dataset = self.engine.ingest(dataset, name="soc-ingest")
        config = self.config
        dma = config.dma
        matches = precomputed_matches
        if matches is None and functional:
            matches = self.engine.match_bits(self.expr, dataset)

        assignments = self._partition(dataset)
        per_lane_bytes = [
            int(dataset.lengths[record_indices].sum())
            for record_indices in assignments
        ]

        # burst-granular round-robin delivery on the shared AXI port:
        # each burst pays the descriptor overhead, then streams at the
        # bus width; a lane consumes delivered bytes one per cycle and
        # stalls when its FIFO runs dry (which happens exactly when the
        # bus cannot sustain num_lanes bytes/cycle aggregate)
        remaining = list(per_lane_bytes)
        bus_time = dma.channel_setup_cycles
        lane_avail = [0] * len(self.lanes)  # cycle when lane is drained
        while any(remaining):
            for lane_index in range(len(self.lanes)):
                if remaining[lane_index] <= 0:
                    continue
                chunk = min(remaining[lane_index], dma.burst_bytes)
                bus_time += dma.descriptor_overhead_cycles
                bus_time += -(-chunk // dma.bus_bytes_per_cycle)
                remaining[lane_index] -= chunk
                # the lane resumes at delivery time if it was starved
                lane_avail[lane_index] = (
                    max(lane_avail[lane_index], bus_time) + chunk
                )

        # result write-back: one match bit per record, packed; shares the
        # bus after each lane drains
        output_dma = DMAEngine(dma)
        output_dma.busy_until = bus_time
        finish = 0
        for lane_index, record_indices in enumerate(assignments):
            lane_done = (
                lane_avail[lane_index]
                + self.lanes[lane_index].pipeline_fill_cycles
            )
            result_bytes = max(1, (len(record_indices) + 7) // 8)
            _, written = output_dma.transfer(
                result_bytes, earliest_start=lane_done
            )
            finish = max(finish, written)

        total_cycles = int(finish) if len(dataset) else 0
        total_bytes = int(sum(per_lane_bytes))
        return ThroughputReport(
            total_bytes,
            total_cycles,
            config.clock_hz,
            config.theoretical_bandwidth,
            matches,
            per_lane_bytes,
        )
