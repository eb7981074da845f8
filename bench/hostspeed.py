"""Host speed: a fixed calibration probe, timed beside the program.

The benchmark runs on shared hosts where other tenants can slow every
process by tens of percent for minutes at a time: on a 2-core Xeon
host the same 16 MB pass took from 0.54 to 0.77 s within six minutes.
No statistic taken inside one run removes that, because the whole run
is slowed.  So the benchmark measures the host's speed at the moments
it measures the program, with work that never changes between commits,
and reports timings at a reference host speed.

The probe is numpy passes over a 1 MB byte array, a ``bytes.split`` and
a dict build: the kinds of work the filter does, but none of the
program's code.  It runs in its own small process (:class:`ProbeProcess`)
so that nothing the program does to its own process (heap size, cache
contents) can change the probe's speed, and only while the program is
between passes or stopped, so the two never compete for a core.  A
timing taken while the probe ran in ``P`` seconds is reported as
``timing * REFERENCE_S / P``.  The raw timings stay in the result
document, and the probe's median is printed with every run.

Usage as the probe process: ``python3 bench/hostspeed.py`` answers each
``sample`` line on standard input with the probe's time in seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: the probe's typical time on the reference host (2-core Intel Xeon,
#: Linux), so that scaled numbers read close to raw ones there; only
#: ratios to it matter
REFERENCE_S = 0.024


class HostProbe:
    """A fixed ~24 ms workload; :meth:`run` times one pass of it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._array = rng.integers(0, 256, size=1 << 20, dtype=np.uint8)
        self._text = bytes(self._array[:1 << 18])
        self._keys = [
            bytes(rng.integers(97, 123, size=12, dtype=np.uint8))
            for _ in range(2000)
        ]
        self._steps = np.arange(0, 1 << 13, 4)
        self.run()  # the first run allocates; it is not a sample

    def run(self):
        import numpy as np

        start = time.perf_counter()
        for _ in range(4):
            marks = (self._array == 34) | (self._array == 44)
            counts = np.cumsum(marks, dtype=np.int64)
            np.searchsorted(counts, self._steps)
            self._text.split(b'"')
            {key: len(key) for key in self._keys}
        return time.perf_counter() - start


class ProbeProcess:
    """The probe in a child process; :meth:`sample` asks for one run."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.samples = []

    def sample(self):
        self.process.stdin.write("sample\n")
        self.process.stdin.flush()
        value = float(self.process.stdout.readline())
        self.samples.append(value)
        return value

    def median(self):
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] if ordered else REFERENCE_S

    def close(self):
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def scale(probe_seconds):
    """Factor turning a timing taken at this probe time into one at
    the reference host speed."""
    return REFERENCE_S / probe_seconds


def main():
    probe = HostProbe()
    for line in sys.stdin:
        if line.strip() == "sample":
            print(repr(probe.run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
