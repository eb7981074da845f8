"""CPU time and peak memory of a process tree, read from ``/proc``.

The program under test may be several processes (resident workers,
the ``repro serve`` gateway), so both numbers are summed over a root
process and its descendants.  Callers list the tree once with
:func:`descendants` when the timed region starts (the program's
processes are all alive by then) and pass that list on, which keeps a
per-pass reading to a few small file reads.

Peak memory is the kernel's VmHWM high-water mark, reset at the start
of the timed region by writing ``5`` to each process's ``clear_refs``;
where the kernel refuses the reset, :func:`reset_peak_rss` returns
``False`` and the reading is the lifetime peak.
"""

from __future__ import annotations

import os
import time

#: Linux encodes a process's CPU-time clock id as ``(~pid << 3) | 2``
_CPUCLOCK_SCHED = 2

def _stat_fields(pid):
    with open(f"/proc/{pid}/stat") as handle:
        data = handle.read()
    # the command name may hold spaces and parentheses: split after it
    return data[data.rindex(")") + 2:].split()


def descendants(root):
    """``root`` and every live process below it."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(entry)[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def group_members(pgid):
    """Live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(entry)
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def cpu_seconds(pids):
    """CPU seconds (all threads, user + system) summed over ``pids``.

    Read from each process's CPU-time clock, the one
    ``clock_getcpuclockid`` names: exact to the nanosecond, where
    ``/proc/<pid>/stat`` counts 10 ms ticks, too coarse for one pass.
    Processes that are gone count 0.
    """
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime(((~pid) << 3) | _CPUCLOCK_SCHED)
        except OSError:
            continue
    return total


def reset_peak_rss(pids):
    """Reset VmHWM of ``pids``; ``False`` if the kernel refused."""
    ok = True
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            ok = False
    return ok


def peak_rss_bytes(pids):
    """VmHWM summed over ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total
