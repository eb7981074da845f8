"""Repeatability of the benchmark on one commit.

Usage::

    python3 bench/spread.py [--runs N] [--seed S] [--vary-seed]
                            [--workload NAME ...] [--seconds S]

Runs two sets (A and B) of ``N`` runs of ``run.py`` per workload, on the
same code, alternating which set goes first in each round.  Run ``i``
of both sets uses seed ``S`` (or ``S + i`` with ``--vary-seed``).  For
every (workload, end-to-end metric) it prints each set's median, the
change from A to B in the metric's "worse" direction against the
metric's bound, and each set's quartile spread: the distance between
the first and third quartile (``statistics.quantiles(n=4)``) as a share
of the median.  A pair is flagged when the median change exceeds the
bound, or a spread exceeds it (``setup_s`` spreads excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spec import BENCH_DIR, ROOT, WORKLOADS, load_declaration


def one_run(workload, seed, seconds):
    """Metric values of one ``run.py`` invocation (``None`` if it
    failed)."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(old, new, better):
    """Relative change from ``old`` to ``new``; positive is worse."""
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    metrics = load_declaration()["end_to_end"]
    workloads = args.workload or list(WORKLOADS)
    values = {
        side: {w: {m["name"]: [] for m in metrics} for w in workloads}
        for side in "AB"
    }
    failures = 0
    for index in range(args.runs):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in workloads:
            for side in ("AB" if index % 2 == 0 else "BA"):
                begin = time.monotonic()
                result = one_run(workload, seed, args.seconds)
                outcome = f"{time.monotonic() - begin:.1f} s"
                if result is None:
                    failures += 1
                    outcome = "failed after " + outcome
                else:
                    for name, value in result.items():
                        values[side][workload][name].append(value)
                print(f"run {index} {side} {workload} seed {seed}: "
                      f"{outcome}", file=sys.stderr)

    flagged = 0
    print(f"{'workload':14s} {'metric':16s} {'median A':>11s} "
          f"{'median B':>11s} {'worse':>7s} {'bound':>6s} "
          f"{'spread A':>8s} {'spread B':>8s}")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a = values["A"][workload][name]
            b = values["B"][workload][name]
            if not a or not b:
                continue
            change = worsening(
                statistics.median(a), statistics.median(b),
                metric["better"],
            )
            spreads = (spread(a), spread(b))
            bad = change > metric["bound"] or (
                name != "setup_s" and max(spreads) > metric["bound"]
            )
            flagged += bad
            print(f"{workload:14s} {name:16s} "
                  f"{statistics.median(a):11.5g} "
                  f"{statistics.median(b):11.5g} {change:+7.1%} "
                  f"{metric['bound']:6.0%} {spreads[0]:8.1%} "
                  f"{spreads[1]:8.1%}{'  <-- over bound' if bad else ''}")
    print(f"{flagged} flagged, {failures} failed runs")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
