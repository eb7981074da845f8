"""The repository benchmark: every workload, checked, in one command.

Usage::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]]

Without ``--workload`` every workload runs in turn.  ``BENCHMARK.json``
at the repository root declares the workloads, the end-to-end metrics
(printed by a plain run) and the per-layer metrics (printed by a traced
run), each with its unit; ``bench/README.md`` explains them.

Each workload run starts fresh processes, so nothing one run warms
survives into the next:

1. ``gate.py`` generates the base corpora from the seed, computes the
   reference bits and checks them against the scalar and exact
   oracles;
2. ``measure.py`` is started ``SETUP_SAMPLES - 1`` times to set the
   workload up and exit (set-up samples), then once more to set up and
   measure; ``setup_s`` is the median of all of them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every operation (pass or gateway chunk) returned the
reference bits; a run that cannot be carried out prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from proctree import group_members
from spec import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORK_ROOT,
    WORKLOADS,
    child_env,
    load_declaration,
)

DEFAULT_SEED = 7
SETUP_SAMPLES = 5
#: a single workload run, gate to teardown, ends within this many seconds
RUN_DEADLINE_S = 170
#: gate.py's exit status for wrong reference bits
WRONG_BITS = 3


class BenchError(Exception):
    """The benchmark could not be carried out (not a wrong result)."""


def _wait_group(pgid, seconds):
    deadline = time.monotonic() + seconds
    while group_members(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _reap_group(pgid, grace=3.0):
    """Wait until every process of a child's group has ended (e.g. the
    multiprocessing resource tracker), killing stragglers after
    ``grace`` seconds."""
    if _wait_group(pgid, grace):
        return
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    if not _wait_group(pgid, grace):
        raise BenchError(f"processes of group {pgid} would not exit")


def _run_child(script, config, deadline):
    """Run ``bench/<script> CONFIG`` in its own process group; returns
    its exit status.  Its standard output goes to our standard error,
    so the result line stays last on standard output."""
    config_path = os.path.join(
        config["work"], f"{script}-{config.get('mode', 'gate')}.json"
    )
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, script), config_path],
        cwd=ROOT, env=child_env(), stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    try:
        return process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchError(f"{script} did not finish in time") from None
    finally:
        _reap_group(process.pid)


def _measure(config, deadline):
    config = dict(config, result=os.path.join(
        config["work"], f"result-{config['mode']}.json"
    ))
    status = _run_child("measure.py", config, deadline)
    if status != 0:
        raise BenchError(
            f"measure.py ({config['workload']}, {config['mode']}) "
            f"exited with status {status}"
        )
    with open(config["result"]) as handle:
        return json.load(handle)


def run_workload(name, seed=DEFAULT_SEED, seconds=None, trace=False,
                 scale=1.0, setup_samples=SETUP_SAMPLES, flip_bit=False):
    """Gate, set up and measure one workload; returns its result.

    ``scale`` shrinks every corpus and ``flip_bit`` flips one output bit
    of the first checked operation (so the check must fail); both exist
    for the smoke test.  A traced run takes no set-up samples: its
    end-to-end numbers come from the untraced half and are not printed.
    """
    if seconds is None:
        seconds = load_declaration()["run_seconds"]
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    base = {"workload": name, "seed": seed, "scale": scale, "work": work}
    try:
        status = _run_child("gate.py", base, deadline)
        if status == WRONG_BITS:
            return {"workload": name, "correct": False, "attempted": 1,
                    "failed": 1, "gate_failed": True}
        if status != 0:
            raise BenchError(f"gate.py exited with status {status}")
        setup = []
        if not trace:
            for _ in range(setup_samples - 1):
                sample = _measure(
                    dict(base, mode="setup", seconds=seconds, trace=0),
                    deadline,
                )
                setup.append(sample["setup_s"])
        document = _measure(
            dict(base, mode="measure", seconds=seconds, trace=int(trace),
                 flip_bit=flip_bit),
            deadline,
        )
        setup.append(document["setup_s"])
        document["e2e"]["setup_s"] = statistics.median(setup)
        document.update(
            workload=name, setup_samples=setup,
            correct=document["failed"] == 0,
        )
        return document
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_values(result, trace, declaration):
    """``{name: {"value", "unit"}}`` for the declared metrics."""
    kind, source = (
        ("per_layer", result.get("layers", {})) if trace
        else ("end_to_end", result.get("e2e", {}))
    )
    metrics = {}
    for metric in declaration[kind]:
        if metric["name"] not in source:
            raise BenchError(
                f"{result['workload']} did not report {metric['name']}"
            )
        metrics[metric["name"]] = {
            "value": source[metric["name"]], "unit": metric["unit"],
        }
    return metrics


def _print_summary(result, metrics):
    attempted, failed = result["attempted"], result["failed"]
    print(f"{result['workload']}: {attempted} operations, {failed} "
          f"failed (error_rate {failed / attempted:g})")
    if result.get("gate_failed"):
        print("  the correctness gate failed: reference bits are wrong")
        return
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if result.get("hwm_reset") is False:
        print("  peak_rss_mb is the lifetime peak: the kernel refused "
              "to reset VmHWM")
    if result.get("unhooked"):
        print(f"  unhooked: {', '.join(result['unhooked'])}")
    print(f"  latency samples: {result['samples']}; set-up samples (s): "
          + ", ".join(f"{value:.3f}" for value in result["setup_samples"]))
    if "host_probe_ms" in result:
        print(f"  host probe median {result['host_probe_ms']:.2f} ms "
              "(timings scaled to the reference host speed); unscaled "
              f"throughput {result['unscaled_throughput_mb_s']:.4g} MB/s")
    print(f"  config: {json.dumps(result['config'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    declaration = load_declaration()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
            metrics = (
                {} if result.get("gate_failed")
                else metric_values(result, args.trace, declaration)
            )
            _print_summary(result, metrics)
            results.append((name, metrics, result))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, workload_metrics, _ in results
            for metric, value in workload_metrics.items()
        }
    correct = all(result["correct"] for _, _, result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for *_, result in results),
        "failed": sum(result["failed"] for *_, result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
