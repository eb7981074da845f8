"""Command-line interface: ``python -m repro.cli <command>``.

Eight subcommands cover the library's main workflows:

* ``generate`` — write one of the synthetic benchmark datasets as NDJSON;
* ``explore``  — run design-space exploration for a RiotBench query and
  print the Pareto front (Tables V-VII style);
* ``synth``    — synthesise a raw-filter expression and report LUT/FF
  costs (expression given in a compact prefix syntax, see below);
* ``filter``   — apply a raw filter to an NDJSON stream, emitting only
  accepted records (the software twin of one FPGA lane).  The stream is
  chunked through the unified :class:`repro.engine.FilterEngine`, so
  corpora far larger than memory filter in bounded space; backend,
  chunk size and worker count are selectable;
* ``bench``    — measure software filtering throughput of the engine
  backends over a generated corpus (``--json PATH`` writes a
  machine-readable result document);
* ``serve``    — run the long-lived multi-tenant filter gateway
  (``repro.serve``); ``--status`` queries a running gateway instead;
* ``submit``   — stream an NDJSON file through a running gateway and
  emit the accepted records;
* ``lint``     — run the repo's static analysis passes
  (:mod:`repro.analysis`): kernel-verifier self-check, lock-discipline
  checker, resource-lifecycle linter.  Exit 1 on non-baselined
  findings (the CI gate).

Filter expressions use a small s-expression-free syntax::

    s:1:temperature              sB matcher  (B may be 1..N, N, or dfa)
    v:float:0.7:35.1             value range (kind int|float; '-' = open)
    and(...) / or(...)           record-level combination
    group(...)                   structural scope combination

Example::

    python -m repro.cli synth \
        "and(group(s:1:temperature,v:float:0.7:35.1),v:int:12:49)"
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import socket
import sys
import tempfile
import threading
import time

from . import core
from .core.design_space import DesignSpace
from .data import ALL_QUERIES, inflate, load_dataset
from .engine import (
    DEFAULT_CHUNK_BYTES,
    AtomCache,
    FileSource,
    FilterEngine,
    SocketSource,
)
from .errors import QueryError, ReproError
from .eval.report import render_table


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def parse_filter_expression(text):
    """Parse the CLI's compact raw-filter syntax into an expression tree."""
    parser = _ExprParser(text)
    expr = parser.parse()
    parser.expect_end()
    return expr


class _ExprParser:
    def __init__(self, text):
        self.text = text.strip()
        self.pos = 0

    def error(self, message):
        raise QueryError(f"{message} (at {self.pos} in {self.text!r})")

    def peek(self):
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def expect_end(self):
        if self.pos != len(self.text):
            self.error("trailing input")

    def parse(self):
        for keyword, builder in (
            ("and(", lambda kids: core.And(kids)),
            ("or(", lambda kids: core.Or(kids)),
            ("group(", lambda kids: core.Group(kids)),
            ("kvgroup(", lambda kids: core.Group(kids, comma_scoped=True)),
        ):
            if self.text.startswith(keyword, self.pos):
                self.pos += len(keyword)
                children = [self.parse()]
                while self.peek() == ",":
                    self.pos += 1
                    children.append(self.parse())
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
                return builder(children)
        return self._leaf()

    def _leaf(self):
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in ",)" and depth == 0:
                break
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
            self.pos += 1
        token = self.text[start : self.pos]
        if not token:
            self.error("expected a primitive")
        return _parse_leaf(token, self)


def _parse_leaf(token, parser):
    fields = token.split(":")
    kind = fields[0]
    if kind == "s":
        if len(fields) != 3:
            parser.error("string primitive is s:<block>:<needle>")
        block_text, needle = fields[1], fields[2]
        if block_text == "N":
            return core.full(needle)
        if block_text == "dfa":
            return core.dfa(needle)
        return core.s(needle, int(block_text))
    if kind == "v":
        if len(fields) != 4:
            parser.error("value primitive is v:<int|float>:<lo>:<hi>")
        number_kind = fields[1]
        lo = None if fields[2] == "-" else fields[2]
        hi = None if fields[3] == "-" else fields[3]
        if number_kind == "int":
            lo = int(lo) if lo is not None else None
            hi = int(hi) if hi is not None else None
        return core.v(lo, hi, kind=number_kind)
    if kind == "re":
        if len(fields) < 2:
            parser.error("regex primitive is re:<pattern>")
        return core.RegexPredicate(":".join(fields[1:]))
    parser.error(f"unknown primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args):
    dataset = load_dataset(args.dataset, args.records, seed=args.seed)
    out = sys.stdout.buffer if args.output == "-" else open(
        args.output, "wb"
    )
    try:
        out.write(dataset.stream.tobytes())
    finally:
        if out is not sys.stdout.buffer:
            out.close()
    print(
        f"wrote {len(dataset)} records ({dataset.total_bytes} bytes) "
        f"of {args.dataset}",
        file=sys.stderr,
    )
    return 0


def cmd_explore(args):
    query = ALL_QUERIES[args.query]
    dataset = load_dataset(query.dataset_name, args.records)
    space = DesignSpace(query, dataset)
    points = space.explore()
    front = space.pareto(points, epsilon=args.epsilon,
                         exact_luts=not args.fast)
    rows = [
        [point.expr.notation(), f"{point.fpr:.3f}", point.luts]
        for point in front
    ]
    print(render_table(
        ["Raw-filter configuration", "FPR", "LUTs"],
        rows,
        title=(
            f"Pareto front for {query.name} over "
            f"{space.num_configurations()} configurations"
        ),
    ))
    return 0


def cmd_synth(args):
    expr = parse_filter_expression(args.expression)
    from .hw.circuits import build_raw_filter_circuit

    circuit = build_raw_filter_circuit(expr)
    stats = circuit.stats()
    print(f"expression : {expr.notation()}")
    print(f"LUTs       : {stats['luts']}")
    print(f"flip-flops : {stats['ffs']}")
    print(f"logic depth: {stats['depth']}")
    print(f"AIG nodes  : {stats['aig_ands']}")
    return 0


def _engine_from_args(args):
    # a byte cap needs an in-memory cache to act on; a disk tier
    # implies one (the engine attaches EngineConfig.cache_store itself)
    if args.cache_max_bytes is not None:
        cache = AtomCache(max_bytes=args.cache_max_bytes)
    else:
        cache = args.cache or None
    return FilterEngine(
        backend=getattr(args, "backend", "compiled"),
        chunk_bytes=args.chunk_bytes,
        num_workers=args.workers,
        mp_context=args.mp_context,
        cache=cache,
        cache_store=args.cache_store,
    )


def _persist_cache(cache):
    """Write the live cache entries to its --cache-store tier."""
    written = cache.persist() if cache is not None else 0
    if written:
        print(f"atom cache: {written} entries persisted to "
              f"{cache.store.path}", file=sys.stderr)


def _peak_rss_bytes():
    """This process's lifetime peak resident set, in bytes (or ``None``).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised
    here so every BENCH_*.json carries comparable numbers and memory
    regressions are machine-visible.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def _reset_peak_rss():
    """Reset this process's VmHWM so the next reading covers one pass.

    ``False`` where the kernel refuses (no ``/proc``, or writing ``5``
    to ``clear_refs`` is not permitted).
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _pass_peak_rss_bytes():
    """VmHWM of this process since the last :func:`_reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _parse_endpoint(text):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"socket source needs --input host:port, got {text!r}"
        )
    return host, int(port)


def _open_filter_source(args, chunk_bytes):
    if args.source == "socket":
        return SocketSource(_parse_endpoint(args.input), chunk_bytes)
    handle = sys.stdin.buffer if args.input == "-" else args.input
    return FileSource(handle, chunk_bytes)


def _print_worker_stats(engine):
    workers = engine.stats()["workers"]
    if not workers:
        return
    per_worker = ", ".join(
        f"pid {pid}: {w['chunks']} chunks / {w['records']} records"
        + (
            f" ({w['cache_hits']} cache hits)"
            if w["cache_hits"] or w["cache_misses"]
            else ""
        )
        for pid, w in workers["workers"].items()
    )
    print(
        f"workers [{workers['mp_context']}]: {per_worker}",
        file=sys.stderr,
    )


def cmd_filter(args):
    expr = parse_filter_expression(args.expression)
    engine = _engine_from_args(args)
    source = _open_filter_source(args, args.chunk_bytes)
    accepted = 0
    total = 0
    out = sys.stdout.buffer
    try:
        for batch in engine.stream(expr, source):
            emitted = batch.accepted
            for record in emitted:
                out.write(record + b"\n")
            if emitted:
                out.flush()  # emit promptly when fed by a live pipe
            accepted = batch.accepted_seen
            total = batch.records_seen
    finally:
        source.close()
        engine.close()
    print(
        f"accepted {accepted}/{total} records "
        f"({expr.notation()})",
        file=sys.stderr,
    )
    _print_worker_stats(engine)
    _persist_cache(engine.atom_cache)
    return 0


@contextlib.contextmanager
def _bench_source(kind, ndjson, chunk_bytes):
    """One streaming pass over the corpus through the chosen ingest.

    ``memory`` streams in-process chunks, ``file`` reads a real
    temporary NDJSON file, ``socket`` receives the corpus from a
    feeder thread over a local socket pair — so the benchmark measures
    the source layer actually in use, not only evaluation.
    """
    if kind == "memory":
        yield FileSource(io.BytesIO(ndjson), chunk_bytes)
    elif kind == "file":
        with tempfile.NamedTemporaryFile(suffix=".ndjson") as handle:
            handle.write(ndjson)
            handle.flush()
            with FileSource(handle.name, chunk_bytes) as source:
                yield source
    elif kind == "socket":
        feeder_end, engine_end = socket.socketpair()

        def feed():
            with contextlib.suppress(OSError):
                feeder_end.sendall(ndjson)
            feeder_end.close()

        thread = threading.Thread(target=feed, daemon=True)
        thread.start()
        try:
            yield SocketSource(engine_end, chunk_bytes)
        finally:
            engine_end.close()
            thread.join(timeout=5)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown bench source {kind!r}")


def _merge_back_line(engine, backend, repeat, previous_hit_rate):
    """One per-pass merge-back summary line for parallel cached runs.

    With ``--workers N --repeat M`` the interesting number is the
    worker hit-rate *delta* between passes: pass 1 evaluates cold and
    merges its masks back into the parent cache, later passes ship
    that warm snapshot, so their hit rate should jump.
    """
    workers = engine.stats()["workers"]
    if not workers or engine.atom_cache is None:
        return []
    lookups = workers["cache_hits"] + workers["cache_misses"]
    hit_rate = workers["cache_hits"] / lookups if lookups else 0.0
    line = (
        f"merge-back [{backend} pass {repeat + 1}]: "
        f"{workers['merged_entries']} entries merged from workers, "
        f"worker hit rate {hit_rate:.1%}"
    )
    previous = previous_hit_rate.get(backend)
    if previous is not None:
        line += f" ({(hit_rate - previous) * 100:+.1f} pts vs previous)"
    previous_hit_rate[backend] = hit_rate
    return [line]


def _print_selectivity(table, limit=8):
    """Observed per-atom pass rates, most selective first (stderr)."""
    if not table:
        return
    shown = list(table.items())[:limit]
    print("observed selectivity (pass rate, most selective first):",
          file=sys.stderr)
    for notation, row in shown:
        print(
            f"  {row['selectivity']:7.1%}  {notation} "
            f"({row['passed']}/{row['evaluated']})",
            file=sys.stderr,
        )
    hidden = len(table) - len(shown)
    if hidden > 0:
        print(f"  ... {hidden} more atoms", file=sys.stderr)


def _cache_delta(before, after):
    """Per-pass hits/misses movement of the engine's AtomCache."""
    if before is None or after is None:
        return None
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


#: compiled-backend counters that count events (the rest are gauges)
_COMPILED_COUNTERS = (
    "kernels_compiled", "kernels_reused", "atoms_short_circuited",
    "fallbacks",
)


def _compiled_delta(before, after):
    """Per-pass movement of the compiled backend's event counters."""
    if after is None:
        return None
    delta = dict(after)
    for key in _COMPILED_COUNTERS:
        delta[key] = after[key] - (before[key] if before else 0)
    return delta


def cmd_bench(args):
    expr = parse_filter_expression(args.expression)
    dataset = load_dataset(args.dataset, args.records, seed=args.seed)
    if args.inflate_bytes:
        dataset = inflate(dataset, args.inflate_bytes)
    ndjson = dataset.stream.tobytes()
    payload = len(ndjson)
    backends = args.backends.split(",")
    engine = _engine_from_args(args)
    rows = []
    merge_lines = []
    passes = []
    previous_hit_rate = {}
    # resetting the high-water mark per pass also lowers what
    # ru_maxrss reports afterwards, so the lifetime peak is the largest
    # reading taken before each reset, after each pass and at the end
    rss_readings = []
    try:
        for backend in backends:
            for repeat in range(args.repeat):
                before = engine.stats()
                rss_readings.append(_peak_rss_bytes() or 0)
                scoped = _reset_peak_rss()
                with _bench_source(
                    args.source, ndjson, args.chunk_bytes
                ) as source:
                    start = time.perf_counter()
                    accepted = records = 0
                    for batch in engine.stream(
                        expr, source, backend=backend.strip()
                    ):
                        accepted = batch.accepted_seen
                        records = batch.records_seen
                    elapsed = time.perf_counter() - start
                    ingested = source.stats()["bytes_read"]
                peak = _pass_peak_rss_bytes() if scoped else None
                if peak is None:
                    scoped, peak = False, _peak_rss_bytes()
                rss_readings.append(peak or 0)
                rate = payload / elapsed if elapsed > 0 else float("inf")
                label = backend.strip()
                if args.repeat > 1:
                    label += f" (pass {repeat + 1})"
                rows.append([
                    label,
                    f"{records}",
                    f"{accepted}",
                    f"{elapsed:.3f}",
                    f"{rate / 1e6:.1f}",
                ])
                merge_lines += _merge_back_line(
                    engine, backend.strip(), repeat, previous_hit_rate
                )
                stats = engine.stats()
                passes.append({
                    "backend": backend.strip(),
                    "pass": repeat + 1,
                    "records": records,
                    "accepted": accepted,
                    "seconds": elapsed,
                    "bytes": payload,
                    "bytes_per_second": rate,
                    "records_per_second": (
                        records / elapsed if elapsed > 0 else None
                    ),
                    # bytes actually delivered by the source layer this
                    # pass (== payload for complete streams)
                    "ingest_bytes": ingested,
                    # this pass's peak RSS where the kernel lets the
                    # high-water mark be reset, the lifetime peak
                    # otherwise
                    "peak_rss_bytes": peak,
                    "peak_rss_scope": "pass" if scoped else "lifetime",
                    "cache_delta": _cache_delta(
                        before["cache"], stats["cache"]
                    ),
                    "workers": stats["workers"],
                    # this pass's fused-kernel counters; null on the
                    # rows of other backends
                    "compiled": (
                        _compiled_delta(
                            before["compiled"], stats["compiled"]
                        )
                        if backend.strip() == "compiled" else None
                    ),
                })
    finally:
        # resident pools survive across passes (that is the point of
        # the benchmark's warm rows) and come down with the engine
        engine.close()
    print(render_table(
        ["Backend", "Records", "Accepted", "Seconds", "MB/s"],
        rows,
        title=(
            f"Streaming throughput over {payload} bytes of "
            f"{dataset.name} — {expr.notation()} "
            f"(source={args.source}, chunk={args.chunk_bytes}, "
            f"workers={args.workers}, "
            f"cache={'on' if engine.atom_cache is not None else 'off'})"
        ),
    ))
    for line in merge_lines:
        print(line, file=sys.stderr)
    _print_worker_stats(engine)
    _persist_cache(engine.atom_cache)
    cache_stats = engine.stats()["cache"]
    if cache_stats is not None:
        print(
            "atom cache: "
            f"{cache_stats['hits']} hits / "
            f"{cache_stats['misses']} misses "
            f"(hit rate {cache_stats['hit_rate']:.1%}), "
            f"{cache_stats['entries']} entries, "
            f"{cache_stats['bytes']} bytes, "
            f"{cache_stats['evictions']} evictions",
            file=sys.stderr,
        )
        if cache_stats["store"] is not None:
            store = cache_stats["store"]
            print(
                "cache store: "
                f"{cache_stats['demoted']} demoted / "
                f"{cache_stats['promoted']} promoted "
                f"({cache_stats['tier_hits']} tier hits, "
                f"{cache_stats['tier_misses']} tier misses), "
                f"{store['entries']} entries / {store['bytes']} bytes "
                f"at {store['path']}",
                file=sys.stderr,
            )
    final_stats = engine.stats()
    _print_selectivity(final_stats["selectivity"])
    compiled_stats = final_stats["compiled"]
    if compiled_stats is not None:
        print(
            "compiled kernels: "
            f"{compiled_stats['kernels_compiled']} compiled / "
            f"{compiled_stats['kernels_reused']} reused, "
            f"{compiled_stats['atoms_short_circuited']} record-scans "
            "short-circuited",
            file=sys.stderr,
        )
    if args.json:
        document = {
            "benchmark": "repro-bench",
            "dataset": dataset.name,
            "expression": expr.notation(),
            "payload_bytes": payload,
            "config": {
                "chunk_bytes": args.chunk_bytes,
                "workers": args.workers,
                "source": args.source,
                "cache": engine.atom_cache is not None,
                "cache_store": getattr(args, "cache_store", None),
                "repeat": args.repeat,
            },
            "peak_rss_bytes": max(
                rss_readings + [_peak_rss_bytes() or 0]
            ) or None,
            "passes": passes,
            "cache": cache_stats,
            "selectivity": final_stats["selectivity"],
            "compiled": compiled_stats,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, default=str)
            handle.write("\n")
        print(f"bench results written to {args.json}",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# the gateway service (repro.serve)
# ---------------------------------------------------------------------------

def cmd_serve(args):
    # imported lazily: repro.serve pulls asyncio machinery (and this
    # module back, for the expression parser) that plain one-shot CLI
    # invocations never need
    import asyncio

    from .serve import FilterGateway, GatewayClient, render_status

    if args.status:
        client = GatewayClient(
            args.host, args.port, tenant="status", observer=True
        )
        with client:
            snapshot = client.stats()
        if args.json_status:
            print(json.dumps(snapshot, indent=2))
        else:
            print(render_status(snapshot))
        return 0

    if args.cache_max_bytes is not None:
        # byte-bounded only, matching EnginePool's service default
        cache = AtomCache(
            max_entries=None, max_bytes=args.cache_max_bytes
        )
    else:
        cache = True  # EnginePool builds its byte-bounded default
    gateway = FilterGateway(
        args.host, args.port,
        engines=args.engines,
        cache=cache,
        backend=args.backend,
        workers=args.workers,
        cache_store=args.cache_store,
        max_sessions=args.max_sessions,
        max_inflight_bytes=args.max_inflight_bytes,
        queue_chunks=args.queue_chunks,
        drain_timeout=args.drain_timeout,
    )

    async def run():
        await gateway.start()
        workers_note = (
            f", {args.workers} resident workers/engine"
            if args.workers > 1 else ""
        )
        print(
            f"filter gateway listening on {gateway.host}:"
            f"{gateway.port} ({args.engines} engines"
            f"{workers_note}, max {args.max_sessions} sessions)",
            file=sys.stderr,
        )
        try:
            await gateway.serve_forever()
        finally:
            # reached on Ctrl-C too (asyncio.run cancels this task):
            # drain in-flight sessions within --drain-timeout
            await gateway.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("gateway interrupted, drained", file=sys.stderr)
    _persist_cache(gateway.pool.cache)
    return 0


def cmd_submit(args):
    from .serve import GatewayClient

    # parse before connecting so a bad expression fails fast, locally
    expr = parse_filter_expression(args.expression)
    source = (
        sys.stdin.buffer if args.input == "-" else args.input
    )
    client = GatewayClient(
        args.host, args.port, tenant=args.tenant,
        chunk_bytes=args.chunk_bytes,
    )
    out = sys.stdout.buffer
    stats = None
    with client:
        for batch in client.submit(args.expression, source):
            for record in batch.accepted:
                out.write(record + b"\n")
            if batch.accepted:
                out.flush()
        if args.stats:
            stats = client.stats()
    summary = client.last_summary or {}
    print(
        f"accepted {summary.get('accepted', 0)}"
        f"/{summary.get('records', 0)} records over "
        f"{summary.get('bytes', 0)} bytes "
        f"({expr.notation()}) via {args.host}:{args.port}",
        file=sys.stderr,
    )
    if stats is not None:
        tenant = stats["tenants"].get(args.tenant, {})
        print(
            f"tenant {args.tenant}: "
            f"cache hit rate {tenant.get('cache_hit_rate', 0.0):.1%}, "
            f"accept rate {tenant.get('accept_rate', 0.0):.1%}",
            file=sys.stderr,
        )
    return 0


def cmd_lint(args):
    """Static analysis over the package (or explicit paths)."""
    from .analysis import (
        DEFAULT_BASELINE_NAME,
        filter_baselined,
        load_baseline,
        run_lint,
        save_baseline,
    )

    rules = tuple(
        rule.strip() for rule in args.rules.split(",") if rule.strip()
    )
    paths = list(args.paths) or None
    root = os.getcwd() if paths is not None else None
    findings = run_lint(paths, rules, root=root)
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE_NAME):
        baseline_path = DEFAULT_BASELINE_NAME
    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        count = save_baseline(target, findings)
        print(f"wrote {count} suppression(s) to {target}")
        return 0
    suppressed = 0
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        kept = filter_baselined(findings, baseline)
        suppressed = len(findings) - len(kept)
        findings = kept
    for finding in findings:
        print(finding.render())
    summary = (
        f"{len(findings)} finding(s)"
        + (f", {suppressed} baselined" if suppressed else "")
        + f" [rules: {', '.join(rules)}]"
    )
    print(summary, file=sys.stderr)
    return 1 if findings else 0


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Raw filtering of JSON data on FPGAs (DATE 2022) — "
                    "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate",
                              help="emit a synthetic dataset as NDJSON")
    generate.add_argument("dataset",
                          choices=["smartcity", "taxi", "twitter"])
    generate.add_argument("--records", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--output", "-o", default="-")
    generate.set_defaults(func=cmd_generate)

    explore = sub.add_parser("explore",
                             help="design-space exploration for a query")
    explore.add_argument("query", choices=sorted(ALL_QUERIES))
    explore.add_argument("--records", type=int, default=2000)
    explore.add_argument("--epsilon", type=float, default=0.004)
    explore.add_argument("--fast", action="store_true",
                         help="additive LUT estimates (skip exact synth)")
    explore.set_defaults(func=cmd_explore)

    synth = sub.add_parser("synth",
                           help="synthesise a filter expression")
    synth.add_argument("expression")
    synth.set_defaults(func=cmd_synth)

    filter_cmd = sub.add_parser(
        "filter", help="apply a raw filter to an NDJSON stream"
    )
    filter_cmd.add_argument("expression")
    filter_cmd.add_argument(
        "--input", "-i", default="-",
        help="NDJSON file path, '-' for stdin, or host:port "
             "with --source socket",
    )
    filter_cmd.add_argument(
        "--source", default="file",
        choices=["file", "socket"],
        help="ingest layer: read --input as a file/stdin, or "
             "connect to it as a host:port socket endpoint",
    )
    filter_cmd.add_argument(
        "--cache", action=argparse.BooleanOptionalAction,
        default=False,
        help="attach an AtomCache to the engine (repeated chunk "
             "content is served from memory; workers start warm)",
    )
    _add_cache_arguments(filter_cmd)
    _add_engine_arguments(filter_cmd)
    filter_cmd.set_defaults(func=cmd_filter)

    bench = sub.add_parser(
        "bench",
        help="measure streaming filter throughput per engine backend",
    )
    bench.add_argument("expression")
    bench.add_argument("--dataset", default="smartcity",
                       choices=["smartcity", "taxi", "twitter"])
    bench.add_argument("--records", type=int, default=5000)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--inflate-bytes", type=int, default=0,
                       help="repeat records up to this stream size")
    bench.add_argument("--backends", default="compiled,scalar",
                       help="comma-separated backend names to compare")
    bench.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoise per-atom masks in a shared AtomCache "
             "(--no-cache disables; hit-rate stats are reported)",
    )
    bench.add_argument(
        "--repeat", type=int, default=1,
        help="stream the corpus this many times per backend "
             "(with --cache, warm passes show the cache effect)",
    )
    bench.add_argument(
        "--source", default="memory",
        choices=["memory", "file", "socket"],
        help="ingest layer to benchmark: in-memory chunks, a real "
             "temporary file, or a local socket fed by a thread",
    )
    bench.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write a machine-readable result document "
             "(records/s, bytes/s, per-pass cache deltas, worker "
             "counters) to PATH",
    )
    _add_cache_arguments(bench)
    _add_engine_arguments(bench, with_backend=False)
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant streaming filter gateway",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7707)
    serve.add_argument(
        "--engines", type=int, default=2,
        help="FilterEngine pool size (all share one AtomCache)",
    )
    serve.add_argument(
        "--backend", default="compiled",
        choices=["compiled", "scalar"],
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="resident worker processes per engine (spawned once at "
             "startup and kept warm across streams and filter swaps; "
             "1 = in-process evaluation)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=32,
        help="admission control: concurrent session ceiling",
    )
    serve.add_argument(
        "--max-inflight-bytes", type=int, default=64 << 20,
        help="admission control: queued-but-unevaluated byte ceiling "
             "across all sessions",
    )
    serve.add_argument(
        "--queue-chunks", type=int, default=8,
        help="per-session bounded queue depth (backpressure)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="graceful-shutdown drain window in seconds",
    )
    serve.add_argument(
        "--status", action="store_true",
        help="query a running gateway's metrics instead of serving",
    )
    serve.add_argument(
        "--json", dest="json_status", action="store_true",
        help="with --status: print the raw JSON snapshot",
    )
    _add_cache_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="stream an NDJSON file through a running gateway",
    )
    submit.add_argument("expression")
    submit.add_argument(
        "--input", "-i", default="-",
        help="NDJSON file path ('-' for stdin)",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7707)
    submit.add_argument(
        "--tenant", default="cli",
        help="tenant name this session's metrics are charged to",
    )
    submit.add_argument(
        "--chunk-bytes", type=int, default=64 * 1024,
        help="upload chunk size",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print this tenant's gateway metrics after the stream",
    )
    submit.set_defaults(func=cmd_submit)

    lint = sub.add_parser(
        "lint",
        help="run the static analysis passes (kernel verifier, "
             "lock discipline, resource lifecycle)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed "
             "repro package source)",
    )
    lint.add_argument(
        "--rules", default="locks,lifecycle,kernels",
        help="comma-separated pass names to run "
             "(locks, lifecycle, kernels)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppression file of known findings (default: "
             "./lint-baseline.json when present)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings "
             "instead of failing on them",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def _add_cache_arguments(parser):
    parser.add_argument(
        "--cache-store", default=None, metavar="DIR",
        help="persistent disk tier under the AtomCache (implies "
             "--cache): LRU-evicted entries demote to an append-"
             "mostly log in DIR instead of vanishing, misses promote "
             "them back in fingerprint batches, and the live entries "
             "are written there on exit — corpora far larger than "
             "the cache cap stream warm, and later invocations start "
             "warm without loading the whole cache into RAM "
             "(pickle-based; use trusted, user-owned directories "
             "only)",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="byte cap for the in-memory AtomCache (implies --cache); "
             "combine with --cache-store to exercise demote/promote "
             "churn deliberately",
    )


def _add_engine_arguments(parser, with_backend=True):
    if with_backend:
        parser.add_argument(
            "--backend", default="compiled",
            choices=["compiled", "scalar"],
            help="engine evaluation backend",
        )
    parser.add_argument(
        "--chunk-bytes", type=int, default=DEFAULT_CHUNK_BYTES,
        help="streaming chunk size (bounds resident memory)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shard chunks across this many worker processes",
    )
    parser.add_argument(
        "--mp-context", default=None,
        choices=["fork", "spawn", "forkserver"],
        help="explicit multiprocessing start method for the workers "
             "(default: fork where available, spawn otherwise)",
    )


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
