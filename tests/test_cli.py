"""Tests for the command-line interface."""

import json
import re

import pytest

import repro.core.composition as comp
from repro.cli import build_arg_parser, main, parse_filter_expression
from repro.errors import QueryError


class TestExpressionSyntax:
    def test_string_primitive(self):
        expr = parse_filter_expression("s:1:temperature")
        assert expr == comp.s("temperature", 1)

    def test_full_and_dfa_blocks(self):
        assert parse_filter_expression("s:N:user") == comp.full("user")
        assert parse_filter_expression("s:dfa:user") == comp.dfa("user")

    def test_value_primitive_float(self):
        expr = parse_filter_expression("v:float:0.7:35.1")
        assert expr == comp.v("0.7", "35.1")

    def test_value_primitive_int(self):
        expr = parse_filter_expression("v:int:12:49")
        assert expr == comp.v_int(12, 49)

    def test_open_bound(self):
        expr = parse_filter_expression("v:int:35:-")
        assert expr.notation() == "v(35 <= i)"

    def test_regex_primitive(self):
        expr = parse_filter_expression("re:ab+c")
        assert isinstance(expr, comp.RegexPredicate)

    def test_regex_with_colons(self):
        expr = parse_filter_expression("re:[0-2][0-9]:[0-5][0-9]")
        assert expr.pattern == "[0-2][0-9]:[0-5][0-9]"

    def test_and_composition(self):
        expr = parse_filter_expression(
            "and(s:1:temperature,v:float:0.7:35.1)"
        )
        assert isinstance(expr, comp.And)
        assert len(expr.children) == 2

    def test_group_composition(self):
        expr = parse_filter_expression(
            "group(s:1:temperature,v:float:0.7:35.1)"
        )
        assert isinstance(expr, comp.Group)

    def test_kvgroup(self):
        expr = parse_filter_expression("kvgroup(s:1:n,v:int:1:2)")
        assert expr.comma_scoped

    def test_nested_composition(self):
        expr = parse_filter_expression(
            "or(group(s:1:a,v:int:1:2),and(s:2:bc,v:float:0.5:1.5))"
        )
        assert isinstance(expr, comp.Or)
        assert expr.notation().count("{") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "and()",
            "s:1",
            "v:int:1",
            "x:1:abc",
            "and(s:1:a",
            "s:1:a)",
            "group(and(s:1:a,s:1:b))",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(QueryError):
            parse_filter_expression(text)


class TestCommands:
    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "data.ndjson"
        code = main([
            "generate", "smartcity", "--records", "20",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_bytes().strip().split(b"\n")
        assert len(lines) == 20
        from repro.jsonpath import loads

        for line in lines:
            loads(line)

    def test_generate_seed_reproducible(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["generate", "taxi", "--records", "10",
                  "--seed", "5", "--output", str(out)])
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_synth_command(self, capsys):
        code = main(["synth", "group(s:1:temperature,v:float:0.7:35.1)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LUTs" in out
        assert '{ s1("temperature") & v(0.7 <= f <= 35.1) }' in out

    def test_synth_reports_error(self, capsys):
        code = main(["synth", "bogus:stuff"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_filter_command(self, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(
            b'{"n":"temperature","v":"30.0"}\n'
            b'{"n":"temperature","v":"99.0"}\n'
            b'{"n":"humidity","v":"30.0"}\n'
        )
        code = main([
            "filter",
            "group(s:1:temperature,v:float:0.7:35.1)",
            "--input", str(source),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == '{"n":"temperature","v":"30.0"}'
        assert "accepted 1/3" in captured.err

    def test_explore_fast(self, capsys):
        code = main([
            "explore", "QT", "--records", "300", "--fast",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto front for QT" in out
        assert "FPR" in out

    def test_bench_reports_cache_stats(self, capsys):
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--repeat", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "cache=on" in captured.out
        assert "(pass 1)" in captured.out and "(pass 2)" in captured.out
        assert "atom cache:" in captured.err
        assert "hit rate" in captured.err

    def test_bench_no_cache(self, capsys):
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled", "--no-cache",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "cache=off" in captured.out
        assert "atom cache:" not in captured.err

    def test_parser_structure(self):
        parser = build_arg_parser()
        args = parser.parse_args(["generate", "twitter"])
        assert args.command == "generate"
        assert args.records == 1000
        bench = parser.parse_args(["bench", "s:1:a"])
        assert bench.cache is True and bench.repeat == 1


class TestIngestAndTransportOptions:
    PAYLOAD = (
        b'{"n":"temperature","v":"30.0"}\n'
        b'{"n":"temperature","v":"99.0"}\n'
        b'{"n":"humidity","v":"30.0"}\n'
    )
    EXPRESSION = "group(s:1:temperature,v:float:0.7:35.1)"

    def test_filter_with_workers_and_shared_memory(self, tmp_path,
                                                   capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(self.PAYLOAD * 20)
        code = main([
            "filter", self.EXPRESSION,
            "--input", str(source),
            "--workers", "2", "--chunk-bytes", "256",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count(b'"30.0"'.decode()) >= 20
        assert "accepted 20/60" in captured.err
        assert "workers [" in captured.err

    def test_filter_from_socket_source(self, capsys):
        import socket
        import threading

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            conn.sendall(self.PAYLOAD)
            conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        code = main([
            "filter", self.EXPRESSION,
            "--source", "socket", "--input", f"127.0.0.1:{port}",
        ])
        thread.join()
        server.close()
        assert code == 0
        captured = capsys.readouterr()
        assert "accepted 1/3" in captured.err

    def test_filter_socket_needs_endpoint(self, capsys):
        code = main([
            "filter", self.EXPRESSION, "--source", "socket",
            "--input", "not-an-endpoint",
        ])
        assert code == 1
        assert "host:port" in capsys.readouterr().err

    def test_bench_with_workers_reports_worker_stats(self, capsys):
        code = main([
            "bench", "s:1:temperature",
            "--records", "120", "--backends", "compiled",
            "--workers", "2", "--chunk-bytes", "2048",
            "--mp-context", "spawn",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "workers=2" in captured.out
        assert "workers [spawn]" in captured.err

    @pytest.mark.parametrize("source", ["file", "socket"])
    def test_bench_alternative_sources(self, source, capsys):
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--source", source,
        ])
        assert code == 0
        assert f"source={source}" in capsys.readouterr().out

    def test_bench_repeat_reports_merge_back_delta(self, capsys):
        """Parallel cached bench passes report the merge-back effect:
        pass 1 merges worker masks, pass 2 runs on them."""
        code = main([
            "bench", "s:1:temperature",
            "--records", "120", "--backends", "compiled",
            "--workers", "2", "--chunk-bytes", "2048",
            "--repeat", "2",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "merge-back [compiled pass 1]" in err
        assert "entries merged from workers" in err
        assert "pts vs previous" in err

    def test_bench_serial_has_no_merge_back_lines(self, capsys):
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--repeat", "2",
        ])
        assert code == 0
        assert "merge-back" not in capsys.readouterr().err

    def test_bench_cache_file_warm_restart(self, tmp_path, capsys):
        """Restart-warm through --cache-store, uncapped: nothing is
        evicted, so only persisting the live entries on exit lets the
        second invocation start warm."""
        store = tmp_path / "store"
        runs = []
        for _ in range(2):
            code = main([
                "bench", "s:1:temperature",
                "--records", "60", "--backends", "compiled",
                "--cache-store", str(store),
            ])
            assert code == 0
            runs.append(capsys.readouterr().err)
        assert "entries persisted to" in runs[0]
        # the second invocation was served from the disk tier
        assert "hit rate 100.0%" in runs[1]
        tier_hits = re.search(r"\((\d+) tier hits", runs[1])
        assert tier_hits and int(tier_hits.group(1)) > 0

    def test_parser_defaults(self):
        parser = build_arg_parser()
        args = parser.parse_args(["filter", "s:1:a"])
        assert args.source == "file"
        assert args.backend == "compiled"
        assert not hasattr(args, "transport")
        assert not hasattr(args, "cache_file")
        assert args.mp_context is None
        assert args.cache is False and args.cache_store is None
        bench = parser.parse_args(["bench", "s:1:a"])
        assert bench.source == "memory"
        assert bench.json is None


class TestBenchJson:
    def test_bench_json_writes_result_document(self, tmp_path,
                                               capsys):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--repeat", "2", "--json", str(out),
        ])
        assert code == 0
        assert "bench results written" in capsys.readouterr().err
        document = json.loads(out.read_text())
        assert document["benchmark"] == "repro-bench"
        assert document["dataset"] == "smartcity"
        assert document["payload_bytes"] > 0
        assert document["config"]["cache"] is True
        assert len(document["passes"]) == 2
        for entry in document["passes"]:
            assert entry["records"] == 60
            assert entry["seconds"] > 0
            assert entry["bytes_per_second"] > 0
            assert entry["records_per_second"] > 0
        # the warm pass is served from the AtomCache
        assert document["passes"][0]["cache_delta"]["misses"] > 0
        assert document["passes"][1]["cache_delta"]["hit_rate"] == 1.0
        assert document["cache"]["hits"] > 0

    @pytest.mark.parametrize("resettable", [True, False])
    def test_bench_json_peak_rss_is_per_pass(self, tmp_path,
                                             monkeypatch, resettable):
        """Each pass reports its own peak RSS where the kernel lets the
        high-water mark be reset, and says so in ``peak_rss_scope``."""
        import repro.cli as cli

        if not resettable:
            monkeypatch.setattr(cli, "_reset_peak_rss", lambda: False)
        elif not cli._reset_peak_rss():
            pytest.skip("the kernel refuses to reset VmHWM")
        out = tmp_path / "bench.json"
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--repeat", "2", "--json", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        scope = "pass" if resettable else "lifetime"
        assert len(document["passes"]) == 2
        for entry in document["passes"]:
            assert entry["peak_rss_scope"] == scope
            assert 0 < entry["peak_rss_bytes"] <= (
                document["peak_rss_bytes"]
            )
            assert entry["ingest_bytes"] == document["payload_bytes"]
            assert "ingest_bytes_per_second" not in entry

    def test_bench_json_compiled_counters_are_per_pass(self, tmp_path):
        """Each compiled row carries its own pass's kernel counters;
        rows of other backends carry none."""
        from repro.engine import clear_kernels

        clear_kernels()
        out = tmp_path / "bench.json"
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled,scalar",
            "--repeat", "2", "--json", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        rows = {
            (entry["backend"], entry["pass"]): entry["compiled"]
            for entry in document["passes"]
        }
        assert rows[("compiled", 1)]["kernels_compiled"] == 1
        assert rows[("compiled", 2)]["kernels_compiled"] == 0
        assert rows[("compiled", 2)]["kernels_reused"] == 1
        assert rows[("scalar", 1)] is None
        assert rows[("scalar", 2)] is None
        # the document-level block stays cumulative
        assert document["compiled"]["kernels_compiled"] == 1
        assert document["compiled"]["kernels_reused"] == 1

    def test_bench_json_without_cache_has_null_deltas(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "s:1:temperature",
            "--records", "60", "--backends", "compiled",
            "--no-cache", "--json", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["config"]["cache"] is False
        assert document["passes"][0]["cache_delta"] is None
        assert document["cache"] is None


class TestServeAndSubmit:
    EXPRESSION = "group(s:1:temperature,v:float:0.7:35.1)"
    PAYLOAD = (
        b'{"n":"temperature","v":"30.0"}\n'
        b'{"n":"temperature","v":"99.0"}\n'
        b'{"n":"humidity","v":"30.0"}\n'
    )

    @pytest.fixture()
    def gateway(self):
        from repro.serve import GatewayThread

        with GatewayThread(engines=1) as gw:
            yield gw

    def test_submit_streams_through_a_gateway(self, gateway,
                                              tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(self.PAYLOAD * 10)
        code = main([
            "submit", self.EXPRESSION,
            "--input", str(source),
            "--host", "127.0.0.1", "--port", str(gateway.port),
            "--tenant", "cli-test",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count('"30.0"') == 10
        assert "accepted 10/30" in captured.err
        assert f"via 127.0.0.1:{gateway.port}" in captured.err

    def test_submit_with_stats_reports_tenant_line(self, gateway,
                                                   tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(self.PAYLOAD)
        code = main([
            "submit", self.EXPRESSION,
            "--input", str(source),
            "--port", str(gateway.port),
            "--tenant", "statty", "--stats",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "tenant statty:" in err
        assert "accept rate" in err

    def test_submit_bad_expression_fails_before_connecting(self,
                                                           capsys):
        code = main([
            "submit", "bogus(((", "--port", "1",  # nothing listens
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_status_renders_metrics(self, gateway, tmp_path,
                                          capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(self.PAYLOAD)
        main([
            "submit", self.EXPRESSION,
            "--input", str(source),
            "--port", str(gateway.port), "--tenant", "seen",
        ])
        code = main([
            "serve", "--status",
            "--host", "127.0.0.1", "--port", str(gateway.port),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gateway:" in out
        assert "seen" in out

    def test_serve_status_json(self, gateway, capsys):
        code = main([
            "serve", "--status", "--json",
            "--port", str(gateway.port),
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "gateway" in snapshot and "engine" in snapshot

    def test_serve_parser_defaults(self):
        parser = build_arg_parser()
        serve = parser.parse_args(["serve"])
        assert serve.port == 7707
        assert serve.engines == 2
        assert serve.max_sessions == 32
        assert not serve.status
        submit = parser.parse_args(["submit", "s:1:a"])
        assert submit.tenant == "cli"
        assert submit.input == "-"
