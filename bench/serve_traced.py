"""``repro serve`` with the benchmark's stage hooks installed.

Usage: ``python3 bench/serve_traced.py SPANS.json serve [serve args...]``

Installs the span wrappers of :mod:`tracing` (the gateway evaluates on
executor threads, which the tracer keeps apart), then runs
``repro.cli.main`` with the remaining arguments exactly as
``python -m repro.cli`` would.  When the server exits (SIGINT drains
it), the merged span rows, the process's CPU seconds over the same
interval and the list of hooks that found no target are written to
``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys

from tracing import Hooks, Tracer


def main(argv):
    spans_path, args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer()
    hooks = Hooks(tracer)
    tracer.enabled = True
    begin = os.times()
    try:
        return cli.main(args)
    finally:
        tracer.enabled = False
        end = os.times()
        document = {
            "rows": tracer.rows(),
            "attributed_s": tracer.attributed_seconds(),
            "cpu_s": (end.user + end.system)
            - (begin.user + begin.system),
            "unhooked": hooks.unhooked,
        }
        with open(spans_path, "w") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
