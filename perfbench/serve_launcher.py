"""Run ``repro serve`` with the per-layer wrappers installed in the server.

Usage: ``python perfbench/serve_launcher.py STATS.json serve [repro serve args]``

The server is the real CLI entry point (``repro.cli.main``); the launcher
installs :class:`layers.LayerTrace` first and takes a snapshot of the
wrapper totals and the server's telemetry counters at every ``stats``
request, so a client can bracket the part of a session it wants measured.
When the server has shut down, the snapshots are written to ``STATS.json``.
"""

from __future__ import annotations

import json
import sys

from layers import LayerTrace


def main(argv: list[str]) -> int:
    stats_path, serve_args = argv[0], argv[1:]
    from repro import cli, obs
    from repro.serve.server import ResilienceServer

    trace = LayerTrace().install()
    marks = []
    control = ResilienceServer._control

    def marking_control(server, request):
        if request.op == "stats":
            # the CLI's Telemetry is installed for the server's lifetime
            marks.append(trace.snapshot(obs.active().registry))
        return control(server, request)

    ResilienceServer._control = marking_control
    try:
        return cli.main(serve_args)
    finally:
        ResilienceServer._control = control
        trace.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(marks, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
