"""``repro serve`` with the layers wrapped, for the traced benchmark run.

Usage::

    python perfbench/server_main.py SUMMARY.json <repro serve arguments>

Serves exactly like ``python -m repro serve``; on shutdown it writes the
per-layer summary of everything it served to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    log = layers.SpanLog()
    layers.install(log)
    from repro.serve import app, cli

    servers = []
    original_init = app.AnalysisServer.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    app.AnalysisServer.__init__ = init
    code = cli.main(argv)
    session = servers[0].session
    operations = [
        (span.start, span.end)
        for span in session.tracer.spans()
        if span.name.startswith("serve:")
    ]
    summary = layers.summarize(log, operations)
    summary.update(layers.session_figures([(session.metrics, session.tracer)]))
    Path(out).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
