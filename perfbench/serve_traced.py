"""The service daemon with layer tracing installed (traced ``service-jobs``).

Runs the same entry point as ``python -m repro.service serve`` inside a
tracer, so the traced daemon differs from the timed one only by the
wrappers.  When the daemon stops, the span totals are written as JSON to
the path given first::

    python3 perfbench/serve_traced.py TOTALS.json --db DB --cache-dir DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing


def main(argv) -> int:
    totals_path, serve_args = argv[0], argv[1:]
    from repro.service import cli

    tracer = tracing.Tracer().install()
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.write("service-jobs")
        Path(totals_path).write_text(json.dumps({
            "totals": tracing.layer_totals(tracer.spans),
            "unpatched": tracer.unpatched,
            "restored": tracing.all_restored(),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
