"""Traced launcher for the service processes.

Installs the layer wrappers, then runs ``repro-flow`` itself
(``repro.cli.main``) with the arguments the untraced command gets.  The
process keeps its spans in memory and writes them to ``--trace-out``
when it stops (``POST /api/stop`` for the server, SIGTERM for the
worker).

Usage::

    python3 perfbench/launch.py --trace-out T serve --store S --port 0
    python3 perfbench/launch.py --trace-out T worker --store S --cache-dir C ...
"""

from __future__ import annotations

import argparse
import signal
import sys


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="repro-flow serve|worker and its arguments")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_flow
    from tracer import (
        Phase, install_cell_layers, install_runner_layers, install_store_layers,
    )

    layers = {
        "serve": (install_store_layers, install_runner_layers),
        "worker": (install_store_layers, install_runner_layers, install_cell_layers),
    }
    if not args.cli or args.cli[0] not in layers:
        parser.error("expected serve or worker after --trace-out")
    signal.signal(signal.SIGTERM, _on_term)
    phase = Phase()
    try:
        with phase.installed(*layers[args.cli[0]]):
            return repro_flow(args.cli)
    finally:
        phase.tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
