"""Run ``repro serve`` with the layered benchmark's span recorder.

Usage (the benchmark sets the environment variable)::

    LAYERED_TRACE_DIR=<dir> python benchmarks/layered/traced_serve.py \\
        serve --port 0 --store fleet.rsto --wal wal/

The recorder wraps the serving layers' public entry points, then the
command line goes to ``repro.cli.main`` unchanged. Spans are written to
``<dir>/spans-<pid>.json`` when the process exits (after the SIGTERM
drain). Fleet workers spawned by ``--workers N`` inherit this
directory on their ``PYTHONPATH`` and record through ``sitecustomize.py``.
"""

from __future__ import annotations

import sys

from layer_trace import TRACE_DIR_ENV, install_from_env


def main(argv: list[str]) -> int:
    if install_from_env() is None:
        print(f"error: {TRACE_DIR_ENV} is not set", file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
