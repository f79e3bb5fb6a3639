"""Span recording for fleet workers of a traced layered-benchmark run.

``repro serve --workers N`` starts its workers with the router's
``sys.path`` as ``PYTHONPATH``; when the router is ``traced_serve.py``
that path includes this directory, so Python imports this module at
worker start-up. It does nothing unless ``LAYERED_TRACE_DIR`` is set,
which the benchmark does only for traced runs.
"""

import os

if os.environ.get("LAYERED_TRACE_DIR"):
    from layer_trace import install_from_env

    install_from_env()
