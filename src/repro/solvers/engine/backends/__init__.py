"""Executor backends: the pluggable execution strategies of the engine.

One :class:`~.base.ExecutorBackend` per pool mode, registered here in
presentation order -- this registration list **is** ``POOL_MODES``: the
facade, ``bench --pool``, ``serve --pool`` and the CLI help all derive
their allowed values and descriptions from it via
:func:`~.base.backend_names` / :func:`~.base.backend_table`, so a new
backend registers once and appears everywhere.

========== ==========================================================
mode       strategy
========== ==========================================================
persistent shared-memory process engine, workers + trees reused
serial     forced in-process execution (the reference)
threads    persistent in-process thread pool
========== ==========================================================
"""

from .base import (
    BackendSpec,
    ExecutorBackend,
    ExecutorUnavailable,
    backend_names,
    backend_table,
    create_backend,
    get_backend_spec,
    register_backend,
)
from .persistent import PersistentBackend
from .serial import SerialBackend
from .threads import ThreadsBackend

__all__ = [
    "BackendSpec",
    "ExecutorBackend",
    "ExecutorUnavailable",
    "PersistentBackend",
    "SerialBackend",
    "ThreadsBackend",
    "backend_names",
    "backend_table",
    "create_backend",
    "get_backend_spec",
    "register_backend",
]

# registration order == POOL_MODES order
register_backend(
    "persistent", PersistentBackend, summary=PersistentBackend.summary
)
register_backend("serial", SerialBackend, summary=SerialBackend.summary)
register_backend("threads", ThreadsBackend, summary=ThreadsBackend.summary)
