"""Executor backends: the two execution strategies of the engine.

The worker count picks one: ``workers > 1`` runs on
:class:`~.persistent.PersistentBackend` (worker processes and resident
trees reused across batches), anything else in-process on
:class:`~.serial.SerialBackend`.
"""

from .base import ExecutorBackend, ExecutorUnavailable
from .persistent import PersistentBackend
from .serial import SerialBackend

__all__ = [
    "ExecutorBackend",
    "ExecutorUnavailable",
    "PersistentBackend",
    "SerialBackend",
]
