"""NDJSON stdio front end: one JSON document per line, in and out.

This is the transport tests and CI use: no sockets, no ports, fully
deterministic to drive.  Each input line is either a solve request (the
:mod:`repro.service.protocol` schema) or a control document::

    {"op": "stats"}      -> {"op": "stats", "stats": {...}}
    {"op": "metrics"}    -> {"op": "metrics", "content_type": ..., "body": ...}
    {"op": "shutdown"}   -> stop reading (equivalent to EOF)

The ``metrics`` body is the same Prometheus text document ``GET /metrics``
serves on the HTTP front end, carried as one JSON string.

Requests run concurrently and responses are written as they complete, one
JSON document per line, matched to requests by ``id``.  Requests are
admitted in line order, so a ``stats`` line counts every request above it.
A stdio client cannot back off the way an HTTP client can, so intake is
paced by the admission bound instead of refused by it: while
``max_pending`` requests are alive, the next line waits for one of them to
be answered.  A piped batch of any size is therefore answered, never
``rejected``.  EOF (or ``shutdown``) stops intake; in-flight requests still
drain to a response line before :func:`serve_stdio` returns.

A line longer than the HTTP front end's body cap is read no further than
the cap, drained to its end and answered with ``bad_request``; the next
line is served as usual.

:func:`run_stdio_server` reads stdin on one reader thread that lives as
long as the daemon, and writes every response on the event loop's thread.
While a response write blocks, or intake waits on the admission bound, the
loop admits no new line, but the reader goes on reading stdin into memory.
A client that writes its whole batch before it reads therefore cannot
deadlock on the pipes; one that never reads stdout grows the daemon by
what it writes.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import sys
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, TextIO

from .daemon import SolverService
from .errors import BadRequestError
from .http import MAX_BODY_BYTES
from .protocol import error_response

__all__ = ["serve_stdio", "run_stdio_server"]

ReadLine = Callable[[], Awaitable[Optional[str]]]
WriteLine = Callable[[str], None]


async def serve_stdio(
    service: SolverService,
    read_line: ReadLine,
    write_line: WriteLine,
) -> Dict[str, Any]:
    """Serve NDJSON requests until EOF; returns the final stats snapshot.

    ``read_line`` is an async callable yielding one line per call (``None``
    at EOF); it raises :class:`BadRequestError` for a line it refuses to
    read.  ``write_line`` is a plain callable (not a coroutine function:
    :class:`TypeError`) that writes one whole line before it returns.  It
    is called on the event loop's thread only, so response lines never
    interleave.  Tests drive the front end with in-memory queues; the CLI
    wires it to real stdin/stdout.
    """
    if inspect.iscoroutinefunction(write_line):
        raise TypeError("write_line must be a plain callable, not a coroutine function")
    waiting: set = set()
    answered = asyncio.Event()

    def emit(doc: Dict[str, Any]) -> None:
        write_line(json.dumps(doc, separators=(",", ":")))

    def respond(future: "asyncio.Future") -> None:
        waiting.discard(future)
        answered.set()
        emit(future.result().to_dict())

    def refuse(exc: BadRequestError) -> None:
        service.stats.bad_requests += 1
        emit(error_response(None, exc).to_dict())

    while True:
        try:
            line = await read_line()
        except BadRequestError as exc:
            refuse(exc)
            continue
        if line is None:
            break
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            refuse(BadRequestError(f"invalid JSON line: {exc}"))
            continue
        op = doc.get("op") if isinstance(doc, dict) else None
        if op == "stats":
            emit({"op": "stats", "stats": service.snapshot()})
            continue
        if op == "metrics":
            from ..obs import PROMETHEUS_CONTENT_TYPE

            emit({
                "op": "metrics",
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "body": service.render_metrics(),
            })
            continue
        if op == "shutdown":
            break
        while waiting and service.pending >= service.max_pending:
            answered.clear()
            await answered.wait()
        future = service.handle_nowait(doc)
        waiting.add(future)
        future.add_done_callback(respond)

    if waiting:
        # `respond` was added first, so each response is written before
        # the wait sees its future done
        await asyncio.wait(waiting)
    return service.snapshot()


def _open_stdin() -> TextIO:
    """A private text stream over stdin's descriptor (``sys.stdin`` if none).

    Worker processes forked by a process pool close the inherited
    ``sys.stdin`` as they start.  If the reader thread is blocked in
    ``sys.stdin.readline()`` at fork time, the child inherits that stream's
    lock held and waits on it forever.  A stream over a duplicate
    descriptor leaves ``sys.stdin``'s lock free.
    """
    try:
        fd = sys.stdin.fileno()
    except OSError:  # an in-memory stand-in: nothing a fork can block on
        return sys.stdin
    return open(os.dup(fd), encoding=sys.stdin.encoding, errors=sys.stdin.errors)


def _read_capped(stdin: TextIO) -> Optional[str]:
    """One line of ``stdin`` (``None`` at EOF), read no further than the cap."""
    line = stdin.readline(MAX_BODY_BYTES + 1)
    if len(line) > MAX_BODY_BYTES and not line.endswith("\n"):
        while line and not line.endswith("\n"):  # drain the rest
            line = stdin.readline(MAX_BODY_BYTES)
        raise BadRequestError(f"request line exceeds {MAX_BODY_BYTES} characters")
    return line or None


def _read_lines(
    stdin: TextIO, loop: asyncio.AbstractEventLoop, deliver: Callable
) -> None:
    """The reader thread: hand each line, refusal and EOF to the loop.

    It ends after EOF or an unreadable stream, and quietly once the loop
    is closed.  After a ``shutdown`` line it stays blocked in ``readline``
    until the next line or EOF: nothing closes the stream under it, since
    closing a buffered stream waits for the lock that the blocked read
    holds.  Being a daemon thread, it does not keep the process alive.
    """
    while True:
        try:
            item = _read_capped(stdin)
        except Exception as exc:  # a refused line, or an unreadable stream
            item = exc
        try:
            loop.call_soon_threadsafe(deliver, item)
        except RuntimeError:  # the loop is closed: nobody reads any more
            break
        if not isinstance(item, (str, BadRequestError)):  # EOF, or unreadable
            break
    if stdin is not sys.stdin:
        stdin.close()


async def run_stdio_server(service: SolverService) -> Dict[str, Any]:
    """Wire :func:`serve_stdio` to the real stdin/stdout of the process.

    One reader thread reads stdin, a line at most :data:`MAX_BODY_BYTES`
    characters at a time so one endless line cannot grow the daemon
    without bound, and hands the lines to the event loop; a quiet stdin
    never blocks the loop.  Each response is written and flushed on the
    loop's thread, which also starts the engine's worker processes, so no
    fork lands in the middle of a write.
    """
    loop = asyncio.get_running_loop()
    lines: "asyncio.Queue" = asyncio.Queue()
    stdin = _open_stdin()
    threading.Thread(
        target=_read_lines,
        args=(stdin, loop, lines.put_nowait),
        name="repro-stdio-reader",
        daemon=True,
    ).start()

    async def read_line() -> Optional[str]:
        item = await lines.get()
        if isinstance(item, Exception):
            raise item
        return item

    def write_line(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    return await serve_stdio(service, read_line, write_line)
