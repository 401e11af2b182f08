"""Server lifecycle: listeners, signals, shutdown, and resume.

:class:`ServiceSupervisor` is the asyncio shell around
:class:`~repro.service.app.ServiceApp`: it binds the HTTP listener and
the optional line-oriented TCP ingest socket, serves one request per
HTTP connection (``Connection: close`` keeps the protocol trivial), and
on SIGINT/SIGTERM drains the listeners and writes one final checkpoint
so a *graceful* stop never loses ingest progress.  A ``kill -9`` loses
at most the batches since the last periodic checkpoint - which is
exactly what the resume path recovers.

:func:`run_service` is the blocking entry point behind
``repro-extract serve`` and :func:`repro.api.serve`: it applies the
resume policy (an existing checkpoint file demands an explicit
``resume=True`` so two daemons cannot silently fight over one state
file), restores the fleet, and runs the supervisor to completion.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from collections.abc import Callable
from typing import TextIO

from repro.core.config import ServiceSettings
from repro.errors import (
    CheckpointError,
    ConfigError,
    ReproError,
    ServiceError,
)
from repro.federation.federator import Federator
from repro.fleet.manager import FleetManager
from repro.obs.log import get_logger
from repro.service.app import ServiceApp
from repro.service.checkpoint import read_checkpoint, restore_fleet
from repro.service.protocol import read_request, render_response

_LOG = get_logger("service")

#: The longest line the TCP ingest port reads, in bytes (asyncio's
#: default stream limit, passed explicitly so the refusal can name it).
LINE_LIMIT = 64 * 1024

#: The ``[service]`` defaults.
_DEFAULTS = ServiceSettings()


class ServiceSupervisor:
    """Own the daemon's sockets and serve the app over them.

    ``[service]`` knobs take their defaults and checks from
    :class:`~repro.core.config.ServiceSettings`.

    Args:
        app: the dispatcher (owns ingest sequencing + checkpoints).
        host: bind address for both listeners.
        port: HTTP port (0 = ephemeral; read the bound port from
            :attr:`http_port` after :meth:`start`).
        ingest_port: optional TCP line-ingest port (``None`` disables
            the socket; 0 = ephemeral).
        max_body_bytes: largest accepted HTTP request body.
    """

    def __init__(
        self,
        app: ServiceApp,
        host: str = _DEFAULTS.host,
        port: int = _DEFAULTS.port,
        ingest_port: int | None = _DEFAULTS.ingest_port,
        max_body_bytes: int = _DEFAULTS.max_body_bytes,
    ):
        ServiceSettings(
            host=host,
            port=port,
            ingest_port=ingest_port,
            max_body_bytes=max_body_bytes,
        )
        self.app = app
        self.host = host
        self.port = port
        self.ingest_port = ingest_port
        self.max_body_bytes = max_body_bytes
        self._http_server: asyncio.Server | None = None
        self._ingest_server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def http_port(self) -> int:
        """The bound HTTP port (meaningful after :meth:`start`)."""
        if self._http_server is None:
            raise ServiceError("supervisor not started")
        sockets = self._http_server.sockets
        return int(sockets[0].getsockname()[1])

    @property
    def bound_ingest_port(self) -> int | None:
        """The bound TCP ingest port, or ``None`` when disabled."""
        if self._ingest_server is None:
            return None
        sockets = self._ingest_server.sockets
        return int(sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind the listeners (idempotent against double starts)."""
        if self._http_server is not None:
            raise ServiceError("supervisor already started")
        try:
            self._http_server = await asyncio.start_server(
                self._serve_http, host=self.host, port=self.port
            )
            if self.ingest_port is not None:
                self._ingest_server = await asyncio.start_server(
                    self._serve_ingest,
                    host=self.host,
                    port=self.ingest_port,
                    limit=LINE_LIMIT,
                )
        except OSError as exc:
            await self.stop(final_checkpoint=False)
            raise ServiceError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain and exit (signal-safe)."""
        self._shutdown.set()

    async def stop(self, final_checkpoint: bool = True) -> None:
        """Close the listeners; optionally write a final checkpoint."""
        for server in (self._http_server, self._ingest_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._http_server = None
        self._ingest_server = None
        if (
            final_checkpoint
            and self.app.checkpoint_path is not None
            and self.app.sequence != self.app.checkpointed_sequence
        ):
            self.app.checkpoint()

    async def serve(
        self, on_ready: Callable[["ServiceSupervisor"], None] | None = None
    ) -> None:
        """Start, serve until :meth:`request_shutdown`, then drain.

        Installs SIGINT/SIGTERM handlers when the loop supports them
        (the main thread); test harnesses driving the supervisor from
        helper threads simply call :meth:`request_shutdown` directly.
        ``on_ready`` fires once the listeners are bound (the CLI's
        address announcement; readiness probes in tests).
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            await self._shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handlers
    # ------------------------------------------------------------------
    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader, self.max_body_bytes)
            except ServiceError as exc:
                body = (
                    '{"error": ' + _json_string(str(exc)) + "}\n"
                ).encode("utf-8")
                status = 413 if "max_body_bytes" in str(exc) else 400
                writer.write(render_response(status, body))
                await writer.drain()
                return
            if request is None:
                return
            status, body, content_type = self.app.handle(request)
            writer.write(render_response(status, body, content_type))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_ingest(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """The TCP line protocol: each line is one CSV flow row
        (header-less, column order as ``/ingest``); rows are batched to
        ``chunk_rows`` and fed on the batch boundary and at EOF.  Each
        accepted batch is acknowledged ``ok <rows> <sequence>``; a
        malformed batch is dropped and answered ``err <message>``.  A
        line longer than :data:`LINE_LIMIT` drops the batch it would
        have joined, is answered ``err``, and closes the connection:
        past it there is no line boundary to resume at."""
        lines: list[str] = []

        async def answer(reply: str) -> None:
            writer.write(f"{reply}\n".encode())
            await writer.drain()

        async def flush() -> None:
            nonlocal lines
            if not lines:
                return
            batch, lines = lines, []
            try:
                rows, sequence = self.app.ingest_lines(batch)
                reply = f"ok {rows} {sequence}"
            except Exception as exc:
                # A ReproError refuses the batch; anything else is a
                # bug - answered all the same, so the client is not
                # left guessing whether its rows were fed.
                if not isinstance(exc, ReproError):
                    _LOG.exception("unhandled error in a TCP ingest batch")
                reply = "err " + str(exc).replace("\n", " ")
            await answer(reply)

        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:  # asyncio's LimitOverrunError
                    await answer(
                        f"err line longer than {LINE_LIMIT} bytes; "
                        f"batch dropped, connection closed"
                    )
                    return
                if not raw:
                    break
                text = raw.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                lines.append(text)
                if len(lines) >= self.app.chunk_rows:
                    await flush()
            await flush()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _json_string(text: str) -> str:
    return json.dumps(text)


def resume_sequence(
    fleet: FleetManager,
    settings: ServiceSettings,
    resume: bool,
    federator: Federator | None = None,
) -> int:
    """Apply the resume policy; returns the starting ingest sequence.

    * ``resume=True`` with an existing checkpoint: restore the fleet
      (and the federator, when the checkpoint carries a ``federation``
      block) from it and continue its sequence.
    * ``resume=True`` without a checkpoint file: cold start (sequence
      0) - restart scripts stay idempotent on first boot.
    * ``resume=False`` but a checkpoint file exists: refuse - the
      caller must either resume it or delete it explicitly; silently
      overwriting another run's state file loses its progress.
    """
    path = settings.checkpoint_path
    if resume and path is None:
        raise ConfigError(
            "resume needs [service] checkpoint_path; this config "
            "runs without checkpointing"
        )
    if path is None or not os.path.exists(path):
        return 0
    if not resume:
        raise ServiceError(
            f"checkpoint {path} already exists; pass --resume to "
            f"continue that run, or remove the file to start fresh"
        )
    with fleet.tracer.span("service.resume", path=os.fspath(path)):
        doc = read_checkpoint(path)
        sequence = restore_fleet(fleet, doc)
        federation_state = doc.get("federation")
        if federation_state is not None and federator is None:
            raise CheckpointError(
                f"checkpoint {path} carries federation state, but "
                f"this daemon has no [federation] configured; its "
                f"buffered digests would be dropped silently"
            )
        if federator is not None and federation_state is not None:
            federator.from_state(federation_state)
        return sequence


def run_service(
    fleet: FleetManager,
    settings: ServiceSettings,
    resume: bool = False,
    log: TextIO | None = None,
    federator: Federator | None = None,
) -> None:
    """Run the daemon against a live fleet until SIGINT/SIGTERM.

    The caller owns the fleet's lifecycle (build it, ``close()`` it);
    this function owns the daemon's: resume policy, app wiring,
    listeners, and graceful shutdown with a final checkpoint.  With a
    ``federator`` the daemon additionally accepts ``POST /digest`` and
    checkpoints the federation state alongside the fleet's.
    """
    sequence = resume_sequence(fleet, settings, resume, federator)
    app = ServiceApp(
        fleet,
        checkpoint_path=settings.checkpoint_path,
        checkpoint_every=settings.checkpoint_every,
        checkpoint_sync=settings.checkpoint_sync,
        chunk_rows=settings.chunk_rows,
        sequence=sequence,
        federator=federator,
    )
    supervisor = ServiceSupervisor(
        app,
        host=settings.host,
        port=settings.port,
        ingest_port=settings.ingest_port,
        max_body_bytes=settings.max_body_bytes,
    )

    def announce(sup: ServiceSupervisor) -> None:
        stream = log if log is not None else sys.stderr
        print(
            f"serving http://{sup.host}:{sup.http_port}"
            + (
                f" ingest tcp://{sup.host}:{sup.bound_ingest_port}"
                if sup.bound_ingest_port is not None
                else ""
            )
            + (f" (resumed at sequence {sequence})" if sequence else ""),
            file=stream,
            flush=True,
        )

    asyncio.run(supervisor.serve(on_ready=announce))
