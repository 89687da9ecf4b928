"""The asyncio TCP frontend: NDJSON frames in, streamed matches out.

:class:`ValidationServer` accepts connections, opens one
:class:`~repro.service.sessions.ClientSession` per socket, and pumps the
engine thread's delivery callbacks back through the event loop
(``loop.call_soon_threadsafe`` into a per-connection outbox queue, one
writer task per connection).  The read side is deliberately paranoid:
every line goes through :func:`~repro.service.protocol.decode_frame`,
oversized lines are discarded up to the next newline (NDJSON resync),
and a malformed frame costs the client an ``error`` frame, never the
server a thread.

:func:`run_server` is the ``repro serve`` entry point: it installs
SIGTERM/SIGINT handlers that trigger the graceful drain (stop accepting,
stop admitting, finish or checkpoint in-flight rounds, flush terminal
frames) and returns once the drain completes.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Any, Callable

from repro.service import protocol
from repro.service.sessions import ClientSession, SchedulerService

__all__ = ["ValidationServer", "run_server"]

#: Sentinel telling a connection's writer task to flush and exit.
_CLOSE = object()


class ValidationServer:
    """One listening socket in front of a :class:`SchedulerService`.

    Usage::

        service = SchedulerService(model, tokenizer, ...)
        server = ValidationServer(service, "127.0.0.1", 0)
        await server.start()          # binds; server.port is now real
        ...
        await server.shutdown()       # drain + close, idempotent
    """

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task[None]] = set()
        self._outboxes: set[asyncio.Queue[Any]] = set()
        self._shutdown_started = False

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the engine thread; returns (host, port)."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            # Headroom over the protocol ceiling so decode_frame (not the
            # stream reader) is what rejects a frame of exactly the limit.
            limit=2 * self.max_frame_bytes,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, drain the engine (finishing or
        checkpointing in-flight queries), flush every connection's terminal
        frames, and close the sockets."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # The drain blocks on the engine thread; keep the loop free so the
        # terminal frames it emits can still reach the writer tasks.
        await asyncio.get_running_loop().run_in_executor(None, self.service.close)
        for outbox in list(self._outboxes):
            outbox.put_nowait(_CLOSE)
        if self._handlers:
            done, pending = await asyncio.wait(self._handlers, timeout=10.0)
            for task in pending:  # pragma: no cover - defensive
                task.cancel()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        outbox: asyncio.Queue[Any] = asyncio.Queue()
        self._outboxes.add(outbox)
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)

        def deliver(frame: dict[str, Any]) -> None:
            # Called from the engine thread; may race loop shutdown.
            try:
                loop.call_soon_threadsafe(outbox.put_nowait, frame)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        session = self.service.open_session(deliver)
        pump = asyncio.ensure_future(self._pump(outbox, writer))
        outbox.put_nowait(
            {
                "type": "hello",
                "version": protocol.PROTOCOL_VERSION,
                "server": "repro-service",
                "max_frame_bytes": self.max_frame_bytes,
            }
        )
        try:
            await self._read_loop(reader, session, outbox)
        finally:
            session.close()
            outbox.put_nowait(_CLOSE)
            try:
                await asyncio.wait_for(pump, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):  # pragma: no cover
                pump.cancel()
            self._outboxes.discard(outbox)
            self._handlers.discard(task)

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        session: ClientSession,
        outbox: asyncio.Queue[Any],
    ) -> None:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return
            except asyncio.LimitOverrunError:
                self.service.note_malformed()
                outbox.put_nowait(
                    {
                        "type": "error",
                        "message": f"frame exceeds {self.max_frame_bytes} bytes",
                    }
                )
                if not await self._resync(reader):
                    return
                continue
            except (ConnectionError, OSError):
                return
            try:
                frame = protocol.decode_frame(line, max_bytes=self.max_frame_bytes)
            except protocol.ProtocolError as exc:
                self.service.note_malformed()
                outbox.put_nowait({"type": "error", "message": str(exc)})
                if exc.fatal:
                    return
                continue
            try:
                if not self._dispatch(session, frame, outbox):
                    return
            except protocol.ProtocolError as exc:
                self.service.note_malformed()
                error: dict[str, Any] = {"type": "error", "message": str(exc)}
                frame_id = frame.get("id")
                if isinstance(frame_id, str):
                    error["id"] = frame_id
                outbox.put_nowait(error)
                if exc.fatal:
                    return

    @staticmethod
    async def _resync(reader: asyncio.StreamReader) -> bool:
        """Discard buffered bytes up to the next newline (NDJSON recovery)."""
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                await reader.read(exc.consumed)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return False

    def _dispatch(
        self,
        session: ClientSession,
        frame: dict[str, Any],
        outbox: asyncio.Queue[Any],
    ) -> bool:
        """Handle one validated frame; False ends the connection politely."""
        frame_type = frame["type"]
        if frame_type == "hello":
            version = frame.get("version")
            if version != protocol.PROTOCOL_VERSION:
                raise protocol.ProtocolError(
                    f"protocol version mismatch: client {version!r}, "
                    f"server {protocol.PROTOCOL_VERSION}",
                    fatal=True,
                )
            return True
        if frame_type == "submit":
            query_id, query, budget = protocol.validate_submit(frame)
            window = frame.get("window")
            if window is not None and (isinstance(window, bool) or not isinstance(window, int)):
                raise protocol.ProtocolError("'window' must be an integer")
            session.submit(query_id, query, budget, window=window)
            return True
        if frame_type == "cancel":
            session.cancel(self._frame_id(frame))
            return True
        if frame_type == "window":
            n = frame.get("n")
            if isinstance(n, bool) or not isinstance(n, int):
                raise protocol.ProtocolError("window frame needs an integer 'n'")
            session.grant(self._frame_id(frame), n)
            return True
        if frame_type == "stats":
            outbox.put_nowait(self.service.stats_frame())
            return True
        if frame_type == "bye":
            return False
        raise protocol.ProtocolError(f"unexpected {frame_type!r} frame from client")

    @staticmethod
    def _frame_id(frame: dict[str, Any]) -> str:
        frame_id = frame.get("id")
        if not isinstance(frame_id, str) or not frame_id:
            raise protocol.ProtocolError(f"{frame['type']} frame needs a string 'id'")
        return frame_id

    async def _pump(self, outbox: asyncio.Queue[Any], writer: asyncio.StreamWriter) -> None:
        """Serialize frames from the engine to one socket, in order."""
        try:
            while True:
                frame = await outbox.get()
                if frame is _CLOSE:
                    break
                writer.write(protocol.encode_frame(frame))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


async def run_server(
    service: SchedulerService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    handle_signals: bool = True,
    ready: Callable[[str, int], None] | None = None,
    stop_event: asyncio.Event | None = None,
) -> ValidationServer:
    """Serve until SIGTERM/SIGINT (or *stop_event*), then drain gracefully.

    *ready* is called with the bound ``(host, port)`` once the socket is
    listening — ``repro serve`` uses it to print the ``# listening`` line
    that lets callers pick ``--port 0``.  Returns the (shut-down) server
    so callers can read final stats off ``server.service``.
    """
    server = ValidationServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server.host, server.port)
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    if handle_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.shutdown()
    return server
