"""The HTTP skeleton shared by all three daemons (server, worker, registry).

A daemon is a :class:`DaemonServer` bound to a :class:`DaemonHandler`
subclass and run by a :class:`DaemonHandle`: keep-alive HTTP/1.1, quiet
logs, one request-body reader, a stop that severs kept-alive sockets,
and one serve-until-SIGTERM-or-Ctrl-C loop (:func:`serve_until_stopped`).

Worker and registry responses leave in one write on a ``TCP_NODELAY``
socket: a head and a body sent as two small segments with Nagle on wait
~40 ms for a kept-alive client's delayed ACK.  A client that went away
ends quietly.  The label server (:mod:`repro.app.server`) keeps Nagle on
and its two-write responses for now: with Nagle off, its plain-GET
clients' label builds hold the GIL while SSE streams wait, and
``serve-churn``'s first-widget latency doubles.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ClusterError

__all__ = ["DaemonHandler", "DaemonServer", "DaemonHandle", "serve_until_stopped"]

#: how often ``serve_forever`` checks for a stop request: ``stop()``
#: waits up to this long, so a fixture of several daemons tears down fast
_POLL_INTERVAL = 0.05


class DaemonServer(ThreadingHTTPServer):
    """A threading HTTP server tracking its open client sockets.

    A kept-alive connection's handler thread outlives ``serve_forever``;
    :meth:`DaemonHandle.stop` severs these sockets.
    """

    def __init__(self, address: tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self.live_connections: set[socket.socket] = set()


class DaemonHandler(BaseHTTPRequestHandler):
    """Keep-alive routes whose every response is one Nagle-free write."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on each accepted socket

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep daemon output clean

    def setup(self) -> None:
        """Track the accepted socket so a stop can sever it."""
        self.server.live_connections.add(self.request)
        super().setup()

    def parse_request(self) -> bool:
        self._body_unread = super().parse_request()  # until _read_body
        return self._body_unread

    def handle_one_request(self) -> None:
        """Serve one request, then drain a body its route left unread (a
        404 for an unknown POST path): it is not the next request."""
        self._body_unread = False
        super().handle_one_request()
        if self._body_unread and not self.close_connection:
            try:
                self._read_body()
            except (ClusterError, OSError):  # bad length, or a stalled client
                self.close_connection = True

    def handle(self) -> None:
        """Serve the connection; one reset by the client or a stop ends quietly."""
        try:
            super().handle()
        except ConnectionError:
            self.close_connection = True

    def finish(self) -> None:
        """Forget the socket once its connection is done."""
        try:
            super().finish()
        finally:
            self.server.live_connections.discard(self.request)

    def _read_body(self) -> bytes:
        """The request body ``Content-Length`` declares (empty without one).

        A length that is not a non-negative integer raises
        :class:`ClusterError`, which each daemon answers with a 400 JSON
        error.  The connection then closes: the unread body would
        otherwise be parsed as the next request.
        """
        self._body_unread = False
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ClusterError(f"bad Content-Length header {declared!r}")
        return self.rfile.read(length) if length else b""

    def _send_bytes(self, status: int, content_type: str, body: bytes) -> None:
        """Write status line, headers and body in a single ``sendall``.

        ``end_headers()`` would flush the head on a write of its own, so
        the blank line is added here instead.  A client that dropped the
        socket (chunk timeout, failover) just closes the connection.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        head = getattr(self, "_headers_buffer", [])  # absent for HTTP/0.9
        self._headers_buffer = []
        try:
            self.wfile.write(b"".join([*head, b"\r\n", body] if head else [body]))
        except OSError:
            self.close_connection = True

    def _send_json(self, status: int, data: object) -> None:
        self._send_bytes(
            status, "application/json", json.dumps(data, indent=2).encode("utf-8")
        )


class DaemonHandle:
    """A bound :class:`DaemonServer` plus its serving thread (context manager)."""

    def __init__(self, server: DaemonServer) -> None:
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": _POLL_INTERVAL},
            daemon=True,
        )

    @property
    def address(self) -> str:
        """The bound ``host:port`` (the real port even when bound to 0)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{int(port)}"

    @property
    def url(self) -> str:
        """Base URL for client requests."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{int(port)}"

    def start(self):
        """Begin serving on the daemon thread; returns ``self``."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, sever kept-alive connections, join the thread.

        A client holding a persistent connection then sees what a killed
        daemon looks like: its next request fails.
        """
        self._server.shutdown()
        self._server.server_close()
        for connection in list(self._server.live_connections):
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
            connection.close()
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_until_stopped(handle: DaemonHandle, banner: str, farewell: str) -> None:
    """Serve ``handle`` until SIGTERM or Ctrl-C, then stop it gracefully.

    ``banner`` is printed once the daemon serves (supervisors wait for
    the URL in it), and ``farewell`` with the reason, SIGTERM or
    interrupt, before the handle's ``stop()`` runs.  Either way the
    process exits normally, so an orchestrator's ordinary stop signal
    drains, deregisters and closes like Ctrl-C does.
    """
    stop = threading.Event()
    try:
        previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:  # not the main thread: Ctrl-C is the only way out
        previous = None
    try:
        with handle:
            print(banner)
            try:
                stop.wait()
                reason = "SIGTERM"
            except KeyboardInterrupt:
                reason = "interrupt"
            print(f"{farewell} ({reason})")
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
