"""The HTTP skeleton shared by the cluster daemons (worker, registry).

Every response leaves in one write on a ``TCP_NODELAY`` socket: a head
and a body sent as two small segments with Nagle on wait ~40 ms for a
kept-alive client's delayed ACK.  A client that went away ends quietly.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["DaemonHandler", "DaemonServer", "DaemonHandle"]


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

    def finish(self) -> None:
        """Forget the socket once its connection is done."""
        super().finish()
        self.server.live_connections.discard(self.request)

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
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)

    @property
    def address(self) -> str:
        """The bound ``host:port`` (the real port even when bound to 0)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{int(port)}"

    @property
    def url(self) -> str:
        """Base URL for client requests."""
        return f"http://{self.address}"

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
