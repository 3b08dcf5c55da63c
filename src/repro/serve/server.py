"""Threaded TCP front end speaking a one-line text protocol.

One request per line, one reply per line, UTF-8, space-delimited
tokens (keys and values must not contain whitespace — the loadgen and
smoke clients use hex tokens):

=====================  =======================================
request                reply
=====================  =======================================
``GET <key>``          ``HIT <value>`` or ``MISS``
``PUT <key> <value>``  ``OK``
``DEL <key>``          ``OK 1`` (was cached) / ``OK 0``
``STATS``              one JSON object
``PING``               ``PONG``
anything else          ``ERR <reason>``
=====================  =======================================

A line longer than :data:`MAX_LINE` bytes gets ``ERR line too long``
and the connection is closed. A final line with no newline before EOF
is a request that never finished: it is dropped with no reply.

The server is a stock :class:`socketserver.ThreadingTCPServer`: one
thread per connection, all of them hammering the shared
:class:`~repro.serve.service.ZServeCache` — which is the point; the
shard locks are the only synchronization.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Optional

from repro.serve.service import ZServeCache

#: longest request line the server reads, newline included. A client
#: that never sends one must not grow a handler's buffer without bound;
#: the loadgen's longest line (a PUT of two hex tokens) is under 100.
MAX_LINE = 64 * 1024


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines until EOF."""

    server: "ZServeServer"

    def handle(self) -> None:
        while True:
            raw = self.rfile.readline(MAX_LINE + 1)
            if not raw:
                return
            if len(raw) > MAX_LINE:
                # Hang up rather than resynchronise: the rest of the
                # line would otherwise be parsed as fresh requests.
                self.wfile.write(b"ERR line too long\n")
                return
            if not raw.endswith(b"\n"):
                # EOF in mid-line: the client never finished this
                # request, so it is dropped, not executed (a half-sent
                # PUT would install a truncated value).
                return
            reply = self.server.dispatch(raw.decode("utf-8", "replace"))
            self.wfile.write(reply.encode("utf-8") + b"\n")


class ZServeServer(socketserver.ThreadingTCPServer):
    """The service bound to a socket. ``port=0`` picks a free port."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        cache: ZServeCache,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.cache = cache

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when ``port=0``."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def dispatch(self, line: str) -> str:
        """Execute one protocol line and return the reply line."""
        parts = line.split()
        if not parts:
            return "ERR empty request"
        op = parts[0].upper()
        if op == "GET" and len(parts) == 2:
            hit, value = self.cache.get(parts[1])
            return f"HIT {value}" if hit else "MISS"
        if op == "PUT" and len(parts) == 3:
            self.cache.put(parts[1], parts[2])
            return "OK"
        if op == "DEL" and len(parts) == 2:
            return f"OK {int(self.cache.invalidate(parts[1]))}"
        if op == "STATS" and len(parts) == 1:
            return json.dumps(self.cache.snapshot(), sort_keys=True)
        if op == "PING" and len(parts) == 1:
            return "PONG"
        return f"ERR bad request: {line.strip()[:80]!r}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests / smoke)."""
        thread = threading.Thread(
            target=self.serve_forever, name="zserve", daemon=True
        )
        thread.start()
        return thread


class ServeClient:
    """Minimal blocking client for the line protocol."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._closed = False

    def request(self, line: str) -> str:
        """Send one protocol line and return the reply line.

        A server that hung up surfaces as one typed error however the
        race between its FIN, an RST and our write resolves (EOF on
        the read, ``ConnectionResetError``, ``BrokenPipeError``), and
        leaves the client closed.
        """
        reply = b""
        cause: Optional[ConnectionError] = None
        try:
            self._file.write(line.encode("utf-8") + b"\n")
            self._file.flush()
            reply = self._file.readline()
        except ConnectionError as exc:
            cause = exc
        if not reply:
            try:
                self.close()
            except OSError:
                pass  # the unsent request fails its flush-on-close again
            raise ConnectionError("server closed the connection") from cause
        return reply.decode("utf-8").rstrip("\n")

    def get(self, key: str) -> Optional[str]:
        """The cached value, or None on a miss."""
        reply = self.request(f"GET {key}")
        if reply == "MISS":
            return None
        if reply.startswith("HIT "):
            return reply[4:]
        raise ValueError(f"unexpected reply: {reply!r}")

    def put(self, key: str, value: str) -> None:
        """Install or overwrite ``key``."""
        reply = self.request(f"PUT {key} {value}")
        if reply != "OK":
            raise ValueError(f"unexpected reply: {reply!r}")

    def delete(self, key: str) -> bool:
        """Invalidate ``key``; True when it was cached."""
        reply = self.request(f"DEL {key}")
        if reply not in ("OK 0", "OK 1"):
            raise ValueError(f"unexpected reply: {reply!r}")
        return reply == "OK 1"

    def stats(self) -> dict[str, Any]:
        """The server's aggregate statistics dict."""
        out = json.loads(self.request("STATS"))
        assert isinstance(out, dict)
        return out

    def ping(self) -> bool:
        """Liveness check."""
        return self.request("PING") == "PONG"

    def close(self) -> None:
        """Close the connection. Safe to call more than once.

        Idempotence matters because both the context manager and
        error-path cleanup may reach here; the socket is closed even
        when flushing the buffered file object raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
