"""Tests for the TCP front end and its line protocol."""

import socket
import struct
import threading

import pytest

from repro.serve.server import MAX_LINE, ServeClient, ZServeServer
from repro.serve.service import ServeConfig, ZServeCache


@pytest.fixture()
def server():
    cache = ZServeCache(ServeConfig(num_shards=2, lines_per_way=32))
    srv = ZServeServer(cache, port=0)
    srv.serve_in_background()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServeClient(host, port) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        assert client.ping() is True

    def test_put_get_roundtrip(self, client):
        client.put("k1", "v1")
        assert client.get("k1") == "v1"
        assert client.get("missing") is None

    def test_delete(self, client):
        client.put("k", "v")
        assert client.delete("k") is True
        assert client.delete("k") is False
        assert client.get("k") is None

    def test_stats(self, client):
        client.put("k", "v")
        client.get("k")
        stats = client.stats()
        assert stats["shards"] == 2
        assert stats["hits"] >= 1

    def test_bad_requests_get_err(self, client):
        assert client.request("BOGUS").startswith("ERR")
        assert client.request("GET too many args").startswith("ERR")
        assert client.request("") == "ERR empty request"
        # The connection survives a bad request.
        assert client.ping() is True

    def test_dispatch_without_socket(self):
        # The protocol logic is testable without any networking.
        cache = ZServeCache(ServeConfig(num_shards=1, lines_per_way=16))
        srv = ZServeServer.__new__(ZServeServer)
        srv.cache = cache
        assert srv.dispatch("PING") == "PONG"
        assert srv.dispatch("PUT a 1") == "OK"
        assert srv.dispatch("GET a") == "HIT 1"
        assert srv.dispatch("DEL a") == "OK 1"
        assert srv.dispatch("GET a") == "MISS"
        assert srv.dispatch("") == "ERR empty request"


class TestConcurrentClients:
    def test_parallel_connections(self, server):
        host, port = server.address
        errors = []

        def hammer(base):
            try:
                with ServeClient(host, port) as c:
                    for i in range(150):
                        key = f"k{(base * 37 + i) % 500}"
                        c.put(key, f"v{i}")
                        c.get(key)
                    assert c.ping()
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        server.cache.check_consistency()


class TestClientLifecycle:
    def test_close_is_idempotent(self, server):
        host, port = server.address
        client = ServeClient(host, port)
        assert client.ping() is True
        client.close()
        client.close()  # second close must be a no-op, not EBADF

    def test_context_manager_after_manual_close(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.put("k", "v")
            client.close()
        # __exit__ closed an already-closed client without raising.

    def test_server_closing_the_connection_raises_connection_error(self):
        self.check_hang_up(reset=False)

    def test_server_resetting_the_connection_raises_the_same_error(self):
        self.check_hang_up(reset=True)

    @staticmethod
    def check_hang_up(reset):
        # A stub that answers one request and hangs up (ZServeServer
        # never hangs up first — its handler threads serve until client
        # EOF — so a stub is the only deterministic way onto this
        # path); ``reset`` closes with SO_LINGER 0: an RST, not a FIN.
        lsock = socket.socket()
        lsock.bind(("127.0.0.1", 0))
        lsock.listen(1)

        def serve_once():
            conn, _ = lsock.accept()
            rfile = conn.makefile("rwb")
            rfile.readline()
            rfile.write(b"PONG\n")
            rfile.flush()
            if reset:
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            rfile.close()
            conn.close()

        threading.Thread(target=serve_once, daemon=True).start()
        client = ServeClient(*lsock.getsockname())
        try:
            assert client.ping() is True
            # EOF, ECONNRESET or EPIPE — whichever wins the race — is
            # the one typed error, not an empty-reply ValueError.
            with pytest.raises(ConnectionError, match="server closed"):
                client.request("PING")
            assert client._closed
        finally:
            client.close()
            lsock.close()


class TestHalfSentLine:
    def test_a_line_cut_off_by_eof_is_not_executed(self, server):
        # The client sends a PUT without its newline, then half-closes:
        # the request never finished, so nothing may be installed and
        # nothing is answered.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"PUT k1 full-valu")
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as rfile:
                assert rfile.readline() == b""
        with ServeClient(*server.address) as client:
            assert client.get("k1") is None
            assert client.ping() is True
        server.cache.check_consistency()


class TestOversizedLine:
    def test_newline_free_megabyte_gets_an_error_and_a_hang_up(self, server):
        # One client that never sends a newline must cost the server
        # MAX_LINE bytes, not whatever it cares to send.
        with socket.create_connection(server.address, timeout=10) as sock:
            try:
                sock.sendall(b"A" * (1 << 20))
            except ConnectionError:
                pass  # the server hung up mid-send: that is the point
            with sock.makefile("rb") as rfile:
                assert rfile.readline() == b"ERR line too long\n"
                try:
                    assert rfile.readline() == b""
                except ConnectionResetError:
                    pass  # unread megabyte at the server's close: an RST
        # ... and the server is still there for the next client.
        with ServeClient(*server.address) as client:
            assert client.ping() is True

    def test_longest_legal_line_is_served(self, client):
        value = "v" * (MAX_LINE - len("PUT k \n"))
        client.put("k", value)
        assert client.get("k") == value
        assert client.request("PUT k " + value + "v") == "ERR line too long"
