import queue
import socket
import struct
import threading
import time

import pytest

from pfid import transport
from pfid.transport import (
    CapturingTransport,
    InMemoryTransport,
    TcpServer,
    TransportClosed,
    TransportError,
    connect_tcp,
)


class TestInMemory:
    def test_round_trip(self):
        a, b = InMemoryTransport.pair()
        a.send_bytes(b"hello")
        assert b.recv_bytes() == b"hello"
        b.send_bytes(b"world")
        assert a.recv_bytes() == b"world"
        a.close()
        b.close()

    def test_close_signals_peer(self):
        a, b = InMemoryTransport.pair()
        a.close()
        with pytest.raises(TransportClosed):
            b.recv_bytes()
        b.close()

    def test_timeout(self):
        a, b = InMemoryTransport.pair(timeout=0.05)
        with pytest.raises(TransportError, match="timed out"):
            a.recv_bytes()
        a.close()
        b.close()


class TestSocket:
    def test_echo_round_trip(self):
        def handler(t):
            try:
                while True:
                    t.send_bytes(t.recv_bytes())
            except TransportError:
                pass

        server = TcpServer(handler).start()
        try:
            client = connect_tcp(server.host, server.port)
            for payload in (b"", b"x", b"y" * 100_000):
                client.send_bytes(payload)
                assert client.recv_bytes() == payload
            client.close()
        finally:
            server.stop()

    def test_closed_peer_raises(self):
        server = TcpServer(lambda t: t.close()).start()
        try:
            client = connect_tcp(server.host, server.port)
            with pytest.raises(TransportClosed):
                client.recv_bytes()
            client.close()
        finally:
            server.stop()

    def test_the_server_end_is_closed_after_its_handler_returns(self):
        ends = queue.Queue()

        def handler(t):
            ends.put(t)
            try:
                t.recv_bytes()
            except TransportClosed:
                pass

        server = TcpServer(handler).start()
        try:
            client = connect_tcp(server.host, server.port)
            server_end = ends.get(timeout=5)
            client.close()
            deadline = time.monotonic() + 5
            while server_end._sock.fileno() != -1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server_end._sock.fileno() == -1
        finally:
            server.stop()

    def test_stop_ends_the_accept_thread_at_once(self):
        server = TcpServer(lambda t: t.close()).start()
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1.0
        assert not server._thread.is_alive()

    def test_connections_beyond_the_bound_wait_in_the_backlog(self, monkeypatch):
        """With 2 slots, a third raw client is connected but unanswered until
        one of the first two closes; then it is served. stop() returns at
        once while every slot is busy."""
        monkeypatch.setattr(transport, "MAX_CONNECTIONS", 2)

        def echo(t):
            try:
                while True:
                    t.send_bytes(t.recv_bytes())
            except TransportClosed:
                pass

        def frame(payload):
            return struct.pack("<I", len(payload)) + payload

        def reply(sock):
            head = sock.recv(4, socket.MSG_WAITALL)
            return sock.recv(struct.unpack("<I", head)[0], socket.MSG_WAITALL)

        server = TcpServer(echo).start()
        clients = []
        try:
            for i in range(3):
                clients.append(socket.create_connection((server.host, server.port), timeout=5))
                clients[-1].sendall(frame(b"client %d" % i))
            assert [reply(c) for c in clients[:2]] == [b"client 0", b"client 1"]
            clients[2].settimeout(0.3)
            with pytest.raises(TimeoutError):
                clients[2].recv(1)
            clients[2].settimeout(5)
            clients.pop(0).close()
            assert reply(clients[1]) == b"client 2"
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0
            assert not server._thread.is_alive()
            clients[0].sendall(frame(b"still served"))
            assert reply(clients[0]) == b"still served"
        finally:
            for c in clients:
                c.close()
            server.stop()

    def test_connect_refused(self):
        with pytest.raises(TransportError, match="connect"):
            connect_tcp("127.0.0.1", 1, timeout=0.5)


def test_capture_tees_both_directions():
    a, b = InMemoryTransport.pair()
    capture = []
    tee = CapturingTransport(a, capture)

    def peer():
        msg = b.recv_bytes()
        b.send_bytes(msg + b"!")

    t = threading.Thread(target=peer)
    t.start()
    tee.send_bytes(b"ping")
    assert tee.recv_bytes() == b"ping!"
    t.join()
    tee.close()
    b.close()
    assert capture == [b"ping", b"ping!"]
