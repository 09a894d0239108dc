"""Reliable ordered message transports over stream sockets: TCP, and a
connected socket pair for in-process channels.

Every message is one length-prefixed frame (u32 little-endian byte count,
then the payload). The protocol layer treats both transports identically;
traces must come out bit-for-bit the same over either.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable

__all__ = [
    "TransportError",
    "TransportClosed",
    "InMemoryTransport",
    "SocketTransport",
    "TcpServer",
    "CapturingTransport",
    "connect_tcp",
]

MAX_FRAME_BYTES = 1 << 28  # reject absurd frame lengths before allocating
IDLE_TIMEOUT_S = 60.0  # an accepted peer silent this long ends its session
_LEN = struct.Struct("<I")


class TransportError(Exception):
    pass


class TransportClosed(TransportError):
    """Orderly shutdown of the peer or this endpoint."""


class SocketTransport:
    """Length-prefixed frames over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(_LEN.pack(len(data)) + data)
        except OSError as e:
            raise TransportError(f"socket send failed: {e}") from e

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            try:
                chunk = self._sock.recv(min(count, 1 << 20))
            except OSError as e:
                raise TransportError(f"socket recv failed: {e}") from e
            if not chunk:
                if chunks:
                    raise TransportError("connection dropped mid-frame")
                raise TransportClosed("peer closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def recv_bytes(self) -> bytes:
        (length,) = _LEN.unpack(self._recv_exact(4))
        if length > MAX_FRAME_BYTES:
            raise TransportError(f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
        return self._recv_exact(length) if length else b""

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class InMemoryTransport(SocketTransport):
    """One end of an in-process duplex channel: a connected socket pair,
    framed exactly like TCP. A send blocks while the peer's receive buffer
    is full, so, as over TCP, the other end needs a reader."""

    @classmethod
    def pair(cls, timeout: float = 30.0) -> tuple["InMemoryTransport", "InMemoryTransport"]:
        ends = socket.socketpair()
        for end in ends:
            end.settimeout(timeout)
        return cls(ends[0]), cls(ends[1])


class CapturingTransport:
    """Tees every frame into a capture list, in wire order. This is the
    eavesdropper's interception point."""

    def __init__(self, inner, capture: list[bytes]):
        self._inner = inner
        self.capture = capture

    def send_bytes(self, data: bytes) -> None:
        self.capture.append(bytes(data))
        self._inner.send_bytes(data)

    def recv_bytes(self) -> bytes:
        data = self._inner.recv_bytes()
        self.capture.append(bytes(data))
        return data

    def close(self) -> None:
        self._inner.close()


def connect_tcp(host: str, port: int, timeout: float = 30.0) -> SocketTransport:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"cannot connect to {host}:{port}: {e}") from e
    return SocketTransport(sock)


class TcpServer:
    """Accept loop running one handler thread per connection; the connection
    is closed when its handler returns."""

    def __init__(self, handler: Callable[[SocketTransport], None], host: str = "127.0.0.1",
                 port: int = 0):
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()
        self._thread: threading.Thread | None = None
        self._stopping = False

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.settimeout(IDLE_TIMEOUT_S)
            threading.Thread(target=self._serve, args=(SocketTransport(conn),), daemon=True).start()

    def _serve(self, transport: SocketTransport) -> None:
        try:
            self._handler(transport)
        finally:
            transport.close()

    def start(self) -> "TcpServer":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._loop()

    def stop(self) -> None:
        if not self._stopping:
            self._stopping = True
            # close() alone does not wake a thread blocked in accept().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._thread:
            self._thread.join(timeout=5)
