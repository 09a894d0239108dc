"""Reliable ordered message transports over stream sockets: TCP, and a
connected socket pair for in-process channels.

Every message is one length-prefixed frame (u32 little-endian byte count,
then the payload). The protocol layer treats both transports identically;
traces must come out bit-for-bit the same over either.

`save_capture` writes a session's captured messages, in wire order and
framed as on the wire, to a capture file: the `capture.pfidcap` that
`pfid generate` writes.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from pathlib import Path
from typing import Callable

__all__ = [
    "TransportError",
    "TransportClosed",
    "InMemoryTransport",
    "SocketTransport",
    "TcpServer",
    "CapturingTransport",
    "connect_tcp",
    "save_capture",
]

MAX_FRAME_BYTES = 1 << 28  # reject absurd frame lengths before allocating
IDLE_TIMEOUT_S = 60.0  # an accepted peer this long in sending a frame ends its session
MAX_CONNECTIONS = 16  # sessions a TcpServer serves at once; later ones wait in the backlog
_LEN = struct.Struct("<I")


def _frame(data: bytes) -> bytes:
    """One message as it crosses the wire: its length prefix, then itself."""
    return _LEN.pack(len(data)) + data


class TransportError(Exception):
    pass


class TransportClosed(TransportError):
    """Orderly shutdown of the peer or this endpoint."""


class SocketTransport:
    """Length-prefixed frames over a connected stream socket. A received
    length prefix above max_frame ends the transfer before any of the body
    is read."""

    def __init__(self, sock: socket.socket, max_frame: int = MAX_FRAME_BYTES):
        self._sock = sock
        self._max_frame = max_frame

    def send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(_frame(data))
        except OSError as e:
            raise TransportError(f"socket send failed: {e}") from e

    def _recv_exact(self, count: int, deadline: float | None) -> bytes:
        chunks = []
        while count:
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("timed out")
                    self._sock.settimeout(remaining)
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
        """Receive one frame. The socket's timeout bounds the whole frame,
        from this call to its last byte, not each read of it."""
        timeout = self._sock.gettimeout()
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            (length,) = _LEN.unpack(self._recv_exact(4, deadline))
            if length > self._max_frame:
                raise TransportError(f"frame length {length} exceeds limit {self._max_frame}")
            return self._recv_exact(length, deadline) if length else b""
        finally:
            if timeout is not None and self._sock.fileno() != -1:
                self._sock.settimeout(timeout)

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


def save_capture(path: str | Path, capture: list[bytes]) -> None:
    """Write a capture file: the captured frames in wire order, each framed
    as on the wire."""
    Path(path).write_bytes(b"".join(map(_frame, capture)))


def connect_tcp(host: str, port: int, timeout: float = 30.0,
                max_frame: int = MAX_FRAME_BYTES) -> SocketTransport:
    """A connection that refuses reply frames longer than max_frame."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"cannot connect to {host}:{port}: {e}") from e
    return SocketTransport(sock, max_frame)


class TcpServer:
    """Accept loop running one handler thread per connection; the connection
    is closed when its handler returns. At most MAX_CONNECTIONS are served at
    once: further connections wait in the listen backlog, unaccepted, until
    a handler returns. Accepted connections refuse frames longer than
    max_frame."""

    def __init__(self, handler: Callable[[SocketTransport], None], host: str = "127.0.0.1",
                 port: int = 0, max_frame: int = MAX_FRAME_BYTES):
        self._handler = handler
        self._max_frame = max_frame
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()
        self._slots = threading.Semaphore(MAX_CONNECTIONS)
        self._thread: threading.Thread | None = None
        self._stopping = False

    def _loop(self) -> None:
        while True:
            self._slots.acquire()
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.settimeout(IDLE_TIMEOUT_S)
            transport = SocketTransport(conn, self._max_frame)
            threading.Thread(target=self._serve, args=(transport,), daemon=True).start()

    def _serve(self, transport: SocketTransport) -> None:
        try:
            self._handler(transport)
        finally:
            transport.close()
            self._slots.release()

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
            self._slots.release()  # wakes a loop waiting for a free slot
        if self._thread:
            self._thread.join(timeout=5)
