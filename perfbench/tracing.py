"""Spans recorded around the program's public functions, from outside it.

`install` replaces a function at every name its callers look it up by (for
example `pfid.protocol.truncated_svd`, which `protocol` imported from
`linalg`) with a wrapper that records a span: name, start, end, parent and
session. Spans stay in memory; `dump` writes them out once, at the end.
Untraced runs never call `install`, so they run the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

# span name -> (defining module, function, [modules whose global the callers read])
CLIENT_SITES = {
    "shard.head_forward": ("pfid.shard", "head_forward", ["pfid.protocol"]),
    "shard.middle_forward": ("pfid.shard", "middle_forward", ["pfid.protocol"]),
    "shard.tail_forward": ("pfid.shard", "tail_forward", ["pfid.protocol", "pfid.adversary"]),
    "linalg.truncated_svd": ("pfid.linalg", "truncated_svd", ["pfid.protocol"]),
    "linalg.reconstruct": ("pfid.linalg", "reconstruct", ["pfid.protocol"]),
    "linalg.qr": ("numpy.linalg", "qr", ["numpy.linalg"]),
    "protocol.encode_packet": ("pfid.protocol", "encode_packet", ["pfid.protocol"]),
    "protocol.decode_packet": ("pfid.protocol", "decode_packet",
                               ["pfid.protocol", "pfid.adversary"]),
    "protocol.reprivatize": ("pfid.protocol", "reprivatize", ["pfid.protocol"]),
    "protocol.handle_request": ("pfid.protocol", "_handle_request", ["pfid.protocol"]),
    "model.forward_layers": ("pfid.model", "forward_layers", ["pfid.model"]),
    "model.logits": ("pfid.model", "logits", ["pfid.model"]),
    "model.sample_next": ("pfid.model", "sample_next",
                          ["pfid.model", "pfid.protocol", "pfid.adversary"]),
    "adversary.eavesdrop_generate": ("pfid.adversary", "eavesdrop_generate",
                                     ["pfid.adversary"]),
    "training.loss_and_grads": ("pfid.training", "loss_and_grads", ["pfid.training"]),
    "training.train": ("pfid.training", "train", ["pfid.training"]),
    "checkpoint.save_model": ("pfid.checkpoint", "save_model", ["pfid.checkpoint"]),
    "checkpoint.load_model": ("pfid.checkpoint", "load_model", ["pfid.checkpoint"]),
    "transport.connect_tcp": ("pfid.transport", "connect_tcp", ["pfid.transport"]),
}

# The server process serves requests and nothing else.
SERVER_SITES = {name: CLIENT_SITES[name] for name in (
    "shard.middle_forward", "linalg.truncated_svd", "linalg.reconstruct", "linalg.qr",
    "protocol.encode_packet", "protocol.decode_packet", "protocol.handle_request",
)}

# Socket send/recv are methods; the round trip is one send plus one recv.
METHOD_SITES = {
    "transport.send": ("pfid.transport", "SocketTransport", "send_bytes"),
    "transport.recv": ("pfid.transport", "SocketTransport", "recv_bytes"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root
    session: int  # the recording thread; a TCP session runs on one thread
    cpu: float = 0.0  # thread CPU seconds, recorded for protocol.handle_request only


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, thread_cpu: bool = False):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = getattr(local, "current", -1)
            cpu0 = time.thread_time() if thread_cpu else 0.0
            start = time.perf_counter()
            with self._lock:
                idx = len(self.spans)
                self.spans.append(Span(name, start, start, parent, threading.get_ident()))
            local.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                span = self.spans[idx]
                span.end = time.perf_counter()
                if thread_cpu:
                    span.cpu = time.thread_time() - cpu0
                local.current = parent

        return wrapper

    def install(self, sites: dict, methods: dict | None = None) -> None:
        for name, (home, attr, lookups) in sites.items():
            fn = getattr(importlib.import_module(home), attr)
            wrapped = self._wrap(name, fn, thread_cpu=name == "protocol.handle_request")
            for mod_name in lookups:
                mod = importlib.import_module(mod_name)
                self._restore.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        for name, (home, cls_name, attr) in (methods or {}).items():
            cls = getattr(importlib.import_module(home), cls_name)
            self._restore.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.session, s.cpu]
                       for s in self.spans], fh)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*row) for row in json.load(fh)]
