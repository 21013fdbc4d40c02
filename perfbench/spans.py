"""Outside-in span tracing for the benchmark's traced runs.

The program is not instrumented.  Instead, :class:`Tracer` replaces a
layer's public function -- a module-level function, or a method in its
class -- with a wrapper that records one span per call: ``(id, name,
start_ns, end_ns, parent_id, rid, note)``.  The parent is the
innermost traced call open on the same thread; ``rid`` is the request
id where the call can see it (an argument's or result's ``extras``),
otherwise the parent's; ``note`` carries a per-call count such as the
nodes a root refresh rehashed.  Spans stay in memory until
:meth:`Tracer.dump`.

A module-level function is patched in its defining module *and* in
every loaded module that imported it by name (``from repro.wire import
decode``), so the wrapper sees every call site.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _rid(message) -> str | None:
    extras = getattr(message, "extras", None)
    return extras.get("rid") if isinstance(extras, dict) else None


def _batch_note(args, kwargs, result):
    entries = args[1]
    return [len(entries), entries[-1][0] if entries else None]


def _sync_note(args, kwargs, result):
    sync = kwargs.get("sync", args[2] if len(args) > 2 else True)
    return 1 if sync else 0


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` plus ``attr`` (``Class.method``
    for a method), the span name, and how to read a rid or a note."""

    module: str
    attr: str
    span: str
    rid_in: Callable | None = None
    rid_out: Callable | None = None
    note: Callable | None = None


#: Server-side layer boundaries, wrapped by the server launcher.
SERVER_TARGETS = (
    Target("repro.mtree.database", "VerifiedDatabase.execute",
           "server.execute"),
    Target("repro.net.core", "ServerCore.apply_batch", "server.apply_batch",
           note=_batch_note),
    Target("repro.net.core", "ServerCore.apply_request",
           "server.apply_request", rid_in=lambda a, k: _rid(a[2])),
    Target("repro.net.core", "ServerCore.apply_followup",
           "server.apply_followup", note=lambda a, k, r: a[1]),
    Target("repro.net.core", "ServerCore.refresh_roots",
           "server.refresh_roots", note=lambda a, k, r: r),
    Target("repro.wire", "encode", "server.wire_encode",
           rid_in=lambda a, k: _rid(a[0])),
    Target("repro.wire", "decode", "server.wire_decode", rid_out=_rid),
    Target("repro.net.wal", "ServerStore.wal_append", "server.wal_append",
           rid_in=lambda a, k: _rid(a[1]), note=_sync_note),
    Target("repro.net.wal", "ServerStore.wal_sync", "server.wal_sync"),
    Target("repro.net.wal", "ServerStore.write_snapshot",
           "server.write_snapshot"),
    Target("repro.net.wal", "PagedServerStore.write_snapshot",
           "server.write_snapshot"),
)

#: Client-side layer boundaries, wrapped in the load generator.
CLIENT_TARGETS = (
    Target("repro.net.framing", "recv_message", "client.recv_message",
           rid_out=_rid),
    Target("repro.wire", "decode", "client.wire_decode", rid_out=_rid),
    Target("repro.protocols.verify", "derive_outcome",
           "client.derive_outcome"),
    Target("repro.crypto.hashing", "hash_tagged_state",
           "client.hash_tagged_state"),
    Target("repro.crypto.signatures", "Signer.sign", "client.sign"),
    Target("repro.crypto.signatures", "Verifier.verify", "client.sig_verify"),
)


class Tracer:
    """Records spans from wrapped calls while :attr:`recording` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.recording = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids),
                     target.rid_in(args, kwargs) if target.rid_in else None]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                rid = frame[1]
                if rid is None and target.rid_out is not None:
                    rid = target.rid_out(result)
                if rid is None and parent is not None:
                    rid = parent[1]
                note = (target.note(args, kwargs, result)
                        if target.note is not None else None)
                tracer.spans.append((frame[0], target.span, start, end,
                                     parent[0] if parent else -1, rid, note))

        return traced

    def install(self, targets) -> None:
        """Wrap every target; modules named by a target are imported."""
        import importlib

        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                own = method in vars(owner)
                original = getattr(owner, method)
                setattr(owner, method, self.wrap(target, original))
                self._patches.append((owner, method, original, own))
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(target, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace is not None and \
                        namespace.get(target.attr) is original:
                    setattr(loaded, target.attr, wrapper)
                    self._patches.append((loaded, target.attr, original, True))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def start(self) -> None:
        self.spans.clear()
        self.recording = True

    def dump(self, path: str) -> None:
        """Stop recording and write every span as JSON (atomically)."""
        self.recording = False
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))
        os.replace(tmp, path)


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    note_sum: float = 0.0


def summarize(spans: list[tuple]) -> dict[str, SpanTotals]:
    """Per span name: calls, inclusive time, self time (inclusive minus
    the time of direct child spans) and the sum of numeric notes."""
    child_ns: dict[int, int] = defaultdict(int)
    for _id, _name, start, end, parent, _rid, _note in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for span_id, name, start, end, _parent, _rid, note in spans:
        entry = totals[name]
        entry.calls += 1
        entry.total_ns += end - start
        entry.self_ns += end - start - child_ns.get(span_id, 0)
        if isinstance(note, (int, float)):
            entry.note_sum += note
        elif isinstance(note, list):
            entry.note_sum += note[0]
    return totals


def followup_wait_ns(spans: list[tuple]) -> int:
    """Total time from each user's latest ``apply_batch`` return to the
    ``apply_followup`` from that user that released the server."""
    events = []
    for _id, name, start, end, _parent, _rid, note in spans:
        if name == "server.apply_batch" and note and note[0]:
            events.append((end, "batch", note[1]))
        elif name == "server.apply_followup":
            events.append((start, "followup", note))
    events.sort(key=lambda event: event[0])
    waiting: dict[str, int] = {}
    total = 0
    for when, kind, user in events:
        if kind == "batch":
            waiting[user] = when
        elif user in waiting:
            total += when - waiting.pop(user)
    return total
