"""The traced run: an in-memory span store and the layer wrappers.

Tracing lives entirely in the benchmark.  :func:`install_layers` swaps
the public entry points of each ``repro`` layer (and the callbacks the
event loop invokes) for thin wrappers that open and close spans in a
:class:`SpanStore`; :meth:`Patches.restore` puts the originals back.
The program under test is not edited.

Wrappers are installed *before* the traced overlay is built, because
the overlay captures bound methods at construction (``on_batch``) and
at socket open (the loop's reader callback).

Each span records its name, start, end, parent span and operation id.
An operation is one unit of loop work: a root span (a readiness
callback, a task's send, one directory command) starts one, and every
span nested under it shares its id.  A layer's self time is its span's
duration minus the durations of its direct child spans; the store keeps
that sum online, so the ledger needs no pass over the stored spans.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: Spans kept for the exit dump (28 bytes each); aggregation never stops.
SPAN_CAPACITY = 1_000_000

_clock = time.perf_counter_ns


class SpanStore:
    """Spans and counters of one traced window, kept in memory."""

    def __init__(self, capacity: int = SPAN_CAPACITY) -> None:
        self.capacity = capacity
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.counters: Dict[str, int] = {}
        #: Spans that closed while another span's frame sat above them
        #: (an awaited wrapper suspended); reported, never hidden.
        self.misnested = 0
        self._stack: List[list] = []
        self._ops = 0
        self._reset_spans()

    def _reset_spans(self) -> None:
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0

    def reset(self) -> None:
        """Forget everything recorded so far (the window starts now)."""
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.total_ns[i] = 0
            self.self_ns[i] = 0
        self.counters.clear()
        self.misnested = 0
        self._ops = 0
        self._reset_spans()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    # -- spans -------------------------------------------------------------

    def open(self, nid: int) -> list:
        """Push a span frame: ``[start_ns, child_ns, index, nid]``."""
        stack = self._stack
        index = len(self.span_start)
        if index < self.capacity:
            if stack:
                parent = stack[-1][2]
                op = self.span_op[parent] if parent >= 0 else -1
            else:
                parent = -1
                self._ops += 1
                op = self._ops
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(op)
            self.span_end.append(0)
            start = _clock()
            self.span_start.append(start)
        else:
            self.dropped += 1
            index = -1
            start = _clock()
        frame = [start, 0, index, nid]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        if stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
            self.misnested += 1
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        nid = frame[3]
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - frame[1]
        if frame[2] >= 0:
            self.span_end[frame[2]] = end
            # A wrapper may rename its span once the call has run.
            self.span_name[frame[2]] = nid

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A synchronous call timed as one span named ``name``."""
        nid = self.name_id(name)
        store = self

        def traced(*args, **kwargs):
            frame = store.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                store.close(frame)

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine function timed from first step to its result.

        Only sound for coroutines that finish without suspending (a
        suspension shows up in :attr:`misnested`).
        """
        nid = self.name_id(name)
        store = self

        async def traced(*args, **kwargs):
            frame = store.open(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                store.close(frame)

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """A call counted under ``name`` but not timed."""
        store = self

        def counted(*args, **kwargs):
            store.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results -----------------------------------------------------------

    def snapshot(self) -> "SpanSummary":
        """Freeze the aggregates (the window ends now)."""
        return SpanSummary(
            {
                name: (self.calls[i], self.total_ns[i], self.self_ns[i])
                for i, name in enumerate(self.names) if self.calls[i]
            },
            dict(self.counters),
            len(self.span_start),
            self.dropped,
            self.misnested,
        )

    def write(self, path: str, upto: int, meta: Dict[str, object]) -> None:
        """Write the first ``upto`` spans once: a JSON line, then arrays.

        The header names the arrays in order, their type codes and
        their length; each array follows as raw native-endian bytes.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = [
            ("name", self.span_name), ("start_ns", self.span_start),
            ("end_ns", self.span_end), ("parent", self.span_parent),
            ("op", self.span_op),
        ]
        header = dict(meta)
        header.update({
            "names": self.names,
            "spans": upto,
            "arrays": [[field, arr.typecode] for field, arr in fields],
        })
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _field, arr in fields:
                arr[:upto].tofile(out)


class SpanSummary:
    """Per-name ``(calls, total_ns, self_ns)`` plus counters of a window."""

    def __init__(
        self,
        spans: Dict[str, Tuple[int, int, int]],
        counters: Dict[str, int],
        stored: int,
        dropped: int,
        misnested: int,
    ) -> None:
        self.spans = spans
        self.counters = counters
        self.stored = stored
        self.dropped = dropped
        self.misnested = misnested

    def calls(self, *names: str) -> int:
        return sum(self.spans.get(n, (0, 0, 0))[0] for n in names)

    def total_us(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0, 0))[1] for n in names) / 1e3

    def self_us(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0, 0))[2] for n in names) / 1e3

    def per_call_us(self, *names: str) -> float:
        calls = self.calls(*names)
        return self.total_us(*names) / calls if calls else 0.0

    def self_per_call_us(self, *names: str) -> float:
        calls = self.calls(*names)
        return self.self_us(*names) / calls if calls else 0.0

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def swap(self, owner: object, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _traced_decide(store: SpanStore) -> Callable[[Callable], Callable]:
    """``ForwardingPipeline.decide`` split into warm and cold spans.

    A decision is warm when the flow cache answered it (its hit counter
    moved during the call).
    """
    warm = store.name_id("dataplane.decide_warm")
    cold = store.name_id("dataplane.decide_cold")

    def make(fn: Callable) -> Callable:
        def traced(pipeline, hop):
            stats = pipeline.flow_cache.stats
            hits = stats.hits
            frame = store.open(cold)
            try:
                return fn(pipeline, hop)
            finally:
                if stats.hits != hits:
                    frame[3] = warm
                store.close(frame)

        traced.__wrapped__ = fn
        return traced

    return make


def install_layers(store: SpanStore) -> Patches:
    """Wrap every layer's entry points; returns the undo list."""
    import repro.directory.service as service_mod
    import repro.live.host as host_mod
    import repro.live.link as link_mod
    import repro.live.router as router_mod
    from repro.dataplane import ForwardingPipeline
    from repro.directory.cluster import DirectoryCluster
    from repro.live import (
        LiveDirectoryClient,
        LiveDirectoryServer,
        LiveEndpoint,
        LiveHost,
        LiveRouter,
        LiveTransactor,
    )
    from repro.obs.recorder import FlightRecorder

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: store.wrap(name, fn)

    def counted(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: store.counting(name, fn)

    p = Patches()
    # live.link: the loop's readiness callback and the two transmit calls.
    p.swap(LiveEndpoint, "_on_readable", span("link.rx"))
    p.swap(LiveEndpoint, "send", span("link.tx"))
    p.swap(LiveEndpoint, "send_view", span("link.tx"))
    # live.frames / viper, at the names the link and router modules call.
    p.swap(link_mod, "decode_preamble", span("frames.parse"))
    p.swap(router_mod, "decode_preamble", span("frames.parse"))
    p.swap(router_mod, "parse_segment_view", span("frames.parse"))
    p.swap(router_mod, "hop_move_into", span("frames.hop_move"))
    p.swap(router_mod, "strip_and_append", counted("frames.fallbacks"))
    p.swap(router_mod, "slick_reroute_slow", counted("frames.fallbacks"))
    p.swap(host_mod, "decode_live_frame", span("frames.host_decode"))
    # dataplane and tokens.
    p.swap(ForwardingPipeline, "decide", _traced_decide(store))
    # live.router, live.host and transport.
    p.swap(LiveRouter, "_on_batch", span("router.batch"))
    p.swap(LiveHost, "send", span("host.send"))
    p.swap(LiveHost, "_on_batch", span("host.batch"))
    p.swap(LiveHost, "_on_frame", span("host.deliver"))
    p.swap(LiveTransactor, "_on_delivered", span("transport.rx"))
    p.swap(LiveTransactor, "_send_request_group", span("transport.send"))
    # obs: the always-on flight recorder.
    p.swap(FlightRecorder, "record", span("obs.recorder"))
    # live.directory, directory and directory.cluster.
    p.swap(LiveDirectoryServer, "_handle_line",
           lambda fn: store.wrap_async("dirserver.command", fn))
    p.swap(LiveDirectoryClient, "_frame", span("dirclient.frame"))
    p.swap(LiveDirectoryClient, "_dispatch", span("dirclient.dispatch"))
    p.swap(service_mod, "k_shortest_paths", span("directory.pathfind"))
    p.swap(service_mod, "dijkstra", span("directory.pathfind"))
    p.swap(DirectoryCluster, "execute_raw", span("cluster.execute"))
    return p


#: Which layer (module) each span belongs to, for the ledger table.
LAYER_OF = {
    "link.rx": "live.link",
    "link.tx": "live.link",
    "frames.parse": "live.frames",
    "frames.hop_move": "live.frames",
    "frames.host_decode": "live.frames",
    "dataplane.decide_warm": "dataplane",
    "dataplane.decide_cold": "dataplane",
    "router.batch": "live.router",
    "host.send": "live.host",
    "host.batch": "live.host",
    "host.deliver": "live.host",
    "transport.rx": "transport",
    "transport.send": "transport",
    "obs.recorder": "obs",
    "dirserver.command": "live.directory",
    "dirclient.frame": "live.directory",
    "dirclient.dispatch": "live.directory",
    "directory.query": "directory",
    "directory.pathfind": "directory",
    "cluster.execute": "directory.cluster",
    "app.serve": "benchmark",
    "app.check": "benchmark",
}


def ledger_rows(
    summary: SpanSummary, units: int, cpu_us: float
) -> List[Tuple[str, str, int, float, float, float]]:
    """``(layer, span, calls, self us/call, self us/unit, share)`` rows.

    The last row is the loop residual: CPU per unit minus every timed
    self time per unit, so the rows sum to CPU per unit by construction.
    """
    rows = []
    accounted = 0.0
    per_unit_cpu = cpu_us / units if units else 0.0
    for name in sorted(summary.spans, key=lambda n: (LAYER_OF.get(n, "~"), n)):
        calls, _total, self_ns = summary.spans[name]
        per_unit = self_ns / 1e3 / units if units else 0.0
        accounted += per_unit
        rows.append((
            LAYER_OF.get(name, "other"), name, calls,
            self_ns / 1e3 / calls if calls else 0.0, per_unit,
            per_unit / per_unit_cpu if per_unit_cpu else 0.0,
        ))
    residual = per_unit_cpu - accounted
    rows.append((
        "asyncio loop", "loop.residual", 0, 0.0, residual,
        residual / per_unit_cpu if per_unit_cpu else 0.0,
    ))
    return rows
