"""A Sirpent router as a live asyncio UDP daemon — the overlay's driver.

:class:`LiveRouter` receives whole batches of VIPER frames as ring-slot
views (:class:`~repro.viper.wire.PacketView`), decodes the preamble and
the *leading* header segment in place, runs the **same** sans-IO
:class:`repro.dataplane.ForwardingPipeline` as the simulator's
:class:`~repro.core.router.SirpentRouter` — token-cache admission, the
§2.2 flow cache, strip/reverse/append planning — and forwards the
rewritten slot out the named port, which in the overlay is a UDP peer
address.  Port 0 delivers locally, exactly as §5 reserves it.

There is one forwarding path, :meth:`LiveRouter._forward_view`: the
hop move (or the Slick-Packets splice) happens inside the frame's ring
slot, and only a slot without tail-room for the return hop falls back
to the materialising codec.  Sim↔live decision parity is *structural*:
both routers call the one pipeline, so the parity tests assert
plumbing, not a duplicated algorithm.

Unsupported in the live overlay: multicast fan-out/tree ports and
logical-port splicing — the pipeline is built with
``Capabilities(multicast=False)`` and an empty logical map, so frames
naming them are dropped and counted, never crash the daemon.
Undecodable datagrams are likewise dropped-and-counted (the decoder
totality the fuzz suite enforces is what makes this safe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.dataplane import (
    Action,
    Capabilities,
    Decision,
    EffectSink,
    FlowCache,
    ForwardingPipeline,
    HopInput,
    PortMap,
    PortProfile,
    UNKNOWN_IN_PORT,
    apply_drop,
)
from repro.live.frames import (
    FRAME_DATA,
    decode_preamble,
    hop_move_into,
    leading_alt_block,
    return_tail_of,
    slick_reroute_into,
    slick_reroute_slow,
    strip_and_append,
)
from repro.live.link import Address, Impairments, LiveEndpoint, ReliabilityConfig
from repro.live.metrics import EndpointMetrics
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.errors import ViperDecodeError
from repro.viper.portinfo import ETHERNET_INFO_BYTES, EthernetInfo
from repro.viper.wire import HeaderSegment, PacketView, parse_segment_view

__all__ = [
    "Action",
    "Decision",
    "LiveRouter",
    "LiveRouterConfig",
]


@dataclass
class LiveRouterConfig:
    """Tunables of one live router daemon."""

    token_policy: CachePolicy = CachePolicy.OPTIMISTIC
    require_tokens: bool = False
    #: Per-hop forwarding uses ack/retry when True (dead peers become
    #: detectable instead of silent loss).
    reliable_hops: bool = True
    #: §2.2 soft-state flow cache (False disables it).
    flow_cache: bool = True
    flow_cache_capacity: int = 1024
    flow_cache_ttl_ms: int = 10_000


class _LivePortMap(PortMap):
    """The pipeline's view of the router's UDP peer table."""

    def __init__(self, router: "LiveRouter") -> None:
        self._router = router

    def profile(self, port_id: int) -> Optional[PortProfile]:
        if port_id in self._router.ports:
            # UDP hops carry no Ethernet portInfo and never truncate
            # (the datagram either fits the socket or was refused at
            # encode time), hence mtu=0 (unlimited).  ``up`` is the
            # router's link-health view: ack-timeout peer death marks
            # it down, any inbound frame marks it back up — the signal
            # the pipeline's slick reroute stage keys on.
            return PortProfile(
                kind="udp", mtu=0,
                up=port_id not in self._router.dead_ports,
            )
        return None

    def ids(self) -> Iterable[int]:
        return sorted(self._router.ports)


class _LiveEffectSink(EffectSink):
    """Counter + trace applicator for one frame on the live router."""

    __slots__ = ("_router", "_trace_id")

    def __init__(self, router: "LiveRouter", trace_id: int) -> None:
        self._router = router
        self._trace_id = trace_id

    def bump(self, name: str, n: int = 1) -> None:
        router = self._router
        for _ in range(n):
            router.metrics.drop(name)
        if router.recorder.enabled:
            router.recorder.record(
                "frame_dropped", node=router.name, reason=name, n=n,
            )

    def trace_event(self, event: str, **fields: Any) -> None:
        router = self._router
        if self._trace_id and router.tracer.enabled:
            router.tracer.event(
                self._trace_id, time.monotonic(), router.name, event, **fields
            )

    def trace_drop(self, reason: str, **fields: Any) -> None:
        router = self._router
        if self._trace_id and router.tracer.enabled:
            router.tracer.drop(
                self._trace_id, time.monotonic(), router.name, reason, **fields
            )


class LiveRouter:
    """One Sirpent switching node running over a real UDP socket."""

    def __init__(
        self,
        name: str,
        config: Optional[LiveRouterConfig] = None,
        mint_secret: Optional[bytes] = None,
        impairments: Optional[Impairments] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else LiveRouterConfig()
        # The same default secret scheme as the simulator's router, so a
        # directory that mints against the sim topology produces tokens
        # this live router verifies.
        self.mint = TokenMint(
            mint_secret if mint_secret is not None else f"secret:{name}".encode(),
            issuer=name,
        )
        self._build_soft_state()
        self.metrics = EndpointMetrics(name)
        self.endpoint = LiveEndpoint(
            name, metrics=self.metrics,
            impairments=impairments, reliability=reliability,
        )
        # Whole batches of ring-slot views per loop wakeup.
        self.endpoint.on_batch = self._on_batch
        #: Reusable hop-decision input — one mutable record the batch
        #: path restamps per frame instead of allocating per packet.
        self._hop = HopInput(
            segment=None, seg_count=0, wire_size=0,
            reverse_portinfo=self._reverse_hop_portinfo,
            alternate=self._leading_alternate,
        )
        #: Frame the reusable HopInput's ``alternate`` thunk reads
        #: (restamped per frame, like ``_hop``).
        self._frame_mem = None
        self._frame_header_len = 0
        #: VIPER port id -> peer UDP address.
        self.ports: Dict[int, Address] = {}
        #: Peer UDP address -> the VIPER port frames from it arrive on.
        self.addr_port: Dict[Address, int] = {}
        #: Link health (§2.2 soft state): ports whose peer stopped
        #: acking (``on_peer_dead``) and has not been heard from since.
        #: The pipeline sees these as ``up=False`` and a slick frame
        #: gets its in-band reroute instead of a doomed transmit.
        self.dead_ports: Set[int] = set()
        #: Optional observer called after the router marks a port dead.
        self.on_link_down: Optional[Callable[[int], None]] = None
        self.endpoint.on_peer_dead = self._on_peer_dead
        #: Optional hook receiving ``(datagram, source)`` for port-0 frames.
        self.local_handler = None
        #: Hop tracer (repro.obs); NULL_TRACER = tracing disabled.
        #: Timestamps are ``time.monotonic()`` seconds.
        self.tracer = NULL_TRACER
        #: Flight recorder (repro.obs); NULL_RECORDER = not recording.
        self.recorder = NULL_RECORDER
        self._started_at = time.monotonic()

    # -- wiring ------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the router's socket; returns its address."""
        return await self.endpoint.open(host, port)

    def stop(self) -> None:
        """Shut the router down (its peers will see a dead hop)."""
        self.endpoint.close()

    async def restart(self, host: str = "127.0.0.1") -> Address:
        """Crash recovery: rebind the socket, **re-derive** soft state.

        §2.2's claim is that a Sirpent router keeps *only* soft state —
        so recovery is: keep the configuration (port wiring, mint
        secret, policy), throw away every cache, and come back up.  The
        token cache and flow cache are rebuilt empty (they repopulate
        from traffic), the pipeline is rebuilt over them, and the
        endpoint re-opens on the **same UDP port** so peers' wiring
        stays valid.  The endpoint's own soft state (retry table, dedup
        windows, hop sequence space) is re-derived by
        :meth:`~repro.live.link.LiveEndpoint.open`'s reopen path.
        """
        port = self.address[1] if self.address is not None else 0
        self._build_soft_state()
        self.dead_ports.clear()
        self._started_at = time.monotonic()
        address = await self.endpoint.open(host, port)
        if self.recorder.enabled:
            self.recorder.record(
                "router_restarted", node=self.name,
                port=address[1] if address else 0,
            )
        return address

    def _build_soft_state(self) -> None:
        """Fresh token cache and flow cache, and the pipeline over them."""
        config = self.config
        self.token_cache = TokenCache(
            self.mint,
            policy=config.token_policy,
            require_tokens=config.require_tokens,
        )
        self.flow_cache = FlowCache(
            capacity=config.flow_cache_capacity,
            ttl_ms=config.flow_cache_ttl_ms,
            enabled=config.flow_cache,
        )
        self.pipeline = ForwardingPipeline(
            self.name,
            token_cache=self.token_cache,
            ports=_LivePortMap(self),
            flow_cache=self.flow_cache,
            capabilities=Capabilities(multicast=False),
        )

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this router."""
        self.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`."""
        self.recorder = recorder

    def connect_port(self, port_id: int, peer: Address) -> None:
        """Map VIPER ``port_id`` to the UDP address of the next node."""
        if not 0 < port_id <= 255:
            raise ValueError(f"port {port_id} invalid: VIPER ports are 1..255")
        self.ports[port_id] = peer
        self.addr_port[peer] = port_id
        self.dead_ports.discard(port_id)
        # Topology changed: cached flows naming this port are stale.
        self.pipeline.on_topology_change(port_id)

    def _on_peer_dead(self, addr: Address) -> None:
        """Ack-timeout link-health signal from the endpoint (§2.2).

        Marks the peer's port down so the pipeline reroutes slick
        frames around it; cached flows steering into it are flushed
        (the reroute stage re-flushes defensively, but a non-slick
        flow must stop hitting the warm path too).
        """
        port_id = self.addr_port.get(addr)
        if port_id is None or port_id in self.dead_ports:
            return
        self.dead_ports.add(port_id)
        self.pipeline.on_topology_change(port_id)
        if self.recorder.enabled:
            self.recorder.record("link_down", node=self.name, port=port_id)
        if self.on_link_down is not None:
            self.on_link_down(port_id)

    def _revive_port(self, port_id: int) -> None:
        """An inbound frame proves the peer is alive again."""
        if port_id in self.dead_ports:
            self.dead_ports.discard(port_id)
            if self.recorder.enabled:
                self.recorder.record("link_up", node=self.name, port=port_id)

    @property
    def address(self) -> Optional[Address]:
        """The router's bound UDP address (None before :meth:`start`)."""
        return self.endpoint.address

    # -- the reusable HopInput's thunks -----------------------------------

    def _reverse_hop_portinfo(self) -> bytes:
        """Reverse the hop's network-specific bytes for the return route.

        An Ethernet-shaped portInfo is reversed (src/dst swap); a
        point-to-point/UDP hop's is empty — the same link-layer rule the
        sim driver applies to its arrival transmission.
        """
        portinfo = self._hop.segment.portinfo
        if len(portinfo) == ETHERNET_INFO_BYTES:
            try:
                return EthernetInfo.from_bytes(portinfo).reversed().to_bytes()
            except ViperDecodeError:  # pragma: no cover - length-checked
                return b""
        return b""

    def _leading_alternate(self) -> Optional[List[HeaderSegment]]:
        """The frame's leading Slick-Packets block (None = it has none)."""
        return leading_alt_block(
            self._frame_mem, self._frame_header_len, self._hop.seg_count
        )

    # -- the forwarding path ------------------------------------------------

    def _on_batch(self, batch: List[Tuple[PacketView, Address]]) -> None:
        """Forward one endpoint wakeup's worth of frames, in place.

        Each frame arrives as a :class:`~repro.viper.wire.PacketView`
        over a ring slot this router now owns; every path below either
        releases the slot or hands it to
        :meth:`~repro.live.link.LiveEndpoint.send_view` (which then owns
        it) — exactly once.
        """
        for view, source in batch:
            self._forward_view(view, source)

    def _forward_view(self, view: PacketView, source: Address) -> None:
        """One frame through decide-then-apply without leaving its slot.

        The move step rewrites the frame *inside* its ring slot:
        :func:`~repro.live.frames.hop_move_into` strips the leading
        segment, or :func:`~repro.live.frames.slick_reroute_into`
        splices in its alternate block when the pipeline reroutes.  The
        preamble is rewritten just before the surviving segments and
        the memoized return tail (``Decision.return_tail``, encoded once
        at flow-cache install) lands in the slot's tail-room.  Only a
        slot with no tail-room left materialises the frame through
        :func:`~repro.live.frames.strip_and_append` or
        :func:`~repro.live.frames.slick_reroute_slow` — byte-exact by
        the differential suites, so the fallback is a performance seam,
        not a behavioural one.
        """
        mem = view.mem
        try:
            preamble = decode_preamble(mem)
            if preamble.kind != FRAME_DATA or preamble.seg_count == 0:
                raise ViperDecodeError("no leading segment")
            segment = parse_segment_view(mem, preamble.header_len)
        except ViperDecodeError:
            # Line noise / malformed frame: drop and count, never crash.
            view.release()
            apply_drop(
                _LiveEffectSink(self, 0),
                Decision(Action.DROP, reason="undecodable"),
            )
            return
        sink = _LiveEffectSink(self, preamble.trace_id)
        in_port = self.addr_port.get(source, UNKNOWN_IN_PORT)
        if self.dead_ports:
            self._revive_port(in_port)
        hop = self._hop
        hop.segment = segment
        hop.seg_count = preamble.seg_count
        hop.wire_size = preamble.payload_len
        hop.in_port = in_port
        hop.now_ms = self._now_ms()
        self._frame_mem = mem
        self._frame_header_len = preamble.header_len
        decision = self.pipeline.decide(hop)
        if decision.action is Action.DROP:
            view.release()
            apply_drop(sink, decision)
            return
        if decision.action is Action.DELIVER_LOCAL:
            self.metrics.delivered_local += 1
            sink.trace_event("deliver_local")
            if self.recorder.enabled:
                self.recorder.record("frame_delivered", node=self.name)
            if self.local_handler is not None:
                # Local delivery leaves the overlay: materialise here.
                datagram = view.tobytes()
                view.release()
                self.local_handler(datagram, source)
            else:
                view.release()
            return
        # FORWARD (FANOUT cannot happen: multicast=False drops earlier).
        if in_port == UNKNOWN_IN_PORT:
            # A frame from an unwired peer cannot get a correct return
            # hop; refusing it mirrors Sirpent's "routes only work when
            # every hop is reversible".  The decision above still ran
            # the token cache.
            view.release()
            apply_drop(sink, Decision(Action.DROP, reason="unknown_peer"))
            return
        sink.trace_event(
            "switch_decision", in_port=in_port, out_port=decision.out_port,
        )
        forwarded = None
        try:
            tail = decision.return_tail
            if tail is None:
                # Cold decision (or rebuilt return hop): encode it once.
                tail = return_tail_of(decision.return_segment)
            if decision.slick_reroute:
                self._count_slick_reroute(sink, in_port, decision)
                moved = slick_reroute_into(view, tail, preamble)
            else:
                moved = hop_move_into(
                    view, tail, preamble, next_rel=segment.end
                )
            if not moved:
                # No tail-room left in the slot: materialise this frame.
                if decision.slick_reroute:
                    forwarded = slick_reroute_slow(
                        view.tobytes(), decision.return_segment
                    )
                else:
                    forwarded = strip_and_append(
                        view.tobytes(), decision.return_segment
                    )
        except (ViperDecodeError, ValueError):
            # The bytes contradict the decision (no slick block where
            # the thunk just decoded one), or the return hop is too
            # large to frame: drop the frame as corrupt.
            view.release()
            apply_drop(sink, Decision(Action.DROP, reason="undecodable"))
            return
        self._count_forward(sink, in_port, decision)
        dest = self.ports[decision.out_port]
        if forwarded is None:
            self.endpoint.send_view(
                view, dest, reliable=self.config.reliable_hops,
            )
        else:
            view.release()
            self.endpoint.send(
                forwarded, dest, reliable=self.config.reliable_hops,
            )

    def _count_slick_reroute(
        self, sink: _LiveEffectSink, in_port: int, decision: Decision,
    ) -> None:
        self.metrics.slick_reroutes += 1
        sink.trace_event(
            "slick_reroute", in_port=in_port, out_port=decision.out_port,
        )
        if self.recorder.enabled:
            self.recorder.record(
                "slick_reroute", node=self.name,
                in_port=in_port, out_port=decision.out_port,
            )

    def _count_forward(
        self, sink: _LiveEffectSink, in_port: int, decision: Decision,
    ) -> None:
        self.metrics.forwarded += 1
        sink.trace_event(
            "strip_reverse_append",
            out_port=decision.out_port,
            segments_left=decision.segments_left,
        )
        if self.recorder.enabled:
            self.recorder.record(
                "frame_forwarded", node=self.name,
                in_port=in_port, out_port=decision.out_port,
            )

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveRouter {self.name!r} ports={sorted(self.ports)}>"
