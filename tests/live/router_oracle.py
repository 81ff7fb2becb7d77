"""Slow structural oracle for ``LiveRouter``'s forwarding path.

The live router forwards every frame through one in-place path: it
parses the preamble and the leading segment out of a ring slot, asks the
shared pipeline (with its flow cache and memoised return tails) for a
decision, and rewrites the frame inside the slot.  This oracle shares
none of that.  It decodes the whole datagram into a
:class:`~repro.viper.packet.SirpentPacket`, applies the §2 switching
rules and the Slick-Packets reroute rule by hand, and builds the
forwarded bytes with the structural codec
(:func:`~repro.live.frames.strip_and_append_slow`,
:func:`~repro.live.frames.slick_reroute_slow`).

It covers what the differential tests feed it: well-formed frames with
untokened segments, or bytes that do not decode at all, on a router
with the default configuration (optimistic token cache, no multicast).

:func:`drive` runs a list of frames through ``LiveRouter._on_batch``
one ring-slot view at a time and checks each frame's fate (sent bytes
and destination, drop reason or local delivery, and the counter it
moved) against :func:`expected_fate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.live.frames import (
    decode_live_frame,
    slick_reroute_slow,
    strip_and_append_slow,
)
from repro.live.router import LiveRouter
from repro.viper.errors import ViperDecodeError
from repro.viper.ring import BufferRing
from repro.viper.wire import HeaderSegment, PacketView

Address = Tuple[str, int]

#: Bytes of an Ethernet-shaped portInfo: dst MAC, src MAC, ethertype.
ETHERNET_PORTINFO_BYTES = 14


@dataclass(frozen=True)
class Fate:
    """What one frame should do at the router."""

    kind: str                       # "forward", "local" or "drop"
    reason: str = ""                # the drop reason
    datagram: bytes = b""           # the forwarded bytes
    dest: Optional[Address] = None  # the forwarded-to peer
    slick: bool = False             # forwarded over the in-band alternate


def reversed_portinfo(portinfo: bytes) -> bytes:
    """The return hop's portInfo: an Ethernet header with its MACs
    swapped; any other hop's is empty."""
    if len(portinfo) != ETHERNET_PORTINFO_BYTES:
        return b""
    return portinfo[6:12] + portinfo[0:6] + portinfo[12:14]


def expected_fate(
    datagram: bytes,
    source: Address,
    ports: Dict[int, Address],
    dead_ports: Iterable[int] = (),
) -> Fate:
    """The fate of ``datagram`` arriving from ``source`` at a router
    wired to ``ports`` (VIPER port -> peer) with ``dead_ports`` down."""
    try:
        preamble, packet, _payload = decode_live_frame(datagram)
    except ViperDecodeError:
        return Fate("drop", reason="undecodable")
    if preamble.seg_count == 0:
        return Fate("drop", reason="undecodable")
    leading = packet.segments[0]
    for segment in [leading] + [s for b in packet.alternates for s in b]:
        if segment.token:
            raise ValueError("the oracle covers untokened frames only")
    if leading.port == 0:
        return Fate("local")
    in_port = next(
        (port for port, peer in ports.items() if peer == source), None
    )
    # Any frame from a peer proves it alive again before the decision.
    dead: Set[int] = set(dead_ports) - {in_port}
    slick = leading.slick and (leading.port not in ports or leading.port in dead)
    if slick:
        alternate = packet.alternates[0] if packet.alternates else []
        out_port = alternate[0].port if alternate else 0
        if out_port == 0 or out_port not in ports or out_port in dead:
            return Fate("drop", reason="slick_fallback_exhausted")
    elif leading.port not in ports:
        return Fate("drop", reason="no_route")
    else:
        out_port = leading.port
    if in_port is None:
        return Fate("drop", reason="unknown_peer")
    return_segment = HeaderSegment(
        port=in_port,
        priority=leading.priority,
        portinfo=reversed_portinfo(leading.portinfo),
    )
    move = slick_reroute_slow if slick else strip_and_append_slow
    return Fate(
        "forward", datagram=move(datagram, return_segment),
        dest=ports[out_port], slick=slick,
    )


def capture_router(
    name: str, ports: Dict[int, Address]
) -> Tuple[LiveRouter, List[Tuple[bytes, Address]]]:
    """A LiveRouter whose endpoint transmits into a list, not a socket."""
    router = LiveRouter(name)
    sent: List[Tuple[bytes, Address]] = []

    def send_view(view, addr, reliable=False):
        sent.append((view.tobytes(), addr))
        view.release()
        return 0

    def send(datagram, addr, reliable=False):
        sent.append((bytes(datagram), addr))
        return 0

    router.endpoint.send_view = send_view
    router.endpoint.send = send
    for port, peer in ports.items():
        router.connect_port(port, peer)
    return router, sent


def slot_view(ring: BufferRing, datagram: bytes) -> PacketView:
    """``datagram`` copied into a fresh slot of ``ring``, as the
    endpoint's receive path hands it over."""
    slot = ring.acquire()
    slot.buffer[: len(datagram)] = datagram
    return PacketView.of_slot(slot, len(datagram))


def drive(
    router: LiveRouter,
    sent: List[Tuple[bytes, Address]],
    frames: Iterable[Tuple[bytes, Address]],
    ring: BufferRing,
) -> List[PacketView]:
    """Feed each ``(datagram, source)`` to ``router._on_batch`` as a
    one-view batch and assert its fate matches the oracle's.

    Returns the views handed over, so callers can check that none is
    left alive.
    """
    views = []
    for datagram, source in frames:
        fate = expected_fate(datagram, source, router.ports, router.dead_ports)
        metrics = router.metrics
        before = (
            metrics.forwarded, metrics.delivered_local,
            metrics.slick_reroutes, metrics.dropped(fate.reason),
        )
        n_sent = len(sent)
        view = slot_view(ring, datagram)
        views.append(view)
        router._on_batch([(view, source)])
        after = (
            metrics.forwarded, metrics.delivered_local,
            metrics.slick_reroutes, metrics.dropped(fate.reason),
        )
        moved = tuple(b - a for a, b in zip(before, after))
        if fate.kind == "forward":
            assert sent[n_sent:] == [(fate.datagram, fate.dest)]
            assert moved == (1, 0, int(fate.slick), 0)
        elif fate.kind == "local":
            assert sent[n_sent:] == []
            assert moved == (0, 1, 0, 0)
        else:
            assert sent[n_sent:] == [], fate.reason
            assert moved == (0, 0, 0, 1), fate.reason
    return views
