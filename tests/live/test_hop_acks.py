"""Per-hop reliability over real loopback sockets: coalesced acks and the
endpoint's single retry timer.

A receiving :class:`~repro.live.link.LiveEndpoint` acks once per drain,
per peer: one ack datagram names every hop sequence that peer sent in
the drain.  A sending endpoint keeps one deadline heap and one timer for
all its unacked frames.  These tests pin both halves: ack counts, slot
release, retries, duplicate suppression, dead-peer reporting, teardown
and the wrap of the 32-bit sequence space.
"""

import asyncio

import pytest

from repro.chaos.seam import FaultDecision
from repro.live import LiveEndpoint, ReliabilityConfig, encode_live_frame
from repro.live.frames import (
    FRAME_ACK,
    SEQ_NONE,
    decode_ack_seqs,
    encode_preamble,
)
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, PacketView

pytestmark = pytest.mark.live


def collect_datagrams(into):
    """An ``on_batch`` consumer that keeps each frame's bytes and gives
    its ring slot back."""

    def on_batch(batch):
        for view, _source in batch:
            into.append(view.tobytes())
            view.release()

    return on_batch


def _frame(payload: bytes = b"x") -> bytes:
    packet = SirpentPacket(
        segments=[HeaderSegment(port=0)], payload_size=len(payload),
        payload=payload,
    )
    return encode_live_frame(packet, payload)


def _slot_view(endpoint: LiveEndpoint, datagram: bytes) -> PacketView:
    slot = endpoint.ring.acquire()
    slot.buffer[: len(datagram)] = datagram
    return PacketView.of_slot(slot, len(datagram))


async def _eventually(predicate, timeout_s: float = 2.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


def _record_acks(endpoint: LiveEndpoint):
    """Every hop sequence ``endpoint`` acks, in send order."""
    acked = []
    raw_send = endpoint._raw_send

    def recording(datagram, addr):
        if datagram[3] == FRAME_ACK:
            acked.extend(decode_ack_seqs(datagram))
        raw_send(datagram, addr)

    endpoint._raw_send = recording
    return acked


def test_one_drain_sends_one_ack_and_frees_every_pinned_slot():
    async def scenario():
        sender = LiveEndpoint("sender")
        receiver = LiveEndpoint("receiver")
        delivered = []
        receiver.on_batch = collect_datagrams(delivered)
        await sender.open()
        addr = await receiver.open()
        free_before = sender.ring.available()
        # No await between the sends: all eight sit in the receiver's
        # socket buffer before its readiness callback runs once.
        seqs = [
            sender.send_view(_slot_view(sender, _frame()), addr, reliable=True)
            for _ in range(8)
        ]
        assert SEQ_NONE not in seqs
        assert sender.ring.available() == free_before - 8
        await _eventually(lambda: sender.metrics.acks_in == 1)
        await asyncio.sleep(0.02)
        assert len(delivered) == 8
        assert receiver.rx_batches == 1
        assert receiver.metrics.acks_out == 1
        assert sender.metrics.acks_in == 1
        assert sender._pending == {}
        assert sender.ring.available() == free_before
        sender.close()
        receiver.close()

    asyncio.run(scenario())


def test_two_peers_in_one_drain_get_one_ack_each():
    async def scenario():
        left, right = LiveEndpoint("left"), LiveEndpoint("right")
        receiver = LiveEndpoint("receiver")
        acked = _record_acks(receiver)
        await left.open()
        await right.open()
        addr = await receiver.open()
        for _ in range(3):
            left.send(_frame(), addr, reliable=True)
            right.send(_frame(), addr, reliable=True)
        await _eventually(
            lambda: left.metrics.acks_in == 1 and right.metrics.acks_in == 1
        )
        await asyncio.sleep(0.02)
        assert receiver.rx_batches == 1
        assert receiver.metrics.acks_out == 2
        assert len(acked) == 6
        assert left._pending == {} and right._pending == {}
        for endpoint in (left, right, receiver):
            endpoint.close()

    asyncio.run(scenario())


def test_dropped_frame_is_retried_and_its_duplicate_reacked():
    async def scenario():
        sender = LiveEndpoint(
            "sender", reliability=ReliabilityConfig(ack_timeout_s=0.02),
        )
        receiver = LiveEndpoint("receiver")
        delivered = []
        receiver.on_batch = collect_datagrams(delivered)
        acked = _record_acks(receiver)
        # First transmission lost; the retry arrives with a twin.
        fates = [FaultDecision(drop=True), FaultDecision(duplicate=True)]
        sender.fault_hook = lambda addr: fates.pop(0) if fates else None
        await sender.open()
        addr = await receiver.open()
        seq = sender.send(_frame(), addr, reliable=True)
        await _eventually(lambda: receiver.metrics.dropped("duplicate") == 1)
        await _eventually(lambda: sender._pending == {})
        assert sender.metrics.dropped("chaos_dropped") == 1
        assert sender.metrics.retries == 1
        assert len(delivered) == 1
        assert acked == [seq, seq]
        sender.close()
        receiver.close()

    asyncio.run(scenario())


def test_unacked_frame_ends_in_peer_dead_on_the_same_schedule():
    async def scenario():
        loop = asyncio.get_running_loop()
        sender = LiveEndpoint(
            "sender",
            reliability=ReliabilityConfig(ack_timeout_s=0.02, max_retries=2),
        )
        dead, retry_times = [], []
        sender.on_peer_dead = dead.append
        sender.on_retry = lambda addr, seq, gap: retry_times.append(
            loop.time()
        )
        await sender.open()
        hole = LiveEndpoint("hole")
        addr = await hole.open()
        hole.close()
        free_before = sender.ring.available()
        sent_at = loop.time()
        sender.send_view(_slot_view(sender, _frame()), addr, reliable=True)
        await _eventually(lambda: dead, timeout_s=3.0)
        # The first retry waits the whole ack timeout after the send
        # (less the loop's clock resolution, by which timers may run early).
        assert retry_times[0] - sent_at >= 0.02 - 1e-6
        assert dead == [addr]
        assert sender.metrics.retries == 2
        assert sender.metrics.dropped("peer_dead") == 1
        assert sender._pending == {}
        assert sender.ring.available() == free_before
        assert sender._deadlines == [] and sender._retry_timer is None
        sender.close()

    asyncio.run(scenario())


def test_close_leaves_no_retry_timer_and_reopen_starts_clean():
    async def scenario():
        sender = LiveEndpoint(
            "sender", reliability=ReliabilityConfig(ack_timeout_s=0.01),
        )
        retries = []
        sender.on_retry = lambda addr, seq, gap: retries.append(seq)
        await sender.open()
        hole = LiveEndpoint("hole")
        addr = await hole.open()
        hole.close()
        for _ in range(5):
            sender.send(_frame(), addr, reliable=True)
        timer = sender._retry_timer
        assert timer is not None and len(sender._deadlines) == 5
        sender.close()
        assert timer.cancelled()
        assert sender._retry_timer is None and sender._deadlines == []
        assert sender._pending == {}
        await asyncio.sleep(0.05)
        assert retries == []
        await sender.open()
        assert sender._retry_timer is None and sender._deadlines == []
        sender.close()

    asyncio.run(scenario())


def test_hop_sequence_wraps_past_two_to_the_32():
    async def scenario():
        sender = LiveEndpoint("sender")
        receiver = LiveEndpoint("receiver")
        delivered = []
        receiver.on_batch = collect_datagrams(delivered)
        await sender.open()
        addr = await receiver.open()
        sender._next_seq = 0xFFFFFFFE
        seqs = [
            sender.send(_frame(), addr, reliable=True),
            sender.send_view(_slot_view(sender, _frame()), addr,
                             reliable=True),
            sender.send(_frame(), addr, reliable=True),
            sender.send_view(_slot_view(sender, _frame()), addr,
                             reliable=True),
        ]
        assert seqs == [0xFFFFFFFE, 0xFFFFFFFF, 1, 2]
        await _eventually(lambda: sender._pending == {})
        assert len(delivered) == 4
        assert receiver.metrics.dropped("duplicate") == 0
        sender.close()
        receiver.close()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "ack",
    [
        encode_preamble(FRAME_ACK, 1, 0, 3) + b"\x00\x00\x00",
        encode_preamble(FRAME_ACK, 1, 0, 8) + (2).to_bytes(4, "big"),
        encode_preamble(FRAME_ACK, 0, 0, 0),
    ],
)
def test_malformed_ack_is_dropped_undecodable(ack):
    async def scenario():
        sender = LiveEndpoint("sender")
        receiver = LiveEndpoint("receiver")
        await sender.open()
        addr = await receiver.open()
        sender.send(ack, addr)
        await _eventually(lambda: receiver.metrics.dropped("undecodable") == 1)
        assert receiver.metrics.acks_in == 0
        sender.close()
        receiver.close()

    asyncio.run(scenario())
