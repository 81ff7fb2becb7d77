"""The live overlay's byte framing, without any sockets.

The live datagram must carry the *byte-exact* VIPER packet behind its
preamble, survive the router's strip/reverse/append performed on raw
bytes, and reject malformed input with a single exception type — the
same totality contract the wire codec's fuzz suite enforces.
"""

import pytest

from repro.live.frames import (
    ACK_MAX_SEQS,
    FRAME_ACK,
    FRAME_DATA,
    PREAMBLE_BYTES,
    SEQ_NONE,
    decode_ack_seqs,
    decode_live_frame,
    decode_preamble,
    encode_acks,
    encode_live_frame,
    encode_preamble,
    strip_and_append,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, TrailerElement, build_return_route
from repro.viper.wire import HeaderSegment, parse_segment_view


def _packet(payload: bytes) -> SirpentPacket:
    segments = [
        HeaderSegment(port=7, priority=3, token=b"T" * 28, portinfo=b"\x01\x02"),
        HeaderSegment(port=2),
        HeaderSegment(port=1, rpf=True),
    ]
    trailer = [TrailerElement(HeaderSegment(port=9, rpf=True))]
    return SirpentPacket(
        segments=segments,
        payload_size=len(payload),
        payload=payload,
        trailer=trailer,
    )


def test_preamble_roundtrip():
    raw = encode_preamble(FRAME_DATA, 0xDEADBEEF, 5, 1234)
    assert len(raw) == PREAMBLE_BYTES
    preamble = decode_preamble(raw)
    assert preamble.kind == FRAME_DATA
    assert preamble.seq == 0xDEADBEEF
    assert preamble.seg_count == 5
    assert preamble.payload_len == 1234


def test_ack_frame_roundtrip():
    (ack,) = encode_acks([42])
    preamble = decode_preamble(ack)
    assert preamble.kind == FRAME_ACK
    assert preamble.seq == 42
    assert decode_ack_seqs(ack) == [42]


def test_one_seq_ack_is_the_bare_preamble():
    # The single-seq ack keeps the wire bytes acks had before coalescing.
    assert encode_acks([42]) == [b"VL\x01\x01\x00\x00\x00\x2a\x00\x00\x00"]
    assert encode_acks([42]) == [encode_preamble(FRAME_ACK, 42, 0, 0)]


def test_multi_seq_ack_roundtrip():
    seqs = [7, 1, 0xFFFFFFFF, 7, 300]
    (ack,) = encode_acks(seqs)
    preamble = decode_preamble(ack)
    assert preamble.seq == 7
    assert preamble.seg_count == 0
    assert preamble.payload_len == 4 * (len(seqs) - 1)
    assert len(ack) == PREAMBLE_BYTES + preamble.payload_len
    assert ack[PREAMBLE_BYTES:PREAMBLE_BYTES + 4] == (1).to_bytes(4, "big")
    assert decode_ack_seqs(ack) == seqs
    assert decode_ack_seqs(ack, preamble) == seqs


def test_ack_list_over_the_cap_splits():
    assert PREAMBLE_BYTES + 4 * (ACK_MAX_SEQS - 1) <= 1500
    assert PREAMBLE_BYTES + 4 * ACK_MAX_SEQS > 1500
    seqs = list(range(1, 2 * ACK_MAX_SEQS + 2))
    acks = encode_acks(seqs)
    assert len(acks) == 3
    assert all(len(ack) <= 1500 for ack in acks)
    decoded = [decode_ack_seqs(ack) for ack in acks]
    assert [len(part) for part in decoded] == [ACK_MAX_SEQS, ACK_MAX_SEQS, 1]
    assert [seq for part in decoded for seq in part] == seqs
    assert encode_acks([]) == []


@pytest.mark.parametrize("seqs", [[0], [5, 0], [1 << 32], [-1]])
def test_ack_encoder_rejects_out_of_range_seqs(seqs):
    with pytest.raises(ValueError):
        encode_acks(seqs)


@pytest.mark.parametrize(
    "datagram",
    [
        # payloadLen not a whole number of sequences
        encode_preamble(FRAME_ACK, 5, 0, 3) + b"\x00\x00\x00",
        # payloadLen says one more seq than the datagram carries
        encode_preamble(FRAME_ACK, 5, 0, 8) + (6).to_bytes(4, "big"),
        # trailing bytes past the declared body
        encode_preamble(FRAME_ACK, 5, 0, 0) + b"\x00\x00\x00\x07",
        # seq 0 in the preamble
        encode_preamble(FRAME_ACK, 0, 0, 0),
        # seq 0 in the body
        encode_preamble(FRAME_ACK, 5, 0, 4) + (0).to_bytes(4, "big"),
        # an ack carries no header segments
        encode_preamble(FRAME_ACK, 5, 2, 0),
        # a data frame is not an ack
        encode_preamble(FRAME_DATA, 5, 0, 0),
    ],
)
def test_malformed_acks_are_rejected(datagram):
    with pytest.raises(ViperDecodeError):
        decode_ack_seqs(datagram)


def test_live_frame_roundtrip():
    payload = b"the quick brown fox"
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    preamble, decoded, decoded_payload = decode_live_frame(datagram)
    assert preamble.seg_count == 3
    assert decoded_payload == payload
    assert decoded.segments == packet.segments
    assert [e.segment for e in decoded.trailer] == [
        e.segment for e in packet.trailer
    ]


def test_router_parse_matches_full_decode():
    """The router's in-place parse (preamble + leading segment view)
    agrees with the full structural decode."""
    payload = b"x" * 64
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    preamble = decode_preamble(datagram)
    leading = parse_segment_view(datagram, preamble.header_len)
    assert leading.to_segment() == packet.segments[0]
    assert preamble.payload_len == len(payload)


def test_strip_and_append_is_the_router_move():
    payload = b"payload-bytes"
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    return_hop = HeaderSegment(port=4, priority=3, rpf=True)
    forwarded = strip_and_append(datagram, return_hop)
    preamble, decoded, decoded_payload = decode_live_frame(forwarded)
    # One segment consumed, payload untouched, return hop appended last.
    assert preamble.seg_count == 2
    assert decoded.segments == packet.segments[1:]
    assert decoded_payload == payload
    assert decoded.trailer[-1].segment == return_hop
    # The receiver's reversal yields the hops in return-send order.
    assert build_return_route(decoded)[0].port == 4


def test_strip_and_append_restamps_sequence():
    payload = b"p"
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload, seq=77)
    forwarded = strip_and_append(datagram, HeaderSegment(port=4), seq=SEQ_NONE)
    assert decode_preamble(forwarded).seq == SEQ_NONE


@pytest.mark.parametrize(
    "mutant",
    [
        b"",
        b"V",
        b"XX" + b"\x00" * 9,                     # bad magic
        b"VL\x09\x00" + b"\x00" * 7,             # bad version
        b"VL\x01\x07" + b"\x00" * 7,             # unknown kind
        encode_preamble(FRAME_DATA, 0, 2, 0),    # promises 2 segments, has 0
        encode_preamble(FRAME_DATA, 0, 0, 50),   # payload overruns datagram
        encode_preamble(FRAME_DATA, 0, 0, 0) + b"\x01",  # junk trailer
    ],
)
def test_decoder_is_total(mutant):
    with pytest.raises(ViperDecodeError):
        decode_live_frame(mutant)


def test_exhausted_frame_cannot_be_forwarded():
    payload = b"z"
    packet = SirpentPacket(
        segments=[HeaderSegment(port=1)], payload_size=1, payload=payload,
    )
    datagram = encode_live_frame(packet, payload)
    stripped = strip_and_append(datagram, HeaderSegment(port=2))
    with pytest.raises(ViperDecodeError):
        strip_and_append(stripped, HeaderSegment(port=3))
