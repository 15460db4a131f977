import struct
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicnode.auth import ALG_HMAC_SHA256
from logicnode.wire import (
    MAX_FRAME_BYTES, Envelope, FrameError, StreamDecoder, decode_body,
    decode_frame, encode_envelope)
from timing import best_thread_s


def test_unsigned_frame_layout():
    frame = encode_envelope(Envelope("n1", b"ping"))
    # 4B length, 1B flags, 2B sender len, sender, payload
    assert frame[:4] == struct.pack(">I", len(frame) - 4)
    assert frame[4] == 0
    assert frame[5:7] == struct.pack(">H", 2)
    assert frame[7:9] == b"n1"
    assert frame[9:] == b"ping"


def test_signed_frame_layout():
    mac = b"\xaa" * 32
    frame = encode_envelope(Envelope("n1", b"ping", mac))
    assert frame[4] == 0x01
    assert frame[9] == ALG_HMAC_SHA256
    assert frame[10:12] == struct.pack(">H", 32)
    assert frame[12:44] == b"\xaa" * 32
    assert frame[44:] == b"ping"


def test_round_trip_unsigned():
    env, used = decode_frame(encode_envelope(Envelope("node-7", b"f(a,1)")))
    assert used == len(encode_envelope(Envelope("node-7", b"f(a,1)")))
    assert env.sender == "node-7"
    assert env.payload == b"f(a,1)"
    assert env.mac is None


def test_round_trip_signed():
    mac = bytes(range(32))
    env, _ = decode_frame(encode_envelope(Envelope("a", b"x", mac)))
    assert env.mac == bytes(range(32))


def test_decode_errors():
    with pytest.raises(FrameError):
        decode_frame(b"\x00\x00")
    with pytest.raises(FrameError):
        decode_frame(struct.pack(">I", 100) + b"\x00" * 10)
    # sender length pointing past the body
    bad = b"\x00" + struct.pack(">H", 50) + b"ab"
    with pytest.raises(FrameError):
        decode_frame(struct.pack(">I", len(bad)) + bad)
    # signed flag with no signature header
    bad = b"\x01" + struct.pack(">H", 1) + b"a"
    with pytest.raises(FrameError):
        decode_frame(struct.pack(">I", len(bad)) + bad)
    # sender not valid UTF-8
    bad = b"\x00" + struct.pack(">H", 2) + b"\xff\xfe"
    with pytest.raises(FrameError):
        decode_frame(struct.pack(">I", len(bad)) + bad)


def test_stream_decoder_handles_partial_feeds():
    frames = (encode_envelope(Envelope("a", b"one"))
              + encode_envelope(Envelope("b", b"two"))
              + encode_envelope(Envelope("c", b"three")))
    for chunk in (1, 2, 3, 7, len(frames)):
        dec = StreamDecoder()
        got = []
        for i in range(0, len(frames), chunk):
            got.extend(dec.feed(frames[i:i + chunk]))
        assert [(e.sender, e.payload) for e in got] == [
            ("a", b"one"), ("b", b"two"), ("c", b"three")]
        assert dec.pending == 0


def test_stream_decoder_keeps_remainder():
    frame = encode_envelope(Envelope("a", b"x"))
    dec = StreamDecoder()
    assert dec.feed(frame + frame[:5]) and dec.pending == 5
    got = dec.feed(frame[5:])
    assert len(got) == 1 and got[0].payload == b"x"


def _frames(n: int) -> bytes:
    return b"".join(encode_envelope(Envelope("t", b"ping(%d)" % i)) for i in range(n))


def _best_feed_s(data: bytes) -> float:
    return best_thread_s(lambda: partial(StreamDecoder().feed, data))


def test_stream_decoder_twenty_thousand_frames_in_one_feed():
    dec = StreamDecoder()
    got = dec.feed(_frames(20_000))
    assert [e.payload for e in got] == [b"ping(%d)" % i for i in range(20_000)]
    assert dec.pending == 0


def test_stream_decoder_is_linear_in_the_frames_fed():
    # 20x the frames: about 20x the time when linear; the quadratic
    # decoder that re-copied its buffer per frame took over 100x
    small, large = _best_feed_s(_frames(2_000)), _best_feed_s(_frames(40_000))
    assert large < 60 * small, (small, large)


def test_stream_decoder_rejects_an_oversized_length_at_once():
    with pytest.raises(FrameError):
        StreamDecoder().feed(struct.pack(">I", 2 ** 31))
    dec = StreamDecoder()
    assert dec.feed(struct.pack(">I", MAX_FRAME_BYTES) + b"\x00" * 100) == []
    with pytest.raises(FrameError):
        StreamDecoder().feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


TRUNCATED_SENDER = struct.pack(">IBH", 5, 0, 100) + b"ab"  # 100-byte sender, 2 sent


@pytest.mark.parametrize("bad", [b"\xff\xff\xff\xff", TRUNCATED_SENDER],
                         ids=["oversized", "truncated_sender"])
def test_frames_before_a_bad_one_are_kept_at_every_split(bad):
    data = encode_envelope(Envelope("a", b"ping(ok)")) + bad
    for cut in range(len(data) + 1):
        dec = StreamDecoder()
        got = []
        with pytest.raises(FrameError):
            for part in (data[:cut], data[cut:]):
                try:
                    got += dec.feed(part)
                except FrameError as e:
                    got += e.frames
                    raise
        assert [e.payload for e in got] == [b"ping(ok)"], cut


def reference_frame(sender: str, payload: bytes, mac) -> bytes:
    """The frame of the README's layout, written one field at a time."""
    name = sender.encode("utf-8")
    body = bytearray()
    body.append(0x01 if mac is not None else 0x00)  # flags, bit 0: signed
    body += len(name).to_bytes(2, "big") + name
    if mac is not None:
        body.append(ALG_HMAC_SHA256)
        body += len(mac).to_bytes(2, "big") + mac
    body += payload
    return len(body).to_bytes(4, "big") + bytes(body)


# each frame is the reference encoder's, decodes back, and decodes unsigned
# when it names another algorithm
@settings(max_examples=300, deadline=None)
@given(st.text(max_size=16), st.binary(max_size=64), st.none() | st.binary(max_size=40),
       st.integers(0, 255).filter(lambda alg: alg != ALG_HMAC_SHA256))
@example("nœud-é", b"", None, 0)
@example("", b"", b"", 2)
@example("ñ", b"ping", b"\x01" * 32, 255)
def test_round_trip_property(sender, payload, macbytes, other_alg):
    frame = encode_envelope(Envelope(sender, payload, macbytes))
    assert frame == reference_frame(sender, payload, macbytes)
    env = Envelope(sender, payload, macbytes, "network")
    assert decode_frame(frame) == (env, len(frame))
    assert decode_body(frame[4:]) == env
    if macbytes is not None:
        alg_at = 7 + len(sender.encode("utf-8"))
        other = frame[:alg_at] + bytes([other_alg]) + frame[alg_at + 1:]
        assert decode_body(other[4:]) == Envelope(sender, payload, None, "network")
