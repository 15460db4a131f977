"""Frame codec for envelopes.

Layout: 4-byte big-endian length of everything that follows, then 1 byte of
flags (bit 0: signed), 2-byte big-endian sender length, sender UTF-8; if
signed, 1 byte algorithm id, 2-byte big-endian MAC length, MAC bytes; the
remaining bytes are the payload.  The algorithm id is always 1
(HMAC-SHA256); a frame that names another algorithm decodes as unsigned,
so every signature check on it fails.  The simulator's fault injector
mutates encoded frames, so decode errors here are a normal, counted event.
A stream may not announce a frame longer than `MAX_FRAME_BYTES`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .auth import ALG_HMAC_SHA256

FLAG_SIGNED = 0x01
MAX_FRAME_BYTES = 16 * 1024 * 1024  # largest length a stream may announce

_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">IBH")  # length, flags, sender length
_TAG = struct.Struct(">BH")  # flags and sender length, or algorithm id and MAC length


class FrameError(Exception):
    """A malformed frame.  When `StreamDecoder.feed` raises it, `frames`
    holds the envelopes that call decoded before the bad frame."""
    frames: Sequence[Envelope] = ()


@dataclass
class Envelope:
    sender: str
    payload: bytes
    mac: Optional[bytes] = None
    origin: str = "network"  # network | alarm


def encode_envelope(env: Envelope) -> bytes:
    sender = env.sender.encode("utf-8")
    mac = env.mac
    if mac is None:
        return (_HEAD.pack(3 + len(sender) + len(env.payload), 0, len(sender))
                + sender + env.payload)
    return b"".join((
        _HEAD.pack(6 + len(sender) + len(mac) + len(env.payload), FLAG_SIGNED,
                   len(sender)),
        sender, _TAG.pack(ALG_HMAC_SHA256, len(mac)), mac, env.payload))


def decode_body(body: bytes) -> Envelope:
    if len(body) < 3:
        raise FrameError("frame body too short")
    flags, slen = _TAG.unpack_from(body)
    pos = 3
    if len(body) < pos + slen:
        raise FrameError("truncated sender")
    try:
        sender = body[pos:pos + slen].decode("utf-8")
    except UnicodeDecodeError:
        raise FrameError("sender is not valid UTF-8")
    pos += slen
    mac = None
    if flags & FLAG_SIGNED:
        if len(body) < pos + 3:
            raise FrameError("truncated signature header")
        alg, mlen = _TAG.unpack_from(body, pos)
        pos += 3
        if len(body) < pos + mlen:
            raise FrameError("truncated MAC")
        if alg == ALG_HMAC_SHA256:
            mac = body[pos:pos + mlen]
        pos += mlen
    return Envelope(sender, body[pos:], mac, "network")


def decode_frame(data: bytes) -> Tuple[Envelope, int]:
    """Decode one frame from the head of data; returns (envelope, bytes used)."""
    if len(data) < 4:
        raise FrameError("truncated length prefix")
    total = _LENGTH.unpack_from(data)[0]
    if len(data) < 4 + total:
        raise FrameError("truncated frame")
    return decode_body(data[4:4 + total]), 4 + total


class StreamDecoder:
    """Incremental decoder for a TCP byte stream.

    Each `feed` appends to one buffer, decodes every complete frame by
    advancing an offset and then drops the consumed prefix, so its cost is
    linear in the bytes fed.  A length prefix over `MAX_FRAME_BYTES` raises
    `FrameError` as soon as its four bytes arrive.  The frames a `feed`
    decoded before a bad one are not lost: they ride on the error.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        buf = self._buf
        buf += data
        pos, end = 0, len(buf)
        out: list = []
        try:
            while end - pos >= 4:
                total = _LENGTH.unpack_from(buf, pos)[0]
                if total > MAX_FRAME_BYTES:
                    raise FrameError("frame of %d bytes exceeds the limit of %d"
                                     % (total, MAX_FRAME_BYTES))
                if end - pos - 4 < total:
                    break
                out.append(decode_body(bytes(buf[pos + 4:pos + 4 + total])))
                pos += 4 + total
        except FrameError as e:
            e.frames = out
            raise
        del buf[:pos]
        return out

    @property
    def pending(self) -> int:
        return len(self._buf)
