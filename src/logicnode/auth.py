"""Pairwise-symmetric message authentication and the digest utility.

Keys are shared per unordered node pair and loaded from a static key file
(`nodeA nodeB hex-key` per line).  A MAC is the HMAC-SHA256 of sender bytes
followed by payload bytes, as plain bytes; frames carry it under algorithm
id 1, and a frame that names any other algorithm decodes as unsigned.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Optional

ALG_HMAC_SHA256 = 1  # the algorithm id a signed frame carries

class AuthError(Exception):
    pass


class KeyStore:
    """Immutable after loading; counters expose how often crypto ran."""

    def __init__(self):
        self._keys: dict = {}
        self.sign_calls = 0
        self.verify_calls = 0

    def add_key(self, a: str, b: str, key: bytes) -> None:
        self._keys[frozenset((a, b))] = key

    def key_for(self, a: str, b: str) -> Optional[bytes]:
        return self._keys.get(frozenset((a, b)))

    def sign(self, sender: str, receiver: str, sender_bytes: bytes,
             payload: bytes) -> bytes:
        key = self.key_for(sender, receiver)
        if key is None:
            raise AuthError("no key for pair (%s, %s)" % (sender, receiver))
        self.sign_calls += 1
        return hmac.new(key, sender_bytes + payload, "sha256").digest()

    def verify(self, claimed_sender: str, receiver: str, sender_bytes: bytes,
               payload: bytes, mac: bytes) -> bool:
        self.verify_calls += 1
        key = self.key_for(claimed_sender, receiver)
        if key is None:
            return False
        expect = hmac.new(key, sender_bytes + payload, "sha256").digest()
        return hmac.compare_digest(expect, mac)


def digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def digest_int(payload: bytes, bits: int = 63) -> int:
    return int.from_bytes(digest(payload), "big") % (1 << bits)


def load_key_file(path: str) -> KeyStore:
    ks = KeyStore()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise AuthError("%s:%d: expected 'nodeA nodeB hex-key'" % (path, lineno))
            try:
                key = bytes.fromhex(parts[2])
            except ValueError:
                raise AuthError("%s:%d: bad hex key" % (path, lineno))
            ks.add_key(parts[0], parts[1], key)
    return ks


def full_mesh_keystore(addresses, seed: Optional[bytes] = None) -> KeyStore:
    """Deterministic pairwise keys for every address pair (test scaffolding)."""
    ks = KeyStore()
    addrs = sorted(addresses)
    base = seed if seed is not None else os.urandom(16)
    for i, a in enumerate(addrs):
        for b in addrs[i:]:
            material = base + a.encode() + b"\x00" + b.encode()
            ks.add_key(a, b, hashlib.sha256(material).digest())
    return ks


def write_key_file(path: str, ks: KeyStore) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair, key in sorted(ks._keys.items(), key=lambda kv: sorted(kv[0])):
            names = sorted(pair)
            a = names[0]
            b = names[-1]
            fh.write("%s %s %s\n" % (a, b, key.hex()))
