import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicnode.auth import (
    AuthError, KeyStore, digest, digest_int,
    full_mesh_keystore, load_key_file, write_key_file)


def two_party_store() -> KeyStore:
    ks = KeyStore()
    ks.add_key("a", "b", b"\x01" * 32)
    return ks


def test_sign_verify_round_trip():
    ks = two_party_store()
    mac = ks.sign("a", "b", b"a", b"hello(world)")
    assert ks.verify("a", "b", b"a", b"hello(world)", mac)
    assert ks.sign_calls == 1 and ks.verify_calls == 1


def test_key_is_direction_agnostic():
    ks = two_party_store()
    mac = ks.sign("b", "a", b"b", b"x")
    assert ks.verify("b", "a", b"b", b"x", mac)


def test_verify_rejects_wrong_pair():
    ks = two_party_store()
    ks.add_key("a", "c", b"\x02" * 32)
    mac = ks.sign("a", "b", b"a", b"x")
    assert not ks.verify("a", "c", b"a", b"x", mac)
    assert not ks.verify("c", "b", b"a", b"x", mac)  # no key at all


def test_verify_rejects_payload_change():
    ks = two_party_store()
    mac = ks.sign("a", "b", b"a", b"x")
    assert not ks.verify("a", "b", b"a", b"y", mac)
    assert not ks.verify("a", "b", b"z", b"x", mac)  # sender bytes covered too


def test_every_single_bit_flip_is_rejected():
    ks = two_party_store()
    payload = b"vote(r1,42)"
    mac = ks.sign("a", "b", b"a", payload)
    rng = random.Random(5)
    for _ in range(1000):
        mutated = bytearray(payload)
        i = rng.randrange(len(mutated) * 8)
        mutated[i // 8] ^= 1 << (i % 8)
        if bytes(mutated) == payload:
            continue
        assert not ks.verify("a", "b", b"a", bytes(mutated), mac)


def test_mac_bit_flip_is_rejected():
    ks = two_party_store()
    mac = ks.sign("a", "b", b"a", b"x")
    for i in range(len(mac) * 8):
        bad = bytearray(mac)
        bad[i // 8] ^= 1 << (i % 8)
        assert not ks.verify("a", "b", b"a", b"x", bytes(bad))


def test_sign_without_key_raises():
    with pytest.raises(AuthError):
        KeyStore().sign("a", "b", b"a", b"x")


def test_key_file_round_trip(tmp_path):
    ks = full_mesh_keystore(["n1", "n2", "n3"], seed=b"t")
    path = str(tmp_path / "keys.txt")
    write_key_file(path, ks)
    back = load_key_file(path)
    for a in ("n1", "n2", "n3"):
        for b in ("n1", "n2", "n3"):
            assert back.key_for(a, b) == ks.key_for(a, b)


def test_key_file_comments_and_errors(tmp_path):
    p = tmp_path / "keys.txt"
    p.write_text("# comment\n\na b 0a0b\n")
    ks = load_key_file(str(p))
    assert ks.key_for("a", "b") == b"\x0a\x0b"
    p.write_text("a b\n")
    with pytest.raises(AuthError):
        load_key_file(str(p))
    p.write_text("a b zz\n")
    with pytest.raises(AuthError):
        load_key_file(str(p))


def test_full_mesh_is_deterministic_given_seed():
    a = full_mesh_keystore(["x", "y"], seed=b"s")
    b = full_mesh_keystore(["y", "x"], seed=b"s")
    assert a.key_for("x", "y") == b.key_for("x", "y")
    c = full_mesh_keystore(["x", "y"], seed=b"other")
    assert a.key_for("x", "y") != c.key_for("x", "y")


def test_digest_int_range_and_stability():
    v = digest_int(b"hello")
    assert 0 <= v < 2**63
    assert v == digest_int(b"hello")
    assert digest_int(b"hello", bits=16) == v % 65536
    assert digest(b"hello") == digest(b"hello")


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64), st.binary(min_size=1, max_size=32))
def test_sign_verify_property(payload, key):
    ks = KeyStore()
    ks.add_key("a", "b", key)
    mac = ks.sign("a", "b", b"a", payload)
    assert ks.verify("a", "b", b"a", payload, mac)
    assert not ks.verify("a", "b", b"a", payload + b"!", mac)
