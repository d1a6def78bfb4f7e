"""Credential format, HMAC verification, TTL, and the wire codec.

The payload layout oracle below is assembled by hand with struct so the
module's serializer is pinned against an independent byte construction.
"""

import base64
import hashlib
import hmac
import struct

import pytest

import udigate.authsvc
from helpers import FixedClock, advance
from udigate.authsvc import (
    NONCE_LEN,
    Credential,
    CredentialVerifier,
    canonical_payload,
    credential_from_wire,
    credential_to_wire,
    issue_credential,
)
from udigate.clock import VirtualClock
from udigate.errors import CredentialExpired, MacMismatch

SECRET = b"k"


def _cred(now=12.5, uid=7, gids=(100, 5), scope="user"):
    c = issue_credential(uid, gids, scope, SECRET, now=now)
    return c


def test_payload_layout_matches_hand_assembly():
    nonce = b"\x01" * NONCE_LEN
    got = canonical_payload(7, (100, 5, 100), "user", 12.5, nonce)
    expect = (struct.pack("<Q", 7) + struct.pack("<I", 2)
              + struct.pack("<Q", 5) + struct.pack("<Q", 100)   # sorted, dedup
              + struct.pack("<B", 0) + struct.pack("<d", 12.5) + nonce)
    assert got == expect
    assert got.hex() == (
        "0700000000000000020000000500000000000000640000000000000000000000"
        "000000294001010101010101010101010101010101")


def test_mac_is_hmac_sha256_over_payload():
    c = _cred()
    assert c.mac == hmac.new(SECRET, c.payload, hashlib.sha256).digest()


def test_roundtrip_verify():
    c = _cred()
    principal = CredentialVerifier(SECRET, 300.0, FixedClock(13.0)).verify(c)
    assert principal.uid == 7
    assert principal.gids == (5, 100)
    assert principal.scope == "user"
    assert not principal.is_admin


def test_admin_scope():
    c = issue_credential(0, (0,), "admin", SECRET, now=0.0)
    assert CredentialVerifier(SECRET, 300.0, FixedClock(1.0)).verify(c).is_admin


@pytest.mark.parametrize("mutate", [
    lambda c: Credential(c.uid + 1, c.gids, c.scope, c.issued_at, c.nonce, c.mac),
    lambda c: Credential(c.uid, (1, 2, 3), c.scope, c.issued_at, c.nonce, c.mac),
    lambda c: Credential(c.uid, c.gids, "admin", c.issued_at, c.nonce, c.mac),
    lambda c: Credential(c.uid, c.gids, c.scope, c.issued_at + 1.0, c.nonce, c.mac),
    lambda c: Credential(c.uid, c.gids, c.scope, c.issued_at,
                         b"\x00" * NONCE_LEN, c.mac),
    lambda c: Credential(c.uid, c.gids, c.scope, c.issued_at, c.nonce,
                         bytes([c.mac[0] ^ 1]) + c.mac[1:]),
], ids=["uid", "gids", "scope", "issued_at", "nonce", "mac"])
def test_single_field_tamper_is_mac_mismatch(mutate):
    forged = mutate(_cred())
    with pytest.raises(MacMismatch):
        CredentialVerifier(SECRET, 300.0, FixedClock(13.0)).verify(forged)


def test_wrong_secret_is_mac_mismatch():
    with pytest.raises(MacMismatch):
        CredentialVerifier(b"other", 300.0, FixedClock(13.0)).verify(_cred())


def test_ttl_boundary():
    c = _cred(now=1000.0)
    # age exactly ttl still passes; one second past does not
    CredentialVerifier(SECRET, 300.0, FixedClock(1300.0)).verify(c)
    with pytest.raises(CredentialExpired):
        CredentialVerifier(SECRET, 300.0, FixedClock(1301.0)).verify(c)


def test_wire_roundtrip():
    c = _cred()
    text = credential_to_wire(c)
    assert credential_from_wire(text) == c


def test_wire_is_base64_of_payload_plus_mac():
    c = _cred()
    raw = base64.b64decode(credential_to_wire(c))
    assert raw == c.payload + c.mac


@pytest.mark.parametrize("garbage", ["", "!!!", "AAAA", "a" * 500,
                                     base64.b64encode(b"short").decode()])
def test_wire_garbage_rejected(garbage):
    with pytest.raises(MacMismatch):
        credential_from_wire(garbage)


def test_wire_bitflip_rejected():
    text = credential_to_wire(_cred())
    raw = bytearray(base64.b64decode(text))
    raw[3] ^= 0x40
    forged = base64.b64encode(bytes(raw)).decode()
    with pytest.raises(MacMismatch):
        CredentialVerifier(SECRET, 300.0, FixedClock(13.0)).verify(credential_from_wire(forged))


def test_verifier_uses_clock_and_availability():
    clock = VirtualClock()
    v = CredentialVerifier(SECRET, ttl=300.0, clock=clock)
    c = issue_credential(1, (1,), "user", SECRET, now=0.0)
    assert v.verify(c).uid == 1
    advance(clock, 301.0)
    with pytest.raises(CredentialExpired):
        v.verify(c)


def test_issue_with_seeded_rng_is_deterministic():
    import random
    a = issue_credential(5, (9,), "user", SECRET, now=2.0, rng=random.Random(3))
    b = issue_credential(5, (9,), "user", SECRET, now=2.0, rng=random.Random(3))
    assert a == b
    c = issue_credential(5, (9,), "user", SECRET, now=2.0, rng=random.Random(4))
    assert a != c


@pytest.mark.parametrize("issued_at", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_issue_time_is_expired(issued_at):
    c = issue_credential(1000, (100,), "user", SECRET, now=issued_at)
    verifier = CredentialVerifier(SECRET, ttl=300.0, clock=VirtualClock())
    for cred in (c, credential_from_wire(credential_to_wire(c))):
        with pytest.raises(CredentialExpired):
            CredentialVerifier(SECRET, 300.0, FixedClock(1e12)).verify(cred)
        with pytest.raises(CredentialExpired):
            verifier.verify(cred)


def test_payload_is_built_once_per_credential(monkeypatch):
    builds = []
    real = udigate.authsvc.canonical_payload
    monkeypatch.setattr(udigate.authsvc, "canonical_payload",
                        lambda *args: builds.append(args) or real(*args))
    v = CredentialVerifier(SECRET, ttl=300.0, clock=VirtualClock())
    issued = issue_credential(1, (1,), "user", SECRET, now=0.0)
    parsed = credential_from_wire(credential_to_wire(issued))
    for _ in range(3):
        assert v.verify(issued).uid == v.verify(parsed).uid == 1
    assert len(builds) == 2  # one per Credential object
