"""Self-contained credential service.

Stands in for a munge-style host authenticator: the submit side issues a
short-lived HMAC-SHA256 credential over the caller's identity, every service
that receives one re-derives the MAC from a canonical byte serialization and
compares in constant time.

Canonical payload layout (little-endian throughout):

    uid        u64
    gid_count  u32
    gids       u64 each, sorted ascending, deduplicated
    scope      u8   (0 = user, 1 = admin)
    issued_at  f64
    nonce      16 raw bytes

wire form = base64(payload || mac). A Credential builds its payload once,
on first use, and keeps it: it is a value of the credential's fields. A
CredentialVerifier keys one HMAC object with its secret when it is made
(the precomputed inner and outer pads of RFC 2104, section 4) and copies
that keyed state for each verify, so every verify still computes the full
MAC over the payload and checks expiry against the verifier's own clock.
Nothing caches a verification result.

A credential whose issued_at is not finite is expired: NaN compares false
with every age limit, and an infinite issue time would never age.

When a node's authenticator is down,
its agent raises AuthServiceDown, which callers must keep distinct from
MacMismatch: "the authenticator is down" must never be reported as "your
credential is bad".
"""
from __future__ import annotations

import base64
import hashlib
import hmac
import math
import secrets
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import CredentialExpired, MacMismatch

NONCE_LEN = 16
MAC_LEN = hashlib.sha256().digest_size

_SCOPES = {"user": 0, "admin": 1}
_SCOPE_NAMES = {v: k for k, v in _SCOPES.items()}

WIRE_HEADER = "X-UDI-Cred"


@dataclass(frozen=True)
class Principal:
    uid: int
    gids: tuple[int, ...]
    scope: str

    @property
    def is_admin(self) -> bool:
        return self.scope == "admin"


@dataclass(frozen=True)
class Credential:
    uid: int
    gids: tuple[int, ...]
    scope: str
    issued_at: float
    nonce: bytes
    mac: bytes

    @cached_property
    def payload(self) -> bytes:
        """The canonical payload, built on first use and kept."""
        return canonical_payload(self.uid, self.gids, self.scope, self.issued_at, self.nonce)


ID_LIMIT = 2 ** 64  # a uid or gid is a u64 in the payload


def _check_id(value: int, label: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not (0 <= value < ID_LIMIT):
        raise ValueError(f"{label} out of range: {value!r}")
    return value


def canonical_payload(uid: int, gids: Sequence[int], scope: str, issued_at: float, nonce: bytes) -> bytes:
    if scope not in _SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    ordered = sorted({_check_id(g, "gid") for g in gids})
    parts = [struct.pack("<Q", _check_id(uid, "uid")), struct.pack("<I", len(ordered))]
    parts.extend(struct.pack("<Q", g) for g in ordered)
    parts.append(struct.pack("<B", _SCOPES[scope]))
    parts.append(struct.pack("<d", issued_at))
    parts.append(bytes(nonce))
    return b"".join(parts)


def issue_credential(uid: int, gids: Sequence[int], scope: str, secret: bytes,
                     now: float, rng=None) -> Credential:
    """Mint a credential. rng (random.Random) makes nonces reproducible in
    simulations; production callers omit it and get os-random nonces."""
    nonce = rng.randbytes(NONCE_LEN) if rng is not None else secrets.token_bytes(NONCE_LEN)
    ordered = tuple(sorted({int(g) for g in gids}))
    payload = canonical_payload(uid, ordered, scope, now, nonce)
    mac = hmac.new(secret, payload, hashlib.sha256).digest()
    cred = Credential(uid=uid, gids=ordered, scope=scope, issued_at=now, nonce=nonce, mac=mac)
    vars(cred)["payload"] = payload  # where cached_property keeps it: built once
    return cred


def _verify(cred: Credential, keyed, now: float, ttl: float) -> Principal:
    """The one MAC-and-expiry check. keyed is an HMAC-SHA256 object keyed
    with the secret and fed nothing; a copy of it MACs the payload."""
    mac = keyed.copy()
    mac.update(cred.payload)
    if not hmac.compare_digest(mac.digest(), cred.mac):
        raise MacMismatch("credential MAC mismatch")
    if not math.isfinite(cred.issued_at):
        raise CredentialExpired(f"credential issue time {cred.issued_at} is not finite")
    age = now - cred.issued_at
    if age > ttl:
        raise CredentialExpired(f"credential issued {age:.1f}s ago exceeds ttl {ttl:.0f}s")
    return Principal(cred.uid, cred.gids, cred.scope)


def verify_credential(cred: Credential, secret: bytes, now: float, ttl: float) -> Principal:
    return _verify(cred, hmac.new(secret, digestmod=hashlib.sha256), now, ttl)


def credential_to_wire(cred: Credential) -> str:
    return base64.b64encode(cred.payload + cred.mac).decode("ascii")


def credential_from_wire(text: str) -> Credential:
    """Parse the wire form back into fields. Undecodable input raises
    MacMismatch, a receiver cannot tell tampering from garbage."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise MacMismatch(f"undecodable credential: {exc}") from exc
    if len(raw) < 8 + 4 + 1 + 8 + NONCE_LEN + MAC_LEN:
        raise MacMismatch("credential too short")
    mac = raw[-MAC_LEN:]
    body = raw[:-MAC_LEN]
    try:
        uid = struct.unpack_from("<Q", body, 0)[0]
        count = struct.unpack_from("<I", body, 8)[0]
        off = 12
        gids = struct.unpack_from(f"<{count}Q", body, off) if count else ()
        off += 8 * count
        scope_code = struct.unpack_from("<B", body, off)[0]
        off += 1
        issued_at = struct.unpack_from("<d", body, off)[0]
        off += 8
        nonce = body[off:off + NONCE_LEN]
        if off + NONCE_LEN != len(body):
            raise ValueError("trailing bytes")
        scope = _SCOPE_NAMES[scope_code]
    except (struct.error, KeyError, ValueError) as exc:
        raise MacMismatch(f"malformed credential: {exc}") from exc
    return Credential(uid=uid, gids=tuple(gids), scope=scope,
                      issued_at=issued_at, nonce=nonce, mac=mac)


class CredentialVerifier:
    """Verification endpoint: a shared secret, a ttl and a clock.

    An outage of the authenticator is switched on the node side, with
    NodeAgent.set_auth_up, whose mounts then raise AuthServiceDown.
    """

    def __init__(self, secret: bytes, ttl: float, clock):
        self.ttl = ttl
        self.clock = clock
        self._keyed = hmac.new(secret, digestmod=hashlib.sha256)

    def verify(self, cred: Credential) -> Principal:
        return _verify(cred, self._keyed, self.clock.now(), self.ttl)
