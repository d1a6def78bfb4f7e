"""Compute-node agent: mounts, credential checks, and group resolution.

Group lookups go through an identity backend with a hard concurrency cap and
a FIFO queue; a request that would wait past the timeout fails with
IdentityTimeout instead of camping on the directory service. Each node keeps
its own positive-and-negative result cache so a storm of simultaneous job
starts does not turn into a storm of directory lookups.

Mounting is gated hard: node auth must be up, the credential must verify,
and the archive at the given path must pass check_udi against the given
digest; the caller takes both from the READY record (udi_path, udi_digest).
The gateway verified the archive's structure once before it recorded that
digest; a mount checks identity, one forward pass that hashes the whole
body on every mount. There is deliberately no fast path that trusts bytes
on disk, and no check cache keyed on file stat or on an earlier mount.
"""
from __future__ import annotations

import heapq
from typing import Optional

from .authsvc import Credential, CredentialVerifier
from .config import Config
from .errors import AlreadyMounted, AuthServiceDown, IdentityTimeout, NotFound
# scan_udi and verify_udi stay importable here: wallbench/spans.py wraps
# nodeagent.scan_udi and nodeagent.verify_udi by name
from .udi import check_udi, scan_udi, verify_udi  # noqa: F401


class GroupCache:
    """Per-node uid -> gids cache with TTL and negative entries."""

    def __init__(self, ttl: float):
        self.ttl = ttl
        self._entries: dict[int, tuple[Optional[tuple[int, ...]], float]] = {}

    def get(self, uid: int, now: float) -> tuple[bool, Optional[tuple[int, ...]]]:
        hit = self._entries.get(uid)
        if hit is None:
            return False, None
        gids, stored_at = hit
        if now - stored_at >= self.ttl:
            del self._entries[uid]
            return False, None
        return True, gids

    def put(self, uid: int, gids: Optional[tuple[int, ...]], now: float) -> None:
        self._entries[uid] = (gids, now)

    def __len__(self) -> int:
        return len(self._entries)


class IdentityBackend:
    """Virtual-time directory service with cap, FIFO queue, and timeout.

    Service completions live in a heap; a lookup arriving at time t first
    retires everything finished by t, then either starts immediately (a slot
    is free) or inherits the earliest completion as its admission time. The
    maths stays exact for simultaneous arrival storms because admission
    times along the FIFO are non-decreasing.
    """

    def __init__(self, directory: dict[int, tuple[int, ...]], cap: int, timeout: float,
                 latency_mean: float, tracer=None):
        self.directory = {int(k): tuple(sorted(v)) for k, v in directory.items()}
        self.cap = int(cap)
        self.timeout = float(timeout)
        self.latency_mean = float(latency_mean)
        self.tracer = tracer
        self._busy: list[float] = []
        self.requests = 0
        self.admitted = 0
        self.timeouts = 0

    def lookup(self, uid: int, arrival: float) -> tuple[Optional[tuple[int, ...]], float]:
        """Returns (gids or None, seconds from arrival to completion)."""
        self.requests += 1
        busy = self._busy
        while busy and busy[0] <= arrival:
            heapq.heappop(busy)
        if len(busy) < self.cap:
            admit = arrival
        else:
            admit = heapq.heappop(busy)
        queued = admit - arrival
        if queued > self.timeout:
            heapq.heappush(busy, admit)  # the slot was never consumed
            self.timeouts += 1
            if self.tracer is not None:
                self.tracer.emit(arrival, "identity", "timeout",
                                 [("uid", uid), ("queued", f"{queued:.6f}")])
            raise IdentityTimeout(
                f"group resolution for uid {uid} queued {queued:.3f}s, "
                f"timeout is {self.timeout:.3f}s")
        done = admit + self.latency_mean
        heapq.heappush(busy, done)
        self.admitted += 1
        if self.tracer is not None:
            self.tracer.emit(arrival, "identity", "admit",
                             [("uid", uid), ("queued", f"{queued:.6f}"),
                              ("done", f"{done:.6f}")])
        return self.directory.get(int(uid)), done - arrival


class NodeAgent:
    def __init__(self, node_id: int, clock, verifier: CredentialVerifier,
                 identity, config: Config, tracer=None):
        self.node_id = int(node_id)
        self.name = f"node/{self.node_id:04d}"
        self.clock = clock
        self.verifier = verifier
        self.identity = identity
        self.config = config
        self.tracer = tracer
        self.auth_up = True
        self.cache = GroupCache(config.cache_ttl)
        self._mounts: dict[str, set[str]] = {}  # job id -> mounted content digests
        self.cache_hits = 0
        self.cache_misses = 0
        self.mounts_done = 0

    # -- control messages ------------------------------------------------------

    def set_auth_up(self, up: bool) -> None:
        self.auth_up = bool(up)

    def prime_cache(self, uid: int, gids: tuple[int, ...]) -> None:
        self.cache.put(int(uid), tuple(sorted(gids)), self.clock.now())

    def _trace(self, event: str, details) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.clock.now(), self.name, event, details)

    # -- group resolution --------------------------------------------------------

    def resolve_groups(self, uid: int) -> tuple[tuple[int, ...], float]:
        """Returns (gids, wait_seconds). wait is 0 on a cache hit. Timeouts
        propagate and are never cached; unknown uids are negative-cached."""
        now = self.clock.now()
        if self.config.cache_enabled:
            hit, gids = self.cache.get(uid, now)
            if hit:
                self.cache_hits += 1
                if gids is None:
                    raise NotFound(f"uid {uid} unknown to directory (cached)")
                return gids, 0.0
        self.cache_misses += 1
        gids, wait = self.identity.lookup(uid, now)
        if self.config.cache_enabled:
            self.cache.put(uid, gids, now)
        if gids is None:
            raise NotFound(f"uid {uid} unknown to directory")
        return gids, wait

    # -- mount lifecycle ------------------------------------------------------------

    def mount_udi(self, path: str, digest: str, cred: Credential, job_id: str) -> float:
        """Validate everything, register the mount of the archive at path
        under digest (its trailer hex). Returns the identity wait. Raises
        AuthServiceDown, MacMismatch, CredentialExpired, UdiCorrupt,
        NotFound, IdentityTimeout, AlreadyMounted."""
        if not self.auth_up:
            raise AuthServiceDown(f"{self.name}: credential service down on node")
        principal = self.verifier.verify(cred)

        if self.has_mount(job_id, digest):
            raise AlreadyMounted(f"{self.name}: {digest[:12]} already mounted for {job_id}")

        check_udi(path, digest)

        gids, wait = self.resolve_groups(principal.uid)

        self._mounts.setdefault(job_id, set()).add(digest)
        self.mounts_done += 1
        self._trace("mount", [("job", job_id), ("digest", digest[:12]),
                              ("groups", len(gids))])
        return wait

    def has_mount(self, job_id: str, digest: str) -> bool:
        return digest in self._mounts.get(job_id, ())

    def unmount_job(self, job_id: str) -> int:
        """Drop every mount of a job, tracing each in digest order. Returns
        how many there were; a job with none is a no-op."""
        digests = sorted(self._mounts.pop(job_id, ()))
        for digest in digests:
            self._trace("unmount", [("job", job_id), ("digest", digest[:12])])
        return len(digests)

    def mount_count(self) -> int:
        return sum(len(digests) for digests in self._mounts.values())
