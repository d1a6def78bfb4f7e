"""Node agent: identity backend queueing, group cache, mount gating."""

from pathlib import Path

import pytest

import udigate.nodeagent
from helpers import advance, payload_tree, trace_events
from udigate.authsvc import CredentialVerifier, issue_credential
from udigate.clock import Tracer, VirtualClock
from udigate.errors import (
    AlreadyMounted,
    AuthServiceDown,
    CredentialExpired,
    IdentityTimeout,
    MacMismatch,
    NotFound,
    UdiCorrupt,
)
from udigate.nodeagent import GroupCache, IdentityBackend, NodeAgent
from udigate.udi import check_udi, write_udi

SECRET = b"node-secret"
DIRECTORY = {1001: (100, 200), 1002: (100,)}


# -- identity backend ---------------------------------------------------------


def backend(cap=2, timeout=5.0, latency=1.0):
    return IdentityBackend(DIRECTORY, cap=cap, timeout=timeout, latency_mean=latency)


def test_lookup_under_cap_is_immediate():
    be = backend()
    gids, wait = be.lookup(1001, arrival=0.0)
    assert gids == (100, 200)
    assert wait == 1.0  # pure service time, no queueing


def test_unknown_uid_returns_none():
    be = backend()
    gids, _ = be.lookup(9999, arrival=0.0)
    assert gids is None


def test_fifo_admission_is_nondecreasing():
    # cap 2, service 1s, 6 simultaneous arrivals: admissions 0,0,1,1,2,2
    be = backend(cap=2, timeout=50.0, latency=1.0)
    waits = [be.lookup(1001, arrival=0.0)[1] for _ in range(6)]
    assert waits == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]


def test_storm_timeout_count_matches_closed_form():
    # n simultaneous arrivals, cap c, service s, timeout T: requests whose
    # queue position implies a wait beyond T fail, which is everything after
    # the first c * (floor(T / s) + 1) admissions
    n, cap, service, timeout = 2048, 500, 2.0, 5.0
    be = IdentityBackend({0: (0,)}, cap=cap, timeout=timeout, latency_mean=service)
    outcomes = []
    for _ in range(n):
        try:
            be.lookup(0, arrival=0.0)
            outcomes.append("ok")
        except IdentityTimeout:
            outcomes.append("timeout")
    expected_failures = n - cap * (int(timeout / service) + 1)
    assert outcomes.count("timeout") == expected_failures == 548
    assert be.timeouts == 548
    assert be.requests - be.timeouts == n - 548
    # FIFO means no late success after the first timeout
    first_timeout = outcomes.index("timeout")
    assert all(o == "timeout" for o in outcomes[first_timeout:])


def test_timeout_releases_slot():
    be = backend(cap=1, timeout=0.5, latency=1.0)
    be.lookup(1001, arrival=0.0)
    with pytest.raises(IdentityTimeout):
        be.lookup(1001, arrival=0.0)
    # the failed request must not have consumed the pending completion
    gids, wait = be.lookup(1001, arrival=1.0)
    assert gids == (100, 200)
    assert wait == 1.0


# -- group cache --------------------------------------------------------------


def test_cache_hit_miss_and_ttl():
    c = GroupCache(ttl=600.0)
    assert c.get(1001, now=0.0) == (False, None)
    c.put(1001, (100,), now=0.0)
    assert c.get(1001, now=599.9) == (True, (100,))
    assert c.get(1001, now=600.0) == (False, None)  # expired exactly at ttl
    assert len(c) == 0  # expiry evicts


def test_cache_negative_entries():
    c = GroupCache(ttl=600.0)
    c.put(777, None, now=0.0)
    assert c.get(777, now=1.0) == (True, None)


# -- node agent ---------------------------------------------------------------


@pytest.fixture
def rig(fast_cfg, tmp_path):
    cfg = fast_cfg.replace(identity_latency_mean=1.0, identity_timeout=5.0)
    clock = VirtualClock()
    verifier = CredentialVerifier(SECRET, ttl=cfg.credential_ttl, clock=clock)
    identity = IdentityBackend(DIRECTORY, cap=cfg.identity_cap,
                               timeout=cfg.identity_timeout,
                               latency_mean=cfg.identity_latency_mean)
    agent = NodeAgent(7, clock, verifier, identity, cfg)
    desc = write_udi(payload_tree(), str(tmp_path / "img.udi"),
                     source_ref="a/b:v1", created_at=0.0)
    cred = issue_credential(1001, (100, 200), "user", SECRET, clock.now())
    return agent, clock, identity, desc, cred


def test_mount_happy_path(rig):
    agent, clock, _, desc, cred = rig
    wait = agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    assert wait == 1.0  # first resolution goes to the backend
    assert agent.has_mount("job-1", desc.digest)
    assert agent.mount_count() == 1


def test_resolve_groups_caches_positive(rig):
    agent, _, identity, _, _ = rig
    gids, wait = agent.resolve_groups(1001)
    assert gids == (100, 200)
    assert wait == 1.0
    gids, wait = agent.resolve_groups(1001)
    assert wait == 0.0
    assert identity.requests == 1
    assert agent.cache_hits == 1


def test_resolve_groups_caches_negative(rig):
    agent, _, identity, _, _ = rig
    with pytest.raises(NotFound):
        agent.resolve_groups(9999)
    with pytest.raises(NotFound) as exc_info:
        agent.resolve_groups(9999)
    assert "cached" in str(exc_info.value)
    assert identity.requests == 1


def test_cache_expiry_forces_refetch(rig, fast_cfg):
    agent, clock, identity, _, _ = rig
    agent.resolve_groups(1001)
    advance(clock, fast_cfg.cache_ttl + 1.0)
    agent.resolve_groups(1001)
    assert identity.requests == 2


def test_cache_disabled_always_hits_backend(fast_cfg):
    cfg = fast_cfg.replace(identity_latency_mean=1.0, cache_enabled=False)
    clock = VirtualClock()
    identity = IdentityBackend(DIRECTORY, cap=500, timeout=5.0, latency_mean=1.0)
    agent = NodeAgent(1, clock, CredentialVerifier(SECRET, ttl=cfg.credential_ttl, clock=clock),
                      identity, cfg)
    agent.resolve_groups(1001)
    agent.resolve_groups(1001)
    assert identity.requests == 2
    assert agent.cache_hits == 0


def test_timeout_never_cached(fast_cfg):
    cfg = fast_cfg.replace(identity_latency_mean=2.0, identity_timeout=1.0)
    clock = VirtualClock()
    identity = IdentityBackend(DIRECTORY, cap=1, timeout=1.0, latency_mean=2.0)
    agent = NodeAgent(1, clock, CredentialVerifier(SECRET, ttl=cfg.credential_ttl, clock=clock),
                      identity, cfg)
    agent.resolve_groups(1001)
    with pytest.raises(IdentityTimeout):
        agent.resolve_groups(1002)  # queued behind, waits past timeout
    assert len(agent.cache) == 1  # only the success landed in the cache
    advance(clock, 3.0)
    gids, _ = agent.resolve_groups(1002)  # backend free again: succeeds
    assert gids == (100,)


def test_prime_cache_avoids_backend(rig):
    agent, _, identity, _, _ = rig
    agent.prime_cache(1001, (200, 100))
    gids, wait = agent.resolve_groups(1001)
    assert gids == (100, 200)
    assert wait == 0.0
    assert identity.requests == 0


def test_mount_requires_node_auth(rig):
    agent, _, _, desc, cred = rig
    agent.set_auth_up(False)
    with pytest.raises(AuthServiceDown):
        agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    agent.set_auth_up(True)
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")


def test_mount_rejects_bad_mac(rig):
    agent, clock, _, desc, _ = rig
    forged = issue_credential(1001, (100, 200), "user", b"wrong-secret", clock.now())
    with pytest.raises(MacMismatch):
        agent.mount_udi(desc.path, desc.digest, forged, "job-1")


def test_mount_rejects_expired_credential(rig, fast_cfg):
    agent, clock, _, desc, cred = rig
    advance(clock, fast_cfg.credential_ttl + 1.0)
    with pytest.raises(CredentialExpired):
        agent.mount_udi(desc.path, desc.digest, cred, "job-1")


def test_mount_rejects_corrupt_archive(rig, tmp_path):
    agent, _, _, desc, cred = rig
    data = bytearray(Path(desc.path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    with open(desc.path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(UdiCorrupt):
        agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    assert agent.mount_count() == 0


def test_mount_rejects_descriptor_mismatch(rig):
    agent, _, _, desc, cred = rig
    with pytest.raises(UdiCorrupt) as exc_info:
        agent.mount_udi(desc.path, "0" * 64, cred, "job-1")
    assert "descriptor mismatch" in str(exc_info.value)


def test_duplicate_mount_rejected(rig):
    agent, _, _, desc, cred = rig
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    with pytest.raises(AlreadyMounted):
        agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    # same archive for a different job is a separate mount
    agent.mount_udi(desc.path, desc.digest, cred, "job-2")
    assert agent.has_mount("job-2", desc.digest)
    assert agent.mount_count() == 2


def test_unmount_idempotent(rig):
    agent, _, _, desc, cred = rig
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    assert agent.unmount_job("job-1") == 1
    assert agent.unmount_job("job-1") == 0
    assert agent.mount_count() == 0


def test_unmount_job_clears_only_that_job(rig, tmp_path):
    agent, clock, _, desc, cred = rig
    other = write_udi(payload_tree(b"other"), str(tmp_path / "o.udi"),
                      source_ref="a/c:v1", created_at=0.0)
    agent.tracer = Tracer()
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    agent.mount_udi(other.path, other.digest, cred, "job-1")
    agent.mount_udi(desc.path, desc.digest, cred, "job-2")
    assert agent.unmount_job("job-1") == 2
    # traced in digest order, whatever order the mounts came in
    unmounted = [details for _, _, _, details in trace_events(agent.tracer, "unmount")]
    assert unmounted == [f"job=job-1 digest={d[:12]}"
                         for d in sorted((desc.digest, other.digest))]
    assert agent.mount_count() == 1
    assert agent.has_mount("job-2", desc.digest)
    assert not agent.has_mount("job-1", desc.digest)
    assert not agent.has_mount("job-1", other.digest)


def test_mount_opens_archive_once(rig, monkeypatch):
    agent, _, _, desc, cred = rig
    calls = []

    def counting_check(path, expected):
        calls.append((path, expected))
        return check_udi(path, expected)

    def no_walk(path):
        raise AssertionError("mount must not walk the archive's structure")

    monkeypatch.setattr(udigate.nodeagent, "check_udi", counting_check)
    monkeypatch.setattr(udigate.nodeagent, "verify_udi", no_walk)
    monkeypatch.setattr(udigate.nodeagent, "scan_udi", no_walk)
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    agent.mount_udi(desc.path, desc.digest, cred, "job-2")
    assert calls == [(desc.path, desc.digest)] * 2


@pytest.mark.parametrize("where", ["body", "trailer"])
def test_no_mount_trusts_an_earlier_mount(rig, where):
    # node 0 accepts the archive; a byte then changes on disk, and node 1
    # (and node 0 again, for another job) must hash the file afresh
    agent, clock, identity, desc, cred = rig
    other = NodeAgent(8, clock, agent.verifier, identity, agent.config)
    agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    data = bytearray(Path(desc.path).read_bytes())
    pos = len(data) // 2 if where == "body" else len(data) - 5
    data[pos] ^= 0x01
    with open(desc.path, "wb") as fh:
        fh.write(bytes(data))
    for node, job in ((other, "job-1"), (agent, "job-2")):
        with pytest.raises(UdiCorrupt) as exc_info:
            node.mount_udi(desc.path, desc.digest, cred, job)
        assert exc_info.value.reason == "checksum"
    assert other.mount_count() == 0
    assert agent.mount_count() == 1


@pytest.mark.parametrize("change", ["cut-short", "appended"])
def test_mount_refuses_resized_archive(rig, change):
    agent, _, _, desc, cred = rig
    data = Path(desc.path).read_bytes()
    changed = data[:-7] if change == "cut-short" else data + b"\x00" * 7
    with open(desc.path, "wb") as fh:
        fh.write(changed)
    with pytest.raises(UdiCorrupt):
        agent.mount_udi(desc.path, desc.digest, cred, "job-1")
    assert agent.mount_count() == 0

