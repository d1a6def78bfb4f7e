"""Gateway state machine, single-flight, leases, recovery, and expiry."""

import json
import logging
import os

import pytest

import udigate.gateway
from helpers import append_unusable_entries
from udigate.authsvc import CredentialVerifier, issue_credential
from udigate.clock import VirtualClock
from udigate.errors import (
    AuthError,
    IllegalTransition,
    LeaseRevoked,
    NotFound,
    PersistenceCorrupt,
    VerifyError,
)
from udigate.filetree import FileTree, blob_digest, flatten
from udigate.gateway import Gateway, ImageState
from udigate.refs import parse_reference
from udigate.registry import LocalRegistry
from udigate.store import RecordLog
from udigate.udi import UdiCheck, check_udi, scan_udi, verify_udi

REF = parse_reference("app/alpha:v1")

# layer fixtures shared by most tests; module scope keeps digests stable
_LOWER = FileTree()
_LOWER.add_dir("/bin")
_LOWER.add_file("/bin/tool", b"#!/bin/sh\nexit 0\n", mode=0o755)
_UPPER = FileTree()
_UPPER.add_file("/etc/release", b"v1\n")
LAYERS = [_LOWER, _UPPER]


def make_registry():
    reg = LocalRegistry()
    reg.add_image("app/alpha", "v1", LAYERS, total_size=4096)
    return reg


@pytest.fixture
def rig(fast_cfg, tmp_path):
    clock = VirtualClock()
    registry = make_registry()
    gw = Gateway(fast_cfg, clock, registry, str(tmp_path / "state"))
    yield gw, clock, registry
    gw.close()


def drive(gw, clock):
    """Run every queued pull chain to its end, charging each step's cost
    before the step runs."""
    while gw.pending_tasks:
        for _, cost in gw.run_pull(gw.pending_tasks.pop(0)):
            clock.advance(cost)


def test_happy_path_reaches_ready(rig):
    gw, clock, _ = rig
    rec = gw.pull(REF)
    assert rec.state is ImageState.ENQUEUED
    assert rec.attempts == 1
    drive(gw, clock)
    rec = gw.lookup(REF)
    assert rec.state is ImageState.READY
    assert rec.last_error == ""
    assert rec.lease_id == ""
    assert rec.lease_expires_at == 0.0
    assert os.path.isfile(rec.udi_path)
    assert rec.size_bytes == os.path.getsize(rec.udi_path)
    assert verify_udi(rec.udi_path) == UdiCheck(True, digest=rec.udi_digest)


def test_record_digest_is_flattened_content(rig):
    # the record tracks what was pulled; the archive trailer additionally
    # covers site modifications, so the two digests differ by design
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    rec = gw.lookup(REF)
    assert rec.content_digest == flatten(LAYERS).digest()
    desc, _ = scan_udi(rec.udi_path)
    assert desc.content_digest != rec.content_digest
    assert desc.source_ref == REF.canonical()
    assert desc.site_mods  # default site config applied


def test_single_flight(rig):
    gw, clock, registry = rig
    first = gw.pull(REF)
    for _ in range(99):
        again = gw.pull(REF)
        assert again.state in (ImageState.ENQUEUED,)
        assert again.attempts == first.attempts
    assert len(gw.pending_tasks) == 1
    drive(gw, clock)
    assert registry.manifest_fetches[REF.canonical()] == 1
    assert all(n == 1 for n in registry.layer_fetches.values())


def test_pull_on_ready_is_noop(rig):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    before = gw.lookup(REF)
    after = gw.pull(REF)
    assert after == before
    assert not gw.pending_tasks
    assert registry.manifest_fetches[REF.canonical()] == 1


def test_retry_after_transient_failure(rig):
    gw, clock, registry = rig
    registry.set_down(True)
    gw.pull(REF)
    drive(gw, clock)
    rec = gw.lookup(REF)
    assert rec.state is ImageState.FAILED
    assert "RegistryIoError" in rec.last_error
    assert rec.attempts == 1

    registry.set_down(False)
    rec = gw.pull(REF)
    assert rec.state is ImageState.ENQUEUED
    assert rec.attempts == 2
    assert rec.last_error == ""
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.READY


@pytest.mark.parametrize("rec", [
    {"kind": "symlink", "mode": 0o777, "target": 5},
    {"kind": "file", "mode": 1.9},
], ids=["int-target", "float-mode"])
def test_mistyped_layer_entry_fails_the_pull(fast_cfg, tmp_path, rec):
    # a registry on disk whose one layer has a well-formed JSON entry of the
    # wrong types: the pull must end FAILED, not raise out of the step runner
    blob = json.dumps({"entries": {"/x": rec}}, sort_keys=True).encode()
    digest = blob_digest(blob)
    img_dir = tmp_path / "registry" / "app" / "alpha:v1"
    (img_dir / "blobs").mkdir(parents=True)
    (img_dir / "blobs" / digest).write_bytes(blob)
    (img_dir / "manifest.json").write_text(json.dumps(
        {"name": "app/alpha", "tag": "v1", "layers": [digest], "total_size": len(blob)}))
    registry = LocalRegistry.load_from_dir(str(tmp_path / "registry"))
    clock = VirtualClock()
    gw = Gateway(fast_cfg, clock, registry, str(tmp_path / "state"))
    try:
        gw.pull(REF)
        drive(gw, clock)
        rec = gw.lookup(REF)
        assert rec.state is ImageState.FAILED
        assert rec.last_error.startswith("MalformedLayer")
    finally:
        gw.close()


def test_failed_goes_sticky_at_attempt_cap(rig):
    gw, clock, registry = rig
    registry.set_down(True)
    for expected_attempt in (1, 2, 3):
        rec = gw.pull(REF)
        assert rec.attempts == expected_attempt
        drive(gw, clock)
        assert gw.lookup(REF).state is ImageState.FAILED

    registry.set_down(False)
    rec = gw.pull(REF)  # out of attempts: no retry even though registry is back
    assert rec.state is ImageState.FAILED
    assert rec.attempts == 3
    assert not gw.pending_tasks


def test_sweeper_fails_lapsed_lease(rig, fast_cfg):
    gw, clock, _ = rig
    gw.pull(REF)
    task = gw.pending_tasks.pop(0)
    gw.claim(task)  # worker starts, then dies silently

    assert gw.sweep_stale() == []  # lease still fresh
    clock.advance(fast_cfg.lease_duration + 0.001)
    flipped = gw.sweep_stale()
    assert [r.ref.key() for r in flipped] == [REF.key()]
    rec = gw.lookup(REF)
    assert rec.state is ImageState.FAILED
    assert rec.last_error == "lease expired in PULLING"

    # the dead worker's lease no longer owns the record
    with pytest.raises(LeaseRevoked):
        gw.renew_lease(task)
    assert gw.fail_task(task, RuntimeError("late")) is False


def test_late_worker_never_touches_the_current_archive(rig, fast_cfg, monkeypatch):
    # worker A's lease is swept while it writes; worker B pulls the retry to
    # READY before A's write lands. A must neither replace nor unlink B's
    # archive, and nothing half written may stay behind.
    gw, clock, _ = rig
    real_write = udigate.gateway.write_udi
    late = []

    def write_after_a_retry(*args, **kwargs):
        if not late:
            late.append(True)
            clock.advance(fast_cfg.lease_duration + 0.001)
            assert [r.state for r in gw.sweep_stale()] == [ImageState.FAILED]
            gw.pull(REF)
            drive(gw, clock)
            assert gw.lookup(REF).state is ImageState.READY
        return real_write(*args, **kwargs)

    monkeypatch.setattr(udigate.gateway, "write_udi", write_after_a_retry)
    gw.pull(REF)
    drive(gw, clock)
    rec = gw.lookup(REF)
    assert rec.state is ImageState.READY
    assert rec.attempts == 2
    assert check_udi(rec.udi_path, rec.udi_digest).ok
    assert os.listdir(gw.udi_dir) == [os.path.basename(rec.udi_path)]


def test_restart_deletes_half_written_archives(rig, fast_cfg):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    kept = os.listdir(gw.udi_dir)
    for name in ("x.udi.0123456789abcdef.part", ".udi-tmp1234"):
        with open(os.path.join(gw.udi_dir, name), "wb") as fh:
            fh.write(b"partial")
    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        reborn.recover_on_startup()
        assert os.listdir(reborn.udi_dir) == kept
        assert verify_udi(reborn.lookup(REF).udi_path).ok
    finally:
        reborn.close()


def test_heartbeats_keep_lease_alive(rig, fast_cfg):
    gw, clock, _ = rig
    gw.pull(REF)
    task = gw.pending_tasks.pop(0)
    gw.claim(task)
    for _ in range(5):
        clock.advance(fast_cfg.lease_duration * 0.8)
        gw.renew_lease(task)
        assert gw.sweep_stale() == []


def test_complete_refuses_bad_archive(rig, tmp_path):
    gw, clock, _ = rig
    gw.pull(REF)
    task = gw.pending_tasks.pop(0)
    gw.claim(task)
    gw.begin_convert(task, "d" * 64)

    bad = tmp_path / "bad.udi"
    bad.write_bytes(b"UDI1 but not really")
    with pytest.raises(VerifyError):
        gw.complete(task, str(bad))
    assert gw.lookup(REF).state is ImageState.CONVERTING  # not READY


def test_illegal_transition_rejected(rig):
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    rec = gw._records[REF.key()]
    with pytest.raises(IllegalTransition):
        gw._transition(rec, ImageState.PULLING)
    with pytest.raises(IllegalTransition):
        gw._transition(rec, ImageState.FAILED)


def test_restart_replays_records(rig, fast_cfg, tmp_path):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()

    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        assert reborn.recover_on_startup() == []
        rec = reborn.lookup(REF)
        assert rec.state is ImageState.READY
        assert verify_udi(rec.udi_path).ok
    finally:
        reborn.close()


def test_restart_fails_inflight_work(rig, fast_cfg):
    gw, clock, registry = rig
    gw.pull(REF)
    task = gw.pending_tasks.pop(0)
    gw.claim(task)  # crash here: record persisted as PULLING
    gw.close()

    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        assert reborn.has_transient()
        flipped = reborn.recover_on_startup()
        assert [r.ref.key() for r in flipped] == [REF.key()]
        rec = reborn.lookup(REF)
        assert rec.state is ImageState.FAILED
        assert rec.last_error == "gateway restart during PULLING"
        assert not reborn.has_transient()

        # retry budget survives the restart
        rec = reborn.pull(REF)
        assert rec.attempts == 2
    finally:
        reborn.close()


def test_torn_log_refused(rig, fast_cfg):
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    with open(os.path.join(gw.state_dir, "records.log"), "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\x01\x02")  # header promises more than exists
    with pytest.raises(PersistenceCorrupt):
        Gateway(fast_cfg, clock, make_registry(), gw.state_dir)


def test_unusable_log_entries_are_skipped(rig, fast_cfg, caplog):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    lost = parse_reference("app/beta:v1")
    append_unusable_entries(gw.state_dir, gw.lookup(REF).to_store_dict(), lost)

    with caplog.at_level(logging.WARNING, logger="udigate.gateway"):
        reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        assert [r.ref for r in reborn.list_records(REF.system)] == [REF]
        assert reborn.lookup(REF).state is ImageState.READY
        with pytest.raises(NotFound):
            reborn.lookup(lost)
        assert "skipped 5 unreadable entries" in caplog.text
    finally:
        reborn.close()


def _replay_with(gw, fast_cfg, registry, *entries):
    """Append entries to gw's closed log and replay it in a new gateway."""
    log = RecordLog(os.path.join(gw.state_dir, "records.log"))
    for entry in entries:
        log.append(entry)
    log.close()
    return Gateway(fast_cfg, gw.clock, registry, gw.state_dir)


def test_put_under_a_foreign_key_is_skipped(rig, fast_cfg, caplog):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    record = gw.lookup(REF).to_store_dict()
    other = parse_reference("app/beta:v1")
    with caplog.at_level(logging.WARNING, logger="udigate.gateway"):
        reborn = _replay_with(gw, fast_cfg, registry,
                              {"op": "put", "key": other.key(), "record": record},
                              {"op": "put", "key": "k", "record": record})
    try:
        assert [r.ref for r in reborn.list_records(REF.system)] == [REF]
        assert reborn.lookup(REF) == gw.lookup(REF)  # every field replayed
        with pytest.raises(NotFound):
            reborn.lookup(other)
        assert "skipped 2 unreadable entries" in caplog.text
    finally:
        reborn.close()


@pytest.mark.parametrize("field,value", [
    ("attempts", "1"), ("attempts", True), ("attempts", 1.0), ("size_bytes", None),
    ("created_at", "0"), ("updated_at", False), ("lease_expires_at", [0.0]),
    ("name", 5), ("tag", None), ("content_digest", {"x": 1}), ("udi_path", 0),
    ("last_error", None), ("lease_id", 7), ("udi_digest", 1), ("state", 3),
])
def test_mistyped_record_field_is_skipped(rig, fast_cfg, caplog, field, value):
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    other = parse_reference("app/beta:v1")
    record = {**gw.lookup(REF).to_store_dict(), "name": other.name, "state": "FAILED",
              field: value}
    with caplog.at_level(logging.WARNING, logger="udigate.gateway"):
        reborn = _replay_with(gw, fast_cfg, registry,
                              {"op": "put", "key": other.key(), "record": record})
    try:
        assert [r.ref for r in reborn.list_records(REF.system)] == [REF]
        assert "skipped 1 unreadable entries" in caplog.text
        assert reborn.pull(other).state is ImageState.ENQUEUED
    finally:
        reborn.close()


def test_expire_ready_unlinks_archive(rig):
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    path = gw.lookup(REF).udi_path
    rec = gw.expire(REF)
    assert rec.state is ImageState.EXPIRED
    assert not os.path.exists(path)

    # a new pull replaces the expired incarnation from scratch
    rec = gw.pull(REF)
    assert rec.state is ImageState.ENQUEUED
    assert rec.attempts == 1
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.READY


def test_expire_transient_fails_it(rig):
    gw, clock, _ = rig
    gw.pull(REF)
    rec = gw.expire(REF)
    assert rec.state is ImageState.FAILED
    assert rec.last_error == "expired by admin"


def test_expire_failed_deletes_record(rig, fast_cfg):
    gw, clock, registry = rig
    registry.set_down(True)
    for _ in range(fast_cfg.max_attempts):
        gw.pull(REF)
        drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.FAILED

    gw.expire(REF)
    with pytest.raises(NotFound):
        gw.lookup(REF)

    # sticky history cleared: fresh pull starts at attempt 1
    registry.set_down(False)
    rec = gw.pull(REF)
    assert rec.attempts == 1
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.READY


def test_expire_unknown_raises(rig):
    gw, _, _ = rig
    with pytest.raises(NotFound):
        gw.expire(parse_reference("no/such:img"))


def test_lookup_and_list(rig):
    gw, clock, registry = rig
    with pytest.raises(NotFound):
        gw.lookup(REF)
    registry.add_image("zz/last", "v9", [_LOWER])
    gw.pull(parse_reference("zz/last:v9"))
    gw.pull(REF)
    recs = gw.list_records("local")
    assert [r.ref.canonical() for r in recs] == ["app/alpha:v1", "zz/last:v9"]
    assert gw.list_records("other-system") == []


def test_audit_hook_sees_every_change(fast_cfg, tmp_path):
    seen, ready_path = [], []

    def hook(key, old, new, snap, verified):
        seen.append((old, new, verified))
        if new is ImageState.READY:
            ready_path.append(snap.udi_path)
            assert verify_udi(snap.udi_path).ok

    clock = VirtualClock()
    gw = Gateway(fast_cfg, clock, make_registry(), str(tmp_path / "s"), audit_hook=hook)
    try:
        gw.pull(REF)
        drive(gw, clock)
        assert verify_udi(ready_path[0]).ok  # the hook sees the final file
        assert seen == [
            (None, ImageState.ENQUEUED, False),
            (ImageState.ENQUEUED, ImageState.PULLING, False),
            (ImageState.PULLING, ImageState.CONVERTING, False),
            (ImageState.CONVERTING, ImageState.READY, True),
        ]
        seen.clear()
        gw.expire(REF)
        gw.expire(REF)  # EXPIRED row: deletion, reported as new=None
        assert seen == [(ImageState.READY, ImageState.EXPIRED, False),
                        (ImageState.EXPIRED, None, False)]
    finally:
        gw.close()


def test_to_api_dict_shape(rig):
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    doc = gw.lookup(REF).to_api_dict()
    assert sorted(doc) == sorted(
        ("ref", "state", "content_digest", "udi_path", "udi_digest", "size_bytes",
         "created_at", "updated_at", "lease_expires_at", "attempts", "last_error"))
    assert doc["ref"] == "app/alpha:v1"
    assert doc["state"] == "READY"
    assert "lease_id" not in doc


def test_auth_gating(fast_cfg, tmp_path):
    secret = b"gw-secret"
    clock = VirtualClock()
    verifier = CredentialVerifier(secret, ttl=fast_cfg.credential_ttl, clock=clock)
    gw = Gateway(fast_cfg, clock, make_registry(), str(tmp_path / "s"),
                 verifier=verifier)
    try:
        with pytest.raises(AuthError):
            gw.pull(REF)

        user = issue_credential(1001, (100,), "user", secret, clock.now())
        gw.pull(REF, cred=user)
        with pytest.raises(AuthError):
            gw.expire(REF, cred=user)

        admin = issue_credential(0, (0,), "admin", secret, clock.now())
        rec = gw.expire(REF, cred=admin)
        assert rec.state is ImageState.FAILED
    finally:
        gw.close()
