"""Gateway state machine, single-flight, leases, recovery, and expiry."""

import logging
import os
import threading

import pytest

import udigate.gateway
from helpers import FailingWrite, append_unusable_entries, entry_record, layer_blob
from udigate.authsvc import CredentialVerifier, issue_credential
from udigate.clock import Tracer, VirtualClock
from udigate.errors import (
    AuthError,
    IllegalTransition,
    LeaseRevoked,
    NotFound,
    PersistenceCorrupt,
    StorageIoError,
    VerifyError,
)
from udigate.filetree import FileTree, blob_digest
from udigate.gateway import Gateway, ImageState
from udigate.refs import parse_reference
from udigate.httpd import make_registry_server
from udigate.registry import HttpRegistryClient, LocalRegistry, Manifest
from udigate.store import RecordLog
from udigate.udi import UdiCheck, check_udi, scan_udi, verify_udi, write_udi

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


def test_content_digest_names_the_manifest_layers(rig):
    # the record names the image by its layer list, so two tags pushed from
    # the same layers share it; the archive trailer additionally covers
    # site modifications, so it is another digest
    gw, clock, registry = rig
    registry.add_image("app/alpha", "v2", LAYERS, total_size=4096)
    registry.add_image("app/beta", "v1", [_LOWER], total_size=4096)
    refs = [REF, parse_reference("app/alpha:v2"), parse_reference("app/beta:v1")]
    for ref in refs:
        gw.pull(ref)
    drive(gw, clock)
    v1, v2, beta = (gw.lookup(ref) for ref in refs)
    layers = registry.fetch_manifest(REF.canonical()).layers
    assert v1.content_digest == blob_digest("\n".join(layers).encode())
    assert v2.content_digest == v1.content_digest
    assert beta.content_digest != v1.content_digest
    desc = scan_udi(v1.udi_path)
    assert desc.digest == v1.udi_digest != v1.content_digest
    assert desc.source_ref == REF.canonical()
    assert desc.site_mods  # default site config applied


def test_pull_never_digests_the_tree(rig, monkeypatch):
    gw, clock, _ = rig
    calls = []
    monkeypatch.setattr(FileTree, "digest", lambda tree: calls.append(tree) or "")
    gw.pull(REF)
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.READY
    assert calls == []


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


@pytest.fixture(params=["local", "http"])
def served(request):
    """The rig's registry and the client a gateway fetches it through:
    itself, or HttpRegistryClient against the registry server."""
    registry = make_registry()
    if request.param == "local":
        yield registry, registry
        return
    srv = make_registry_server(registry)
    threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.02},
                     daemon=True).start()
    try:
        yield registry, HttpRegistryClient(f"http://127.0.0.1:{srv.server_address[1]}")
    finally:
        srv.shutdown()
        srv.server_close()


def test_corrupt_layer_fails_the_pull_at_transfer(served, fast_cfg, tmp_path):
    # registries serve bytes as they are; the gateway checks each layer
    registry, client = served
    digest = registry.fetch_manifest(REF.canonical()).layers[1]
    registry.set_corrupt(digest)
    clock, tracer = VirtualClock(), Tracer()
    gw = Gateway(fast_cfg, clock, client, str(tmp_path / "state"), tracer=tracer)
    try:
        gw.pull(REF)
        drive(gw, clock)
        rec = gw.lookup(REF)
        assert rec.state is ImageState.FAILED
        assert rec.last_error.startswith("DigestMismatch: ")
        [(_, _, _, details)] = tracer.events(event="task_failed")
        assert "step=transfer" in details and "err=DigestMismatch" in details

        registry.set_corrupt(digest, False)
        gw.pull(REF)
        drive(gw, clock)
        assert gw.lookup(REF).state is ImageState.READY
    finally:
        gw.close()


@pytest.mark.parametrize("record", [
    entry_record(b"/x", 2, 0o777),
    entry_record(b"/x", 0, 0o10000),
], ids=["empty-target", "high-mode"])
def test_malformed_layer_entry_fails_the_pull(fast_cfg, tmp_path, record):
    # a registry serving a layer, digest intact, whose one entry the blob
    # gate refuses: the pull must end FAILED, not raise out of the step runner
    blob = layer_blob(record)
    registry = LocalRegistry()  # load_from_dir would refuse the blob itself
    registry._blobs[blob_digest(blob)] = blob
    registry._images[REF.canonical()] = Manifest("app/alpha", "v1", (blob_digest(blob),), len(blob))
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
    for name in ("x.udi.0123456789abcdef.part", ".udi-tmp1234", "orphan-0123abcd.udi"):
        with open(os.path.join(gw.udi_dir, name), "wb") as fh:
            fh.write(b"partial")
    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        reborn.recover_on_startup()
        assert os.listdir(reborn.udi_dir) == kept
        assert verify_udi(reborn.lookup(REF).udi_path).ok
    finally:
        reborn.close()


def test_a_closed_gateways_worker_writes_nothing(rig, fast_cfg, monkeypatch):
    # the gateway closes while a worker writes its archive, and a new
    # gateway over the directory fails the record at startup; the old
    # worker must neither place its archive nor append READY
    gw, clock, registry = rig
    real_write = udigate.gateway.write_udi
    reborn = []

    def write_after_a_restart(*args, **kwargs):
        gw.close()
        reborn.append(Gateway(fast_cfg, clock, registry, gw.state_dir))
        assert [r.state for r in reborn[0].recover_on_startup()] == [ImageState.FAILED]
        return real_write(*args, **kwargs)

    monkeypatch.setattr(udigate.gateway, "write_udi", write_after_a_restart)
    gw.pull(REF)
    try:
        drive(gw, clock)
        assert os.listdir(gw.udi_dir) == []
    finally:
        for other in reborn:
            other.close()
    third = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        rec = third.lookup(REF)
        assert rec.state is ImageState.FAILED
        assert rec.last_error == "gateway restart during CONVERTING"
    finally:
        third.close()


def test_a_failed_ready_append_leaves_no_archive(rig, fast_cfg, monkeypatch):
    # complete() renames the archive into place, then its READY append
    # fails: no record names the archive, so it must not stay
    gw, clock, registry = rig
    real_write = udigate.gateway.write_udi

    def write_then_fill_the_log(*args, **kwargs):
        desc = real_write(*args, **kwargs)
        gw._log._fh = FailingWrite(gw._log._fh, 0)
        return desc

    monkeypatch.setattr(udigate.gateway, "write_udi", write_then_fill_the_log)
    gw.pull(REF)
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.FAILED
    assert os.listdir(gw.udi_dir) == []
    gw.close()
    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        reborn.recover_on_startup()
        assert reborn.lookup(REF).state is ImageState.FAILED
        assert os.listdir(reborn.udi_dir) == []
    finally:
        reborn.close()


def test_a_failed_archive_write_leaves_nothing(rig, monkeypatch):
    gw, clock, _ = rig

    def write_part_then_fail(tree, path, **kwargs):
        with open(path, "wb") as fh:
            fh.write(b"UDI1 half an archive")
        raise StorageIoError("archive write failed: [Errno 28] No space left on device")

    monkeypatch.setattr(udigate.gateway, "write_udi", write_part_then_fail)
    gw.pull(REF)
    drive(gw, clock)
    assert gw.lookup(REF).state is ImageState.FAILED
    assert os.listdir(gw.udi_dir) == []


def test_a_failed_log_write_is_never_replayed(rig, fast_cfg, caplog):
    # expire's write stores part of its frame and fails; the next append
    # must not carry those bytes into the log
    gw, clock, registry = rig
    gw.pull(REF)
    drive(gw, clock)
    ready = gw.lookup(REF)
    gw._log._fh = FailingWrite(gw._log._fh, 20)
    with pytest.raises(StorageIoError):
        gw.expire(REF)
    assert gw.lookup(REF) == ready
    assert check_udi(ready.udi_path, ready.udi_digest).ok
    registry.add_image("app/beta", "v1", LAYERS, total_size=4096)
    gw.pull(parse_reference("app/beta:v1"))
    drive(gw, clock)
    records = gw.list_records(REF.system)
    gw.close()
    with caplog.at_level(logging.WARNING):
        reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        assert reborn.list_records(REF.system) == records
        assert "skip" not in caplog.text
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


WRITES = ["pull-create", "pull-retry", "pull-replace-expired", "claim", "begin_convert",
          "complete", "fail_task", "sweep_stale", "expire-ready", "expire-failed"]


def _one_write(case, gw, clock, registry, cfg, tmp_path):
    """Bring REF to the state ``case`` starts from; return the write under test."""
    if case == "pull-create":
        return lambda: gw.pull(REF)
    if case in ("pull-retry", "expire-failed"):
        registry.set_down(True)
        gw.pull(REF)
        drive(gw, clock)
        registry.set_down(False)
        return (lambda: gw.pull(REF)) if case == "pull-retry" else (lambda: gw.expire(REF))
    if case in ("pull-replace-expired", "expire-ready"):
        gw.pull(REF)
        drive(gw, clock)
        if case == "expire-ready":
            return lambda: gw.expire(REF)
        gw.expire(REF)
        return lambda: gw.pull(REF)
    gw.pull(REF)
    task = gw.pending_tasks.pop(0)
    if case == "claim":
        return lambda: gw.claim(task)
    gw.claim(task)
    if case == "fail_task":
        return lambda: gw.fail_task(task, RuntimeError("worker broke"))
    if case == "sweep_stale":
        clock.advance(cfg.lease_duration + 0.001)
        return gw.sweep_stale
    if case == "begin_convert":
        return lambda: gw.begin_convert(task, "d" * 64)
    gw.begin_convert(task, "d" * 64)
    part = str(tmp_path / "fresh.udi")
    write_udi(LAYERS[0], part, source_ref=REF.canonical(), created_at=clock.now())
    return lambda: gw.complete(task, part)


@pytest.mark.parametrize("case", WRITES)
def test_a_failed_append_changes_nothing(rig, fast_cfg, tmp_path, case):
    # memory must hold what a restart replays: a change whose log append
    # fails never takes effect
    gw, clock, registry = rig
    write = _one_write(case, gw, clock, registry, fast_cfg, tmp_path)
    append = gw._log.append

    def fail_once(entry):
        gw._log.append = append
        raise StorageIoError("cannot append to record log: disk full")

    before = gw.list_records(REF.system)
    gw._log.append = fail_once
    with pytest.raises(StorageIoError):
        write()
    assert gw._log.append == append  # the write under test did append
    assert gw.list_records(REF.system) == before
    gw.close()
    reborn = Gateway(fast_cfg, clock, registry, gw.state_dir)
    try:
        assert reborn.list_records(REF.system) == before
    finally:
        reborn.close()


def test_records_are_values(rig):
    gw, clock, _ = rig
    gw.pull(REF)
    rec = gw.lookup(REF)
    with pytest.raises(AttributeError):
        rec.state = ImageState.FAILED
    drive(gw, clock)
    assert rec.state is ImageState.ENQUEUED  # a later change replaces, never edits
    assert gw.lookup(REF).state is ImageState.READY


def test_torn_log_refused(rig, fast_cfg):
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    gw.close()
    path = os.path.join(gw.state_dir, "records.log")
    size = os.path.getsize(path)
    with open(path, "ab") as fh:
        fh.write(b"\x99\x00\x00\x00\x01\x02")  # header promises more than exists
    with pytest.raises(PersistenceCorrupt):
        Gateway(fast_cfg, clock, make_registry(), gw.state_dir)
    os.truncate(path, size)  # the refused start let go of the directory
    reborn = Gateway(fast_cfg, clock, make_registry(), gw.state_dir)
    try:
        assert reborn.lookup(REF).state is ImageState.READY
    finally:
        reborn.close()


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


def test_expire_unlinks_before_a_repull_can_land(rig, monkeypatch):
    # a second thread re-pulls the reference while expire is inside its
    # unlink; the unlink must not take the archive of the new READY record
    gw, clock, _ = rig
    gw.pull(REF)
    drive(gw, clock)
    path = gw.lookup(REF).udi_path
    real_unlink, real_lock = os.unlink, gw._lock
    repull_waits_or_done = threading.Event()

    class ReportingLock:
        """The gateway lock, reporting a thread that has to wait for it."""

        def __enter__(self):
            if not real_lock.acquire(blocking=False):
                repull_waits_or_done.set()
                real_lock.acquire()

        def __exit__(self, *exc):
            real_lock.release()

    def repull():
        try:
            gw.pull(REF)
            drive(gw, clock)
        finally:
            repull_waits_or_done.set()

    repuller = threading.Thread(target=repull, daemon=True)

    def unlink_during_a_repull(target, *args, **kwargs):
        if target == path and repuller.ident is None:  # once, before it starts
            repuller.start()
            assert repull_waits_or_done.wait(timeout=10)
        return real_unlink(target, *args, **kwargs)

    gw._lock = ReportingLock()
    monkeypatch.setattr(os, "unlink", unlink_during_a_repull)
    assert gw.expire(REF).state is ImageState.EXPIRED
    repuller.join(timeout=10)
    assert not repuller.is_alive()
    rec = gw.lookup(REF)
    assert rec.state is ImageState.READY
    assert check_udi(rec.udi_path, rec.udi_digest).ok


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
