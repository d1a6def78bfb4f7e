"""Threaded gateway runtime: wall-clock workers over the pull pipeline."""

import logging
import threading
import time

import pytest

from helpers import payload_tree, tiny_tree
from udigate.clock import SystemClock
from udigate.errors import StorageIoError
from udigate.gateway import Gateway, ImageState
from udigate.refs import parse_reference
from udigate.registry import LocalRegistry
from udigate.service import GatewayRuntime


class HookedRegistry(LocalRegistry):
    """Runs ``hook`` inside the first fetch_layer call only."""

    def __init__(self, hook):
        super().__init__()
        self._hook = hook

    def fetch_layer(self, digest: str) -> bytes:
        hook, self._hook = self._hook, None
        if hook is not None:
            hook()
        return super().fetch_layer(digest)


def wait_for_state(gw, ref, state, timeout=5.0):
    deadline = time.monotonic() + timeout
    while gw.lookup(ref).state is not state and time.monotonic() < deadline:
        time.sleep(0.01)
    return gw.lookup(ref)


def build(fast_cfg, tmp_path, registry=None, **cfg_kw):
    cfg = fast_cfg.replace(**{"worker_pool_size": 2, **cfg_kw})
    registry = registry or LocalRegistry()
    registry.add_image("svc/app", "v1", [tiny_tree(), payload_tree()], total_size=4096)
    registry.add_image("svc/app", "v2", [payload_tree(b"two")], total_size=4096)
    gw = Gateway(cfg, SystemClock(), registry, str(tmp_path / "state"))
    runtime = GatewayRuntime(gw)
    gw.task_sink = runtime.submit
    return gw, runtime, registry


def test_pull_through_worker_threads(fast_cfg, tmp_path):
    gw, runtime, _ = build(fast_cfg, tmp_path)
    runtime.start()
    try:
        refs = [parse_reference("svc/app:v1"), parse_reference("svc/app:v2")]
        for ref in refs:
            gw.pull(ref)
        runtime.drain()
        for ref in refs:
            assert gw.lookup(ref).state is ImageState.READY
    finally:
        runtime.stop()
        gw.close()


def test_failed_pull_reported(fast_cfg, tmp_path):
    gw, runtime, registry = build(fast_cfg, tmp_path)
    registry.set_down(True)
    runtime.start()
    try:
        ref = parse_reference("svc/app:v1")
        gw.pull(ref)
        runtime.drain()
        rec = gw.lookup(ref)
        assert rec.state is ImageState.FAILED
        assert "RegistryIoError" in rec.last_error
    finally:
        runtime.stop()
        gw.close()


def test_silent_abort_leaves_record_transient(fast_cfg, tmp_path):
    gw, runtime, registry = build(fast_cfg, tmp_path)
    ref = parse_reference("svc/app:v1")
    digest = registry.fetch_manifest("svc/app:v1").layers[0]
    registry.set_abort(digest, fraction=0.5, mode="silent")
    runtime.start()
    try:
        gw.pull(ref)
        runtime.drain()  # the worker died without reporting
        rec = gw.lookup(ref)
        assert rec.state is ImageState.PULLING  # wedged until a sweep
        gw.sweep_stale()  # lease still live: nothing to do yet
        assert gw.lookup(ref).state is ImageState.PULLING
    finally:
        runtime.stop()
        gw.close()


def test_sweeper_thread_flips_wedged_record(fast_cfg, tmp_path):
    gw, runtime, registry = build(fast_cfg, tmp_path,
                                  lease_duration=0.1, sweep_interval=0.05)
    digest = registry.fetch_manifest("svc/app:v1").layers[0]
    registry.set_abort(digest, fraction=0.5, mode="silent")
    runtime.start()
    try:
        ref = parse_reference("svc/app:v1")
        gw.pull(ref)
        runtime.drain()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if gw.lookup(ref).state is ImageState.FAILED:
                break
            time.sleep(0.02)
        rec = gw.lookup(ref)
        assert rec.state is ImageState.FAILED
        assert "lease expired" in rec.last_error
    finally:
        runtime.stop()
        gw.close()


def test_concurrent_duplicate_pulls_single_download(fast_cfg, tmp_path):
    gw, runtime, registry = build(fast_cfg, tmp_path)
    runtime.start()
    try:
        ref = parse_reference("svc/app:v1")
        threads = [threading.Thread(target=gw.pull, args=(ref,)) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runtime.drain()
        assert gw.lookup(ref).state is ImageState.READY
        assert registry.manifest_fetches["svc/app:v1"] == 1
    finally:
        runtime.stop()
        gw.close()


def test_double_start_rejected(fast_cfg, tmp_path):
    gw, runtime, _ = build(fast_cfg, tmp_path)
    runtime.start()
    try:
        with pytest.raises(RuntimeError):
            runtime.start()
    finally:
        runtime.stop()
        gw.close()


def test_stop_is_clean_with_empty_queue(fast_cfg, tmp_path):
    gw, runtime, _ = build(fast_cfg, tmp_path)
    runtime.start()
    runtime.stop()
    assert runtime._threads == []
    gw.close()


def test_lease_revoked_mid_pull_frees_the_worker(fast_cfg, tmp_path, caplog):
    entered, release = threading.Event(), threading.Event()

    def block():
        entered.set()
        release.wait(timeout=5.0)

    gw, runtime, _ = build(fast_cfg, tmp_path, registry=HookedRegistry(block),
                           worker_pool_size=1)
    runtime.start()
    try:
        first, second = parse_reference("svc/app:v1"), parse_reference("svc/app:v2")
        with caplog.at_level(logging.INFO):
            gw.pull(first)
            assert entered.wait(timeout=5.0)
            assert gw.expire(first).last_error == "expired by admin"
            release.set()
            # the one worker abandons the revoked task and takes the next
            gw.pull(second)
            assert wait_for_state(gw, second, ImageState.READY).state is ImageState.READY
        rec = gw.lookup(first)
        assert rec.state is ImageState.FAILED
        assert rec.last_error == "expired by admin"
        assert "lease lost for svc/app:v1" in caplog.text
    finally:
        release.set()
        runtime.stop()
        gw.close()


def test_unexpected_error_fails_record_and_worker_survives(fast_cfg, tmp_path):
    def explode():
        raise RuntimeError("disk on fire")

    gw, runtime, _ = build(fast_cfg, tmp_path, registry=HookedRegistry(explode),
                           worker_pool_size=1)
    runtime.start()
    try:
        first, second = parse_reference("svc/app:v1"), parse_reference("svc/app:v2")
        gw.pull(first)
        rec = wait_for_state(gw, first, ImageState.FAILED)
        assert rec.state is ImageState.FAILED
        assert rec.last_error == "RuntimeError: disk on fire"
        gw.pull(second)
        assert wait_for_state(gw, second, ImageState.READY).state is ImageState.READY
        assert all(t.is_alive() for t in runtime._threads)
    finally:
        runtime.stop()
        gw.close()


class BrokenRegistry(LocalRegistry):
    """fetch_layer raises an error that is not a UdigateError while broken."""

    broken = True

    def fetch_layer(self, digest: str) -> bytes:
        if self.broken:
            raise RuntimeError("disk on fire")
        return super().fetch_layer(digest)


def test_workers_survive_a_failing_fail_task(fast_cfg, tmp_path):
    """The worker fails the record itself, and that record-log append
    raises: both workers log it and live on, so a later task still runs."""
    gw, runtime, registry = build(fast_cfg, tmp_path, registry=BrokenRegistry())
    append = gw._log.append

    def failing_append(entry):
        if entry["record"]["state"] == "FAILED":
            raise StorageIoError("cannot append to record log: disk full")
        append(entry)

    gw._log.append = failing_append
    runtime.start()
    try:
        refs = [parse_reference("svc/app:v1"), parse_reference("svc/app:v2")]
        for ref in refs:
            gw.pull(ref)
        for ref in refs:
            assert wait_for_state(gw, ref, ImageState.FAILED).state is ImageState.FAILED
        gw._log.append = append
        registry.broken = False
        gw.pull(refs[0])
        assert wait_for_state(gw, refs[0], ImageState.READY).state is ImageState.READY
        assert all(t.is_alive() for t in runtime._threads)
    finally:
        runtime.stop()
        gw.close()
