"""Image gateway: the record state machine and the pull pipeline.

Records move ENQUEUED -> PULLING -> CONVERTING -> READY. Any transient state
can drop to FAILED; FAILED can re-enter ENQUEUED until attempts run out;
READY can only leave via EXPIRED. Nothing else is legal, and every change
funnels through one choke point that enforces the transition table, stamps
updated_at, persists, and fires the audit hook.

The hard-won rules encoded here:

  * every transient record carries a lease that its worker must keep
    renewing; the sweeper fails anything whose lease lapsed, so a worker
    that dies silently can stall a record for at most one sweep interval
  * every layer blob is checked against its manifest digest once, in the
    transfer step, before it is decoded, whichever registry served it
  * READY is reachable only through complete(), which re-verifies the
    written archive first and records its trailer digest; a record can
    never claim an artifact that does not check out, and every mount
    checks the file's bytes against that digest
  * a worker writes its archive under a name of its own; only complete(),
    under the lock and while the lease holds, renames it onto the name a
    READY record points at, so a worker whose lease was swept never
    touches the current archive
  * concurrent pulls of one reference share a single task (single-flight),
    so a popular image is downloaded once, not once per caller
  * after a restart, anything still transient in the store is failed before
    traffic is served; half-finished work is never resumed blindly
  * FAILED is sticky once attempts reach max_attempts; only an admin expire
    clears it
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import secrets
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .authsvc import Credential, Principal
from .config import Config
from .errors import (AuthError, DigestMismatch, IllegalTransition, LeaseRevoked,
                     NotFound, StorageIoError, UdigateError, VerifyError)
from .filetree import apply_site_mods, blob_digest, default_site_config, flatten, tree_from_blob
from .refs import ImageReference
from .registry import SilentAbort
from .udi import verify_udi, write_udi

log = logging.getLogger(__name__)


class ImageState(Enum):
    ENQUEUED = "ENQUEUED"
    PULLING = "PULLING"
    CONVERTING = "CONVERTING"
    READY = "READY"
    FAILED = "FAILED"
    EXPIRED = "EXPIRED"

    def __str__(self) -> str:
        return self.value


TRANSIENT_STATES = frozenset(
    (ImageState.ENQUEUED, ImageState.PULLING, ImageState.CONVERTING))

ALLOWED_TRANSITIONS = frozenset({
    (None, ImageState.ENQUEUED),
    (ImageState.ENQUEUED, ImageState.PULLING),
    (ImageState.PULLING, ImageState.CONVERTING),
    (ImageState.CONVERTING, ImageState.READY),
    (ImageState.ENQUEUED, ImageState.FAILED),
    (ImageState.PULLING, ImageState.FAILED),
    (ImageState.CONVERTING, ImageState.FAILED),
    (ImageState.FAILED, ImageState.ENQUEUED),
    (ImageState.READY, ImageState.EXPIRED),
})

_API_FIELDS = ("state", "content_digest", "udi_path", "udi_digest", "size_bytes",
               "created_at", "updated_at", "lease_expires_at", "attempts", "last_error")
_STATES = {state.value: state for state in ImageState}
_STORE_TYPES = (str,) * 10 + (int,) * 2  # a bool is not an int here
_NUMBERS = {int, float}


@dataclass
class ImageRecord:
    ref: ImageReference
    state: ImageState
    content_digest: str = ""  # SHA-256 of the manifest's layer digests, in order
    udi_path: str = ""
    udi_digest: str = ""  # trailer hex of the verified archive, set on READY
    size_bytes: int = 0
    created_at: float = 0.0
    updated_at: float = 0.0
    lease_expires_at: float = 0.0
    attempts: int = 0
    last_error: str = ""
    lease_id: str = ""  # worker ownership token, not part of the API body

    def snapshot(self) -> "ImageRecord":
        return dataclasses.replace(self)

    def to_api_dict(self) -> dict:
        out = {"ref": self.ref.canonical()}
        for name in _API_FIELDS:
            value = getattr(self, name)
            out[name] = value.value if isinstance(value, ImageState) else value
        return out

    def to_store_dict(self) -> dict:
        return {
            "system": self.ref.system, "repository": self.ref.repository,
            "name": self.ref.name, "tag": self.ref.tag,
            "state": self.state.value, "content_digest": self.content_digest,
            "udi_path": self.udi_path, "size_bytes": self.size_bytes,
            "created_at": self.created_at, "updated_at": self.updated_at,
            "lease_expires_at": self.lease_expires_at, "attempts": self.attempts,
            "last_error": self.last_error, "lease_id": self.lease_id,
            "udi_digest": self.udi_digest,
        }

    @classmethod
    def from_store_dict(cls, doc: dict) -> "ImageRecord":
        """Raises KeyError for a missing field or an unknown state and
        ValueError for a field of the wrong type; lease_id and udi_digest
        may be missing. Replay calls this once per live key, thousands of
        times per restart, so the checks are one pass of type() lookups."""
        values = (doc["system"], doc["repository"], doc["name"], doc["tag"], doc["state"],
                  doc["content_digest"], doc["udi_path"], doc.get("udi_digest", ""),
                  doc["last_error"], doc.get("lease_id", ""), doc["size_bytes"], doc["attempts"])
        times = (doc["created_at"], doc["updated_at"], doc["lease_expires_at"])
        if tuple(map(type, values)) != _STORE_TYPES or not _NUMBERS.issuperset(map(type, times)):
            raise ValueError("record field of the wrong type")
        (system, repository, name, tag, state, content_digest, udi_path, udi_digest,
         last_error, lease_id, size_bytes, attempts) = values
        # positional, in field order: keywords cost a quarter more per record
        return cls(ImageReference(system, repository, name, tag), _STATES[state],
                   content_digest, udi_path, udi_digest, size_bytes, *times,
                   attempts, last_error, lease_id)


@dataclass(frozen=True)
class PullTask:
    ref: ImageReference
    lease_id: str
    enqueued_at: float
    attempt: int


# (key, old_state, new_state, snapshot, verified); old None on record
# creation, new None on record removal
AuditHook = Callable[[str, Optional[ImageState], Optional[ImageState], ImageRecord, bool], None]


class Gateway:
    def __init__(self, config: Config, clock, registry, state_dir: str,
                 verifier=None,
                 task_sink: Optional[Callable[[PullTask], None]] = None,
                 audit_hook: Optional[AuditHook] = None,
                 tracer=None, rng=None):
        self.config = config
        self.clock = clock
        self.registry = registry
        self.state_dir = state_dir
        self.verifier = verifier
        self.site = default_site_config()
        self.task_sink = task_sink
        self.audit_hook = audit_hook
        self.tracer = tracer
        self._rng = rng
        self._lock = threading.RLock()
        self._records: dict[str, ImageRecord] = {}
        self.pending_tasks: list[PullTask] = []  # used when no task_sink is wired

        os.makedirs(self.udi_dir, exist_ok=True)
        from .store import RecordLog, load_entries
        self._log = RecordLog(os.path.join(state_dir, "records.log"))
        groups, skipped = load_entries(self._log.path)
        for key, payloads in groups.items():
            for payload in reversed(payloads):  # the newest usable entry decides the key
                try:  # an entry replay cannot use is skipped, and the next older one tried
                    entry = json.loads(payload.decode("utf-8"))
                    if entry["key"] != key:
                        raise ValueError(f"entry for {entry['key']!r} grouped under {key!r}")
                    if entry["op"] == "put":
                        rec = ImageRecord.from_store_dict(entry["record"])
                        if key != rec.ref.key():
                            raise ValueError(f"put under {key!r} of {rec.ref.key()!r}")
                        self._records[key] = rec
                    elif entry["op"] != "delete":
                        raise ValueError(f"unknown op {entry['op']!r}")
                    break
                except (KeyError, TypeError, ValueError) as exc:
                    skipped += 1
                    log.warning("record log %s: unusable entry skipped (%r)", self._log.path, exc)
        if skipped:
            log.warning("record log: skipped %d unreadable entries", skipped)

    @property
    def udi_dir(self) -> str:
        return os.path.join(self.state_dir, "udi")

    # -- helpers --------------------------------------------------------------

    def _verify_cred(self, cred: Optional[Credential]) -> Principal:
        if self.verifier is None:
            return Principal(uid=0, gids=(), scope="user")
        if cred is None:
            raise AuthError("credential required")
        return self.verifier.verify(cred)

    def _next_lease(self) -> str:
        if self._rng is not None:
            return f"{self._rng.getrandbits(64):016x}"
        return secrets.token_hex(8)

    def _trace(self, event: str, details, entity: str = "gateway") -> None:
        if self.tracer is not None:
            self.tracer.emit(self.clock.now(), entity, event, details)

    def _persist(self, rec: ImageRecord) -> None:
        self._log.append({"op": "put", "key": rec.ref.key(), "record": rec.to_store_dict()})

    def _transition(self, rec: ImageRecord, new: ImageState, *, verified: bool = False,
                    **updates) -> None:
        old = rec.state
        if (old, new) not in ALLOWED_TRANSITIONS:
            raise IllegalTransition(f"{rec.ref.canonical()}: {old} -> {new}")
        for name, value in updates.items():
            setattr(rec, name, value)
        rec.state = new
        rec.updated_at = self.clock.now()
        if new is ImageState.ENQUEUED:  # every (re)entry gets a fresh lease
            rec.lease_id = self._next_lease()
            rec.lease_expires_at = rec.updated_at + self.config.lease_duration
        elif new in TRANSIENT_STATES:
            if rec.lease_expires_at <= rec.updated_at:
                rec.lease_expires_at = rec.updated_at + self.config.lease_duration
        else:
            rec.lease_id = ""
            rec.lease_expires_at = 0.0
        self._persist(rec)
        if self.audit_hook is not None:
            self.audit_hook(rec.ref.key(), old, new, rec.snapshot(), verified)
        self._trace("state", [("ref", rec.ref.canonical()), ("from", old or "-"),
                              ("to", new), ("attempts", rec.attempts)])

    def _create_record(self, ref: ImageReference) -> ImageRecord:
        now = self.clock.now()
        # built with no state so that creation goes through the choke point too
        rec = ImageRecord(ref=ref, state=None, created_at=now,  # type: ignore[arg-type]
                          updated_at=now, attempts=1)
        self._records[ref.key()] = rec
        self._transition(rec, ImageState.ENQUEUED)
        return rec

    def _delete_record(self, rec: ImageRecord) -> None:
        key = rec.ref.key()
        self._records.pop(key, None)
        self._log.append({"op": "delete", "key": key})
        if self.audit_hook is not None:
            self.audit_hook(key, rec.state, None, rec.snapshot(), False)
        self._trace("delete", [("ref", rec.ref.canonical()), ("state", rec.state)])

    def _task_for(self, rec: ImageRecord) -> PullTask:
        return PullTask(ref=rec.ref, lease_id=rec.lease_id,
                        enqueued_at=self.clock.now(), attempt=rec.attempts)

    def _emit_task(self, task: PullTask) -> None:
        if self.task_sink is not None:
            self.task_sink(task)
        else:
            self.pending_tasks.append(task)

    # -- client API -------------------------------------------------------------

    def pull(self, ref: ImageReference, cred: Optional[Credential] = None) -> ImageRecord:
        """Request an image. Idempotent: joins in-flight work, returns READY
        records unchanged, retries FAILED ones while attempts remain."""
        self._verify_cred(cred)
        task = None
        with self._lock:
            rec = self._records.get(ref.key())
            if rec is None or rec.state is ImageState.EXPIRED:
                if rec is not None:
                    self._delete_record(rec)  # expired incarnation is done; replace
                rec = self._create_record(ref)
                task = self._task_for(rec)
                outcome = "enqueued"
            elif rec.state is ImageState.FAILED:
                if rec.attempts >= self.config.max_attempts:
                    outcome = "sticky_failed"
                else:
                    self._transition(rec, ImageState.ENQUEUED,
                                     attempts=rec.attempts + 1, last_error="")
                    task = self._task_for(rec)
                    outcome = "retry"
            elif rec.state is ImageState.READY:
                outcome = "ready"
            else:
                outcome = "joined"
            snap = rec.snapshot()
        self._trace("pull", [("ref", ref.canonical()), ("outcome", outcome),
                             ("state", snap.state)])
        if task is not None:
            self._emit_task(task)
        return snap

    def lookup(self, ref: ImageReference) -> ImageRecord:
        with self._lock:
            rec = self._records.get(ref.key())
            if rec is None:
                raise NotFound(f"no record for {ref.canonical()} on {ref.system}")
            return rec.snapshot()

    def list_records(self, system: str) -> list[ImageRecord]:
        with self._lock:
            out = [r.snapshot() for r in self._records.values() if r.ref.system == system]
        out.sort(key=lambda r: r.ref.canonical())
        return out

    def expire(self, ref: ImageReference, cred: Optional[Credential] = None) -> ImageRecord:
        """Admin-only. READY archives are retired; stuck transients are
        failed; FAILED/EXPIRED rows are deleted so the next pull starts
        clean (this is how operators clear a sticky FAILED)."""
        principal = self._verify_cred(cred)
        if self.verifier is not None and not principal.is_admin:
            raise AuthError("expire requires admin scope")
        with self._lock:
            rec = self._records.get(ref.key())
            if rec is None:
                raise NotFound(f"no record for {ref.canonical()} on {ref.system}")
            if rec.state is ImageState.READY:
                self._transition(rec, ImageState.EXPIRED)
                # under the lock, so a re-pull cannot place its archive here first
                try:
                    os.unlink(rec.udi_path)
                except FileNotFoundError:
                    pass
            elif rec.state in TRANSIENT_STATES:
                self._transition(rec, ImageState.FAILED, last_error="expired by admin")
            else:
                self._delete_record(rec)
            return rec.snapshot()

    # -- maintenance ------------------------------------------------------------

    def _fail_transients(self, stale: Callable[[ImageRecord], bool],
                         why: str) -> list[ImageRecord]:
        """Fail every transient record that ``stale`` picks; last_error is
        ``why`` plus the state it was stuck in."""
        flipped = []
        with self._lock:
            for rec in list(self._records.values()):
                if rec.state in TRANSIENT_STATES and stale(rec):
                    self._transition(rec, ImageState.FAILED,
                                     last_error=f"{why} {rec.state.value}")
                    flipped.append(rec.snapshot())
        return flipped

    def sweep_stale(self) -> list[ImageRecord]:
        """Fail every transient record whose lease has lapsed."""
        now = self.clock.now()
        return self._fail_transients(lambda rec: rec.lease_expires_at < now, "lease expired in")

    def recover_on_startup(self) -> list[ImageRecord]:
        """Fail anything still transient in the replayed store and delete
        the archives its workers left half written. Must run before
        traffic: a restart proves the old workers are gone."""
        for name in os.listdir(self.udi_dir):
            if name.endswith(".part") or name.startswith(".udi-"):
                os.unlink(os.path.join(self.udi_dir, name))
        return self._fail_transients(lambda rec: True, "gateway restart during")

    def has_transient(self) -> bool:
        with self._lock:
            return any(r.state in TRANSIENT_STATES for r in self._records.values())

    def close(self) -> None:
        self._log.close()

    # -- worker-facing operations (lease-gated) -----------------------------------

    def _rec_for_task(self, task: PullTask) -> ImageRecord:
        rec = self._records.get(task.ref.key())
        if rec is None or rec.lease_id != task.lease_id or rec.state not in TRANSIENT_STATES:
            raise LeaseRevoked(f"lease no longer owns {task.ref.canonical()}")
        return rec

    def claim(self, task: PullTask) -> None:
        with self._lock:
            rec = self._rec_for_task(task)
            self._transition(rec, ImageState.PULLING)

    def renew_lease(self, task: PullTask) -> None:
        with self._lock:
            rec = self._rec_for_task(task)
            rec.lease_expires_at = self.clock.now() + self.config.lease_duration

    def begin_convert(self, task: PullTask, content_digest: str) -> None:
        with self._lock:
            rec = self._rec_for_task(task)
            self._transition(rec, ImageState.CONVERTING, content_digest=content_digest)

    def complete(self, task: PullTask, udi_path: str) -> ImageRecord:
        """Verify the written archive, then and only then, while the task
        still holds its lease, rename it onto the reference's archive name
        and go READY with its trailer digest recorded as udi_digest."""
        check = verify_udi(udi_path)
        if not check.ok:
            raise VerifyError(f"fresh archive rejected ({check.reason}): {check.detail}")
        size = os.path.getsize(udi_path)
        with self._lock:
            rec = self._rec_for_task(task)
            dest = self._udi_dest(task.ref)
            try:
                os.replace(udi_path, dest)
            except OSError as exc:
                raise StorageIoError(f"cannot place archive: {exc}") from exc
            self._transition(rec, ImageState.READY, verified=True,
                             udi_path=dest, udi_digest=check.digest,
                             size_bytes=size, last_error="")
            return rec.snapshot()

    def fail_task(self, task: PullTask, error: Exception) -> bool:
        """Fail the record this task owns. Returns False if the lease was
        already lost (sweeper or admin got there first)."""
        with self._lock:
            try:
                rec = self._rec_for_task(task)
            except LeaseRevoked:
                return False
            self._transition(rec, ImageState.FAILED,
                             last_error=f"{type(error).__name__}: {error}")
        return True

    # -- the pull pipeline ---------------------------------------------------------

    def _udi_dest(self, ref: ImageReference) -> str:
        safe = ref.key().replace("/", "_").replace(":", "_").replace("|", "_")
        suffix = hashlib.sha256(ref.key().encode("utf-8")).hexdigest()[:8]
        return os.path.join(self.udi_dir, f"{safe}-{suffix}.udi")

    def run_pull(self, task: PullTask) -> Iterator[tuple[str, float]]:
        """Run one pull task as a sequence of costed steps, and end it.

        Yields ``(kind, cost)`` before each step; resuming the generator
        runs that step. Drivers only charge the cost: the simulator waits
        that many virtual seconds, the threaded runtime resumes at once.
        The generator ends the chain itself: a silent worker death leaves
        the record for the sweeper, a lost lease abandons the task, and any
        other UdigateError fails the record. Each of the three emits one
        ``worker`` trace event naming the step it hit. Other exceptions
        propagate to the driver.
        """
        try:
            for kind, cost in self._pull_steps(task):
                yield kind, cost
            return
        except SilentAbort:
            log.debug("worker silently aborted %s", task.ref.canonical())
            event, extra = "silent_death", []
        except LeaseRevoked:
            log.info("lease lost for %s, abandoning task", task.ref.canonical())
            event, extra = "lease_revoked", []
        except UdigateError as exc:
            self.fail_task(task, exc)
            event, extra = "task_failed", [("err", type(exc).__name__)]
        self._trace(event, [("ref", task.ref.canonical()), ("step", kind)] + extra,
                    entity="worker")

    def _pull_steps(self, task: PullTask) -> Iterator[tuple[str, float]]:
        """The pipeline in order; the code after each yield is its step."""
        cfg = self.config
        yield "claim", 0.0
        self.claim(task)

        yield "fetch_manifest", cfg.manifest_latency
        manifest = self.registry.fetch_manifest(task.ref.canonical())
        self.renew_lease(task)

        blobs: dict[str, bytes] = {}
        layer_cost = manifest.total_size / len(manifest.layers) / cfg.registry_bandwidth
        chunks = max(1, math.ceil(layer_cost / cfg.heartbeat_interval))
        for digest in manifest.layers:
            for i in range(1, chunks + 1):
                yield "transfer", layer_cost / chunks
                self.registry.transfer_tick(digest, i / chunks)
                if i == chunks:
                    blobs[digest] = self.registry.fetch_layer(digest)
                    if blob_digest(blobs[digest]) != digest:
                        raise DigestMismatch(f"layer {digest[:12]} bytes do not match digest")
                self.renew_lease(task)

        yield "flatten", 0.0
        # pop: each blob is dropped as soon as its tree is decoded
        flat = flatten([tree_from_blob(blobs.pop(d)) for d in manifest.layers])
        self.begin_convert(task, blob_digest("\n".join(manifest.layers).encode()))

        convert_cost = manifest.total_size / cfg.convert_bandwidth
        conv_chunks = max(1, math.ceil(convert_cost / cfg.heartbeat_interval))
        for _ in range(conv_chunks):
            yield "convert", convert_cost / conv_chunks
            self.renew_lease(task)

        modified = apply_site_mods(flat, self.site)
        # a worker-owned name: only complete(), under the lease, moves it
        # onto the archive name a READY record points at
        part = f"{self._udi_dest(task.ref)}.{task.lease_id}.part"
        write_udi(modified, part, source_ref=task.ref.canonical(),
                  created_at=self.clock.now(), site_mods=[m.summary() for m in self.site.mods])
        try:
            self.complete(task, part)
        except Exception:
            try:
                os.unlink(part)
            except OSError:
                pass
            raise
