"""Append-only record log.

Frame layout per entry, little-endian:

    length   u32   payload byte count
    crc      u32   zlib.crc32 of the payload
    payload  canonical JSON, UTF-8

Load semantics are deliberately asymmetric:

  * a complete frame whose crc does not match is SKIPPED with a warning,
    one rotted entry must not take the whole store down; so is one whose
    crc matches but that names no key (not JSON, no "key"), and the
    gateway's replay skips and counts likewise an entry it cannot use
  * a frame cut off mid-way (torn header or short payload) raises
    PersistenceCorrupt, a truncated tail means the file is not trustworthy
    and the service must refuse to serve from it

Loading groups payloads by the key in the ``{"key":"<key>","op":"<op>"``
prefix that append writes, decoding only a frame without it. Replay decodes
a key's frames newest first up to the first usable one: a superseded frame
is crc-checked, never decoded.

A log has one writer at a time, a RecordLog, and its appends are
all-or-nothing on the file: a write that fails or falls short is cut off
before append raises, so a load reads back exactly the appends that
returned, in order.
"""
from __future__ import annotations

import errno
import fcntl
import json
import logging
import os
import re
import struct
import threading
import zlib

from .errors import PersistenceCorrupt, StorageIoError

log = logging.getLogger(__name__)

_HEADER = struct.Struct("<II")
_PAYLOAD_LIMIT = 64 * 1024 * 1024
# a key or op holding an escape or a quote does not match and is decoded
_PREFIX = re.compile(rb'\{"key":"([^"\\]*)","op":"([^"\\]*)"')


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def load_entries(path: str) -> tuple[dict, int]:
    """Read the log. Returns ({key: [payload, ...] oldest first}, skipped), keys
    in replay order: a key goes to the end at its first put after a delete."""
    groups: dict = {}
    placed = set()  # keys whose last put or delete frame is a put
    skipped = 0
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return groups, skipped
    except OSError as exc:
        raise StorageIoError(f"cannot read record log: {exc}") from exc
    off = 0
    total = len(data)
    index = 0
    while off < total:
        if total - off < _HEADER.size:
            raise PersistenceCorrupt(
                f"torn frame header at offset {off} ({total - off} trailing bytes)")
        length, crc = _HEADER.unpack_from(data, off)
        if length > _PAYLOAD_LIMIT:
            raise PersistenceCorrupt(
                f"frame at offset {off} declares absurd length {length}")
        body_start = off + _HEADER.size
        body_end = body_start + length
        if body_end > total:
            raise PersistenceCorrupt(
                f"frame at offset {off} cut off mid-payload "
                f"(need {length} bytes, {total - body_start} remain)")
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            skipped += 1
            log.warning("record log %s: entry %d failed crc, skipping", path, index)
        else:
            try:
                m = _PREFIX.match(payload)
                if m is not None:
                    key, op = m[1].decode("utf-8"), m[2].decode("utf-8")
                else:
                    entry = json.loads(payload.decode("utf-8"))
                    key, op = entry["key"], entry.get("op")
                frames = groups.setdefault(key, [])
            except (ValueError, KeyError, TypeError):
                skipped += 1
                log.warning("record log %s: entry %d crc ok but has no key, skipping",
                            path, index)
            else:
                if op == "delete":
                    placed.discard(key)
                elif op == "put" and key not in placed:
                    placed.add(key)
                    groups[key] = groups.pop(key)  # to the end, as replay re-inserts it
                frames.append(payload)
        off = body_end
        index += 1
    return groups, skipped


class RecordLog:
    """The one writer of a record log: the file is open, unbuffered and
    flocked from construction to close(), a second writer gets
    StorageIoError, and each append is one write of one frame. If a failed
    write cannot be cut off, the log closes; a closed log refuses appends.
    Appends are never fsynced."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        try:
            self._fh = open(path, "ab", buffering=0)
        except OSError as exc:
            raise StorageIoError(f"cannot open record log: {exc}") from exc
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._fh.close()
            raise StorageIoError(f"state directory {os.path.dirname(os.path.abspath(path))} "
                                 f"is in use by another writer: {exc}") from exc
        self._size = os.fstat(self._fh.fileno()).st_size

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def append(self, entry: dict) -> None:
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
        frame = _frame(payload)
        with self._lock:
            if self._fh.closed:
                raise StorageIoError(f"record log {self.path} is closed")
            try:
                written = self._fh.write(frame)
                if written != len(frame):
                    raise OSError(errno.EIO, f"short write, {written} of {len(frame)} bytes")
            except OSError as exc:
                try:
                    os.ftruncate(self._fh.fileno(), self._size)
                except OSError:
                    self._fh.close()
                raise StorageIoError(f"cannot append to record log: {exc}") from exc
            self._size += len(frame)

    def close(self) -> None:
        with self._lock:
            self._fh.close()
