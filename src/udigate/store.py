"""Append-only record log.

Frame layout per entry, little-endian:

    length   u32   payload byte count
    crc      u32   zlib.crc32 of the payload
    payload  canonical JSON, UTF-8

Load semantics are deliberately asymmetric:

  * a complete frame whose crc does not match is SKIPPED with a warning,
    one rotted entry must not take the whole store down; so is one whose
    crc matches but whose payload is not JSON, and the gateway's replay
    skips and counts likewise an entry it cannot use (no key, an unknown
    op, a record with a missing field or an unknown state)
  * a frame cut off mid-way (torn header or short payload) raises
    PersistenceCorrupt, a truncated tail means the file is not trustworthy
    and the service must refuse to serve from it
"""
from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib

from .errors import PersistenceCorrupt, StorageIoError

log = logging.getLogger(__name__)

_HEADER = struct.Struct("<II")
_PAYLOAD_LIMIT = 64 * 1024 * 1024


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def load_entries(path: str) -> tuple[list[dict], int]:
    """Replay the log. Returns (entries, skipped_count)."""
    entries: list[dict] = []
    skipped = 0
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return entries, skipped
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
                entries.append(json.loads(payload.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                skipped += 1
                log.warning("record log %s: entry %d crc ok but undecodable, skipping",
                            path, index)
        off = body_end
        index += 1
    return entries, skipped


class RecordLog:
    """Writer handle. Appends are serialized and flushed per entry."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fh = None

    def append(self, entry: dict) -> None:
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
        frame = _frame(payload)
        with self._lock:
            try:
                if self._fh is None:
                    os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                    self._fh = open(self.path, "ab")
                self._fh.write(frame)
                self._fh.flush()
            except OSError as exc:
                raise StorageIoError(f"cannot append to record log: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
