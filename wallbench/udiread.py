"""An archive reader written from the format description in the README.

It shares no code with ``udigate.udi``: the benchmark checks the gateway's
archives with it, so a fault in the package's own reader cannot hide a fault
in its writer.
"""
from __future__ import annotations

import hashlib
import json
import struct

KINDS = {0: "file", 1: "dir", 2: "symlink"}
TRAILER = 32


class ArchiveError(Exception):
    pass


def read_archive(data: bytes) -> tuple[dict, dict[str, tuple[str, int, bytes]], str]:
    """Returns (metadata, {path: (kind, mode, payload)}, trailer hex).

    Raises ArchiveError on a bad magic or version, a short or overlong body,
    unsorted paths, or a trailer that is not the SHA-256 of the body.
    """
    view = memoryview(data)
    body_end = len(data) - TRAILER
    if body_end < 14 or bytes(view[:4]) != b"UDI1":
        raise ArchiveError("bad magic or too short")
    version, meta_len = struct.unpack_from("<HI", data, 4)
    if version != 1:
        raise ArchiveError(f"version {version}")
    off = 10
    meta = json.loads(bytes(view[off:off + meta_len]))
    off += meta_len
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    entries: dict[str, tuple[str, int, bytes]] = {}
    last = ""
    for _ in range(count):
        (path_len,) = struct.unpack_from("<H", data, off)
        off += 2
        path = bytes(view[off:off + path_len]).decode()
        off += path_len
        kind, mode, size = struct.unpack_from("<BHQ", data, off)
        off += 11
        if off + size > body_end:
            raise ArchiveError(f"{path}: content runs into the trailer")
        if path <= last:
            raise ArchiveError(f"{path}: entries not sorted by path")
        entries[path] = (KINDS[kind], mode, bytes(view[off:off + size]))
        off += size
        last = path
    if off != body_end:
        raise ArchiveError(f"{body_end - off} bytes between the last entry and the trailer")
    trailer = bytes(view[body_end:])
    if hashlib.sha256(view[:body_end]).digest() != trailer:
        raise ArchiveError("trailer is not the SHA-256 of the body")
    return meta, entries, trailer.hex()
