"""Single-file image archive format.

Layout, all integers little-endian:

    magic      4 bytes  b"UDI1"
    version    u16      currently 1
    meta_len   u32
    metadata   meta_len bytes of canonical JSON (created_at, source_ref, site_mods)
    count      u32      file table entry count
    entry *count, each (a layer blob is this table alone, see filetree.py):
        path_len    u16
        path        path_len bytes, UTF-8
        kind        u8   (0 file, 1 dir, 2 symlink)
        mode        u16
        content_len u64
        content     content_len bytes (file bytes, or symlink target UTF-8)
    trailer    32 bytes, SHA-256 over every preceding byte

Entries are sorted by path, so identical trees with identical metadata give
bit-identical archives. write_udi makes one pass straight into the file it
is given: header and metadata, then the file table as the chunks of
filetree.table_chunks, joins of the tree's stored entry records in path
order (tree_to_blob is one such join), each hashed and written as it comes,
then the trailer. A failed or crashed writer leaves that file partial, for
the caller, who owns the name, to remove.

Every reader goes through one forward pass over the archive that hashes
every body byte exactly once and parses only when asked: bytes and a file
of at most 1 MiB are one window taken in a single read, a larger file is
read front to back in windows of at most 1 MiB, so memory stays bounded
whatever the archive's size. Every reader reports a bad or unreadable
archive by raising UdiCorrupt with the reason (io for a file that cannot be
read).

verify_udi walks the structure of a path or an in-memory image with
precompiled structs, keeping no file table, and returns the descriptor;
scan_udi is another name for it. The gateway gates READY on it and records
the descriptor's trailer digest and size. The file table is a layer blob,
so filetree.tree_from_blob loads a tree back from a verified archive's
table bytes.

check_udi is the mount-time check: it parses nothing and requires the body
hash to match both the stored trailer and the digest the gateway recorded.
The structure was verified once, before that digest could enter a READY
record; by SHA-256's second-preimage resistance, bytes that hash to it are
those same bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Iterable

from .errors import StorageIoError, UdiCorrupt
from .filetree import CODE_KINDS, ENTRY_COUNT, ENTRY_FIELDS, PATH_LEN, FileTree, table_chunks

MAGIC = b"UDI1"
VERSION = 1
TRAILER_LEN = 32
_FIXED_HEAD = len(MAGIC) + 2 + 4  # magic + version + meta_len
MIN_SIZE = _FIXED_HEAD + 4 + TRAILER_LEN

_META_LIMIT = 16 * 1024 * 1024
_COUNT_LIMIT = 10_000_000
_WINDOW = 1024 * 1024  # largest single read of an archive

_HEAD = struct.Struct("<4sHI")          # magic, version, meta_len


@dataclass(frozen=True)
class UdiDescriptor:
    path: str
    digest: str  # hex of the trailer hash
    size_bytes: int
    created_at: float
    source_ref: str
    site_mods: tuple[str, ...] = ()


def _metadata_bytes(created_at: float, source_ref: str, site_mods: Iterable[str]) -> bytes:
    doc = {"created_at": created_at, "site_mods": list(site_mods), "source_ref": source_ref}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_udi(tree: FileTree, dest_path: str, source_ref: str, created_at: float,
              site_mods: Iterable[str] = ()) -> UdiDescriptor:
    """Write tree as an archive to dest_path in one pass, hashing each chunk
    as it is written. Raises StorageIoError for metadata over its limit and
    for a failed write; dest_path is then left partial, for the caller to
    remove."""
    site_mods = tuple(site_mods)
    meta = _metadata_bytes(created_at, source_ref, site_mods)
    if len(meta) > _META_LIMIT:
        raise StorageIoError("metadata block too large")
    sha = hashlib.sha256()
    try:
        with open(dest_path, "wb") as fh:
            update, write = sha.update, fh.write
            head = _HEAD.pack(MAGIC, VERSION, len(meta)) + meta
            update(head)
            write(head)
            for chunk in table_chunks(tree):
                update(chunk)
                write(chunk)
            digest = sha.digest()
            write(digest)
            size = fh.tell()
    except OSError as exc:
        raise StorageIoError(f"archive write failed: {exc}") from exc
    return UdiDescriptor(path=dest_path, digest=digest.hex(), size_bytes=size,
                         created_at=created_at, source_ref=source_ref,
                         site_mods=site_mods)


def _read_exact(fh, n: int) -> bytes:
    """n bytes from the unbuffered file fh, fewer only at its end: a read
    that returns short is read again."""
    data = fh.read(n)
    while len(data) < n:
        more = fh.read(n - len(data))
        if not more:
            break
        data += more
    return data


class _Reader:
    """Forward-only window over an archive body that hashes every body byte.

    An image in memory (bytes, or a file of at most _WINDOW bytes, taken in
    one read of its size) is a single window, hashed in one call at the
    end. A larger file is read front to back in windows of at most _WINDOW
    bytes, each fed to the hash as it arrives, so every body byte is read
    and hashed exactly once. No read crosses into the trailer. The file is
    unbuffered; _read_exact reads a short read again.

    The parser keeps its cursor as a position in buf; buf[:limit] are body
    bytes, and a window move returns the cursor's new position.
    """

    __slots__ = ("fh", "sha", "body_end", "buf", "base", "limit", "read_to")

    def __init__(self, fh, data, size: int):
        if size < MIN_SIZE:
            raise UdiCorrupt("truncated", "shorter than fixed header")
        self.fh = fh
        self.body_end = size - TRAILER_LEN
        self.base = 0     # archive offset of buf[0]
        self.read_to = 0  # archive offset of the next file read
        self.buf = data if fh is None else b""
        self.sha = None if fh is None else hashlib.sha256()
        self.limit = min(len(self.buf), self.body_end)

    def _read_window(self) -> bytes:
        n = min(_WINDOW, self.body_end - self.read_to)
        data = _read_exact(self.fh, n)
        if len(data) != n:
            raise UdiCorrupt("truncated", "short read")
        self.sha.update(data)
        self.read_to += n
        return data

    def _move(self, buf: bytes, base: int) -> None:
        self.buf, self.base = buf, base
        self.limit = min(len(buf), self.body_end - base)

    def ensure(self, pos: int, n: int, what: str) -> int:
        """Make buf[pos:pos + n] the next n body bytes. Raises truncated
        (what) if they would run past the body."""
        if self.base + pos + n > self.body_end:
            raise UdiCorrupt("truncated", what)
        if pos + n > self.limit:
            pieces = [self.buf[pos:]]
            have = len(pieces[0])
            while have < n:
                pieces.append(self._read_window())
                have += len(pieces[-1])
            self._move(b"".join(pieces), self.base + pos)
            pos = 0
        return pos

    def skip(self, pos: int, n: int, what: str) -> int:
        """Move the cursor past n body bytes, reading and hashing them."""
        target = self.base + pos + n
        if target > self.body_end:
            raise UdiCorrupt("truncated", what)
        if pos + n <= self.limit:  # always so for an image in memory
            return pos + n
        while self.read_to < target:
            window = self._read_window()
        self._move(window, self.read_to - len(window))
        return target - self.base

    def run(self, walk):
        """walk(self) from the start of the body to its end, then the
        trailer check. Returns (walk's result, archive size, stored
        trailer)."""
        result = walk(self)
        if self.fh is None:
            stored = self.buf[self.body_end:]
            computed = hashlib.sha256(memoryview(self.buf)[:self.body_end]).digest()
        else:
            stored = _read_exact(self.fh, TRAILER_LEN)
            if len(stored) != TRAILER_LEN:
                raise UdiCorrupt("truncated", "trailer short read")
            computed = self.sha.digest()
        if computed != stored:
            raise UdiCorrupt("checksum", "trailer does not match body hash")
        return result, self.body_end + TRAILER_LEN, stored


def _parse(r: _Reader) -> tuple:
    """Header, metadata and file table, up to the trailer, keeping nothing
    of the table. Returns the metadata as (created_at, source_ref,
    site_mods)."""
    pos = r.ensure(0, _HEAD.size, "header")
    magic, version, meta_len = _HEAD.unpack_from(r.buf, pos)
    pos += _HEAD.size
    if magic != MAGIC:
        raise UdiCorrupt("magic", "bad magic")
    if version != VERSION:
        raise UdiCorrupt("version", f"unsupported version {version}")
    if meta_len > _META_LIMIT:
        raise UdiCorrupt("truncated", "metadata length exceeds limit")
    pos = r.ensure(pos, meta_len, "metadata")
    try:
        doc = json.loads(r.buf[pos:pos + meta_len].decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("metadata not an object")
        meta = (float(doc.get("created_at", 0.0)), str(doc.get("source_ref", "")),
                tuple(doc.get("site_mods", ())))
    except (TypeError, ValueError, UnicodeDecodeError) as exc:
        raise UdiCorrupt("metadata", str(exc))
    pos = r.ensure(pos + meta_len, ENTRY_COUNT.size, "count")
    (count,) = ENTRY_COUNT.unpack_from(r.buf, pos)
    pos += ENTRY_COUNT.size
    if count > _COUNT_LIMIT:
        raise UdiCorrupt("truncated", "entry count exceeds limit")

    path_len_of, fields_of = PATH_LEN.unpack_from, ENTRY_FIELDS.unpack_from
    fields = ENTRY_FIELDS.size
    buf, limit = r.buf, r.limit
    for i in range(count):
        # the window calls below only run when a header or content
        # straddles the window's end, or the archive is truncated
        if pos + 2 > limit:
            pos = r.ensure(pos, 2, f"entry {i} path_len")
            buf, limit = r.buf, r.limit
        (path_len,) = path_len_of(buf, pos)
        fields_at = pos + 2 + path_len
        if fields_at + fields > limit:
            pos = r.ensure(pos, 2 + path_len + fields, f"entry {i} header")
            buf, limit = r.buf, r.limit
            fields_at = pos + 2 + path_len
        try:
            buf[pos + 2:fields_at].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UdiCorrupt("metadata", f"entry {i} path not utf-8: {exc}")
        kind_code, _, content_len = fields_of(buf, fields_at)
        if kind_code not in CODE_KINDS:
            raise UdiCorrupt("metadata", f"entry {i} unknown kind {kind_code}")
        pos = fields_at + fields
        if pos + content_len > limit:
            pos = r.skip(pos, content_len, f"entry {i} content")
            buf, limit = r.buf, r.limit
        else:
            pos += content_len
    undeclared = r.body_end - (r.base + pos)
    if undeclared:
        raise UdiCorrupt("truncated", f"{undeclared} undeclared bytes before trailer")
    return meta


def _skip_body(r: _Reader) -> None:
    r.skip(0, r.body_end, "body")


def _forward(source, walk):
    """The one read path: walk the body of source (a path, or the image
    itself as bytes) through a _Reader, hashing every body byte, and
    require the hash to equal the stored trailer. The file is opened
    unbuffered: a file of at most _WINDOW bytes is taken in one read of
    its size, a larger one in windows, and neither needs a buffer between.
    Returns _Reader.run's triple. Raises UdiCorrupt; reason io when the
    file cannot be read."""
    if isinstance(source, (bytes, bytearray)):
        return _Reader(None, source, len(source)).run(walk)
    try:
        with open(source, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > _WINDOW:
                return _Reader(fh, None, size).run(walk)
            data = _read_exact(fh, size)
    except OSError as exc:
        raise UdiCorrupt("io", str(exc)) from exc
    return _Reader(None, data, len(data)).run(walk)


def verify_udi(source: str | bytes) -> UdiDescriptor:
    """Full integrity check of an archive (a path, or the image itself as
    bytes) in one forward pass: structure walk plus trailer hash over the
    whole body, in bounded memory. Returns the descriptor (path "" for
    bytes). Raises UdiCorrupt with the reason."""
    meta, size, stored = _forward(source, _parse)
    path = "" if isinstance(source, (bytes, bytearray)) else os.fspath(source)
    return UdiDescriptor(path, stored.hex(), size, *meta)


# the name stays because benchmark spans wrap nodeagent.scan_udi and
# cluster.scan_udi
scan_udi = verify_udi


def check_udi(path: str, expected: str) -> None:
    """Hash every body byte of the archive at path through the one read
    path, parsing nothing, and require the hash to equal both the stored
    trailer and expected (trailer hex): the structure was verified before
    expected was recorded. Raises UdiCorrupt with reason truncated, io,
    checksum or descriptor mismatch."""
    _, _, stored = _forward(path, _skip_body)
    if stored.hex() != expected:
        raise UdiCorrupt("descriptor mismatch")
