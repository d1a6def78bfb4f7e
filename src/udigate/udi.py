"""Single-file image archive format.

Layout, all integers little-endian:

    magic      4 bytes  b"UDI1"
    version    u16      currently 1
    meta_len   u32
    metadata   meta_len bytes of canonical JSON (created_at, source_ref, site_mods)
    count      u32      file table entry count
    entry *count, each:
        path_len    u16
        path        path_len bytes, UTF-8
        kind        u8   (0 file, 1 dir, 2 symlink)
        mode        u16
        content_len u64
        content     content_len bytes (file bytes, or symlink target UTF-8)
    trailer    32 bytes, SHA-256 over every preceding byte

Entries are sorted by path, so identical trees with identical metadata give
bit-identical archives. The writer takes the entry count up front, streams
each entry through a hashing wrapper as it arrives (its header packed with
precompiled structs into one write, its content after it), and lands on the
final name via rename, so a crashed writer leaves no partial archive behind.

open_udi reads an archive once, front to back, in windows of at most 1 MiB
(a small archive in a single read), parses each header with precompiled
structs and hashes every body byte exactly once, so memory stays bounded
whatever the archive's size. It returns the descriptor and the file table,
or raises UdiCorrupt with the reason. verify_udi wraps it for a path or an
in-memory image and never raises: it reports (ok, reason) and, on success,
the trailer digest. The gateway gates READY on it and records that digest;
read_udi verifies in the same pass that loads the tree. scan_udi makes the
same walk without hashing and is for display only.

check_udi is the mount-time check: through the same forward reader, it
parses nothing, hashes every body byte in windows of at most 1 MiB, and
requires the hash to match both the stored trailer and the digest the
gateway recorded. The structure was
verified once, before that digest could enter a READY record; by SHA-256's
second-preimage resistance, bytes that hash to it are those same bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StorageIoError, UdiCorrupt
from .filetree import (KIND_DIR, KIND_FILE, KIND_SYMLINK, FileTree, TreeEntry)

MAGIC = b"UDI1"
VERSION = 1
TRAILER_LEN = 32
_FIXED_HEAD = len(MAGIC) + 2 + 4  # magic + version + meta_len
MIN_SIZE = _FIXED_HEAD + 4 + TRAILER_LEN

_KIND_CODE = {KIND_FILE: 0, KIND_DIR: 1, KIND_SYMLINK: 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_META_LIMIT = 16 * 1024 * 1024
_COUNT_LIMIT = 10_000_000
_WINDOW = 1024 * 1024  # largest single read of an archive

_HEAD = struct.Struct("<4sHI")          # magic, version, meta_len
_COUNT = struct.Struct("<I")
_PATH_LEN = struct.Struct("<H")
_ENTRY_FIELDS = struct.Struct("<BHQ")   # kind, mode, content_len (after the path)


@dataclass(frozen=True)
class UdiDescriptor:
    path: str
    content_digest: str  # hex of the trailer hash
    size_bytes: int
    created_at: float
    source_ref: str
    site_mods: tuple[str, ...] = ()


@dataclass(frozen=True)
class UdiCheck:
    ok: bool
    reason: str = ""
    detail: str = ""
    digest: str = ""  # trailer hex, set when ok


@dataclass(frozen=True)
class UdiEntryInfo:
    path: str
    kind: str
    mode: int
    size: int
    content_offset: int


class _HashingWriter:
    def __init__(self, fh):
        self._fh = fh
        self.sha = hashlib.sha256()
        self.written = 0

    def write(self, data: bytes) -> None:
        self.sha.update(data)
        self._fh.write(data)
        self.written += len(data)


def _metadata_bytes(created_at: float, source_ref: str, site_mods: Iterable[str]) -> bytes:
    doc = {"created_at": created_at, "site_mods": list(site_mods), "source_ref": source_ref}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_udi_stream(dest_path: str, created_at: float, source_ref: str,
                     site_mods: Iterable[str], count: int,
                     entries: Iterable[tuple[str, str, int, int, Iterable[bytes]]]) -> UdiDescriptor:
    """Streaming writer. entries yields count tuples (path, kind, mode,
    content_len, content_chunks), already sorted by path; chunks must total
    content_len. Each entry is written as it arrives. Writes to a temp file
    in the destination directory and renames into place, so a crash or a
    StorageIoError (a wrong entry count or content length) never leaves a
    partial archive at dest_path.
    """
    site_mods = tuple(site_mods)
    meta = _metadata_bytes(created_at, source_ref, site_mods)
    if len(meta) > _META_LIMIT:
        raise StorageIoError("metadata block too large")
    dest_dir = os.path.dirname(os.path.abspath(dest_path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".udi-", dir=dest_dir)
    try:
        with os.fdopen(fd, "wb") as raw:
            w = _HashingWriter(raw)
            w.write(_HEAD.pack(MAGIC, VERSION, len(meta)) + meta + _COUNT.pack(count))
            written = 0
            path_len, fields = _PATH_LEN.pack, _ENTRY_FIELDS.pack
            for path, kind, mode, content_len, chunks in entries:
                written += 1
                pb = path.encode("utf-8")
                w.write(path_len(len(pb)) + pb + fields(_KIND_CODE[kind], mode, content_len))
                fed = 0
                for chunk in chunks:
                    if chunk:
                        w.write(chunk)
                        fed += len(chunk)
                if fed != content_len:
                    raise StorageIoError(
                        f"entry {path}: declared {content_len} bytes, got {fed}")
            if written != count:
                raise StorageIoError(f"declared {count} entries, got {written}")
            digest = w.sha.digest()
            raw.write(digest)
            size = w.written + TRAILER_LEN
        os.replace(tmp, dest_path)
        tmp = None
    except OSError as exc:
        raise StorageIoError(f"archive write failed: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return UdiDescriptor(path=dest_path, content_digest=digest.hex(), size_bytes=size,
                         created_at=created_at, source_ref=source_ref,
                         site_mods=site_mods)


def _tree_entry_stream(tree: FileTree) -> Iterator[tuple[str, str, int, int, Iterable[bytes]]]:
    for path, e in tree.items():
        if e.kind == KIND_FILE:
            yield path, e.kind, e.mode, len(e.content), (e.content,)
        elif e.kind == KIND_SYMLINK:
            tb = e.target.encode("utf-8")
            yield path, e.kind, e.mode, len(tb), (tb,)
        else:
            yield path, e.kind, e.mode, 0, ()


def write_udi(tree: FileTree, dest_path: str, source_ref: str, created_at: float,
              site_mods: Iterable[str] = ()) -> UdiDescriptor:
    return write_udi_stream(dest_path, created_at, source_ref, site_mods, len(tree),
                            _tree_entry_stream(tree))


class _Reader:
    """Forward-only window over an archive body.

    An image in memory (bytes, or a file small enough to take in one read)
    is a single window, hashed in one call by finish(). A larger file is
    read front to back in windows of at most _WINDOW bytes; when hashing,
    each window is fed to the hash as it arrives, so every body byte is
    read and hashed exactly once. Without hashing, content that runs past
    the window is skipped with a seek. No read crosses into the trailer.

    The parser keeps its cursor as a position in buf; buf[:limit] are body
    bytes, and a window move returns the cursor's new position.
    """

    __slots__ = ("fh", "hashing", "sha", "body_end", "buf", "base", "limit", "read_to")

    def __init__(self, fh, data, size: int, hashing: bool):
        self.fh = fh
        self.hashing = hashing
        self.body_end = size - TRAILER_LEN
        self.base = 0     # archive offset of buf[0]
        self.read_to = 0  # archive offset of the next file read
        self.buf = data if fh is None else b""
        self.sha = hashlib.sha256() if hashing and fh is not None else None
        self.limit = min(len(self.buf), self.body_end)

    def _read_window(self) -> bytes:
        n = min(_WINDOW, self.body_end - self.read_to)
        data = self.fh.read(n)
        if len(data) != n:
            raise UdiCorrupt("truncated", "short read")
        if self.sha is not None:
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
        """Move the cursor past n bytes of content."""
        target = self.base + pos + n
        if target > self.body_end:
            raise UdiCorrupt("truncated", what)
        if pos + n <= self.limit:  # always so for an image in memory
            return pos + n
        if self.sha is None:
            self.fh.seek(target)
            self.read_to = target
            self._move(b"", target)
            return 0
        while self.read_to < target:
            window = self._read_window()
        self._move(window, self.read_to - len(window))
        return target - self.base

    def finish(self) -> tuple[bytes, bytes | None]:
        """(stored trailer, body hash or None when not hashing), once the
        cursor stands at the end of the body."""
        if self.fh is None:
            stored = self.buf[self.body_end:]
            if not self.hashing:
                return stored, None
            return stored, hashlib.sha256(memoryview(self.buf)[:self.body_end]).digest()
        stored = self.fh.read(TRAILER_LEN)
        if len(stored) != TRAILER_LEN:
            raise UdiCorrupt("truncated", "trailer short read")
        return stored, self.sha.digest() if self.sha is not None else None


def _parse(r: _Reader, keep_content: bool) -> tuple[dict, list[tuple], list[bytes]]:
    """Header, metadata and file table, up to the trailer. Entries come back
    as UdiEntryInfo field tuples; contents holds each entry's content bytes
    when keep_content is set."""
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
        meta = json.loads(r.buf[pos:pos + meta_len].decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("metadata not an object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise UdiCorrupt("metadata", str(exc))
    pos = r.ensure(pos + meta_len, _COUNT.size, "count")
    (count,) = _COUNT.unpack_from(r.buf, pos)
    pos += _COUNT.size
    if count > _COUNT_LIMIT:
        raise UdiCorrupt("truncated", "entry count exceeds limit")

    entries: list[tuple] = []
    contents: list[bytes] = []
    path_len_of, fields_of = _PATH_LEN.unpack_from, _ENTRY_FIELDS.unpack_from
    fields = _ENTRY_FIELDS.size
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
            path = buf[pos + 2:fields_at].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UdiCorrupt("metadata", f"entry {i} path not utf-8: {exc}")
        kind_code, mode, content_len = fields_of(buf, fields_at)
        kind = _CODE_KIND.get(kind_code)
        if kind is None:
            raise UdiCorrupt("metadata", f"entry {i} unknown kind {kind_code}")
        pos = fields_at + fields
        content_off = r.base + pos
        end = pos + content_len
        if end > limit:
            if keep_content:
                pos = r.ensure(pos, content_len, f"entry {i} content")
                end = pos + content_len
            else:
                end = r.skip(pos, content_len, f"entry {i} content")
            buf, limit = r.buf, r.limit
        if keep_content:
            contents.append(buf[end - content_len:end])
        pos = end
        entries.append((path, kind, mode, content_len, content_off))
    undeclared = r.body_end - (r.base + pos)
    if undeclared:
        raise UdiCorrupt("truncated", f"{undeclared} undeclared bytes before trailer")
    return meta, entries, contents


def _walk(fh, data, size: int, path: str, hashing: bool,
          keep_content: bool) -> tuple[UdiDescriptor, list[tuple], list[bytes]]:
    if size < MIN_SIZE:
        raise UdiCorrupt("truncated", "shorter than fixed header")
    r = _Reader(fh, data, size, hashing)
    meta, entries, contents = _parse(r, keep_content)
    stored, computed = r.finish()
    if computed is not None and computed != stored:
        raise UdiCorrupt("checksum", "trailer does not match body hash")
    try:
        desc = UdiDescriptor(
            path=path, content_digest=stored.hex(), size_bytes=size,
            created_at=float(meta.get("created_at", 0.0)),
            source_ref=str(meta.get("source_ref", "")),
            site_mods=tuple(meta.get("site_mods", ())))
    except (TypeError, ValueError) as exc:
        raise UdiCorrupt("metadata", str(exc))
    return desc, entries, contents


def _open(source, hashing: bool,
          keep_content: bool = False) -> tuple[UdiDescriptor, list[tuple], list[bytes]]:
    if isinstance(source, (bytes, bytearray)):
        return _walk(None, source, len(source), "", hashing, keep_content)
    path = os.fspath(source)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > _WINDOW:
                return _walk(fh, None, size, path, hashing, keep_content)
            data = fh.read()
    except OSError as exc:
        raise StorageIoError(f"cannot read archive: {exc}") from exc
    return _walk(None, data, len(data), path, hashing, keep_content)


def open_udi(source: str | bytes) -> tuple[UdiDescriptor, list[UdiEntryInfo]]:
    """Read an archive (a path, or the image itself as bytes) in one forward
    pass: structure walk plus trailer hash over the whole body, in bounded
    memory. Returns the descriptor (path "" for bytes) and the file table.
    Raises UdiCorrupt with the reason, or StorageIoError if the file cannot
    be read."""
    desc, entries, _ = _open(source, hashing=True)
    return desc, [UdiEntryInfo(*e) for e in entries]


def verify_udi(source: str | bytes) -> UdiCheck:
    """Full integrity check of an archive (a path, or the image itself as
    bytes), as open_udi. Never raises; on success digest is the trailer
    hex."""
    try:
        desc, _, _ = _open(source, hashing=True)
    except UdiCorrupt as exc:
        return UdiCheck(False, exc.reason, str(exc))
    except StorageIoError as exc:
        return UdiCheck(False, "io", str(exc))
    return UdiCheck(True, digest=desc.content_digest)


def check_udi(path: str, expected: str) -> UdiCheck:
    """Hash every body byte of the archive at path with _Reader, front to
    back in reads of at most _WINDOW bytes, and require the hash to equal
    both the stored trailer and expected (trailer hex). Parses nothing: the
    structure was verified before expected was recorded. Returns the
    passing UdiCheck; raises UdiCorrupt with reason truncated, io, checksum
    or descriptor mismatch."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < MIN_SIZE:
                raise UdiCorrupt("truncated", "shorter than fixed header")
            r = _Reader(fh, None, size, True)
            r.skip(0, r.body_end, "body")
            stored, computed = r.finish()
    except OSError as exc:
        raise UdiCorrupt("io", str(exc)) from exc
    if computed != stored:
        raise UdiCorrupt("checksum", "trailer does not match body hash")
    if stored.hex() != expected:
        raise UdiCorrupt("descriptor mismatch")
    return UdiCheck(True, digest=expected)


def scan_udi(path: str) -> tuple[UdiDescriptor, list[UdiEntryInfo]]:
    """Metadata walk without content loads or hashing. Structural errors
    raise UdiCorrupt. Callers that need integrity must verify_udi first."""
    desc, entries, _ = _open(path, hashing=False)
    return desc, [UdiEntryInfo(*e) for e in entries]


def read_udi(path: str) -> tuple[FileTree, UdiDescriptor]:
    """Verify and load the whole tree into memory in one pass. Raises
    UdiCorrupt, with the reason and the path, if the archive does not
    verify or cannot be read."""
    try:
        desc, entries, contents = _open(path, hashing=True, keep_content=True)
    except UdiCorrupt as exc:
        raise UdiCorrupt(exc.reason, path) from exc
    except StorageIoError as exc:
        raise UdiCorrupt("io", path) from exc
    tree = FileTree()
    for (path, kind, mode, _, _), content in zip(entries, contents):
        if kind == KIND_FILE:
            tree.set_entry(path, TreeEntry(KIND_FILE, mode, content))
        elif kind == KIND_SYMLINK:
            tree.set_entry(path, TreeEntry(KIND_SYMLINK, mode, b"", content.decode("utf-8")))
        else:
            tree.set_entry(path, TreeEntry(KIND_DIR, mode))
    return tree, desc
