"""In-memory file trees, layer blobs, flattening, and site modification.

A tree maps absolute normalized paths to entries (file, dir, or symlink).
Registry layers are blobs of such trees in an archive's entry-record format;
flattening applies layers bottom-to-top with docker-style whiteout
semantics, producing the single tree that later becomes the archive payload.

Flatten rules, chosen to match what sequentially extracting each layer onto a
real filesystem does (the property tests check exactly that):

  * an entry named ``.wh.<name>`` removes ``<name>`` and its subtree from the
    result before the rest of its layer applies, and is not itself kept
  * an opaque marker ``<dir>/.wh..wh..opq`` (OCI image-layer spec) removes
    everything below ``<dir>`` that came from lower layers; ``<dir>`` itself
    is kept or created as a dir, as for any entry's parents, a marker at
    ``/`` clears the whole lower tree, and the marker is not itself kept.
    Whiteouts and markers apply in path order, so one that sorts after a
    marker also removes the dirs that marker made
  * a dir entry over an existing dir updates the mode and keeps children
  * any other kind change (file over dir, dir over file, symlink over
    anything) removes the old subtree first
  * missing parents are created as dirs (mode 0o755); a parent that exists
    as a non-dir is replaced by a dir

A tree is a plain dict from path to the entry's record, its (header, body)
in the table format of blobs and archives; ordered reads sort it. A record
from a blob keeps slices of it, a large body as a memoryview; ``set_entry``
encodes its entry once, ``get`` and ``items`` decode, and flatten and the
encoder ``table_chunks`` only move and join records. ``apply_layer``
gathers what its layer removes: whiteout victims, and dirs whose contents
go (an opaque marker's, or one that a non-dir replaces). One pass over the
result drops each victim and each path with a gathered ancestor, so a
layer's removals cost O(entries x depth) whatever it holds.

Paths and entries are checked at two gates, once each, by what
``normalize_path`` and ``_check_entry`` accept: ``tree_from_blob`` for
registry bytes, and ``FileTree.set_entry`` for everything else. Records
built through a gate are trusted from then on by flatten and the encoder.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import EmptyLayerList, MalformedLayer, ModConflict

KIND_FILE = "file"
KIND_DIR = "dir"
KIND_SYMLINK = "symlink"
_KINDS = (KIND_FILE, KIND_DIR, KIND_SYMLINK)

WHITEOUT_PREFIX = ".wh."
OPAQUE_WHITEOUT = ".wh..wh..opq"

DEFAULT_DIR_MODE = 0o755
DEFAULT_FILE_MODE = 0o644
SYMLINK_MODE = 0o777  # lstat reports 0o777 for links on linux; fixed for determinism

MAX_PATH_LEN = 4096


class TreeEntry(NamedTuple):
    kind: str
    mode: int = DEFAULT_FILE_MODE
    content: bytes = b""
    target: str = ""


def normalize_path(path: str) -> str:
    """Return path unchanged if it is absolute and normal (no empty, "." or
    ".." segment, at most MAX_PATH_LEN bytes of UTF-8); raise MalformedLayer
    otherwise."""
    if not isinstance(path, str) or not path:
        raise MalformedLayer("empty path")
    if path[0] != "/":
        raise MalformedLayer(f"path not absolute: {path!r}")
    segs = path[1:].split("/")
    if "" in segs or "." in segs or ".." in segs:
        raise MalformedLayer(f"bad path segment in {path!r}")
    # an ASCII path is as many bytes as characters; others are measured
    if len(path) > MAX_PATH_LEN or not path.isascii():
        try:
            size = len(path.encode("utf-8"))
        except UnicodeEncodeError:
            raise MalformedLayer(f"path not valid UTF-8: {path!r}") from None
        if size > MAX_PATH_LEN:
            raise MalformedLayer(f"path too long: {path[:80]!r}...")
    return path


def _check_entry(path: str, entry: TreeEntry) -> TreeEntry:
    kind, mode, content, target = entry
    if kind not in _KINDS:
        raise MalformedLayer(f"unknown kind {kind!r} at {path}")
    if type(mode) is not int or not 0 <= mode <= 0o7777:
        raise MalformedLayer(f"mode not an integer in 0..0o7777 at {path}: {mode!r}")
    if not isinstance(target, str):
        raise MalformedLayer(f"symlink target not a string at {path}: {target!r}")
    if kind == KIND_SYMLINK:
        if not target:
            raise MalformedLayer(f"symlink without target at {path}")
        if content:
            raise MalformedLayer(f"symlink with content at {path}")
        try:
            target.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLayer(f"symlink target not valid UTF-8 at {path}") from None
        if mode != SYMLINK_MODE:
            entry = TreeEntry(KIND_SYMLINK, SYMLINK_MODE, b"", target)
    else:
        if target:
            raise MalformedLayer(f"{kind} with symlink target at {path}")
        if kind == KIND_DIR and content:
            raise MalformedLayer(f"dir with content at {path}")
    return entry


_DEFAULT_DIR = TreeEntry(KIND_DIR, DEFAULT_DIR_MODE)


class FileTree:
    """Mutable mapping of normalized absolute paths to entry records."""

    def __init__(self, entries: Optional[dict[str, TreeEntry]] = None):
        self._entries: dict[str, tuple] = {}
        if entries:
            for p, e in entries.items():
                self.set_entry(p, e)

    def set_entry(self, path: str, entry: TreeEntry) -> None:
        """Validating insert, the gate for entries that do not come from a
        layer blob."""
        path = normalize_path(path)
        self._entries[path] = _record(path, _check_entry(path, entry))

    def add_file(self, path: str, content: bytes = b"", mode: int = DEFAULT_FILE_MODE) -> None:
        self.set_entry(path, TreeEntry(KIND_FILE, mode, content))

    def add_dir(self, path: str, mode: int = DEFAULT_DIR_MODE) -> None:
        self.set_entry(path, TreeEntry(KIND_DIR, mode))

    def add_symlink(self, path: str, target: str) -> None:
        self.set_entry(path, TreeEntry(KIND_SYMLINK, SYMLINK_MODE, b"", target))

    def get(self, path: str) -> Optional[TreeEntry]:
        return _entry(self._entries[path]) if path in self._entries else None

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, FileTree) and self._entries == other._entries

    def items(self) -> Iterator[tuple[str, TreeEntry]]:
        entries = self._entries
        for p in sorted(entries):
            yield p, _entry(entries[p])

    def copy(self) -> "FileTree":
        t = FileTree()
        t._entries = dict(self._entries)
        return t

    def remove_subtree(self, path: str) -> int:
        """Drop path and everything under it, by a scan. Returns entries removed."""
        path = normalize_path(path)
        below = path + "/"
        doomed = [p for p in self._entries if p == path or p.startswith(below)]
        for p in doomed:
            del self._entries[p]
        return len(doomed)

    # no production caller; kept only because wallbench/spans.py wraps it by name
    def digest(self) -> str:
        sha = hashlib.sha256()
        for chunk in table_chunks(self):
            sha.update(chunk)
        return sha.hexdigest()


# --- layer blob codec ---------------------------------------------------------

# A layer blob is an archive's file table, as udi.py lays it out: records
# in strictly ascending path order, no byte after the last one.
KIND_CODES = {KIND_FILE: 0, KIND_DIR: 1, KIND_SYMLINK: 2}
CODE_KINDS = {v: k for k, v in KIND_CODES.items()}
ENTRY_COUNT = struct.Struct("<I")
PATH_LEN = struct.Struct("<H")
ENTRY_FIELDS = struct.Struct("<BHQ")  # kind code, mode, content length (after the path)
_KIND_AT, _DIR_CODE = -ENTRY_FIELDS.size, KIND_CODES[KIND_DIR]  # a header's kind byte
_VIEW_MIN = 128  # a shorter body is copied: bytes of under ~150 are smaller than a view
_CHUNK_ENTRIES = 16  # records joined into one chunk of table_chunks


def _record(path: str, entry: TreeEntry) -> tuple[bytes, bytes]:
    """Encode a checked entry at a normalized path."""
    kind, mode, body, target = entry
    if kind == KIND_SYMLINK:
        body = target.encode("utf-8")
    elif type(body) is not bytes:  # a record's body must not change
        body = bytes(memoryview(body))
    pb = path.encode("utf-8")
    return PATH_LEN.pack(len(pb)) + pb + ENTRY_FIELDS.pack(KIND_CODES[kind], mode, len(body)), body


def _entry(record: tuple) -> TreeEntry:
    code, mode, _ = ENTRY_FIELDS.unpack_from(record[0], len(record[0]) + _KIND_AT)
    if code == KIND_CODES[KIND_SYMLINK]:
        return TreeEntry(KIND_SYMLINK, mode, b"", str(record[1], "utf-8"))
    return TreeEntry(CODE_KINDS[code], mode, bytes(record[1]))


def _is_dir(record: Optional[tuple]) -> bool:
    return record is not None and record[0][_KIND_AT] == _DIR_CODE


def table_chunks(tree: FileTree) -> Iterator[bytes]:
    """The one encoder of an entry table, a layer blob's bytes and an
    archive's file table: the entry count, then the records in path order,
    _CHUNK_ENTRIES of them joined per chunk."""
    records = list(map(tree._entries.__getitem__, sorted(tree._entries)))
    yield ENTRY_COUNT.pack(len(records))
    for i in range(0, len(records), _CHUNK_ENTRIES):
        yield b"".join(chain.from_iterable(records[i:i + _CHUNK_ENTRIES]))


def tree_to_blob(tree: FileTree) -> bytes:
    """The bytes of table_chunks in one join. Same tree always gives
    identical bytes, which is what makes content digests meaningful."""
    records = list(map(tree._entries.__getitem__, sorted(tree._entries)))
    return b"".join([ENTRY_COUNT.pack(len(records)), *chain.from_iterable(records)])


def _gated_entries(raw: list[bytes], records: list[tuple]) -> dict:
    """Records keyed by their raw paths if each passes normalize_path and they
    strictly ascend, else raise MalformedLayer. One pass over the joined paths
    decides unless a path holds "\n"; else each path is checked in turn."""
    try:
        text = b"\n".join(raw).decode("utf-8")
    except UnicodeDecodeError:
        text = ""  # fails the check below
    paths = text.split("\n")
    if (len(paths) == len(raw)  # no path holds a "\n", so paths[i] is raw[i]
            and text[:1] == "/" and text.count("\n/") == len(raw) - 1
            and not text.endswith(("/", "/.", "/.."))
            and not any(map(text.__contains__, ("//", "/./", "/../", "/\n", "/.\n", "/..\n")))
            and max(map(len, raw)) <= MAX_PATH_LEN
            and paths == sorted(paths)
            and len(entries := dict(zip(paths, records))) == len(raw)):  # no path repeats
        return entries
    paths = [b.decode("utf-8", "surrogateescape") for b in raw]
    for last, path in zip(["", *paths], paths):
        normalize_path(path)
        if path <= last:
            raise MalformedLayer(f"path out of order or repeated: {path!r} after {last!r}")
    return dict(zip(paths, records))


def tree_from_blob(data: bytes) -> FileTree:
    """Decode a layer blob, the gate for registry bytes. Raises MalformedLayer
    and nothing else: for truncation, trailing bytes, an unknown kind code,
    paths out of order or repeated, and all that normalize_path and
    _check_entry refuse, such as non-UTF-8 bytes, decoded as lone surrogates.
    Records keep slices of data, so data other than bytes is copied first."""
    data = bytes(data)  # the same object if it is bytes
    view, size = memoryview(data), len(data)
    raw, records, i, pos = [], [], 0, ENTRY_COUNT.size
    add_path, add_record = raw.append, records.append
    path_len_of, fields_of, fields = PATH_LEN.unpack_from, ENTRY_FIELDS.unpack_from, ENTRY_FIELDS.size
    try:
        (count,) = ENTRY_COUNT.unpack_from(data)
        for i in range(count):
            (n,) = path_len_of(data, pos)
            at = pos + 2 + n
            code, mode, length = fields_of(data, at)
            body_at = at + fields
            end = body_at + length
            if end > size:
                raise MalformedLayer(f"truncated layer blob: content of entry {i}")
            add_path(data[pos + 2:at])
            if code and (code != _DIR_CODE or length) or mode > 0o7777:
                path = raw[-1].decode("utf-8", "surrogateescape")
                body = data[body_at:end]
                entry = (TreeEntry(KIND_SYMLINK, mode, b"", body.decode("utf-8", "surrogateescape"))
                         if code == KIND_CODES[KIND_SYMLINK]
                         else TreeEntry(CODE_KINDS.get(code, code), mode, body))
                add_record(_record(normalize_path(path), _check_entry(path, entry)))
            else:
                add_record((data[pos:body_at],
                            data[body_at:end] if length < _VIEW_MIN else view[body_at:end]))
            pos = end
    except struct.error:
        raise MalformedLayer(f"truncated layer blob: header of entry {i}") from None
    if pos != size:
        raise MalformedLayer(f"{size - pos} bytes after the last entry of a layer blob")
    tree = FileTree()
    tree._entries = _gated_entries(raw, records)
    return tree


def blob_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- flatten -----------------------------------------------------------------

def _ensure_parent_dirs(result: FileTree, path: str) -> None:
    """Make every proper ancestor of a normalized path a dir, top down: a
    missing one is created, a non-dir one (with nothing below) overwritten."""
    entries = result._entries
    end = path.find("/", 1)
    while end != -1:
        parent = path[:end]
        if not _is_dir(entries.get(parent)):
            entries[parent] = _record(parent, _DEFAULT_DIR)
        end = path.find("/", end + 1)


def _standing_dirs(marker: str, pos: int, gone: dict, emptied: dict, layer: dict) -> Iterator[str]:
    """The dirs from the top down to an opaque marker's dir that the marker,
    at position pos in its layer, leaves standing. A whiteout that sorts
    after it removes a dir and all below it; a marker that sorts after it,
    or a non-dir in the layer, removes all below a dir."""
    if emptied.get("", -1) > pos:
        return
    end = marker.find("/", 1)
    while end != -1:
        d = marker[:end]
        if gone.get(d, -1) > pos:
            return
        yield d
        record = layer.get(d)
        if emptied.get(d, -1) > pos or record is not None and not _is_dir(record):
            return
        end = marker.find("/", end + 1)


def _drop_covered(entries: dict, gone: dict, emptied: dict) -> None:
    """A layer's one removal pass: drop every path below a whiteout victim
    or an emptied dir, then the victims. A path's parent and its ancestors
    are looked up once per run of paths that share the parent."""
    covers = gone.keys() | emptied.keys()
    doomed = []
    parent, hit = None, False
    for path in entries:
        up = path.rpartition("/")[0]
        if up != parent:
            parent, hit, end = up, False, len(up)
            while end > 0 and not hit:
                hit = up[:end] in covers
                end = up.rfind("/", 0, end)
        if hit:
            doomed.append(path)
    for path in doomed:
        del entries[path]
    for victim in gone:
        entries.pop(victim, None)


def apply_layer(result: FileTree, layer: FileTree) -> None:
    """Apply one gated layer: gather what it removes, drop all of that in one
    pass, then make its markers' dirs, insert its other records in one
    update and make their distinct parents dirs. A parent sorts before its
    children, so making it after the update, not before each insert, gives
    the same tree."""
    entries, above = result._entries, layer._entries
    paths = sorted(above)
    gone: dict[str, int] = {}  # whiteout victim -> the whiteout's position in the layer
    emptied: dict[str, int] = {}  # dir whose lower contents go ("" for /) -> position
    markers, hidden = [], set()  # hidden: the whiteouts and markers, which are not kept
    for pos, path in enumerate(paths):
        if "/" + WHITEOUT_PREFIX not in path:  # cheaper than a split of every path
            continue
        parent, _, name = path.rpartition("/")
        if not name.startswith(WHITEOUT_PREFIX):
            continue
        hidden.add(path)
        if name == OPAQUE_WHITEOUT:
            emptied[parent] = pos
            markers.append((path, pos))
        else:  # normalizing rejects an empty, "." or ".." victim
            gone[normalize_path(f"{parent}/{name[len(WHITEOUT_PREFIX):]}")] = pos
    standing = [d for marker, pos in markers
                for d in _standing_dirs(marker, pos, gone, emptied, above)]
    for path in entries.keys() & above.keys():  # a non-dir over a lower dir empties it
        if _is_dir(entries[path]) and not _is_dir(above[path]) and path not in hidden:
            emptied[path] = len(above)  # after every marker
    if "" in emptied:
        entries.clear()
    elif gone or emptied:
        _drop_covered(entries, gone, emptied)
    for d in standing:
        if not _is_dir(entries.get(d)):
            entries[d] = _record(d, _DEFAULT_DIR)
    plain = {path: above[path] for path in paths if path not in hidden} if hidden else above
    entries.update(plain)  # dir over dir refreshes the mode, children survive
    for parent in dict.fromkeys(path.rpartition("/")[0] for path in plain):
        _ensure_parent_dirs(result, parent + "/")


def flatten(layers: Iterable[FileTree]) -> FileTree:
    layers = list(layers)
    if not layers:
        raise EmptyLayerList("cannot flatten zero layers")
    result = FileTree()
    for layer in layers:
        apply_layer(result, layer)
    return result


# --- site modification --------------------------------------------------------

ENV_FILE = "/etc/environment"


@dataclass(frozen=True)
class SiteMod:
    op: str  # inject_file | make_dir | remove_path | append_env
    path: str = ""
    content: bytes = b""
    mode: int = DEFAULT_FILE_MODE
    key: str = ""
    value: str = ""

    def summary(self) -> str:
        if self.op == "append_env":
            return f"append_env:{self.key}"
        return f"{self.op}:{self.path}"


@dataclass(frozen=True)
class SiteConfig:
    mods: tuple[SiteMod, ...] = ()
    cleanup_commands: tuple[str, ...] = ()


def apply_site_mods(tree: FileTree, site: SiteConfig) -> FileTree:
    """Return a new tree with site modifications applied in order.

    Conflicts (injecting a file where a dir sits, or mkdir over a file) raise
    ModConflict rather than guessing, a broken site config must not produce a
    silently wrong image.
    """
    out = tree.copy()
    for mod in site.mods:
        if mod.op == "inject_file":
            path = normalize_path(mod.path)
            existing = out.get(path)
            if existing is not None and existing.kind == KIND_DIR:
                raise ModConflict(f"inject_file over dir: {path}")
            _ensure_parent_dirs(out, path)
            out.set_entry(path, TreeEntry(KIND_FILE, mod.mode, mod.content))
        elif mod.op == "make_dir":
            path = normalize_path(mod.path)
            existing = out.get(path)
            if existing is not None and existing.kind != KIND_DIR:
                raise ModConflict(f"make_dir over {existing.kind}: {path}")
            _ensure_parent_dirs(out, path)
            if existing is None:
                out.set_entry(path, TreeEntry(KIND_DIR, mod.mode if mod.mode else DEFAULT_DIR_MODE))
        elif mod.op == "remove_path":
            out.remove_subtree(normalize_path(mod.path))
        elif mod.op == "append_env":
            if not mod.key:
                raise ModConflict("append_env without key")
            existing = out.get(ENV_FILE)
            if existing is not None and existing.kind != KIND_FILE:
                raise ModConflict(f"append_env target is a {existing.kind}")
            _ensure_parent_dirs(out, ENV_FILE)
            body = existing.content if existing is not None else b""
            line = f"{mod.key}={mod.value}\n".encode("utf-8")
            mode = existing.mode if existing is not None else DEFAULT_FILE_MODE
            out.set_entry(ENV_FILE, TreeEntry(KIND_FILE, mode, body + line))
        else:
            raise ModConflict(f"unknown site op {mod.op!r}")
    return out


def default_site_config() -> SiteConfig:
    """The stock site policy: resolver and environment glue plus a scratch
    mount point, roughly what a site prepares before images go live."""
    return SiteConfig(
        mods=(
            SiteMod("make_dir", path="/etc", mode=DEFAULT_DIR_MODE),
            SiteMod("inject_file", path="/etc/nsswitch.conf",
                    content=b"passwd: files\ngroup: files\nhosts: files dns\n"),
            SiteMod("make_dir", path="/scratch", mode=0o777),
            SiteMod("append_env", key="UDI_SITE", value="1"),
        ),
        cleanup_commands=("cleanup_scratch", "drop_node_cache"),
    )
