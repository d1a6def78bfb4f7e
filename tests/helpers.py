"""Shared test utilities: fixture trees, random layer stacks, a
real-filesystem materialization oracle for flatten, and synthetic
scaling curves for the regime classifier."""

from __future__ import annotations

import errno
import os
import posixpath
import shutil
import struct

from udigate.bench import BenchRow
from udigate.filetree import (
    DEFAULT_DIR_MODE,
    WHITEOUT_PREFIX,
    FileTree,
)
from udigate.store import RecordLog

NAME_POOL = ["a", "b", "c", "d", "e", "f"]
# names that sort before "." and "/", so a whiteout or marker can sort after
# an opaque marker below the same dir
EDGE_NAME_POOL = NAME_POOL + ["-d", ".d", " d"]
OPAQUE_MARKER = ".wh..wh..opq"  # OCI: hide the lower contents of this dir
FILE_MODES = [0o644, 0o600, 0o755, 0o640]
DIR_MODES = [0o755, 0o750, 0o700, 0o775]

# verdict lines collected by the acceptance suite; conftest echoes them in the
# terminal summary so they survive output capture
CRITERION_LINES: list[str] = []


def tiny_tree() -> FileTree:
    t = FileTree()
    t.add_dir("/bin")
    t.add_file("/bin/sh", b"#!/bin/sh\n", mode=0o755)
    t.add_file("/etc/os-release", b"ID=fixture\n")
    return t


def payload_tree(marker: bytes = b"payload") -> FileTree:
    t = FileTree()
    t.add_dir("/srv")
    t.add_file("/srv/data.bin", marker * 8)
    t.add_symlink("/srv/current", "data.bin")
    return t


KIND_CODES = {"file": 0, "dir": 1, "symlink": 2}


def entry_record(path: bytes, kind_code: int, mode: int, body: bytes = b"") -> bytes:
    """One entry of a layer blob packed by hand from the format description
    (u16 path length, path, u8 kind, u16 mode, u64 length, body), so a test
    can build blobs that the package's encoder never writes."""
    return (struct.pack("<H", len(path)) + path
            + struct.pack("<BHQ", kind_code, mode, len(body)) + body)


def layer_blob(*records: bytes) -> bytes:
    """A u32 count, then the records as given."""
    return struct.pack("<I", len(records)) + b"".join(records)


def reference_blob(tree: FileTree) -> bytes:
    """The blob written from the format description: entries in ascending
    order of their UTF-8 path bytes, a symlink's body its UTF-8 target."""
    records = []
    for path in sorted(tree.paths(), key=lambda p: p.encode("utf-8")):
        e = tree.get(path)
        body = e.target.encode("utf-8") if e.kind == "symlink" else e.content
        records.append(entry_record(path.encode("utf-8"), KIND_CODES[e.kind], e.mode, body))
    return layer_blob(*records)


def _safe_add(tree: FileTree, path: str, kind: str, rng) -> None:
    """Add one entry keeping the layer tree structurally valid: present
    ancestors must stay directories, and replacing a dir with a non-dir
    drops its subtree."""
    parent = posixpath.dirname(path)
    while parent and parent != "/":
        if parent in tree and tree.get(parent).kind != "dir":
            return  # would orphan entries under a file; skip
        parent = posixpath.dirname(parent)
    existing = tree.get(path)
    if existing is not None and existing.kind == "dir" and kind != "dir":
        tree.remove_subtree(path)
    if kind == "file":
        tree.add_file(path, bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12))),
                      mode=rng.choice(FILE_MODES))
    elif kind == "dir":
        tree.add_dir(path, mode=rng.choice(DIR_MODES))
    else:
        tree.add_symlink(path, rng.choice(NAME_POOL))


def random_layer(rng, max_entries: int = 8, names=NAME_POOL) -> FileTree:
    t = FileTree()
    for _ in range(rng.randrange(1, max_entries + 1)):
        depth = rng.randrange(1, 4)
        parts = [rng.choice(names) for _ in range(depth)]
        if rng.random() < 0.25:
            # the name "a" turns into an opaque marker, so the draws (and
            # every later stack from the same seed) stay as they were
            victim = rng.choice(names)
            parts[-1] = OPAQUE_MARKER if victim == "a" else WHITEOUT_PREFIX + victim
            path = "/" + "/".join(parts)
            parent = posixpath.dirname(path)
            ok = True
            while parent and parent != "/":
                if parent in t and t.get(parent).kind != "dir":
                    ok = False
                    break
                parent = posixpath.dirname(parent)
            if ok and (path not in t or t.get(path).kind != "dir"):
                t.add_file(path, b"")
            continue
        path = "/" + "/".join(parts)
        kind = rng.choice(("file", "file", "file", "dir", "dir", "symlink"))
        _safe_add(t, path, kind, rng)
    return t


def random_stack(rng, max_layers: int = 5, max_entries: int = 8,
                 names=NAME_POOL) -> list[FileTree]:
    return [random_layer(rng, max_entries, names) for _ in range(rng.randrange(1, max_layers + 1))]


# -- the on-disk oracle -------------------------------------------------------------
#
# flatten() is pure tree algebra; this oracle replays the same layer stack
# with real syscalls on a staging directory and reads the result back.  It
# never follows symlinks, mirroring lstat semantics.

def _rm(fs_path: str) -> None:
    if os.path.islink(fs_path) or os.path.isfile(fs_path):
        os.unlink(fs_path)
    elif os.path.isdir(fs_path):
        shutil.rmtree(fs_path)


def _ensure_parents(root: str, rel_parts: list[str]) -> None:
    cur = root
    for part in rel_parts:
        cur = os.path.join(cur, part)
        if os.path.isdir(cur) and not os.path.islink(cur):
            continue
        _rm(cur)
        os.mkdir(cur)
        os.chmod(cur, DEFAULT_DIR_MODE)


def materialize_stack(layers, root: str) -> None:
    for layer in layers:
        items = list(layer.items())
        for path, _e in items:
            base = posixpath.basename(path)
            if base == OPAQUE_MARKER:
                parts = path.lstrip("/").split("/")[:-1]
                _ensure_parents(root, parts)
                opaque_dir = os.path.join(root, *parts)
                for name in os.listdir(opaque_dir):
                    _rm(os.path.join(opaque_dir, name))
            elif base.startswith(WHITEOUT_PREFIX):
                victim = posixpath.join(posixpath.dirname(path),
                                        base[len(WHITEOUT_PREFIX):])
                _rm(os.path.join(root, victim.lstrip("/")))
        for path, e in items:
            if posixpath.basename(path).startswith(WHITEOUT_PREFIX):
                continue
            parts = path.lstrip("/").split("/")
            _ensure_parents(root, parts[:-1])
            fs = os.path.join(root, *parts)
            if e.kind == "dir":
                if os.path.isdir(fs) and not os.path.islink(fs):
                    os.chmod(fs, e.mode)  # keep children
                else:
                    _rm(fs)
                    os.mkdir(fs)
                    os.chmod(fs, e.mode)
            elif e.kind == "file":
                _rm(fs)
                with open(fs, "wb") as fh:
                    fh.write(e.content)
                os.chmod(fs, e.mode)
            else:
                _rm(fs)
                os.symlink(e.target, fs)


# -- synthetic scaling curves ---------------------------------------------------
#
# Exact piecewise power laws, continuous at the joins.  exponent_for maps a
# node count to the exponent of the edge LEAVING it, so a regime that "starts
# at 256" means the 256 -> 512 edge already carries the new slope.

SCALING_GRID = [2 ** k for k in range(0, 15)]  # 1 .. 16384


def synth_power_rows(counts, exponent_for) -> list[BenchRow]:
    rows = []
    coeff, prev_e, anchor = 0.001, None, 1.0
    for n in counts:
        e = exponent_for(n)
        if prev_e is not None and e != prev_e:
            coeff = coeff * anchor ** prev_e / anchor ** e
        prev_e = e
        anchor = n
        rows.append(BenchRow(nodes=n, ranks_per_node=1, image_mode="Directive",
                             image_size_bytes=1, startup_seconds=coeff * n ** e,
                             seed=0))
    return rows


def three_regime_rows() -> list[BenchRow]:
    """Sublinear up to 256 nodes, linear to 2048, superlinear beyond."""
    def exponent_for(n):
        if n <= 256:
            return 0.5
        if n <= 2048:
            return 1.0
        return 1.5
    return synth_power_rows(SCALING_GRID, exponent_for)


def within_one_grid_point(reported: int, true_bp: int, grid) -> bool:
    idx = grid.index(true_bp)
    neighborhood = grid[max(0, idx - 1): idx + 2]
    return reported in neighborhood


def read_back_tree(root: str) -> FileTree:
    tree = FileTree()

    def visit(fs_dir: str, virt: str) -> None:
        for entry in sorted(os.scandir(fs_dir), key=lambda d: d.name):
            vpath = posixpath.join(virt, entry.name)
            st = entry.stat(follow_symlinks=False)
            mode = st.st_mode & 0o7777
            if entry.is_symlink():
                tree.add_symlink(vpath, os.readlink(entry.path))
            elif entry.is_dir(follow_symlinks=False):
                tree.add_dir(vpath, mode=mode)
                visit(entry.path, vpath)
            else:
                with open(entry.path, "rb") as fh:
                    tree.add_file(vpath, fh.read(), mode=mode)

    visit(root, "/")
    return tree


def append_unusable_entries(state_dir: str, ready: dict, lost) -> None:
    """Append to a gateway's record log five frames whose crc matches but
    that replay cannot use. ``ready`` is the store dict of a READY record;
    the unknown-op frame carries it, renamed to the reference ``lost``, so
    a replay that took that frame for a put would serve ``lost``."""
    record = {**ready, "system": lost.system, "repository": lost.repository,
              "name": lost.name, "tag": lost.tag}
    log = RecordLog(os.path.join(state_dir, "records.log"))
    for entry in ({"op": "put", "key": "k", "record": {}},
                  {"op": "put", "key": "k"},
                  [1, 2],
                  {"op": "bogus", "key": lost.key(), "record": record},
                  {"op": "put", "key": lost.key(), "record": {**record, "state": "NOPE"}}):
        log.append(entry)
    log.close()


class FailingWrite:
    """A log file whose next write stores ``stored`` bytes of the frame and
    then raises ENOSPC, or, with ``short``, returns that count instead."""

    def __init__(self, fh, stored: int, short: bool = False):
        self.fh, self.stored, self.short = fh, stored, short
        self.failed = False

    def write(self, data):
        if self.failed:
            return self.fh.write(data)
        self.failed = True
        self.fh.write(data[:self.stored])
        if self.short:
            return self.stored
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)
