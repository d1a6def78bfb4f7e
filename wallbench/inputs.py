"""Seeded inputs for the wall-clock benchmark, and what they must turn into.

Every generator records what it created and what it whited out, so the
expected flattened tree and the expected record set after a gateway restart
are derived from that record alone: nothing here calls ``flatten`` or reads
the gateway's own output to decide what is correct.
"""
from __future__ import annotations

import json
import random
import struct
import zlib
from dataclasses import dataclass, field

from udigate.filetree import FileTree, default_site_config

# (kind, mode, payload): payload is file bytes, or the symlink target as bytes
Entry = tuple[str, int, bytes]

WHITEOUT = ".wh."
DIR_MODES = (0o755, 0o750, 0o775)
FILE_MODES = (0o644, 0o600, 0o755, 0o640)


@dataclass
class Image:
    """A layer stack plus the generator's own account of it."""
    layers: list[dict[str, Entry]] = field(default_factory=list)
    whiteouts: list[list[str]] = field(default_factory=list)  # targets, per layer
    removed: list[list[str]] = field(default_factory=list)    # every path each layer hides

    def add_layer(self) -> dict[str, Entry]:
        self.layers.append({})
        self.whiteouts.append([])
        self.removed.append([])
        return self.layers[-1]

    def trees(self) -> list[FileTree]:
        out = []
        for entries, targets in zip(self.layers, self.whiteouts):
            tree = FileTree()
            for path, (kind, mode, payload) in entries.items():
                if kind == "file":
                    tree.add_file(path, payload, mode=mode)
                elif kind == "dir":
                    tree.add_dir(path, mode=mode)
                else:
                    tree.add_symlink(path, payload.decode())
            for target in targets:
                parent, _, name = target.rpartition("/")
                tree.add_file(f"{parent}/{WHITEOUT}{name}")
            out.append(tree)
        return out

    def entry_count(self) -> int:
        return sum(len(layer) + len(w) for layer, w in zip(self.layers, self.whiteouts))


def _dir(layer: dict, path: str, rng: random.Random) -> None:
    layer[path] = ("dir", rng.choice(DIR_MODES), b"")


def wide_image(rng: random.Random, layers: int, files: int, file_size: int) -> Image:
    """Bytes-heavy: `layers` layers of `files` random files each, no whiteouts."""
    img = Image()
    for li in range(layers):
        layer = img.add_layer()
        if li == 0:
            _dir(layer, "/data", rng)
        _dir(layer, f"/data/l{li}", rng)
        for fi in range(files):
            d = f"/data/l{li}/d{fi // 100:02d}"
            if d not in layer:
                _dir(layer, d, rng)
            layer[f"{d}/f{fi:04d}.bin"] = ("file", rng.choice(FILE_MODES),
                                           rng.randbytes(file_size))
    return img


def whiteout_image(rng: random.Random, dirs: int, per_dir: int, dir_whiteouts: int,
                   file_whiteouts: int, replaced: int, added: int) -> Image:
    """Entry-heavy: a base of dirs x per_dir small files (and a symlink per
    dir), then one upper layer that whites out whole directories and single
    files, replaces some files and adds new ones. No opaque markers."""
    img = Image()
    base = img.add_layer()
    _dir(base, "/usr", rng)
    children: dict[str, list[str]] = {}
    for di in range(dirs):
        d = f"/usr/p{di:03d}"
        _dir(base, d, rng)
        kids = children[d] = []
        for fi in range(per_dir):
            path = f"{d}/f{fi:03d}"
            base[path] = ("file", rng.choice(FILE_MODES), rng.randbytes(rng.randrange(8, 65)))
            kids.append(path)
        link = f"{d}/current"
        base[link] = ("symlink", 0o777, f"f{rng.randrange(per_dir):03d}".encode())
        kids.append(link)

    upper = img.add_layer()
    hidden = img.removed[1]
    dir_names = sorted(children)
    gone_dirs = rng.sample(dir_names, dir_whiteouts)
    for d in gone_dirs:
        img.whiteouts[1].append(d)
        hidden.append(d)
        hidden.extend(children[d])
    kept = set(gone_dirs)
    files = [p for d in dir_names if d not in kept for p in children[d] if not p.endswith("/current")]
    picks = rng.sample(files, file_whiteouts + replaced)
    for path in picks[:file_whiteouts]:
        img.whiteouts[1].append(path)
        hidden.append(path)
    for path in picks[file_whiteouts:]:
        upper[path] = ("file", 0o644, rng.randbytes(32))
    _dir(upper, "/opt", rng)
    _dir(upper, "/opt/new", rng)
    for i in range(added):
        upper[f"/opt/new/n{i:04d}"] = ("file", rng.choice(FILE_MODES), rng.randbytes(24))
    return img


def job_image(rng: random.Random, libs: int) -> Image:
    """The small application image a job mounts on every node."""
    img = Image()
    layer = img.add_layer()
    for d in ("/opt", "/opt/app", "/opt/app/bin", "/opt/app/lib"):
        _dir(layer, d, rng)
    layer["/opt/app/bin/solver"] = ("file", 0o755, rng.randbytes(512))
    for i in range(libs):
        layer[f"/opt/app/lib/lib{i:02d}.so"] = ("file", 0o644, rng.randbytes(256))
    layer["/opt/app/lib/libsolver.so"] = ("symlink", 0o777, b"lib00.so")
    return img


# -- the expected archive contents ---------------------------------------------

def _ensure_dirs(tree: dict[str, Entry], path: str) -> None:
    parts = path.split("/")[1:-1]
    for i in range(1, len(parts) + 1):
        parent = "/" + "/".join(parts[:i])
        if parent not in tree:
            tree[parent] = ("dir", 0o755, b"")


def expected_tree(img: Image) -> dict[str, Entry]:
    """Flattened tree plus the stock site policy, from the generator's record.

    Layers carry explicit entries for every directory they need, and upper
    layers never change an entry's kind, so flattening reduces to: drop what
    each layer hides, then overlay what it adds.
    """
    tree: dict[str, Entry] = {}
    for entries, hidden in zip(img.layers, img.removed):
        for path in hidden:
            del tree[path]
        tree.update(entries)
    for mod in default_site_config().mods:
        if mod.op == "make_dir":
            _ensure_dirs(tree, mod.path)
            tree.setdefault(mod.path, ("dir", mod.mode, b""))
        elif mod.op == "inject_file":
            _ensure_dirs(tree, mod.path)
            tree[mod.path] = ("file", mod.mode, mod.content)
        elif mod.op == "append_env":
            _ensure_dirs(tree, "/etc/environment")
            kind, mode, body = tree.get("/etc/environment", ("file", 0o644, b""))
            tree["/etc/environment"] = (kind, mode, body + f"{mod.key}={mod.value}\n".encode())
        else:
            raise ValueError(f"stock site policy has an op this checker lacks: {mod.op}")
    return tree


# -- the gateway record log ------------------------------------------------------

TRANSIENT = ("ENQUEUED", "PULLING", "CONVERTING")

# how the history of each reference in a pre-written log ends, in shares of 20:
# chosen, not measured, so that replay sees every state and recovery fails
# some transients; mostly READY because the API loop asks for READY records
_FATES = ("READY",) * 13 + ("FAILED", "FAILED", "ENQUEUED", "PULLING", "CONVERTING",
                            "EXPIRED", "deleted")


def _frame(entry: dict) -> bytes:
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


@dataclass
class RecordLogPlan:
    """A record log written in the store's frame format, and the records a
    gateway must hold after replaying it and failing leftover transients."""
    data: bytes
    expected: dict[str, dict]  # key -> record fields after restart
    recovered: set[str]        # keys whose transient record the restart fails
    ready: list[str]           # canonical refs of READY records


def record_log(rng: random.Random, refs: int, t0: float = 1.7e9) -> RecordLogPlan:
    fates = [_FATES[i % len(_FATES)] for i in range(refs)]
    rng.shuffle(fates)
    out = bytearray()
    expected: dict[str, dict] = {}
    recovered = set()
    ready = []
    for i, fate in enumerate(fates):
        repo, name, tag = f"site{i % 7}", f"app{i:05d}", f"v{rng.randrange(1, 40)}"
        canonical = f"{repo}/{name}:{tag}"
        key = f"local|{canonical}"
        now = t0 + i * 3.0 + rng.random()
        rec = {"system": "local", "repository": repo, "name": name, "tag": tag,
               "state": "ENQUEUED", "content_digest": "", "udi_path": "",
               "size_bytes": 0, "created_at": now, "updated_at": now,
               "lease_expires_at": now + 60.0, "attempts": 1, "last_error": "",
               "lease_id": f"{rng.getrandbits(64):016x}"}
        steps = {"READY": 4, "EXPIRED": 5, "FAILED": 3, "deleted": 3,
                 "ENQUEUED": 1, "PULLING": 2, "CONVERTING": 3}[fate]
        for step in range(steps):
            rec["updated_at"] = now + step * 0.25
            if step == 1:
                rec["state"] = "PULLING"
            elif step == 2 and fate in ("FAILED", "deleted"):
                rec.update(state="FAILED", lease_id="", lease_expires_at=0.0,
                           last_error="RegistryIoError: registry unreachable")
            elif step == 2:
                rec.update(state="CONVERTING", content_digest=f"{rng.getrandbits(256):064x}")
            elif step == 3:
                rec.update(state="READY", lease_id="", lease_expires_at=0.0,
                           udi_path=f"udi/{name}-{tag}.udi",
                           size_bytes=rng.randrange(10**6, 10**9))
            elif step == 4:
                rec["state"] = "EXPIRED"
            out += _frame({"op": "put", "key": key, "record": dict(rec)})
        if fate == "deleted":
            out += _frame({"op": "delete", "key": key})
            continue
        if rec["state"] in TRANSIENT:
            rec.update(last_error=f"gateway restart during {rec['state']}", state="FAILED",
                       lease_id="", lease_expires_at=0.0)
            recovered.add(key)
        elif rec["state"] == "READY":
            ready.append(canonical)
        expected[key] = rec
    return RecordLogPlan(bytes(out), expected, recovered, ready)
