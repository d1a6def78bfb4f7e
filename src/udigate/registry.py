"""Registry stand-ins.

LocalRegistry is an in-process content store with one fault injection
hook, set_abort: the next transfer of a layer aborts partway through either
loudly (RegistryIoError) or silently (SilentAbort, which models the worker
process dying mid-stream and reporting nothing). HttpRegistryClient speaks
the same interface against the serving layout over HTTP. Neither checks a
blob's digest: the gateway checks each layer, load_from_dir each blob file,
which it also decodes, so a file in an older layer format is refused at load.

On-disk layout, one directory per image reference:

    <root>/<repository...>/<name:tag>/manifest.json
    <root>/<repository...>/<name:tag>/blobs/<digest>

manifest.json carries exactly: name, tag, layers (digest list, transfer
order, at least one, no repeats), total_size (declared transfer size, an
integer number of bytes from 0 to MAX_TOTAL_SIZE; fixture blobs stay tiny
while total_size models the real image scale).
"""
from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DigestMismatch, MalformedLayer, RegistryIoError, RegistryUnknownImage
from .filetree import FileTree, blob_digest, tree_from_blob, tree_to_blob


MAX_TOTAL_SIZE = 2 ** 40  # sets a pull's step count: 1,100 transfers with the default Config


class SilentAbort(Exception):
    """Transfer stops and nobody reports anything.

    Deliberately NOT a UdigateError: this is a fault-injection control signal
    that workers must not convert into a FAILED record, the whole point is
    that the record stays transient until the lease sweeper notices.
    """


@dataclass(frozen=True)
class Manifest:
    name: str
    tag: str
    layers: tuple[str, ...]
    total_size: int

    def __post_init__(self):
        # the one manifest gate: a document and LocalRegistry.add_image both build here
        if not self.layers:
            raise RegistryIoError("manifest with zero layers")
        if len(set(self.layers)) != len(self.layers):
            raise RegistryIoError("manifest with duplicate layers")
        size = self.total_size
        if isinstance(size, bool) or not isinstance(size, int) or not 0 <= size <= MAX_TOTAL_SIZE:
            raise RegistryIoError(f"total_size must be an int in 0..{MAX_TOTAL_SIZE}, got {size!r}")

    def canonical(self) -> str:
        return f"{self.name}:{self.tag}"

    def to_json_dict(self) -> dict:
        return {"name": self.name, "tag": self.tag,
                "layers": list(self.layers), "total_size": self.total_size}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Manifest":
        try:
            layers = tuple(str(d) for d in doc["layers"])
            return cls(name=str(doc["name"]), tag=str(doc["tag"]),
                       layers=layers, total_size=doc["total_size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryIoError(f"bad manifest document: {exc}") from exc


def fixture_layers() -> list[FileTree]:
    """The small three-layer image that the chaos scenarios, the startup
    benchmark and the CLI's demo registry serve. Their costs come from the
    declared total_size, not from these bytes."""
    base = FileTree()
    base.add_dir("/bin")
    base.add_file("/bin/sh", b"#!/bin/sh\n", mode=0o755)
    base.add_dir("/etc")
    base.add_file("/etc/os-release", b"ID=baseline\n")
    app = FileTree()
    app.add_dir("/opt")
    app.add_file("/opt/app", b"\x7fELF app payload", mode=0o755)
    cfg = FileTree()
    cfg.add_file("/etc/app.conf", b"threads=4\n")
    return [base, app, cfg]


class LocalRegistry:
    def __init__(self):
        self._images: dict[str, Manifest] = {}
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.manifest_fetches: Counter = Counter()
        self.layer_fetches: Counter = Counter()
        self._aborts: dict[str, tuple[float, str]] = {}  # digest -> (fraction, mode)

    # -- population ---------------------------------------------------------

    def add_image(self, name: str, tag: str, layers: Iterable[FileTree],
                  total_size: Optional[int] = None) -> Manifest:
        blobs = [tree_to_blob(t) for t in layers]
        declared = sum(len(b) for b in blobs) if total_size is None else total_size
        manifest = Manifest(name=name, tag=tag, layers=tuple(map(blob_digest, blobs)),
                            total_size=declared)
        with self._lock:
            self._blobs.update(zip(manifest.layers, blobs))
            self._images[manifest.canonical()] = manifest
        return manifest

    def images(self) -> list[str]:
        with self._lock:
            return sorted(self._images)

    # -- fault injection ------------------------------------------------------

    def set_abort(self, digest: str, fraction: float, mode: str = "error") -> None:
        """Abort the next transfer of a layer past ``fraction``, once."""
        if mode not in ("error", "silent"):
            raise ValueError(f"unknown abort mode {mode!r}")
        with self._lock:
            self._aborts[digest] = (fraction, mode)

    # -- fetch interface ------------------------------------------------------

    def fetch_manifest(self, canonical: str) -> Manifest:
        with self._lock:
            self.manifest_fetches[canonical] += 1
            m = self._images.get(canonical)
        if m is None:
            raise RegistryUnknownImage(f"no such image: {canonical}")
        return m

    def transfer_tick(self, digest: str, fraction: float) -> None:
        """Called by pull workers at chunk boundaries with the cumulative
        fraction transferred. Raises if an abort fault fires here."""
        with self._lock:
            abort = self._aborts.get(digest)
            if abort is None or fraction < abort[0]:
                return
            del self._aborts[digest]
            mode = abort[1]
        if mode == "error":
            raise RegistryIoError(f"stream aborted at {fraction:.0%} of layer {digest[:12]}")
        raise SilentAbort(digest)

    def fetch_layer(self, digest: str) -> bytes:
        with self._lock:
            self.layer_fetches[digest] += 1
            data = self._blobs.get(digest)
        if data is None:
            raise RegistryUnknownImage(f"no such blob: {digest[:12]}")
        return data

    # -- disk layout ----------------------------------------------------------

    def save_to_dir(self, root: str) -> None:
        for canonical in self.images():
            m = self._images[canonical]
            img_dir = os.path.join(root, canonical)
            blob_dir = os.path.join(img_dir, "blobs")
            os.makedirs(blob_dir, exist_ok=True)
            with open(os.path.join(img_dir, "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump(m.to_json_dict(), fh, sort_keys=True, indent=2)
                fh.write("\n")
            for d in m.layers:
                with open(os.path.join(blob_dir, d), "wb") as fh:
                    fh.write(self._blobs[d])

    @classmethod
    def load_from_dir(cls, root: str) -> "LocalRegistry":
        reg = cls()
        if not os.path.isdir(root):
            raise RegistryIoError(f"no such registry root: {root}")
        for dirpath, _dirnames, filenames in os.walk(root):
            if "manifest.json" not in filenames:
                continue
            with open(os.path.join(dirpath, "manifest.json"), "r", encoding="utf-8") as fh:
                manifest = Manifest.from_json_dict(json.load(fh))
            with reg._lock:
                reg._images[manifest.canonical()] = manifest
                for d in manifest.layers:
                    blob_path = os.path.join(dirpath, "blobs", d)
                    try:
                        with open(blob_path, "rb") as bf:
                            data = bf.read()
                    except OSError as exc:
                        raise RegistryIoError(f"missing blob file for {d[:12]}: {exc}") from exc
                    if blob_digest(data) != d:
                        raise DigestMismatch(f"blob file {d[:12]} corrupted on disk")
                    try:
                        tree_from_blob(data)
                    except MalformedLayer as exc:
                        raise MalformedLayer(f"blob file {blob_path}: {exc}") from exc
                    reg._blobs[d] = data
        return reg


class HttpRegistryClient:
    """Same fetch interface as LocalRegistry, over the serving endpoints."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> bytes:
        url = f"{self.base_url}{path}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()  # its unread response holds the connection open
            if exc.code == 404:
                raise RegistryUnknownImage(f"registry returned 404 for {path}") from exc
            raise RegistryIoError(f"registry returned {exc.code} for {path}") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise RegistryIoError(f"registry unreachable: {exc}") from exc

    def fetch_manifest(self, canonical: str) -> Manifest:
        quoted = urllib.parse.quote(canonical, safe=":/")
        body = self._get(f"/registry/{quoted}/manifest.json")
        try:
            doc = json.loads(body)
        except ValueError as exc:  # a proxy's HTML error page, say
            raise RegistryIoError(f"manifest is not JSON: {exc}") from exc
        return Manifest.from_json_dict(doc)

    def transfer_tick(self, digest: str, fraction: float) -> None:
        pass  # no fault injection over the wire

    def fetch_layer(self, digest: str) -> bytes:
        # the layout nests blobs under each image dir; the serving side
        # resolves digests globally so the client asks by digest alone
        return self._get(f"/registry/blobs/{urllib.parse.quote(digest)}")
