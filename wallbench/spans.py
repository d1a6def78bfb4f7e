"""Spans at the package's layer boundaries, recorded from outside it.

Callers inside the package import names directly (``gateway.py`` does
``from .filetree import flatten``), so each wrapper replaces the name the
caller looks up, not only the one in the defining module. Spans stay in
memory until the run ends. Every span belongs to the benchmark operation
in flight when it closed: the load comes from one client thread doing one
operation at a time, so server and worker threads only ever work for that
operation.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict

import udigate.authsvc
import udigate.cluster
import udigate.gateway
import udigate.httpd
import udigate.nodeagent
import udigate.registry
import udigate.service
import udigate.store
from udigate.clock import VirtualClock
from udigate.filetree import FileTree

clock = time.perf_counter


class Spans:
    def __init__(self):
        self.op = ("setup", 0)
        self.spans: list[tuple] = []  # (layer, op kind, op index, start, end, self seconds)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (name, op kind)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._enqueued: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(name, self.op[0])] += n

    def _wrap(self, owner, attr: str, layer: str, after=None) -> None:
        original = getattr(owner, attr)
        spans = self
        local = self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                kind, index = spans.op
                spans.spans.append((layer, kind, index, start, end, end - start - children))
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap_count(self, owner, attr: str, name: str, amount) -> None:
        original = getattr(owner, attr)
        spans = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            spans.count(name, amount(result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap_queue(self) -> None:
        """Queue wait: from the runtime accepting a task to Gateway.claim."""
        submit = udigate.service.GatewayRuntime.submit
        claim = udigate.gateway.Gateway.claim
        spans = self

        def on_submit(runtime, task):
            spans._enqueued[task.lease_id] = clock()
            return submit(runtime, task)

        def on_claim(gateway, task):
            entered = clock()
            start = spans._enqueued.pop(task.lease_id, entered)
            kind, index = spans.op
            spans.spans.append(("service.queue_wait", kind, index, start, entered, entered - start))
            return claim(gateway, task)

        udigate.service.GatewayRuntime.submit = on_submit
        udigate.gateway.Gateway.claim = on_claim
        self._undo.append((udigate.service.GatewayRuntime, "submit", submit))
        self._undo.append((udigate.gateway.Gateway, "claim", claim))

    def install(self) -> None:
        g, na, Gw = udigate.gateway, udigate.nodeagent, udigate.gateway.Gateway
        self._wrap(udigate.registry.HttpRegistryClient, "fetch_manifest", "registry.fetch_manifest")
        self._wrap(udigate.registry.HttpRegistryClient, "fetch_layer", "registry.fetch_layer",
                   after=lambda args, blob: self.count("registry.blob_bytes", len(blob)))
        self._wrap_queue()
        self._wrap(g, "tree_from_blob", "filetree.decode")
        self._wrap(g, "flatten", "filetree.flatten",
                   after=lambda args, tree: self.count("filetree.entries", len(tree)))
        self._wrap_count(FileTree, "remove_subtree", "filetree.remove_subtree", lambda _: 1)
        self._wrap(FileTree, "digest", "filetree.digest")
        self._wrap(g, "apply_site_mods", "filetree.site_mods")
        self._wrap(g, "write_udi", "udi.write")
        self._wrap(g, "verify_udi", "udi.verify")
        self._wrap(na, "verify_udi", "udi.verify")
        self._wrap(na, "scan_udi", "udi.scan")
        self._wrap(udigate.cluster, "scan_udi", "udi.scan")
        self._wrap(Gw, "complete", "gateway.complete")
        self._wrap(Gw, "lookup", "gateway.lookup")
        self._wrap(Gw, "pull", "gateway.pull")
        self._wrap(Gw, "recover_on_startup", "gateway.recover")
        self._wrap(udigate.store, "load_entries", "store.replay")
        self._wrap(udigate.store.RecordLog, "append", "store.append")
        self._wrap(udigate.httpd, "credential_from_wire", "authsvc.from_wire")
        self._wrap(udigate.authsvc.CredentialVerifier, "verify", "authsvc.verify")
        self._wrap(na.NodeAgent, "mount_udi", "nodeagent.mount")
        self._wrap(na.NodeAgent, "resolve_groups", "nodeagent.resolve")
        self._wrap_count(VirtualClock, "run_until_idle", "clock.events", lambda n: n)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def by_op(self, layer: str) -> dict[tuple[str, int], float]:
        """Total span duration of one layer per operation."""
        out: dict[tuple[str, int], float] = defaultdict(float)
        for name, kind, index, start, end, _self in self.spans:
            if name == layer:
                out[(kind, index)] += end - start
        return out

    def totals(self, kinds: tuple[str, ...]) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer over operations of the given kinds."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, kind, _index, _start, _end, self_s in self.spans:
            if kind in kinds:
                out[name][0] += 1
                out[name][1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\top\tindex\tstart_s\tend_s\tself_s\n")
            for name, kind, index, start, end, self_s in self.spans:
                fh.write(f"{name}\t{kind}\t{index}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\n")
