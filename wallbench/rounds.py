"""The benchmark's rounds: the path one user's image takes through udigate.

A round restarts the gateway over a record log, pulls an image cold over
loopback HTTP (registry server -> gateway server -> GatewayRuntime workers
-> READY), sends API requests on one keep-alive connection, and runs a
simulated Directive job that mounts a pre-pulled image on every node. The
two workloads are two shapes of that round, and every run repeats whole
rounds, so each end-to-end metric is measured on both workloads.
"""
from __future__ import annotations

import gc
import hashlib
import heapq
import http.client
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass

from inputs import (Image, RecordLogPlan, expected_tree, job_image, record_log,
                    whiteout_image, wide_image)
from udiread import ArchiveError, read_archive

from udigate.authsvc import (WIRE_HEADER, CredentialVerifier, credential_to_wire,
                             issue_credential)
from udigate.clock import SystemClock
from udigate.cluster import MODE_DIRECTIVE, UDI_GRES, ClusterSim, JobCommand, JobSpec
from udigate.config import Config
from udigate.gateway import Gateway
from udigate.httpd import make_gateway_server, make_registry_server
from udigate.refs import parse_reference
from udigate.registry import HttpRegistryClient, LocalRegistry
from udigate.service import GatewayRuntime

clock = time.perf_counter
SYSTEM = "local"
JOB_REF = "bench/app:job"
RESTARTS = 3    # gateway restarts per round, each on a fresh copy of the log
# one authenticated POST /api/pull in every PULL_SHARE API requests: a chosen
# mix, not a measured one; the paper gives no request mix for the gateway API
PULL_SHARE = 4


@dataclass(frozen=True)
class Shape:
    image: str      # which image each round pulls cold: wide | whiteout
    nodes: int      # nodes of the round's simulated job
    log_refs: int   # references in the pre-written record log
    requests: int   # API requests per round on the keep-alive connection


SHAPES = {
    "full": {
        "pull-wide": Shape("wide", nodes=4096, log_refs=500, requests=16),
        "pull-whiteout": Shape("whiteout", nodes=256, log_refs=2000, requests=32),
    },
    "tiny": {
        "pull-wide": Shape("wide", nodes=64, log_refs=20, requests=4),
        "pull-whiteout": Shape("whiteout", nodes=8, log_refs=50, requests=8),
    },
}

IMAGES = {
    "full": {
        "wide": dict(layers=3, files=1000, file_size=4096),
        "whiteout": dict(dirs=200, per_dir=100, dir_whiteouts=50, file_whiteouts=950,
                         replaced=50, added=200),
        "app": dict(libs=12),
    },
    "tiny": {
        "wide": dict(layers=3, files=20, file_size=256),
        "whiteout": dict(dirs=20, per_dir=20, dir_whiteouts=2, file_whiteouts=20,
                         replaced=4, added=10),
        "app": dict(libs=12),
    },
}

_MAKERS = {"wide": wide_image, "whiteout": whiteout_image}


def stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _serve(server) -> threading.Thread:
    # a short poll interval so that shutdown() between rounds returns quickly
    t = threading.Thread(target=server.serve_forever, args=(0.02,), name="wallbench-http",
                         daemon=True)
    t.start()
    return t


class Setup:
    """Inputs built, the registry server up, the job image pre-pulled."""

    def __init__(self, seed: int, shape: Shape, size: str, work: str):
        self.seed = seed
        self.shape = shape
        self.work = work
        self.config = Config()
        sizes = IMAGES[size]
        os.makedirs(work)

        self.image: Image = _MAKERS[shape.image](stream(seed, "image"), **sizes[shape.image])
        self.expected = expected_tree(self.image)
        self.canonical = {tag: f"bench/{shape.image}:{tag}" for tag in ("a", "b")}
        registry = LocalRegistry()
        trees = self.image.trees()
        for tag in self.canonical:
            registry.add_image(f"bench/{shape.image}", tag, trees)
        self.registry_server = make_registry_server(registry)
        self._registry_thread = _serve(self.registry_server)
        self.registry_url = "http://%s:%d" % self.registry_server.server_address[:2]

        self.log: RecordLogPlan = record_log(stream(seed, "log"), shape.log_refs)
        self.log_path = os.path.join(work, "records.log")
        with open(self.log_path, "wb") as fh:
            fh.write(self.log.data)

        app = job_image(stream(seed, "app"), **sizes["app"])
        self.app_entries = app.entry_count()
        self.job_registry = LocalRegistry()
        self.job_registry.add_image("bench/app", "job", app.trees())
        self.job_state = os.path.join(work, "jobstate")
        sim = ClusterSim(self.config, seed=seed, n_nodes=1, registry=self.job_registry,
                         state_dir=self.job_state)
        try:
            ref = parse_reference(JOB_REF)
            sim.gateway.pull(ref, sim.make_credential())
            sim.run()
            state = sim.gateway.lookup(ref).state.value
        finally:
            sim.cleanup()
        if state != "READY":
            raise RuntimeError(f"pre-pull of {JOB_REF} ended {state}")

    def close(self) -> None:
        self.registry_server.shutdown()
        self.registry_server.server_close()
        self._registry_thread.join()
        shutil.rmtree(self.work, ignore_errors=True)


# -- the job's virtual startup, recomputed from the cost model ---------------------

def _derived(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def expected_startup(config: Config, seed: int, nodes: int) -> float:
    """Every node mounts at t=0: its mount costs the base latency plus one
    exponential draw from the stream seeded by (seed, node id), and its group
    lookup queues FIFO behind a directory capped at identity_cap concurrent
    lookups of identity_latency_mean each. Startup is the slowest node."""
    busy: list[float] = []
    worst = 0.0
    for node in range(nodes):
        mount = config.mount_base_latency
        if config.mount_jitter_mean > 0:
            mount += _derived(seed, f"node:{node}").expovariate(1.0 / config.mount_jitter_mean)
        admit = 0.0 if len(busy) < config.identity_cap else heapq.heappop(busy)
        done = admit + config.identity_latency_mean
        heapq.heappush(busy, done)
        worst = max(worst, mount + done)
    return worst


# -- the rounds -------------------------------------------------------------------

class Bench:
    def __init__(self, setup: Setup, spans=None):
        self.s = setup
        self.spans = spans
        self.mix = stream(setup.seed, "mix")
        self.samples: dict[str, list[float]] = {
            "restart": [], "pull": [], "lookup": [], "pull_ready": [], "job": []}
        self.api_seconds = 0.0
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {"a": set(), "b": set()}
        self.request_latency: dict[int, float] = {}
        self.job_extras: list[dict] = []
        self._requests = 0

    def _op(self, kind: str, index: int) -> None:
        if self.spans is not None:
            self.spans.op = (kind, index)

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"wallbench: check failed: {text}", file=sys.stderr)
        self.problems.append(text)

    # -- gateway restart ------------------------------------------------------

    def _restart(self, r: int, i: int) -> tuple[Gateway, str]:
        cfg = self.s.config
        state = os.path.join(self.s.work, f"gw-{r}-{i}")
        os.makedirs(state)
        shutil.copyfile(self.s.log_path, os.path.join(state, "records.log"))
        sysclock = SystemClock()
        verifier = CredentialVerifier(cfg.secret, cfg.credential_ttl, sysclock)
        registry = HttpRegistryClient(self.s.registry_url)
        gc.collect()
        self._op("restart", r * RESTARTS + i)
        began = time.time()
        self.attempted += 1
        t0 = clock()
        gateway = Gateway(cfg, sysclock, registry, state, verifier=verifier)
        gateway.recover_on_startup()
        self.samples["restart"].append(clock() - t0)
        self._op("check", r)
        self._check_records(gateway, began)
        return gateway, state

    def _check_records(self, gateway: Gateway, began: float) -> None:
        plan = self.s.log
        got = {rec.ref.key(): rec for rec in gateway.list_records(SYSTEM)}
        if set(got) != set(plan.expected):
            self._problem(f"restart: {len(got)} records, expected {len(plan.expected)}")
            return
        for key, want in plan.expected.items():
            rec = got[key]
            have = {name: getattr(rec, name) for name in want if hasattr(rec, name)}
            have["state"] = rec.state.value
            for name in ("system", "repository", "name", "tag"):
                have[name] = getattr(rec.ref, name)
            if key in plan.recovered:
                if not rec.updated_at >= began:
                    self._problem(f"restart: {key} recovered with updated_at {rec.updated_at}")
                have["updated_at"] = want["updated_at"]
            if have != want:
                diff = sorted(k for k in want if have.get(k) != want[k])
                self._problem(f"restart: {key} differs in {diff}")
                return

    # -- cold pull ---------------------------------------------------------------

    def _request(self, conn, method: str, canonical: str, wire: str | None) -> dict:
        headers = {WIRE_HEADER: wire} if wire else {}
        conn.request(method, f"/api/{'pull' if method == 'POST' else 'lookup'}/{SYSTEM}/{canonical}",
                     headers=headers)
        resp = conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"{method} {canonical}: HTTP {resp.status} {body[:200]!r}")
        return json.loads(body)

    def _pull(self, r: int, address, runtime: GatewayRuntime, wire: str) -> None:
        """POST the pull, wait for the worker pool to drain, confirm READY with
        one lookup. Each request gets its own connection: the second response
        on a keep-alive connection would add the server's send stall."""
        tag = "ab"[r % 2]
        canonical = self.s.canonical[tag]
        gc.collect()
        self._op("pull", r)
        self.attempted += 1
        t0 = clock()
        first = self._request_once(address, "POST", canonical, wire)
        runtime.drain()
        rec = self._request_once(address, "GET", canonical, None)
        self.samples["pull"].append(clock() - t0)
        self._op("check", r)
        if first["state"] != "ENQUEUED" or rec["state"] != "READY" or rec["ref"] != canonical:
            self._problem(f"pull {canonical}: {first['state']} then {rec['state']} {rec['last_error']}")
            return
        self.digests[tag].add(rec["content_digest"])
        self._check_archive(canonical, rec["udi_path"])

    def _request_once(self, address, method: str, canonical: str, wire: str | None) -> dict:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            return self._request(conn, method, canonical, wire)
        finally:
            conn.close()

    def _check_archive(self, canonical: str, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            meta, entries, _trailer = read_archive(data)
        except ArchiveError as exc:
            self._problem(f"archive of {canonical}: {exc}")
            return
        if meta.get("source_ref") != canonical:
            self._problem(f"archive of {canonical}: source_ref {meta.get('source_ref')!r}")
        if entries != self.s.expected:
            want, have = self.s.expected, entries
            wrong = sorted(p for p in want.keys() | have.keys() if want.get(p) != have.get(p))
            self._problem(f"archive of {canonical}: {len(wrong)} paths differ, first {wrong[:3]}")

    # -- API loop ------------------------------------------------------------------

    def _api(self, conn, wire: str) -> None:
        kinds = ["pull_ready" if (i + 1) % PULL_SHARE == 0 else "lookup"
                 for i in range(self.s.shape.requests)]
        refs = [self.mix.choice(self.s.log.ready) for _ in kinds]
        # the connection opens with one untimed lookup: the first response on a
        # new connection escapes the keep-alive stall, and the loop measures a
        # client that keeps its connection
        self.attempted += 1
        first = self._request(conn, "GET", refs[0], None)
        if first["ref"] != refs[0] or first["state"] != "READY":
            self._problem(f"lookup {refs[0]}: answered {first['ref']} {first['state']}")
        gc.collect()
        began = clock()
        for kind, canonical in zip(kinds, refs):
            index = self._requests
            self._requests += 1
            self._op("request", index)
            self.attempted += 1
            t0 = clock()
            rec = self._request(conn, "POST" if kind == "pull_ready" else "GET", canonical,
                                wire if kind == "pull_ready" else None)
            latency = clock() - t0
            self.samples[kind].append(latency)
            self.request_latency[index] = latency
            if rec["ref"] != canonical or rec["state"] != "READY":
                self._problem(f"{kind} {canonical}: answered {rec['ref']} {rec['state']}")
        self.api_seconds += clock() - began

    # -- the job ---------------------------------------------------------------------

    def _job(self, r: int) -> None:
        cfg, nodes = self.s.config, self.s.shape.nodes
        sim_seed = int.from_bytes(hashlib.sha256(f"{self.s.seed}:job:{r}".encode()).digest()[:4], "big")
        self._op("setup", r)
        sim = ClusterSim(cfg, seed=sim_seed, n_nodes=nodes, registry=self.s.job_registry,
                         state_dir=self.s.job_state)
        try:
            spec = JobSpec(nodes=nodes, ranks_per_node=4, image_mode=MODE_DIRECTIVE,
                           gres=(UDI_GRES,), udi=JOB_REF, commands=(JobCommand("./solver"),))
            gc.collect()
            self._op("job", r)
            self.attempted += 1
            t0 = clock()
            job_id = sim.submit(spec)
            sim.run()
            wall = clock() - t0
            self.samples["job"].append(wall)
            self._op("check", r)
            result = sim.result(job_id)
            mounts = sum(n.mounts_done for n in sim.nodes)
            if result.outcome != "success":
                self._problem(f"job {r}: {result.outcome} {result.reason}")
            if mounts != nodes or sim.total_mounted() != 0:
                self._problem(f"job {r}: {mounts} mounts on {nodes} nodes, "
                              f"{sim.total_mounted()} left after the epilogue")
            want = expected_startup(cfg, sim_seed, nodes)
            if not math.isclose(result.startup_seconds, want, rel_tol=1e-12):
                self._problem(f"job {r}: startup {result.startup_seconds!r}, cost model gives {want!r}")
            hits = sum(n.cache_hits for n in sim.nodes)
            self.job_extras.append({"wall": wall, "trace_lines": len(sim.tracer.lines),
                                    "cache_hits": hits,
                                    "cache_lookups": hits + sum(n.cache_misses for n in sim.nodes)})
        finally:
            sim.cleanup()

    # -- one round --------------------------------------------------------------------

    def round(self, r: int) -> None:
        gateway = state = None
        for i in range(RESTARTS):
            if gateway is not None:
                gateway.close()
                shutil.rmtree(state)
            gateway, state = self._restart(r, i)
        runtime = GatewayRuntime(gateway)
        gateway.task_sink = runtime.submit
        runtime.start()
        server = make_gateway_server(gateway)
        thread = _serve(server)
        address = server.server_address[:2]
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            cfg = self.s.config
            cred = issue_credential(1000, (100, 1000), "user", cfg.secret, time.time())
            wire = credential_to_wire(cred)
            self._pull(r, address, runtime, wire)
            self._api(conn, wire)
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join()
            runtime.stop()
            gateway.close()
            shutil.rmtree(state)
        self._job(r)

    def run(self, seconds: float) -> int:
        """Whole rounds while the next one is expected to end within `seconds`,
        and at least two, so both tags of the pulled image are pulled. Returns
        the number of rounds. No operation is expected to fail: one that
        raises ends the run."""
        began = clock()
        r = 0
        while r < 2 or (clock() - began) * (r + 1) / r <= seconds:
            self.round(r)
            r += 1
        a, b = self.digests["a"], self.digests["b"]
        if len(a) != 1 or a != b:
            self._problem(f"content_digest differs between two tags of one image: {a} {b}")
        return r

    # -- results ------------------------------------------------------------------------

    def end_to_end(self, setup_times: list[float]) -> dict[str, tuple[float, str]]:
        med = statistics.median
        s = self.samples
        lookups = [x * 1e3 for x in s["lookup"]]
        return {
            "setup_s": (med(setup_times), "s"),
            "pull_s": (med(s["pull"]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "job_wall_s": (med(s["job"]), "s"),
            "restart_s": (med(s["restart"]), "s"),
            "lookup_ms": (med(lookups), "ms"),
            "lookup_p95_ms": (statistics.quantiles(lookups, n=20)[18], "ms"),
            "pull_ready_ms": (med(s["pull_ready"]) * 1e3, "ms"),
            "api_req_per_s": ((len(s["lookup"]) + len(s["pull_ready"])) / self.api_seconds, "1/s"),
        }
