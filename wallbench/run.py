#!/usr/bin/env python3
"""Wall-clock benchmark of udigate, run from the repository root:

    python3 wallbench/run.py --workload pull-wide --seed 1 --seconds 55 --trace 0

It imports the package from ./src, builds every input from --seed, sets up
five times (the median is setup_s), then repeats whole rounds for --seconds
and checks every output. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the package's layer
boundaries are wrapped and the metrics are per-layer self times and counts,
while the spans and a summary go to wallbench/out/. --size tiny runs the
same checks on small inputs in a few seconds.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "wallbench", "out")
SETUPS = 5
WORKLOADS = ("pull-wide", "pull-whiteout")


def _import_package() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "udigate", "__init__.py")):
        sys.exit("wallbench: no src/udigate here; run from the repository root")
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)


def layer_metrics(spans, bench, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures: `_ms` and counts per round, `_us` per call."""
    measured = ("restart", "pull", "request", "job")
    totals = spans.totals(measured)

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    def ms(layer):
        return totals.get(layer, (0, 0.0))[1] * 1e3 / rounds

    def us(layer):
        n, s = totals.get(layer, (0, 0.0))
        return s * 1e6 / n if n else 0.0

    def counted(name, kinds=measured):
        return sum(spans.counts.get((name, k), 0) for k in kinds)

    job_calls = spans.totals(("job",))
    mounts = job_calls.get("nodeagent.mount", (0, 0.0))[0]
    opens = sum(job_calls.get(k, (0, 0.0))[0] for k in ("udi.verify", "udi.scan"))
    gateway_time = spans.by_op("gateway.lookup")
    for key, value in spans.by_op("gateway.pull").items():
        gateway_time[key] += value
    overhead = [lat - gateway_time.get(("request", i), 0.0)
                for i, lat in bench.request_latency.items()]
    mount_time = spans.by_op("nodeagent.mount")
    loop_self = [x["wall"] - mount_time.get(("job", r), 0.0) for r, x in enumerate(bench.job_extras)]
    lookups = sum(x["cache_lookups"] for x in bench.job_extras)
    jobs = len(bench.job_extras)
    return {
        "registry.fetch_layer_ms": (ms("registry.fetch_layer"), "ms"),
        "registry.blob_mb": (counted("registry.blob_bytes") / 1e6 / rounds, "MB"),
        "service.queue_wait_ms": (ms("service.queue_wait"), "ms"),
        "filetree.decode_ms": (ms("filetree.decode"), "ms"),
        "filetree.flatten_ms": (ms("filetree.flatten"), "ms"),
        "filetree.remove_subtree_calls": (counted("filetree.remove_subtree") / rounds, "count"),
        "filetree.digest_ms": (ms("filetree.digest"), "ms"),
        "filetree.site_mods_ms": (ms("filetree.site_mods"), "ms"),
        "filetree.entries": (counted("filetree.entries") / max(1, calls("filetree.flatten")), "count"),
        "udi.write_ms": (ms("udi.write"), "ms"),
        "udi.verify_ms": (ms("udi.verify"), "ms"),
        "udi.verify_calls": (calls("udi.verify") / rounds, "count"),
        "udi.scan_ms": (ms("udi.scan"), "ms"),
        "udi.scan_calls": (calls("udi.scan") / rounds, "count"),
        "udi.opens_per_mount": (opens / mounts if mounts else 0.0, "ratio"),
        "gateway.complete_ms": (ms("gateway.complete"), "ms"),
        "gateway.lookup_us": (us("gateway.lookup"), "us"),
        "gateway.pull_us": (us("gateway.pull"), "us"),
        "gateway.recover_ms": (ms("gateway.recover"), "ms"),
        "store.replay_ms": (ms("store.replay"), "ms"),
        "store.append_us": (us("store.append"), "us"),
        "store.appends": (calls("store.append") / rounds, "count"),
        "authsvc.from_wire_us": (us("authsvc.from_wire"), "us"),
        "authsvc.verify_us": (us("authsvc.verify"), "us"),
        "authsvc.verifies": (calls("authsvc.verify") / rounds, "count"),
        "httpd.overhead_ms": (statistics.fmean(overhead) * 1e3, "ms"),
        "nodeagent.mount_self_us": (us("nodeagent.mount"), "us"),
        "nodeagent.resolve_us": (us("nodeagent.resolve"), "us"),
        "nodeagent.cache_hit_ratio": (sum(x["cache_hits"] for x in bench.job_extras) / lookups
                                      if lookups else 0.0, "ratio"),
        "clock.events": (counted("clock.events", ("job",)) / jobs, "count"),
        "cluster.loop_self_ms": (statistics.fmean(loop_self) * 1e3, "ms"),
        "clock.trace_lines": (statistics.fmean(x["trace_lines"] for x in bench.job_extras), "count"),
    }


def accounting(spans, bench) -> dict:
    """Wall time per operation kind against the self times traced inside it."""
    walls = {"restart": bench.samples["restart"], "pull": bench.samples["pull"],
             "request": list(bench.request_latency.values()),
             "job": [x["wall"] for x in bench.job_extras]}
    out = {}
    for kind, samples in walls.items():
        per_layer = {k: s * 1e3 / len(samples) for k, (_n, s) in spans.totals((kind,)).items()}
        wall = statistics.fmean(samples) * 1e3
        out[kind] = {"ops": len(samples), "wall_ms": wall, "layers_ms": per_layer,
                     "remainder_ms": wall - sum(per_layer.values())}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    _import_package()
    import rounds
    from spans import Spans

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tempfile.tempdir = work
    shape = rounds.SHAPES[args.size][args.workload]
    spans = None
    if args.trace:
        spans = Spans()
        spans.install()

    setup_times = []
    setup = None
    try:
        for i in range(SETUPS):
            if setup is not None:
                setup.close()
                gc.collect()
            t0 = time.perf_counter()
            setup = rounds.Setup(args.seed, shape, args.size, os.path.join(work, f"setup{i}"))
            setup_times.append(time.perf_counter() - t0)
        bench = rounds.Bench(setup, spans)
        n_rounds = bench.run(args.seconds)
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)

    e2e = bench.end_to_end(setup_times)
    if spans is not None:
        spans.uninstall()
        metrics = layer_metrics(spans, bench, n_rounds)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
        spans.write(stem + ".spans.tsv")
        with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                       "rounds": n_rounds, "shape": shape.__dict__,
                       "pulled_image_entries": setup.image.entry_count(),
                       "job_image_entries": setup.app_entries,
                       "traced_end_to_end": {k: v for k, (v, _u) in e2e.items()},
                       "accounting": accounting(spans, bench),
                       "per_layer": {k: v for k, (v, _u) in metrics.items()}}, fh, indent=1)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": 0,  # an operation that raises ends the run with a traceback and exit 1
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
