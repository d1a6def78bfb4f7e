"""Startup benchmark and scaling-regime classification.

A benchmark run measures startup (prologue start to first command
execution) for a grid of node counts, rank counts, and images, one fresh
simulated cluster per cell. The image is pre-pulled so the measurement
captures staging fan-out, not gateway transfer time, matching how production
startup is experienced on resubmission of a popular image.

Seeding discipline: each node count gets one derived seed shared by every
rank/image/mode cell at that count, and per-node latency streams are keyed
by node id alone. Changing the image size or rank count therefore replays
identical node draws, which is what makes size-ratio and rank-invariance
comparisons meaningful rather than noise.

The classifier fits log-log slopes over a sliding window (default width 3)
of the (nodes, startup) curve, labels each window sublinear / linear /
superlinear against thresholds, merges runs of equal labels into segments,
and reports breakpoints at the centers of the first window of each new
regime.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .config import Config
from .cluster import (MODE_DIRECTIVE, MODE_PER_COMMAND, UDI_GRES, ClusterSim,
                      JobCommand, JobSpec, derive_seed)
from .errors import InsufficientData, InvalidSpec
from .refs import parse_reference
from .registry import LocalRegistry, fixture_layers

CSV_COLUMNS = ("nodes", "ranks_per_node", "image_mode", "image_size_bytes",
               "startup_seconds", "seed")


@dataclass(frozen=True)
class BenchRow:
    nodes: int
    ranks_per_node: int
    image_mode: str
    image_size_bytes: int
    startup_seconds: float
    seed: int


def write_rows(path: str, rows: Iterable[BenchRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([r.nodes, r.ranks_per_node, r.image_mode,
                        r.image_size_bytes, repr(r.startup_seconds), r.seed])


def read_rows(path: str) -> list[BenchRow]:
    out: list[BenchRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise InvalidSpec(f"unexpected csv header: {header}")
        for row in reader:
            out.append(BenchRow(nodes=int(row[0]), ranks_per_node=int(row[1]),
                                image_mode=row[2], image_size_bytes=int(row[3]),
                                startup_seconds=float(row[4]), seed=int(row[5])))
    return out


def _measure_startup(n_nodes: int, ranks: int, ref_text: str, size_bytes: int,
                     mode: str, row_seed: int, config: Config) -> float:
    ref = parse_reference(ref_text)
    registry = LocalRegistry()
    in_repo = f"{ref.repository}/{ref.name}" if ref.repository else ref.name
    registry.add_image(in_repo, ref.tag, fixture_layers(), total_size=size_bytes)
    sim = ClusterSim(config, seed=row_seed, n_nodes=n_nodes, registry=registry)
    try:
        # pre-pull so the job measures staging, not transfer
        sim.gateway.pull(ref, sim.make_credential())
        sim.clock.run_until_idle()
        rec = sim.gateway.lookup(ref)
        if rec.state.value != "READY":
            raise AssertionError(f"bench pre-pull did not reach READY: {rec.state}")

        if mode == MODE_DIRECTIVE:
            spec = JobSpec(nodes=n_nodes, ranks_per_node=ranks, image_mode=mode,
                           gres=(UDI_GRES,), udi=ref_text,
                           commands=(JobCommand("./workload"),))
        else:
            spec = JobSpec(nodes=n_nodes, ranks_per_node=ranks, image_mode=mode,
                           gres=(UDI_GRES,),
                           commands=(JobCommand("./workload", image=ref_text),))
        job_id = sim.submit(spec)
        sim.run()
        result = sim.result(job_id)
        if result.outcome != "success":
            raise AssertionError(f"bench job failed: {result.reason}")
        sim.assert_clean()
    finally:
        sim.cleanup()
    return result.startup_seconds


def bench_startup(node_counts: Sequence[int], ranks_list: Sequence[int],
                  images: Sequence[tuple[str, int]], mode: str, seed: int,
                  config: Optional[Config] = None) -> list[BenchRow]:
    """Run the grid. images is a list of (ref_text, declared_size_bytes)."""
    if mode not in (MODE_DIRECTIVE, MODE_PER_COMMAND):
        raise InvalidSpec(f"unknown image_mode {mode!r}")
    cfg = config or Config()
    rows: list[BenchRow] = []
    for n in node_counts:
        row_seed = derive_seed(seed, f"bench:{n}")
        for ranks in ranks_list:
            for ref_text, size_bytes in images:
                startup = _measure_startup(n, ranks, ref_text, size_bytes, mode,
                                           row_seed, cfg)
                rows.append(BenchRow(nodes=n, ranks_per_node=ranks, image_mode=mode,
                                     image_size_bytes=size_bytes,
                                     startup_seconds=startup, seed=row_seed))
    return rows


# -- scaling regimes ----------------------------------------------------------------

LABEL_SUBLINEAR = "sublinear"
LABEL_LINEAR = "linear"
LABEL_SUPERLINEAR = "superlinear"

# window slopes below this are sublinear, above SUPERLINEAR_ABOVE superlinear
SUBLINEAR_BELOW = 0.9
SUPERLINEAR_ABOVE = 1.1


@dataclass(frozen=True)
class RegimeSegment:
    label: str
    nodes_start: int
    nodes_end: int
    slope: float


@dataclass(frozen=True)
class ScalingReport:
    segments: tuple[RegimeSegment, ...]
    breakpoints: tuple[int, ...]
    window: int

    def to_text(self) -> str:
        lines = []
        for seg in self.segments:
            lines.append(f"{seg.label:<12} nodes {seg.nodes_start}..{seg.nodes_end} "
                         f"slope {seg.slope:.3f}")
        for bp in self.breakpoints:
            lines.append(f"breakpoint at nodes={bp}")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "window": self.window,
            "segments": [{"label": s.label, "nodes_start": s.nodes_start,
                          "nodes_end": s.nodes_end, "slope": s.slope}
                         for s in self.segments],
            "breakpoints": list(self.breakpoints),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _label(slope: float) -> str:
    if slope < SUBLINEAR_BELOW:
        return LABEL_SUBLINEAR
    if slope > SUPERLINEAR_ABOVE:
        return LABEL_SUPERLINEAR
    return LABEL_LINEAR


def classify_scaling(rows: Iterable[BenchRow], window: int = 3) -> ScalingReport:
    """Label scaling regimes of startup vs nodes in log-log space.

    Rows sharing a node count are averaged. Requires at least window + 1
    distinct node counts (and at least 4 overall) or InsufficientData.
    """
    by_nodes: dict[int, list[float]] = {}
    for r in rows:
        by_nodes.setdefault(r.nodes, []).append(r.startup_seconds)
    if len(by_nodes) < max(4, window + 1):
        raise InsufficientData(
            f"classification needs at least {max(4, window + 1)} distinct node "
            f"counts, got {len(by_nodes)}")
    pts = sorted((n, sum(v) / len(v)) for n, v in by_nodes.items())
    for n, s in pts:
        if n <= 0 or s <= 0:
            raise InsufficientData(f"cannot take logs of point ({n}, {s})")
    lx = [math.log(n) for n, _ in pts]
    ly = [math.log(s) for _, s in pts]

    n_windows = len(pts) - window + 1
    slopes = [_ls_slope(lx[w:w + window], ly[w:w + window]) for w in range(n_windows)]
    labels = [_label(s) for s in slopes]

    # a regime change is anchored at the first point of the first window
    # that carries the new label; segments are contiguous point ranges
    # sharing their boundary points
    run_starts = [0] + [w for w in range(1, n_windows) if labels[w] != labels[w - 1]]
    run_ends = run_starts[1:] + [n_windows]
    bounds = run_starts + [len(pts) - 1]
    segments: list[RegimeSegment] = []
    for k, start in enumerate(run_starts):
        # windows straddling a transition dilute a least-squares refit, so
        # the reported exponent is the median window slope of the run
        seg_slope = statistics.median(slopes[start:run_ends[k]])
        segments.append(RegimeSegment(label=labels[start],
                                      nodes_start=pts[bounds[k]][0],
                                      nodes_end=pts[bounds[k + 1]][0],
                                      slope=seg_slope))
    breakpoints = tuple(pts[w][0] for w in run_starts[1:])
    return ScalingReport(segments=tuple(segments), breakpoints=breakpoints,
                         window=window)
