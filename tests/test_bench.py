"""Startup benchmark grid, CSV round trip, and regime classification."""

from pathlib import Path

import pytest

from helpers import (
    SCALING_GRID,
    synth_power_rows,
    three_regime_rows,
    within_one_grid_point,
)
from udigate.bench import (
    BenchRow,
    bench_startup,
    classify_scaling,
    read_rows,
    write_rows,
)
from udigate.cluster import MODE_DIRECTIVE, MODE_PER_COMMAND
from udigate.errors import InsufficientData, InvalidSpec

IMAGE_SMALL = ("bench/app:small", 36_000_000)
IMAGE_LARGE = ("bench/app:large", 1_700_000_000)


def test_grid_shape_and_determinism():
    rows = bench_startup([1, 4], [2], [IMAGE_SMALL], MODE_DIRECTIVE, seed=9)
    again = bench_startup([1, 4], [2], [IMAGE_SMALL], MODE_DIRECTIVE, seed=9)
    assert rows == again
    assert [(r.nodes, r.ranks_per_node) for r in rows] == [(1, 2), (4, 2)]
    assert all(r.image_mode == MODE_DIRECTIVE for r in rows)
    assert all(r.startup_seconds > 0 for r in rows)


def test_startup_independent_of_image_size():
    # pre-pulled image: staging fan-out dominates, transfer is out of frame.
    # The two runs share their latency draws but start at different absolute
    # virtual times, so only float rounding separates them.
    rows = bench_startup([8], [4], [IMAGE_SMALL, IMAGE_LARGE], MODE_DIRECTIVE, seed=3)
    small, large = rows[0].startup_seconds, rows[1].startup_seconds
    assert rows[0].image_size_bytes != rows[1].image_size_bytes
    assert small == pytest.approx(large, rel=1e-9)


def test_directive_startup_rank_invariant():
    rows = bench_startup([8], [1, 4, 16, 32], [IMAGE_SMALL], MODE_DIRECTIVE, seed=3)
    values = {r.startup_seconds for r in rows}
    assert len(values) == 1  # prologue mounts once; ranks just attach


def test_per_command_startup_grows_with_ranks():
    rows = bench_startup([8], [1, 8, 32], [IMAGE_SMALL], MODE_PER_COMMAND, seed=3)
    startups = [r.startup_seconds for r in rows]
    assert startups == sorted(startups)
    assert startups[0] < startups[-1]  # rank attach cost is per rank


def test_per_command_slower_than_directive():
    d = bench_startup([8], [16], [IMAGE_SMALL], MODE_DIRECTIVE, seed=5)[0]
    p = bench_startup([8], [16], [IMAGE_SMALL], MODE_PER_COMMAND, seed=5)[0]
    assert p.startup_seconds > d.startup_seconds


def test_bad_mode_rejected():
    with pytest.raises(InvalidSpec):
        bench_startup([1], [1], [IMAGE_SMALL], "Eager", seed=1)


# -- csv ------------------------------------------------------------------------


def test_csv_roundtrip_exact(tmp_path):
    rows = bench_startup([1, 2, 4], [2], [IMAGE_SMALL], MODE_DIRECTIVE, seed=11)
    path = str(tmp_path / "bench.csv")
    write_rows(path, rows)
    assert read_rows(path) == rows  # repr() floats survive the trip bit-exact


def test_csv_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "odd.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidSpec):
        read_rows(path)


def test_csv_stable_bytes(tmp_path):
    rows = bench_startup([1, 2], [1], [IMAGE_SMALL], MODE_DIRECTIVE, seed=2)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_rows(p1, rows)
    write_rows(p2, rows)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


# -- classifier ------------------------------------------------------------------


def test_classifier_recovers_three_regimes():
    report = classify_scaling(three_regime_rows())
    assert [s.label for s in report.segments] == ["sublinear", "linear", "superlinear"]
    for seg, expected in zip(report.segments, (0.5, 1.0, 1.5)):
        assert seg.slope == pytest.approx(expected, abs=0.05)
    # transition windows blur regime starts by at most one grid point
    assert len(report.breakpoints) == 2
    assert within_one_grid_point(report.breakpoints[0], 256, SCALING_GRID)
    assert within_one_grid_point(report.breakpoints[1], 2048, SCALING_GRID)


def test_classifier_single_regime_no_breakpoints():
    rows = synth_power_rows(SCALING_GRID, lambda n: 1.0)
    report = classify_scaling(rows)
    assert len(report.segments) == 1
    assert report.breakpoints == ()
    assert report.segments[0].label == "linear"
    assert report.segments[0].nodes_start == SCALING_GRID[0]
    assert report.segments[0].nodes_end == SCALING_GRID[-1]
    assert report.segments[0].slope == pytest.approx(1.0, abs=1e-9)


def test_classifier_pure_sublinear_and_superlinear():
    assert classify_scaling(
        synth_power_rows(SCALING_GRID, lambda n: 0.3)).segments[0].label == "sublinear"
    assert classify_scaling(
        synth_power_rows(SCALING_GRID, lambda n: 1.6)).segments[0].label == "superlinear"


def test_classifier_averages_duplicate_node_counts():
    rows = synth_power_rows(SCALING_GRID, lambda n: 1.0)
    noisy = rows + [BenchRow(nodes=r.nodes, ranks_per_node=2, image_mode=r.image_mode,
                             image_size_bytes=r.image_size_bytes,
                             startup_seconds=r.startup_seconds, seed=1)
                    for r in rows]
    report = classify_scaling(noisy)
    assert len(report.segments) == 1
    assert report.segments[0].slope == pytest.approx(1.0, abs=1e-9)


def test_classifier_insufficient_data():
    rows = synth_power_rows([1, 2, 4], lambda n: 1.0)
    with pytest.raises(InsufficientData):
        classify_scaling(rows)
    with pytest.raises(InsufficientData):
        classify_scaling(synth_power_rows([1, 2, 4, 8, 16], lambda n: 1.0), window=5)


def test_classifier_rejects_nonpositive_values():
    rows = synth_power_rows([1, 2, 4, 8], lambda n: 1.0)
    bad = rows + [BenchRow(nodes=16, ranks_per_node=1, image_mode=MODE_DIRECTIVE,
                           image_size_bytes=1, startup_seconds=0.0, seed=0)]
    with pytest.raises(InsufficientData):
        classify_scaling(bad)


def test_classifier_wider_window():
    report = classify_scaling(three_regime_rows(), window=4)
    assert [s.label for s in report.segments] == ["sublinear", "linear", "superlinear"]
    assert report.window == 4


def test_report_serialization():
    report = classify_scaling(three_regime_rows())
    text = report.to_text()
    for bp in report.breakpoints:
        assert f"breakpoint at nodes={bp}" in text
    assert text.count("slope") == 3

    import json
    doc = json.loads(report.to_json())
    assert doc["breakpoints"] == list(report.breakpoints)
    assert [s["label"] for s in doc["segments"]] == ["sublinear", "linear", "superlinear"]
    assert doc["window"] == 3


def test_segments_tile_the_grid():
    report = classify_scaling(three_regime_rows())
    segs = report.segments
    assert segs[0].nodes_start == SCALING_GRID[0]
    assert segs[-1].nodes_end == SCALING_GRID[-1]
    for a, b in zip(segs, segs[1:]):
        assert a.nodes_end == b.nodes_start  # boundary point is shared
