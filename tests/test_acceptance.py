"""Release gate: thirteen criteria, one printed verdict line each.

Each test exercises one criterion at full volume and prints
``criterion NN slug: PASS|FAIL``; conftest echoes the collected lines in the
terminal summary so they survive output capture.
"""

import dataclasses
import random
import time

import pytest

import helpers
from helpers import (
    SCALING_GRID,
    FixedClock,
    materialize_stack,
    read_udi,
    random_stack,
    three_regime_rows,
    within_one_grid_point,
)
from statemachine import run_sequences
from udigate.authsvc import CredentialVerifier, issue_credential
from udigate.bench import (
    LABEL_LINEAR,
    LABEL_SUBLINEAR,
    LABEL_SUPERLINEAR,
    bench_startup,
    classify_scaling,
    write_rows,
)
from udigate.chaos import SCENARIO_NAMES, run_auth_outage, run_scenario
from udigate.cluster import MODE_DIRECTIVE, MODE_PER_COMMAND
from udigate.config import Config
from udigate.errors import CredentialExpired, MacMismatch, UdiCorrupt
from udigate.filetree import flatten, tree_to_blob
from udigate.udi import verify_udi, write_udi

SEED = 20260815
SMALL_IMAGE = ("bench/app:small", 36_000_000)
LARGE_IMAGE = ("bench/app:large", 1_700_000_000)


def _criterion(num: int, slug: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    helpers.CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_state_machine_soundness(tmp_path):
    t0 = time.monotonic()
    totals = run_sequences(10_000, Config(), master_seed=SEED,
                           base_dir="/dev/shm", ops_range=(6, 16))
    elapsed = time.monotonic() - t0
    ok = (totals["illegal"] == 0 and totals["unverified_ready"] == 0
          and totals["sequences"] == 10_000 and totals["ready_seen"] > 0
          and elapsed < 60.0)
    _criterion(1, "state-machine-soundness", ok,
               f"sequences=10000 illegal={totals['illegal']} "
               f"unverified_ready={totals['unverified_ready']} "
               f"ready_seen={totals['ready_seen']} wall={elapsed:.1f}s")


def test_criterion_02_silent_stall():
    rep = run_scenario(1, seed=SEED)
    lag = float(rep.details["flip_lag_seconds"])
    ok = rep.passed and 0.0 <= lag <= Config().sweep_interval
    _criterion(2, "silent-stall-swept", ok,
               f"flip_lag={lag:.3f}s of {Config().sweep_interval:.0f}s budget")


def test_criterion_03_forged_archives():
    rep = run_scenario(2, seed=SEED)
    d = rep.details
    ok = (rep.passed and d["trials"] == 1000 and d["ready_count"] == 0
          and d["mount_success"] == 0)
    _criterion(3, "forged-archive-rejection", ok,
               f"trials={d['trials']} ready={d['ready_count']} "
               f"mounted={d['mount_success']}")


def test_criterion_04_restart_storm():
    cfg = Config()
    rep = run_scenario(3, seed=SEED)
    d = rep.details
    ok = (rep.passed and d["duplicate_pulls_per_round"] == 8
          and d["max_active_workers"] <= cfg.worker_pool_size
          and d["manifest_fetches"] <= cfg.max_attempts)
    _criterion(4, "restart-storm-bounded", ok,
               f"active={d['max_active_workers']} of {cfg.worker_pool_size}, "
               f"manifest_fetches={d['manifest_fetches']} of {cfg.max_attempts}")


def test_criterion_05_auth_outage():
    with_down = run_auth_outage(seed=SEED, down_nodes=(2, 5))
    none_down = run_auth_outage(seed=SEED, down_nodes=())
    ok = with_down.passed and none_down.passed
    _criterion(5, "auth-outage-naming", ok,
               f"outage_reason={with_down.details['outage_reason']!r}")


def test_criterion_06_resolver_storm():
    t0 = time.monotonic()
    rep = run_scenario(5, seed=SEED)
    elapsed = time.monotonic() - t0
    d = rep.details
    ok = (rep.passed and d["nodes"] == 2048 and d["identity_cap"] == 500
          and d["timeout"] == 5.0
          and d["warm_backend_requests"] <= d["identity_cap"]
          and elapsed < 30.0)
    _criterion(6, "resolver-storm-cache-fix", ok,
               f"cold_timeouts={d['cold_timeouts']} "
               f"warm_requests={d['warm_backend_requests']} wall={elapsed:.1f}s")


def test_criterion_07_size_independent_startup():
    counts = [2 ** k for k in range(13)]  # 1 .. 4096
    rows = bench_startup(counts, [1], [SMALL_IMAGE, LARGE_IMAGE],
                         mode=MODE_DIRECTIVE, seed=SEED)
    by_nodes: dict[int, dict[int, float]] = {}
    for r in rows:
        by_nodes.setdefault(r.nodes, {})[r.image_size_bytes] = r.startup_seconds
    worst = 1.0
    for n in counts:
        ratio = by_nodes[n][LARGE_IMAGE[1]] / by_nodes[n][SMALL_IMAGE[1]]
        if abs(ratio - 1.0) > abs(worst - 1.0):
            worst = ratio
    ok = all(0.95 <= by_nodes[n][LARGE_IMAGE[1]] / by_nodes[n][SMALL_IMAGE[1]] <= 1.05
             for n in counts)
    _criterion(7, "size-independent-startup", ok,
               f"nodes=1..4096 worst_ratio={worst:.4f} band=[0.95,1.05]")


def test_criterion_08_mode_contrast_at_80_nodes():
    ranks = list(range(1, 33))
    directive = [r.startup_seconds for r in
                 bench_startup([80], ranks, [SMALL_IMAGE],
                               mode=MODE_DIRECTIVE, seed=SEED)]
    per_cmd = [r.startup_seconds for r in
               bench_startup([80], ranks, [SMALL_IMAGE],
                             mode=MODE_PER_COMMAND, seed=SEED)]
    mean = sum(directive) / len(directive)
    invariant = all(0.95 * mean <= s <= 1.05 * mean for s in directive)
    monotone = all(b >= a for a, b in zip(per_cmd, per_cmd[1:]))
    ok = invariant and monotone
    _criterion(8, "mode-contrast", ok,
               f"directive_spread={min(directive)/mean:.4f}.."
               f"{max(directive)/mean:.4f} "
               f"per_command={per_cmd[0]:.3f}s->{per_cmd[-1]:.3f}s")


def test_criterion_09_regime_classifier():
    report = classify_scaling(three_regime_rows(), window=3)
    labels = tuple(s.label for s in report.segments)
    ok = labels == (LABEL_SUBLINEAR, LABEL_LINEAR, LABEL_SUPERLINEAR)
    for seg, target in zip(report.segments, (0.5, 1.0, 1.5)):
        ok = ok and abs(seg.slope - target) <= 0.05
    ok = ok and len(report.breakpoints) == 2
    ok = ok and within_one_grid_point(report.breakpoints[0], 256, SCALING_GRID)
    ok = ok and within_one_grid_point(report.breakpoints[1], 2048, SCALING_GRID)
    slopes = ", ".join(f"{s.slope:.3f}" for s in report.segments)
    _criterion(9, "regime-classifier", ok,
               f"slopes=({slopes}) breakpoints={report.breakpoints}")


def test_criterion_10_flatten_oracle(tmp_path):
    rng = random.Random(SEED)
    mismatches = 0
    for i in range(1000):
        stack = random_stack(rng)
        root = tmp_path / f"s{i}"
        root.mkdir()
        materialize_stack(stack, str(root))
        oracle = helpers.read_back_tree(str(root))
        if tree_to_blob(flatten(stack)) != tree_to_blob(oracle):
            mismatches += 1
    _criterion(10, "flatten-oracle-equivalence", mismatches == 0,
               f"stacks=1000 mismatches={mismatches}")


def test_criterion_11_udi_roundtrip_and_corruption(tmp_path):
    rng = random.Random(SEED + 1)
    roundtrip_failures = 0
    missed_corruptions = 0
    positions_checked = 0
    large_archives = 0
    for i in range(500):
        tree = flatten(random_stack(rng))
        if i % 10 == 0:
            # push some archives past 4 KB to exercise the sampled branch
            tree.add_file("/bulk.bin", rng.randbytes(rng.randrange(6000, 40000)))
        path = str(tmp_path / f"t{i}.udi")
        write_udi(tree, path, source_ref=f"rt-{i}:v1", created_at=float(i))
        back, _ = read_udi(path)
        if back != tree:
            roundtrip_failures += 1
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        if len(data) <= 4096:
            positions = range(len(data))
        else:
            large_archives += 1
            positions = rng.sample(range(len(data)), 1000)
        for pos in positions:
            data[pos] ^= 0x41
            try:
                verify_udi(bytes(data))
            except UdiCorrupt:
                pass
            else:
                missed_corruptions += 1
            data[pos] ^= 0x41
            positions_checked += 1
    ok = roundtrip_failures == 0 and missed_corruptions == 0
    _criterion(11, "udi-roundtrip-corruption", ok,
               f"trees=500 roundtrip_failures={roundtrip_failures} "
               f"flips={positions_checked} missed={missed_corruptions} "
               f"large_archives={large_archives}")


def test_criterion_12_credential_suite():
    secret = Config().secret
    ttl = Config().credential_ttl
    issued = 1000.0
    cred = issue_credential(1001, (1000, 100), "user", secret, issued,
                            rng=random.Random(SEED))
    principal = CredentialVerifier(secret, ttl, FixedClock(issued + 1.0)).verify(cred)
    roundtrip = (principal.uid == 1001 and principal.gids == (100, 1000)
                 and principal.scope == "user")

    tampers = {
        "uid": dataclasses.replace(cred, uid=cred.uid + 1),
        "gids": dataclasses.replace(cred, gids=(100, 1001)),
        "scope": dataclasses.replace(cred, scope="admin"),
        "issued_at": dataclasses.replace(cred, issued_at=cred.issued_at + 1.0),
        "nonce": dataclasses.replace(
            cred, nonce=bytes([cred.nonce[0] ^ 1]) + cred.nonce[1:]),
        "mac": dataclasses.replace(
            cred, mac=bytes([cred.mac[0] ^ 1]) + cred.mac[1:]),
    }
    tamper_ok = True
    for forged in tampers.values():
        try:
            CredentialVerifier(secret, ttl, FixedClock(issued + 1.0)).verify(forged)
            tamper_ok = False
        except MacMismatch:
            pass
        except CredentialExpired:
            tamper_ok = False

    at_ttl_ok = CredentialVerifier(secret, ttl, FixedClock(issued + 300.0)).verify(cred).uid == 1001
    past_ttl_ok = False
    try:
        CredentialVerifier(secret, ttl, FixedClock(issued + 301.0)).verify(cred)
    except CredentialExpired:
        past_ttl_ok = True

    ok = roundtrip and tamper_ok and at_ttl_ok and past_ttl_ok
    _criterion(12, "credential-suite", ok,
               f"tampered_fields={len(tampers)} ttl_boundary=300s/301s")


def test_criterion_13_determinism(tmp_path):
    def chaos_trace() -> str:
        reports = [run_scenario(k, seed=SEED) for k in sorted(SCENARIO_NAMES)]
        assert all(r.passed for r in reports)
        return "".join(r.tracer.text() for r in reports)

    def bench_csv(path) -> bytes:
        rows = bench_startup([1, 4, 16, 64], [1, 8], [SMALL_IMAGE, LARGE_IMAGE],
                             mode=MODE_DIRECTIVE, seed=SEED)
        write_rows(str(path), rows)
        return path.read_bytes()

    trace_a = chaos_trace()
    trace_b = chaos_trace()
    csv_a = bench_csv(tmp_path / "a.csv")
    csv_b = bench_csv(tmp_path / "b.csv")
    ok = trace_a == trace_b and csv_a == csv_b and len(trace_a) > 1000
    _criterion(13, "same-seed-determinism", ok,
               f"trace_bytes={len(trace_a)} csv_bytes={len(csv_a)}")
