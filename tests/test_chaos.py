"""Fault-injection scenarios: each must pass, and the numbers they report
must match what the setup implies."""

import pytest

from udigate.chaos import (
    SCENARIO_NAMES,
    run_auth_outage,
    run_forged_archive,
    run_resolver_storm,
    run_restart_storm,
    run_scenario,
    run_silent_stall,
    run_swapped_archive,
    storm_timeout_oracle,
)
from udigate.config import Config
from udigate.errors import UnknownScenario


def test_scenario_1_silent_stall():
    rep = run_silent_stall(seed=1)
    assert rep.passed, rep.to_text()
    assert rep.details["stuck_state"] == "PULLING"
    assert rep.details["final_state"] == "READY"
    assert rep.details["attempts"] == 2
    lag = float(rep.details["flip_lag_seconds"])
    assert 0.0 <= lag <= Config().sweep_interval


def test_scenario_2_forged_archive():
    rep = run_forged_archive(seed=1, trials=120)
    assert rep.passed, rep.to_text()
    assert rep.details["ready_count"] == 0
    assert rep.details["mount_success"] == 0
    assert rep.details["rejected_gateway"] == 120
    assert rep.details["rejected_mount"] == 120
    assert "rejected_scan" not in rep.details


def test_scenario_3_restart_storm():
    rep = run_restart_storm(seed=1)
    assert rep.passed, rep.to_text()
    assert rep.details["tasks_first_round"] == 1
    assert rep.details["tasks_total"] == 2
    assert rep.details["max_active_workers"] <= Config().worker_pool_size
    assert rep.details["worst_layer_fetches"] <= 2
    assert rep.details["manifest_fetches"] <= Config().max_attempts
    assert rep.details["final_state"] == "READY"


def test_scenario_4_auth_outage():
    rep = run_auth_outage(seed=1)
    assert rep.passed, rep.to_text()
    assert rep.details["control_outcome"] == "success"
    assert rep.details["outage_outcome"] == "failed"
    assert "node/0002" in rep.details["outage_reason"]
    assert "AuthServiceDown" in rep.details["outage_reason"]
    assert rep.details["recovery_outcome"] == "success"
    assert rep.details["mounts_leaked"] == 0


def test_scenario_4_zero_down_nodes_succeeds():
    rep = run_auth_outage(seed=1, down_nodes=())
    assert rep.passed, rep.to_text()
    assert rep.details["outage_outcome"] == "success"
    assert rep.details["mounts_leaked"] == 0


def test_scenario_5_resolver_storm():
    rep = run_resolver_storm(seed=1)
    assert rep.passed, rep.to_text()
    assert rep.details["cold_timeouts"] == rep.details["oracle_timeouts"] == 548
    assert rep.details["warm_backend_requests"] <= rep.details["identity_cap"]
    assert rep.details["cold_backend_requests"] == 2048


def test_scenario_6_swapped_archive():
    rep = run_swapped_archive(seed=1)
    assert rep.passed, rep.to_text()
    assert rep.details["control_outcome"] == "success"
    assert rep.details["swapped_outcome"] == "failed"
    assert rep.details["swapped_mounts"] == 0
    assert rep.details["mount_failures"] == 8
    assert "UdiCorrupt: descriptor mismatch" in rep.details["swapped_reason"]


def test_storm_oracle_closed_form():
    assert storm_timeout_oracle(2048, 500, 2.0, 5.0) == 2048 - 3 * 500
    assert storm_timeout_oracle(100, 500, 2.0, 5.0) == 0
    assert storm_timeout_oracle(1000, 1, 1.0, 0.0) == 999
    assert storm_timeout_oracle(0, 500, 2.0, 5.0) == 0


def test_scenario_5_small_storm_all_served():
    rep = run_resolver_storm(seed=1, nodes=64)
    assert rep.details["cold_timeouts"] == 0
    assert rep.details["cold_outcome"] == "success"
    assert not rep.passed  # the scenario expects a cap-sized cluster


def test_run_scenario_dispatch():
    rep = run_scenario(1, seed=2)
    assert rep.scenario == 1
    assert rep.name == SCENARIO_NAMES[1]
    with pytest.raises(UnknownScenario):
        run_scenario(99)


def test_run_all_covers_every_scenario():
    reports = [run_scenario(k, seed=1) for k in sorted(SCENARIO_NAMES)]
    assert [r.scenario for r in reports] == [1, 2, 3, 4, 5, 6]
    assert all(r.passed for r in reports), "\n".join(r.to_text() for r in reports)


def test_reports_are_deterministic():
    a = run_silent_stall(seed=5)
    b = run_silent_stall(seed=5)
    assert a.details == b.details
    assert a.tracer.text() == b.tracer.text()


def test_report_text_format():
    rep = run_silent_stall(seed=1)
    text = rep.to_text()
    assert text.splitlines()[0] == "scenario 1 (silent-stall): PASS"
    assert "  flip_lag_seconds = " in text
