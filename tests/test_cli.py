"""CLI surface: argument handling, exit codes, output shapes."""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from helpers import append_unusable_entries, payload_tree, tiny_tree
from udigate.bench import read_rows
from udigate.cli import main
from udigate.clock import SystemClock
from udigate.config import Config
from udigate.gateway import Gateway, ImageState
from udigate.refs import parse_reference
from udigate.registry import LocalRegistry
from udigate.service import GatewayRuntime
from udigate.udi import check_udi


def test_no_arguments_is_usage_error():
    assert main([]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "udigate.cli", "chaos", "run",
                           "--scenario", "4", "--seed", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# -- jobs -----------------------------------------------------------------------


def test_job_submit_directive(capsys):
    rc = main(["job", "submit", "--nodes", "2", "--ranks", "2",
               "--udi", "team/app:v1", "--gres", "udi,hugepages", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "success" in out
    assert "startup:" in out


def test_job_submit_without_gres_token(capsys):
    rc = main(["job", "submit", "--udi", "team/app:v1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "MissingGres" in err
    assert "udi" in err


@pytest.mark.parametrize("ids", ["uid = -1", "gids = 100, 18446744073709551616"])
def test_job_file_with_out_of_range_id_is_invalid_spec(tmp_path, capsys, ids):
    spec = tmp_path / "job.txt"
    spec.write_text(f"nodes = 1\nudi = team/app:v1\ngres = udi\n{ids}\n")
    assert main(["job", "submit", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "error: InvalidSpec" in err
    assert "outside 0..2**64-1" in err


def test_rejected_job_leaves_no_simulator_state(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["job", "submit", "--udi", "team/app:v1"]) == 1
    assert "MissingGres" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_job_submit_from_specfile(tmp_path, capsys):
    spec = tmp_path / "job.txt"
    spec.write_text(
        "# two-node solver\n"
        "nodes = 2\n"
        "ranks_per_node = 2\n"
        "mode = Directive\n"
        "udi = team/app:v1\n"
        "gres = udi\n"
        "run = ./solver --fast\n")
    rc = main(["job", "submit", str(spec)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "success" in out


def test_job_submit_specfile_flag_overrides(tmp_path, capsys):
    spec = tmp_path / "job.txt"
    spec.write_text("nodes = 1\nudi = team/app:v1\ngres = udi\n")
    rc = main(["job", "submit", str(spec), "--nodes", "3"])
    assert rc == 0


def test_run_single_command(capsys):
    rc = main(["run", "--image", "demo/app:v1", "--seed", "3", "hostname"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "success" in out


# -- chaos ----------------------------------------------------------------------


def test_chaos_pass_exits_zero(capsys):
    rc = main(["chaos", "run", "--scenario", "1", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario 1" in out
    assert "PASS" in out


def test_chaos_runs_swapped_archive(capsys):
    rc = main(["chaos", "run", "--scenario", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "scenario 6 (swapped-archive): PASS"


def test_chaos_trace_written(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    rc = main(["chaos", "run", "--scenario", "1", "--seed", "7",
               "--trace", str(trace)])
    assert rc == 0
    body = trace.read_text()
    assert body.count("\n") > 5
    assert str(tmp_path) not in body  # traces never leak host paths


def test_chaos_unknown_scenario_exits_one(capsys):
    rc = main(["chaos", "run", "--scenario", "99"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error" in err


def test_chaos_failed_checks_exit_two(tmp_path, capsys):
    # an effectively infinite identity timeout means the cold run cannot
    # fail, which scenario 5 treats as a broken protection
    cfg = tmp_path / "chaos.cfg"
    cfg.write_text("identity_timeout = 1000000000\n")
    rc = main(["chaos", "run", "--scenario", "5", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


# -- bench ----------------------------------------------------------------------


def test_bench_startup_then_classify(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    rc = main(["bench", "startup", "--nodes", "1,2,4,8", "--ranks", "1",
               "--image", "bench/app:tiny=1000000", "--csv", str(csv_path),
               "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 4 rows" in out
    assert len(read_rows(str(csv_path))) == 4

    rc = main(["bench", "classify", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nodes 1..8" in out

    rc = main(["bench", "classify", "--csv", str(csv_path), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["segments"][0]["nodes_start"] == 1
    assert doc["window"] == 3


def test_bench_classify_missing_csv(tmp_path, capsys):
    rc = main(["bench", "classify", "--csv", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bench_bad_image_argument():
    assert main(["bench", "startup", "--nodes", "1", "--image", "nosize",
                 "--csv", "/dev/null"]) == 1


@pytest.mark.parametrize("size", ["inf", "-inf", "1e400", "-5", "-0.5"])
def test_bench_image_size_must_be_finite_and_not_negative(tmp_path, capsys, size):
    csv_path = tmp_path / "grid.csv"
    assert main(["bench", "startup", "--nodes", "1", "--image", f"a:b={size}",
                 "--csv", str(csv_path)]) == 1
    assert f"bad image size {size!r}" in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("config_text", [None, "secret_file = {dir}\n"],
                         ids=["config-is-a-dir", "secret-file-is-a-dir"])
def test_config_naming_a_directory_is_an_error(tmp_path, capsys, config_text):
    config = tmp_path
    if config_text is not None:
        config = tmp_path / "gateway.conf"
        config.write_text(config_text.format(dir=tmp_path))
    rc = main(["job", "submit", "--udi", "team/app:v1", "--gres", "udi",
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Is a directory" in err


# -- admin ----------------------------------------------------------------------


@pytest.fixture
def ready_state_dir(fast_cfg, tmp_path):
    registry = LocalRegistry()
    registry.add_image("team/app", "v1", [tiny_tree(), payload_tree()],
                       total_size=4096)
    gw = Gateway(fast_cfg, SystemClock(), registry, str(tmp_path / "state"))
    runtime = GatewayRuntime(gw)
    gw.task_sink = runtime.submit
    runtime.start()
    gw.pull(parse_reference("team/app:v1"))
    runtime.drain()
    assert gw.lookup(parse_reference("team/app:v1")).state is ImageState.READY
    runtime.stop()
    gw.close()
    return str(tmp_path / "state")


def test_admin_expire_lifecycle(ready_state_dir, capsys):
    args = ["admin", "expire", "team/app:v1", "--state-dir", ready_state_dir]
    rc = main(args)
    assert rc == 0
    assert "team/app:v1: EXPIRED" in capsys.readouterr().out

    rc = main(args)  # second call clears the terminal record
    assert rc == 0
    capsys.readouterr()

    rc = main(args)  # nothing left to expire
    err = capsys.readouterr().err
    assert rc == 1
    assert "NotFound" in err


def test_admin_expire_beside_a_live_gateway_is_refused(ready_state_dir, capsys):
    ref = parse_reference("team/app:v1")
    live = Gateway(Config(), SystemClock(), LocalRegistry(), ready_state_dir)
    try:
        rc = main(["admin", "expire", "team/app:v1", "--state-dir", ready_state_dir])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"state directory {ready_state_dir} is in use" in err
        assert f"POST /api/expire/{ref.system}/team/app:v1" in err
        rec = live.lookup(ref)
        assert rec.state is ImageState.READY
        check_udi(rec.udi_path, rec.udi_digest)
    finally:
        live.close()
    reborn = Gateway(Config(), SystemClock(), LocalRegistry(), ready_state_dir)
    try:
        assert reborn.lookup(ref).state is ImageState.READY
    finally:
        reborn.close()


def test_admin_expire_skips_unusable_log_entries(ready_state_dir):
    ready = Gateway(Config(), SystemClock(), LocalRegistry(), ready_state_dir)
    record = ready.lookup(parse_reference("team/app:v1")).to_store_dict()
    ready.close()
    append_unusable_entries(ready_state_dir, record, parse_reference("team/lost:v1"))
    proc = subprocess.run([sys.executable, "-m", "udigate.cli", "admin", "expire",
                           "team/lost:v1", "--state-dir", ready_state_dir],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "skipped 5 unreadable entries" in proc.stderr
    assert "NotFound" in proc.stderr
