"""Cluster simulator: job lifecycles, image modes, failures, determinism."""

import os

import pytest

from helpers import payload_tree, tiny_tree, trace_events
from udigate.cluster import (
    MODE_DIRECTIVE,
    MODE_PER_COMMAND,
    ClusterSim,
    JobCommand,
    JobResult,
    JobSpec,
    _JobFailed,
    _JobRun,
    parse_job_file,
    validate_spec,
)
from udigate.config import Config
from udigate.errors import InvalidSpec, MissingGres
from udigate.gateway import ImageState
from udigate.refs import parse_reference
from udigate.registry import LocalRegistry
from udigate.store import RecordLog


def seeded_registry():
    reg = LocalRegistry()
    reg.add_image("apps/sim", "v1", [tiny_tree(), payload_tree()], total_size=50_000_000)
    reg.add_image("apps/sim", "v2", [payload_tree(b"v2")], total_size=10_000_000)
    return reg


_SIMS: list[ClusterSim] = []  # made by make_sim, cleaned up after each test


@pytest.fixture(autouse=True)
def _clean_up_sims():
    yield
    while _SIMS:
        _SIMS.pop().cleanup()


def make_sim(seed=7, n_nodes=4, config=None, tmp_path=None, registry=None):
    cfg = config if config is not None else Config()
    state = str(tmp_path / f"sim-{seed}") if tmp_path is not None else None
    _SIMS.append(ClusterSim(cfg, seed=seed, n_nodes=n_nodes,
                            registry=registry or seeded_registry(), state_dir=state))
    return _SIMS[-1]


def directive_spec(**kw):
    base = dict(nodes=3, ranks_per_node=4, image_mode=MODE_DIRECTIVE,
                gres=("udi",), udi="apps/sim:v1",
                commands=(JobCommand("./solve --fast"),))
    base.update(kw)
    return JobSpec(**base)


# -- spec validation -----------------------------------------------------------


def test_missing_gres_rejected(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    with pytest.raises(MissingGres):
        sim.submit(directive_spec(gres=()))
    with pytest.raises(MissingGres):
        sim.submit(JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_PER_COMMAND,
                           gres=("gpu",), commands=(JobCommand("./x", image="apps/sim:v1"),)))


def test_host_only_job_needs_no_gres():
    spec = JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_PER_COMMAND,
                   commands=(JobCommand("./plain"),))
    validate_spec(spec, cluster_nodes=4)  # no image involved: fine


@pytest.mark.parametrize("bad", [
    dict(nodes=0),
    dict(ranks_per_node=0),
    dict(nodes=99),
    dict(image_mode="Sideways"),
    dict(udi=""),
    dict(commands=(JobCommand("./x", image="apps/sim:v2"),)),
    dict(uid=-1),
    dict(gids=(100, 2 ** 64)),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(InvalidSpec):
        validate_spec(directive_spec(**bad), cluster_nodes=8)


def test_per_command_mode_rejects_job_level_image():
    spec = JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_PER_COMMAND,
                   gres=("udi",), udi="apps/sim:v1")
    with pytest.raises(InvalidSpec):
        validate_spec(spec, cluster_nodes=4)


# -- directive jobs -------------------------------------------------------------


def test_directive_job_succeeds(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    job_id = sim.submit(directive_spec())
    results = sim.run()
    res = results[job_id]
    assert res.outcome == "success"
    assert res.reason == ""
    assert res.prologue_duration > 0.0
    assert res.startup_seconds >= res.prologue_duration
    assert res.commands_failed == 0
    sim.assert_clean()  # every mount released by the epilogue

    rec = sim.gateway.lookup(parse_reference("apps/sim:v1"))
    assert rec.state is ImageState.READY

    events = [ev for _, _, ev, _ in trace_events(sim.tracer, entity_prefix=job_id)]
    for expected in ("submitted", "prologue_start", "prologue_done",
                     "cmd_start", "cmd_done", "epilogue_start", "job_done"):
        assert expected in events


def test_directive_prologue_scales_with_image_size(tmp_path):
    # sizes far enough apart that the READY poll quantum cannot mask them
    reg = LocalRegistry()
    reg.add_image("apps/sim", "v1", [tiny_tree()], total_size=2_000_000_000)
    reg.add_image("apps/sim", "v2", [payload_tree()], total_size=10_000_000)
    big = make_sim(seed=3, tmp_path=tmp_path / "big", registry=reg)
    small = make_sim(seed=3, tmp_path=tmp_path / "small")
    jb = big.submit(directive_spec(udi="apps/sim:v1"))
    js = small.submit(directive_spec(udi="apps/sim:v2"))
    assert big.run()[jb].prologue_duration > 5 * small.run()[js].prologue_duration


def test_second_job_reuses_ready_image(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    first = sim.submit(directive_spec())
    sim.run()
    second = sim.submit(directive_spec())
    sim.run()
    r1, r2 = sim.result(first), sim.result(second)
    assert r2.outcome == "success"
    # no pull, no transfer: just mounts
    assert r2.prologue_duration < r1.prologue_duration / 2
    assert sim.tasks_created == 1
    sim.assert_clean()


def test_directive_mounts_on_every_allocated_node(tmp_path):
    sim = make_sim(n_nodes=6, tmp_path=tmp_path)
    mounted = set()
    original = sim.nodes[0].__class__.mount_udi

    def spy(node, path, digest, cred, job_id):
        mounted.add(node.node_id)
        return original(node, path, digest, cred, job_id)

    for n in sim.nodes:
        n.mount_udi = spy.__get__(n)
    sim.submit(directive_spec(nodes=4))
    sim.run()
    assert mounted == {0, 1, 2, 3}


def _job_events(sim, job_id):
    return [f"{ev} {details}".rstrip()
            for _, _, ev, details in trace_events(sim.tracer, entity_prefix=job_id)]


def test_unknown_image_fails_job(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    job_id = sim.submit(directive_spec(udi="apps/ghost:v1"))
    res = sim.run()[job_id]
    assert res.outcome == "failed"
    assert "FAILED" in res.reason
    assert "RegistryUnknownImage" in res.reason
    sim.assert_clean()
    assert _job_events(sim, job_id) == [
        "submitted nodes=3 ranks=4 mode=Directive", "prologue_start",
        "job_failed at=prologue", "epilogue_start", "cleanup hook=cleanup_scratch",
        "cleanup hook=drop_node_cache", "epilogue_done", "job_done outcome=failed"]


def test_node_auth_outage_fails_prologue(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    sim.nodes[2].set_auth_up(False)
    job_id = sim.submit(directive_spec(nodes=4))
    res = sim.run()[job_id]
    assert res.outcome == "failed"
    assert res.reason.startswith("prologue mount failed: node/0002: AuthServiceDown")
    # the healthy nodes mounted and were cleaned up again
    sim.assert_clean()
    assert any("node/0002" in line for line in res.per_node_events)
    events = [line.split()[0] for line in _job_events(sim, job_id)]
    assert events.count("job_failed") == 1
    assert events.count("epilogue_start") == events.count("epilogue_done") == 1
    assert "prologue_done" not in events
    assert "cmd_start" not in events


def test_stale_record_never_mounts_repulled_bytes(tmp_path):
    # a job holding a READY record across expire and re-pull of the same
    # reference fails closed: first no file, then a file of other bytes
    sim = make_sim(tmp_path=tmp_path)
    ref = parse_reference("apps/sim:v1")
    sim.gateway.pull(ref, sim.make_credential())
    sim.run()
    old = sim.gateway.lookup(ref)
    sim.gateway.expire(ref, sim.make_credential(scope="admin"))
    run = _JobRun(sim, directive_spec(), "job-held", JobResult("job-held"))
    with pytest.raises(_JobFailed, match="UdiCorrupt: io"):
        run._stage(old, "stage")

    sim.gateway.pull(ref, sim.make_credential())
    sim.run()
    new = sim.gateway.lookup(ref)
    assert new.state is ImageState.READY
    assert new.udi_path == old.udi_path
    assert new.udi_digest != old.udi_digest
    with pytest.raises(_JobFailed, match="UdiCorrupt: descriptor mismatch"):
        run._stage(old, "stage")
    assert sum(n.mounts_done for n in sim.nodes) == 0
    assert len(run._stage(new, "stage")) == 3
    sim.cleanup()


def test_ready_record_without_archive_digest_fails_job(tmp_path):
    # a READY put written before records carried udi_digest
    sim = make_sim(tmp_path=tmp_path)
    ref = parse_reference("apps/sim:v1")
    sim.gateway.pull(ref, sim.make_credential())
    sim.run()
    record = sim.gateway.lookup(ref).to_store_dict()
    del record["udi_digest"]
    sim.crash_gateway()
    log = RecordLog(os.path.join(sim.state_dir, "records.log"))
    log.append({"op": "put", "key": ref.key(), "record": record})
    log.close()
    sim.restart_gateway()
    res = sim.result(sim.submit(directive_spec()))
    sim.run()
    assert res.outcome == "failed"
    assert "has no archive digest" in res.reason
    assert sum(n.mounts_done for n in sim.nodes) == 0
    sim.cleanup()


# -- per-command jobs -------------------------------------------------------------


def test_per_command_staging_and_reuse(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    spec = JobSpec(nodes=2, ranks_per_node=8, image_mode=MODE_PER_COMMAND,
                   gres=("udi",),
                   commands=(JobCommand("./pre"),                       # host side
                             JobCommand("./a", image="apps/sim:v1"),
                             JobCommand("./b", image="apps/sim:v1"),    # image cached
                             JobCommand("./c", image="apps/sim:v2")))
    job_id = sim.submit(spec)
    res = sim.run()[job_id]
    assert res.outcome == "success"
    assert sim.tasks_created == 2  # one pull per distinct image
    sim.assert_clean()

    # the host-side command started before any image was staged
    starts = trace_events(sim.tracer, event="cmd_start", entity_prefix=job_id)
    images = [dict(kv.split("=") for kv in details.split())["image"]
              for _, _, _, details in starts]
    assert images == ["-", "apps/sim:v1", "apps/sim:v1", "apps/sim:v2"]


def test_per_command_failed_image_skips_command_only(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    spec = JobSpec(nodes=1, ranks_per_node=1, image_mode=MODE_PER_COMMAND,
                   gres=("udi",),
                   commands=(JobCommand("./a", image="apps/ghost:v9"),
                             JobCommand("./b", image="apps/sim:v2")))
    job_id = sim.submit(spec)
    res = sim.run()[job_id]
    assert res.commands_failed == 1
    assert res.outcome == "success"  # remaining commands still ran
    done = trace_events(sim.tracer, event="cmd_done", entity_prefix=job_id)
    assert len(done) == 1
    sim.assert_clean()
    # startup runs to the first command that started, not the failed one
    (t_prologue, *_), = trace_events(sim.tracer, event="prologue_start", entity_prefix=job_id)
    (t_first, *_), = trace_events(sim.tracer, event="cmd_start", entity_prefix=job_id)
    assert t_first > t_prologue
    assert res.startup_seconds == pytest.approx(t_first - t_prologue, abs=1e-6)


# -- crash / restart ---------------------------------------------------------------


def test_gateway_crash_loses_inflight_pull(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    job_id = sim.submit(directive_spec())
    sim.clock.schedule(0.2, sim.crash_gateway)     # mid-transfer
    sim.clock.schedule(3.0, sim.restart_gateway)
    res = sim.run()[job_id]
    assert res.outcome == "failed"
    assert "gateway restart during" in res.reason
    sim.assert_clean()

    # the record is FAILED with budget left: a later job can retry it
    job2 = sim.submit(directive_spec())
    assert sim.run()[job2].outcome == "success"


def test_crash_trace_events(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    sim.submit(directive_spec())
    sim.clock.schedule(0.2, sim.crash_gateway)
    sim.clock.schedule(3.0, sim.restart_gateway)
    sim.run()
    gw_events = [ev for _, _, ev, _ in trace_events(sim.tracer, entity_prefix="gateway")]
    assert "crash" in gw_events
    assert "restart" in gw_events


def _worker_events(sim):
    return [(ev, details) for _, _, ev, details in trace_events(sim.tracer, entity_prefix="worker")]


def test_failed_transfer_trace_line(tmp_path):
    registry = seeded_registry()
    digest = registry.fetch_manifest("apps/sim:v1").layers[0]
    registry.set_abort(digest, fraction=0.5, mode="error")
    sim = make_sim(tmp_path=tmp_path, registry=registry)
    sim.submit(directive_spec())
    sim.run()
    assert _worker_events(sim) == [
        ("task_failed", "ref=apps/sim:v1 step=transfer err=RegistryIoError")]


def test_lease_revoked_trace_line(tmp_path):
    sim = make_sim(tmp_path=tmp_path)
    job_id = sim.submit(directive_spec())
    admin = sim.make_credential(scope="admin")
    sim.clock.schedule(0.2, lambda: sim.gateway.expire(parse_reference("apps/sim:v1"), admin))
    res = sim.run()[job_id]
    assert res.outcome == "failed"
    assert _worker_events(sim) == [("lease_revoked", "ref=apps/sim:v1 step=transfer")]


# -- determinism --------------------------------------------------------------------


def _trace_for(seed, tmp_path, tag):
    sim = ClusterSim(Config(), seed=seed, n_nodes=8, registry=seeded_registry(),
                     state_dir=str(tmp_path / tag))
    try:
        sim.submit(directive_spec(nodes=8, ranks_per_node=16))
        spec2 = JobSpec(nodes=3, ranks_per_node=2, image_mode=MODE_PER_COMMAND,
                        gres=("udi",), commands=(JobCommand("./x", image="apps/sim:v2"),))
        sim.submit(spec2)
        sim.run()
        return sim.tracer.text()
    finally:
        sim.cleanup()


def test_same_seed_same_trace(tmp_path):
    a = _trace_for(11, tmp_path, "a")
    b = _trace_for(11, tmp_path, "b")
    assert a == b
    assert "\t" in a and a.endswith("\n")


def test_different_seed_different_trace(tmp_path):
    assert _trace_for(11, tmp_path, "c") != _trace_for(12, tmp_path, "d")


def test_trace_carries_no_absolute_paths(tmp_path):
    text = _trace_for(13, tmp_path, "e")
    assert str(tmp_path) not in text
    assert "/tmp/" not in text


# -- job file grammar ------------------------------------------------------------


def test_parse_job_file_full():
    spec = parse_job_file("""
        # production run
        nodes = 16
        ranks_per_node = 32
        mode = PerCommand
        gres = udi, gpu
        uid = 2042
        gids = 100, 2042
        run = ./prepare --stage
        run[apps/sim:v1] = ./solver --steps 100
        run = ./collect
    """)
    assert spec.nodes == 16
    assert spec.ranks_per_node == 32
    assert spec.image_mode == MODE_PER_COMMAND
    assert spec.gres == ("udi", "gpu")
    assert spec.uid == 2042
    assert spec.gids == (100, 2042)
    assert [c.argv for c in spec.commands] == [
        "./prepare --stage", "./solver --steps 100", "./collect"]
    assert [c.image for c in spec.commands] == ["", "apps/sim:v1", ""]


def test_parse_job_file_defaults():
    spec = parse_job_file("udi = a/b:c\ngres = udi\n")
    assert spec.nodes == 1
    assert spec.ranks_per_node == 1
    assert spec.image_mode == MODE_DIRECTIVE


@pytest.mark.parametrize("text", [
    "nodes = many",
    "no separator here",
    "banana = yes",
    "gids = 100,abc",
])
def test_parse_job_file_rejects(text):
    with pytest.raises(InvalidSpec):
        parse_job_file(text)
