"""Work per node in one job's mount fan-out, counted rather than timed.

Every node of a Directive job verifies the job's credential and hashes the
whole archive on its own. These tests count that work on a 64-node job:
one archive open and one MAC per mount, one canonical payload per
credential object, and the simulator's own events and trace lines. Then
they check that nothing learned on one node or one mount lets a bad
credential through on another.
"""

import builtins
import dataclasses
import hmac

import pytest

import udigate.authsvc
import udigate.udi
from helpers import advance
from test_cluster import directive_spec, seeded_registry
from udigate.authsvc import Credential
from udigate.cluster import ClusterSim
from udigate.config import Config
from udigate.errors import CredentialExpired, MacMismatch
from udigate.nodeagent import NodeAgent
from udigate.refs import parse_reference

NODES = 64
# clock events and trace lines of the job below; a change that moves either
# changes what the simulator does per node
JOB_EVENTS = 69
JOB_TRACE_LINES = 267


@pytest.fixture
def sim(tmp_path):
    sim = ClusterSim(Config(), seed=1, n_nodes=NODES, registry=seeded_registry(),
                     state_dir=str(tmp_path / "state"))
    sim.gateway.pull(parse_reference("apps/sim:v1"), sim.make_credential())
    sim.clock.run_until_idle()
    yield sim
    sim.cleanup()


def _counting(monkeypatch, owner, attr, counts, key, real=None):
    """Replace owner.attr by a pass-through that counts its calls."""
    real = real or getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted, raising=False)


def test_fan_out_does_one_open_and_one_mac_per_node(sim, monkeypatch):
    counts = {"opens": 0, "macs": 0, "payloads": 0, "credentials": 0}
    _counting(monkeypatch, udigate.udi, "open", counts, "opens", real=builtins.open)
    _counting(monkeypatch, hmac.HMAC, "digest", counts, "macs")
    _counting(monkeypatch, udigate.authsvc, "canonical_payload", counts, "payloads")
    _counting(monkeypatch, Credential, "__init__", counts, "credentials")

    per_mount = []
    mount = NodeAgent.mount_udi

    def counted_mount(node, *args):
        before = (counts["opens"], counts["macs"])
        try:
            return mount(node, *args)
        finally:
            per_mount.append((counts["opens"] - before[0], counts["macs"] - before[1]))

    monkeypatch.setattr(NodeAgent, "mount_udi", counted_mount)
    lines = len(sim.tracer.lines)
    job_id = sim.submit(directive_spec(nodes=NODES, ranks_per_node=16))
    assert sim.clock.run_until_idle() == JOB_EVENTS
    assert sim.result(job_id).outcome == "success"
    assert len(sim.tracer.lines) - lines == JOB_TRACE_LINES
    assert per_mount == [(1, 1)] * NODES
    assert counts["payloads"] == counts["credentials"] == 1  # the job's credential


def _mount_everywhere(sim, cred, job_id):
    """Mount the pulled archive on every node with cred; returns, per node,
    the error type's name or "ok"."""
    rec = sim.gateway.lookup(parse_reference("apps/sim:v1"))
    out = []
    for node in sim.nodes:
        try:
            node.mount_udi(rec.udi_path, rec.udi_digest, cred, job_id)
        except (MacMismatch, CredentialExpired) as exc:
            out.append(type(exc).__name__)
        else:
            out.append("ok")
    return out


def test_no_verification_outlives_its_mount(sim):
    genuine = sim.make_credential()
    mac = bytearray(genuine.mac)
    mac[5] ^= 0x08
    forged = dataclasses.replace(genuine, mac=bytes(mac))
    assert _mount_everywhere(sim, genuine, "job-genuine") == ["ok"] * NODES
    assert _mount_everywhere(sim, forged, "job-forged") == ["MacMismatch"] * NODES
    advance(sim.clock, sim.config.credential_ttl + 1.0)
    assert _mount_everywhere(sim, genuine, "job-late") == ["CredentialExpired"] * NODES
    for node in sim.nodes:
        node.unmount_job("job-genuine")
    sim.assert_clean()
