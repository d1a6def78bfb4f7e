"""Fault-injection scenarios.

Each scenario builds a small world, injects one production failure mode, and
checks that the designed behavior holds. A report carries pass/fail plus the
numbers that justify it; the trace stays available for callers that want to
write it out.

    1 silent-stall    worker dies mid-transfer without reporting; the lease
                      sweeper must fail the record within one sweep interval
                      of lease expiry, and a retry must succeed
    2 forged-archive  corrupted archives must never reach READY or mount
    3 restart-storm   gateway crash with duplicate interest queued; after
                      restart: bounded workers, no duplicate downloads,
                      recovery fails stale transients, pull completes
    4 auth-outage     node credential daemons down; job fails naming the
                      node, distinct from bad-credential, recovers after
    5 resolver-storm  simultaneous group lookups from 2048 nodes; without
                      node caches the directory cap forces timeouts, with
                      warmed caches the backend barely hears about it
    6 swapped-archive a valid archive of another image replaces a READY
                      record's file; a job staged from that record must
                      mount on no node and fail naming UdiCorrupt
"""
from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field

from .authsvc import CredentialVerifier, issue_credential
from .clock import Tracer, VirtualClock
from .config import Config
from .cluster import (DEFAULT_GIDS, DEFAULT_UID, MODE_DIRECTIVE, UDI_GRES,
                      ClusterSim, JobCommand, JobSpec, derive_rng)
from .errors import UdigateError, UnknownScenario, VerifyError
from .filetree import FileTree
from .gateway import Gateway, ImageState
from .nodeagent import IdentityBackend, NodeAgent
from .refs import parse_reference
from .registry import LocalRegistry, fixture_layers
from .udi import write_udi

SCENARIO_NAMES = {
    1: "silent-stall",
    2: "forged-archive",
    3: "restart-storm",
    4: "auth-outage",
    5: "resolver-storm",
    6: "swapped-archive",
}


@dataclass
class ScenarioReport:
    scenario: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer, repr=False)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} ({self.name}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for k in sorted(self.details):
            lines.append(f"  {k} = {self.details[k]}")
        return "\n".join(lines)


def _check(details: dict, checks: dict) -> bool:
    ok = True
    for name, value in checks.items():
        details[name] = bool(value)
        ok = ok and bool(value)
    return ok


# -- scenario 1: silent worker death mid-transfer --------------------------------

def run_silent_stall(seed: int, config: Config | None = None) -> ScenarioReport:
    cfg = config or Config()
    tracer = Tracer()
    registry = LocalRegistry()
    manifest = registry.add_image("deep-learning-base", "v1", fixture_layers(),
                                  total_size=3_000_000_000)
    sim = ClusterSim(cfg, seed=seed, n_nodes=0, registry=registry, tracer=tracer)
    # the stream dies silently partway through the second layer
    registry.set_abort(manifest.layers[1], fraction=0.5, mode="silent")

    ref = parse_reference("deep-learning-base:v1")
    sim.gateway.pull(ref, sim.make_credential())

    # let the worker die, then snapshot the wedged record
    per_layer = manifest.total_size / len(manifest.layers)
    death = cfg.manifest_latency + 2 * per_layer / cfg.registry_bandwidth
    sim.clock.run_until(death + 0.5)
    stuck = sim.gateway.lookup(ref)
    stuck_state = stuck.state
    lease_expiry = stuck.lease_expires_at

    sim.clock.run_until_idle()
    failed = sim.gateway.lookup(ref)
    flip_lag = failed.updated_at - lease_expiry

    # the fault was one-shot; a fresh pull must go all the way
    sim.gateway.pull(ref, sim.make_credential())
    sim.clock.run_until_idle()
    final = sim.gateway.lookup(ref)

    details: dict = {
        "stuck_state": str(stuck_state),
        "lease_expires_at": f"{lease_expiry:.6f}",
        "failed_at": f"{failed.updated_at:.6f}",
        "flip_lag_seconds": f"{flip_lag:.6f}",
        "sweep_interval": cfg.sweep_interval,
        "final_state": str(final.state),
        "attempts": final.attempts,
    }
    passed = _check(details, {
        "worker_wedged_in_pulling": stuck_state is ImageState.PULLING,
        "sweeper_failed_it": failed.state is ImageState.FAILED
        and "lease expired" in failed.last_error,
        "flip_within_one_sweep": 0.0 <= flip_lag <= cfg.sweep_interval,
        "retry_reached_ready": final.state is ImageState.READY,
    })
    sim.cleanup()
    return ScenarioReport(1, SCENARIO_NAMES[1], passed, details, tracer)


# -- scenario 2: corrupted archives must never pass the gates ----------------------

def run_forged_archive(seed: int, config: Config | None = None,
                       trials: int = 1000) -> ScenarioReport:
    cfg = config or Config()
    tracer = Tracer()
    clock = VirtualClock()
    rng = derive_rng(seed, "forge")
    state_dir = tempfile.mkdtemp(prefix="udigate-forge-")
    verifier = CredentialVerifier(cfg.secret, cfg.credential_ttl, clock)
    # no task sink: tasks land in pending_tasks and we drive records by hand
    gateway = Gateway(cfg, clock, LocalRegistry(), state_dir, verifier=verifier,
                      tracer=tracer, rng=derive_rng(seed, "forge-gateway"))
    identity = IdentityBackend({DEFAULT_UID: DEFAULT_GIDS}, cap=cfg.identity_cap,
                               timeout=cfg.identity_timeout,
                               latency_mean=cfg.identity_latency_mean)
    agent = NodeAgent(0, clock, verifier, identity, cfg, tracer=tracer)
    cred = issue_credential(DEFAULT_UID, DEFAULT_GIDS, "user", cfg.secret,
                            now=clock.now(), rng=derive_rng(seed, "forge-cred"))

    tree = FileTree()
    tree.add_dir("/data")
    for i in range(8):
        tree.add_file(f"/data/blob{i}", bytes(rng.randrange(256) for _ in range(64)))

    ready_count = 0
    mount_success = 0
    rejected = {"gateway": 0, "mount": 0}

    for trial in range(trials):
        path = f"{state_dir}/forged-{trial}.udi"
        # the untouched archive's descriptor: its digest is what a READY
        # record of it would hold
        desc = write_udi(tree, path, source_ref=f"forged-{trial}:v1", created_at=clock.now())
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        kind = rng.randrange(3)
        if kind == 0:  # flip one bit anywhere
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif kind == 1:  # truncate
            data = data[:rng.randrange(1, len(data))]
        else:  # append garbage
            data.extend(rng.randbytes(rng.randrange(1, 16)))
        with open(path, "wb") as fh:
            fh.write(bytes(data))

        # gate one: a worker trying to land these bytes as READY
        ref = parse_reference(f"forged-{trial}:v1")
        gateway.pull(ref, cred)
        task = gateway.pending_tasks.pop()
        gateway.claim(task)
        gateway.begin_convert(task, f"claimed-digest-{trial}")
        try:
            gateway.complete(task, path)
            ready_count += 1
        except VerifyError as exc:
            rejected["gateway"] += 1
            gateway.fail_task(task, exc)

        # gate two: a node asked to mount those bytes under that digest
        try:
            agent.mount_udi(path, desc.content_digest, cred, f"job-forge-{trial}")
            mount_success += 1
        except UdigateError:
            rejected["mount"] += 1

    details: dict = {
        "trials": trials,
        "ready_count": ready_count,
        "mount_success": mount_success,
        "rejected_gateway": rejected["gateway"],
        "rejected_mount": rejected["mount"],
    }
    passed = _check(details, {
        "no_forged_ready": ready_count == 0,
        "no_forged_mount": mount_success == 0,
        "every_trial_rejected_twice": rejected["gateway"] == trials
        and rejected["mount"] == trials,
    })
    gateway.close()
    shutil.rmtree(state_dir, ignore_errors=True)
    return ScenarioReport(2, SCENARIO_NAMES[2], passed, details, tracer)


# -- scenario 3: crash with duplicate interest, then restart -----------------------

DUPLICATE_PULLS = 8  # pulls of one image before the crash, and again after it


def run_restart_storm(seed: int, config: Config | None = None) -> ScenarioReport:
    cfg = config or Config()
    tracer = Tracer()
    registry = LocalRegistry()
    manifest = registry.add_image("analytics-stack", "2024.1", fixture_layers(),
                                  total_size=3_000_000_000)
    sim = ClusterSim(cfg, seed=seed, n_nodes=0, registry=registry, tracer=tracer)
    ref = parse_reference("analytics-stack:2024.1")

    for _ in range(DUPLICATE_PULLS):
        sim.gateway.pull(ref, sim.make_credential())
    tasks_before = sim.tasks_created

    # crash mid-transfer and restart immediately
    sim.clock.run_until(12.0)
    sim.crash_gateway()
    recovered = sim.restart_gateway()

    # the same callers all come back after the restart
    for _ in range(DUPLICATE_PULLS):
        sim.gateway.pull(ref, sim.make_credential())
    sim.clock.run_until_idle()

    final = sim.gateway.lookup(ref)
    fetches = registry.manifest_fetches[ref.canonical()]
    worst_layer_fetch = max(registry.layer_fetches[d] for d in manifest.layers)

    details: dict = {
        "duplicate_pulls_per_round": DUPLICATE_PULLS,
        "tasks_first_round": tasks_before,
        "tasks_total": sim.tasks_created,
        "recovered_transients": len(recovered),
        "manifest_fetches": fetches,
        "worst_layer_fetches": worst_layer_fetch,
        "max_active_workers": sim.max_active_chains,
        "final_state": str(final.state),
        "attempts": final.attempts,
    }
    passed = _check(details, {
        "single_flight_first_round": tasks_before == 1,
        "single_flight_total": sim.tasks_created == 2,
        "recovery_failed_stale_transient": len(recovered) == 1
        and recovered[0].state is ImageState.FAILED,
        "manifest_fetches_bounded": fetches <= cfg.max_attempts,
        "no_duplicate_layer_downloads": worst_layer_fetch <= 2,
        "worker_pool_bounded": sim.max_active_chains <= cfg.worker_pool_size,
        "pull_completed_after_restart": final.state is ImageState.READY,
    })
    sim.cleanup()
    return ScenarioReport(3, SCENARIO_NAMES[3], passed, details, tracer)


# -- scenario 4: node auth daemons down -------------------------------------------

def run_auth_outage(seed: int, config: Config | None = None,
                    nodes: int = 8, down_nodes: tuple[int, ...] = (2, 5)) -> ScenarioReport:
    cfg = config or Config()
    tracer = Tracer()
    registry = LocalRegistry()
    registry.add_image("climate-model", "v7", fixture_layers(), total_size=36_000_000)
    sim = ClusterSim(cfg, seed=seed, n_nodes=nodes, registry=registry, tracer=tracer)

    spec = JobSpec(nodes=nodes, ranks_per_node=4, image_mode=MODE_DIRECTIVE,
                   gres=(UDI_GRES,), udi="climate-model:v7",
                   commands=(JobCommand("./model run"),))

    control_id = sim.submit(spec)
    sim.run()
    control = sim.result(control_id)

    for n in down_nodes:
        sim.nodes[n].set_auth_up(False)
    outage_id = sim.submit(spec)
    sim.run()
    outage = sim.result(outage_id)

    for n in down_nodes:
        sim.nodes[n].set_auth_up(True)
    recovery_id = sim.submit(spec)
    sim.run()
    recovery = sim.result(recovery_id)

    details: dict = {
        "nodes": nodes,
        "down_nodes": ",".join(str(n) for n in down_nodes),
        "control_outcome": control.outcome,
        "outage_outcome": outage.outcome,
        "outage_reason": outage.reason,
        "recovery_outcome": recovery.outcome,
        "mounts_leaked": sim.total_mounted(),
    }
    checks = {
        "control_succeeded": control.outcome == "success",
        "recovery_succeeded": recovery.outcome == "success",
        "no_leaked_mounts": sim.total_mounted() == 0,
    }
    if down_nodes:
        first_down = f"node/{down_nodes[0]:04d}"
        checks.update({
            "outage_failed": outage.outcome == "failed",
            "error_names_down_node": first_down in outage.reason,
            "error_is_service_down": "AuthServiceDown" in outage.reason,
        })
    else:
        # nothing was broken, so the middle run must sail through too
        checks["outage_succeeded"] = outage.outcome == "success"
    passed = _check(details, checks)
    sim.cleanup()
    return ScenarioReport(4, SCENARIO_NAMES[4], passed, details, tracer)


# -- scenario 5: group-resolution storm --------------------------------------------

def storm_timeout_oracle(nodes: int, cap: int, service_time: float, timeout: float) -> int:
    """Closed-form timeout count for a simultaneous-arrival storm: admission
    happens in waves of `cap` every `service_time`; a request whose wave
    would start later than `timeout` after arrival gives up."""
    waves_within_timeout = int(timeout // service_time) + 1
    served = min(nodes, waves_within_timeout * cap)
    return nodes - served


def run_resolver_storm(seed: int, config: Config | None = None,
                       nodes: int = 2048) -> ScenarioReport:
    base = config or Config()
    service_time = 2.0
    cfg = base.replace(identity_latency_mean=service_time)

    def build(cache_enabled: bool) -> ClusterSim:
        registry = LocalRegistry()
        registry.add_image("weather-ensemble", "v3", fixture_layers(),
                           total_size=36_000_000)
        return ClusterSim(cfg.replace(cache_enabled=cache_enabled), seed=seed,
                          n_nodes=nodes, registry=registry, tracer=Tracer())

    spec = JobSpec(nodes=nodes, ranks_per_node=1, image_mode=MODE_DIRECTIVE,
                   gres=(UDI_GRES,), udi="weather-ensemble:v3",
                   commands=(JobCommand("./forecast"),))

    # cold: every node storms the directory at the same instant
    cold = build(cache_enabled=False)
    cold_job = cold.submit(spec)
    cold.run()
    cold_result = cold.result(cold_job)
    oracle = storm_timeout_oracle(nodes, cfg.identity_cap, service_time,
                                  cfg.identity_timeout)

    # warm: per-node caches were populated before the storm hit
    warm = build(cache_enabled=True)
    for agent in warm.nodes:
        agent.prime_cache(DEFAULT_UID, DEFAULT_GIDS)
    warm_job = warm.submit(spec)
    warm.run()
    warm_result = warm.result(warm_job)

    details: dict = {
        "nodes": nodes,
        "identity_cap": cfg.identity_cap,
        "service_time": service_time,
        "timeout": cfg.identity_timeout,
        "cold_outcome": cold_result.outcome,
        "cold_backend_requests": cold.identity.requests,
        "cold_timeouts": cold.identity.timeouts,
        "oracle_timeouts": oracle,
        "warm_outcome": warm_result.outcome,
        "warm_backend_requests": warm.identity.requests,
    }
    passed = _check(details, {
        "cold_run_failed": cold_result.outcome == "failed",
        "cold_failure_is_timeout": "IdentityTimeout" in cold_result.reason,
        "cold_timeouts_match_oracle": cold.identity.timeouts == oracle,
        "warm_run_succeeded": warm_result.outcome == "success",
        "warm_backend_below_cap": warm.identity.requests <= cfg.identity_cap,
    })
    cold.cleanup()
    warm.cleanup()
    return ScenarioReport(5, SCENARIO_NAMES[5], passed, details, cold.tracer)


# -- scenario 6: a READY record's file replaced by another image's archive ---------

SWAPPED_NODES = 8  # nodes of each scenario 6 job


def run_swapped_archive(seed: int, config: Config | None = None) -> ScenarioReport:
    cfg = config or Config()
    tracer = Tracer()
    registry = LocalRegistry()
    for tag in ("v1", "v2"):
        registry.add_image("genome-assembler", tag, fixture_layers(), total_size=36_000_000)
    sim = ClusterSim(cfg, seed=seed, n_nodes=SWAPPED_NODES, registry=registry, tracer=tracer)
    target, other = (parse_reference(f"genome-assembler:{t}") for t in ("v1", "v2"))
    for ref in (target, other):
        sim.gateway.pull(ref, sim.make_credential())
    sim.run()

    spec = JobSpec(nodes=SWAPPED_NODES, ranks_per_node=4, image_mode=MODE_DIRECTIVE,
                   gres=(UDI_GRES,), udi=target.canonical(),
                   commands=(JobCommand("./assemble"),))
    control_id = sim.submit(spec)
    sim.run()
    control = sim.result(control_id)

    # another image's valid archive lands at the record's path: it passes
    # a structure walk and its own trailer, but not the record's digest
    record = sim.gateway.lookup(target)
    shutil.copyfile(sim.gateway.lookup(other).udi_path, record.udi_path)
    mounts_before = sum(n.mounts_done for n in sim.nodes)
    swapped_id = sim.submit(spec)
    sim.run()
    swapped = sim.result(swapped_id)
    swapped_mounts = sum(n.mounts_done for n in sim.nodes) - mounts_before

    details: dict = {
        "nodes": SWAPPED_NODES,
        "control_outcome": control.outcome,
        "swapped_outcome": swapped.outcome,
        "swapped_reason": swapped.reason,
        "swapped_mounts": swapped_mounts,
        "mount_failures": len(swapped.per_node_events),
    }
    passed = _check(details, {
        "control_succeeded": control.outcome == "success",
        "swapped_job_failed": swapped.outcome == "failed",
        "error_is_udi_corrupt": "UdiCorrupt" in swapped.reason,
        "no_node_mounted": swapped_mounts == 0,
        "every_node_refused": len(swapped.per_node_events) == SWAPPED_NODES,
    })
    sim.cleanup()
    return ScenarioReport(6, SCENARIO_NAMES[6], passed, details, tracer)


def run_scenario(scenario: int, seed: int = 1, config: Config | None = None) -> ScenarioReport:
    runners = {
        1: run_silent_stall,
        2: run_forged_archive,
        3: run_restart_storm,
        4: run_auth_outage,
        5: run_resolver_storm,
        6: run_swapped_archive,
    }
    runner = runners.get(scenario)
    if runner is None:
        raise UnknownScenario(f"no scenario {scenario}; valid: {sorted(runners)}")
    return runner(seed, config)


def run_all(seed: int = 1, config: Config | None = None) -> list[ScenarioReport]:
    return [run_scenario(k, seed=seed, config=config) for k in sorted(SCENARIO_NAMES)]
