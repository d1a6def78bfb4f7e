"""Virtual cluster: batch jobs over the gateway and node agents.

Jobs come in two image modes, mirroring how sites actually run containers:

  * Directive: the job declares one image up front; the prologue pulls it
    through the gateway once and fans the mount out to every allocated node
    before any command runs.
  * PerCommand: commands name their own images and staging happens during
    execution, the first tagged command eats the mount cost.

Either way the job must request the "udi" resource token (gres); submission
without it is rejected up front, exactly the kind of user error that should
fail fast instead of wedging a prologue.

Everything runs on the shared VirtualClock. Per-node mount latency is drawn
from a stream seeded by (seed, node_id) only, so runs over different image
sizes or rank counts reuse identical draws, which keeps cost comparisons
honest. Jobs and pulls are both step generators: a job's ``_JobRun.steps``
yields (delay, priority) and a pull's ``Gateway.run_pull`` yields (kind,
cost) before each wait, and the simulator schedules each resume on the
clock. Pulls run through a bounded worker pool, with a lease sweeper armed
whenever transient records exist.
"""
from __future__ import annotations

import hashlib
import logging
import random
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .authsvc import ID_LIMIT, Credential, CredentialVerifier, issue_credential
from .clock import Tracer, VirtualClock, fmt_time
from .config import Config
from .errors import InvalidSpec, MissingGres, UdigateError
from .gateway import Gateway, ImageRecord, ImageState, PullTask
from .nodeagent import IdentityBackend, NodeAgent
from .refs import parse_reference
from .registry import LocalRegistry
# nothing here calls scan_udi, another name for verify_udi; it stays
# importable because wallbench/spans.py wraps cluster.scan_udi by name
from .udi import scan_udi  # noqa: F401

log = logging.getLogger(__name__)

UDI_GRES = "udi"

MODE_DIRECTIVE = "Directive"
MODE_PER_COMMAND = "PerCommand"

DEFAULT_UID = 1000
DEFAULT_GIDS = (100, 1000)


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


@dataclass(frozen=True)
class JobCommand:
    argv: str
    image: str = ""  # PerCommand image tag; empty means run on the host side


@dataclass(frozen=True)
class JobSpec:
    nodes: int
    ranks_per_node: int
    image_mode: str
    gres: tuple[str, ...] = ()
    udi: str = ""
    commands: tuple[JobCommand, ...] = ()
    uid: int = DEFAULT_UID
    gids: tuple[int, ...] = DEFAULT_GIDS

    def uses_images(self) -> bool:
        return self.image_mode == MODE_DIRECTIVE or any(c.image for c in self.commands)


def validate_spec(spec: JobSpec, cluster_nodes: int) -> None:
    if spec.nodes < 1:
        raise InvalidSpec(f"nodes must be >= 1, got {spec.nodes}")
    if spec.ranks_per_node < 1:
        raise InvalidSpec(f"ranks_per_node must be >= 1, got {spec.ranks_per_node}")
    if spec.nodes > cluster_nodes:
        raise InvalidSpec(f"job wants {spec.nodes} nodes, cluster has {cluster_nodes}")
    for label, value in (("uid", spec.uid), *(("gid", g) for g in spec.gids)):
        if not 0 <= value < ID_LIMIT:
            raise InvalidSpec(f"{label} {value} outside 0..2**64-1")
    if spec.image_mode not in (MODE_DIRECTIVE, MODE_PER_COMMAND):
        raise InvalidSpec(f"unknown image_mode {spec.image_mode!r}")
    if spec.image_mode == MODE_DIRECTIVE:
        if not spec.udi:
            raise InvalidSpec("Directive mode requires a udi image reference")
        if any(c.image for c in spec.commands):
            raise InvalidSpec("Directive mode allows no per-command image tags")
    else:
        if spec.udi:
            raise InvalidSpec("PerCommand mode must not set a job-level udi image")
    if spec.uses_images() and UDI_GRES not in spec.gres:
        raise MissingGres(
            f"containerized jobs must request the mandatory '{UDI_GRES}' resource token")


@dataclass
class JobResult:
    job_id: str
    outcome: str = "pending"  # success | failed
    reason: str = ""
    prologue_duration: float = 0.0
    exec_duration: float = 0.0
    epilogue_duration: float = 0.0
    startup_seconds: float = 0.0
    commands_failed: int = 0
    per_node_events: list[str] = field(default_factory=list)


# -- job file grammar ------------------------------------------------------------

def parse_job_file(text: str) -> JobSpec:
    """Job description grammar, one ``key = value`` per line:

        nodes = 4
        ranks_per_node = 8
        mode = Directive | PerCommand
        udi = repo/name:tag        (Directive only)
        gres = udi[,other...]
        uid = 1000
        gids = 100,1000
        run = ./step1 --flag       (repeatable, in order)
        run[name:tag] = ./solver   (PerCommand tagged command)
    """
    fields: dict = {"nodes": 1, "ranks_per_node": 1, "mode": MODE_DIRECTIVE,
                    "udi": "", "gres": (), "uid": DEFAULT_UID, "gids": DEFAULT_GIDS}
    commands: list[JobCommand] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidSpec(f"job file line {lineno}: expected key = value")
        key = key.strip()
        value = value.strip()
        try:
            if key == "nodes":
                fields["nodes"] = int(value)
            elif key == "ranks_per_node":
                fields["ranks_per_node"] = int(value)
            elif key == "mode":
                fields["mode"] = value
            elif key == "udi":
                fields["udi"] = value
            elif key == "gres":
                fields["gres"] = tuple(t for t in value.replace(",", " ").split() if t)
            elif key == "uid":
                fields["uid"] = int(value)
            elif key == "gids":
                fields["gids"] = tuple(int(g) for g in value.replace(",", " ").split())
            elif key == "run":
                commands.append(JobCommand(argv=value))
            elif key.startswith("run[") and key.endswith("]"):
                commands.append(JobCommand(argv=value, image=key[4:-1]))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise InvalidSpec(f"job file line {lineno}: {exc}") from exc
    return JobSpec(nodes=fields["nodes"], ranks_per_node=fields["ranks_per_node"],
                   image_mode=fields["mode"], gres=fields["gres"], udi=fields["udi"],
                   commands=tuple(commands), uid=fields["uid"], gids=fields["gids"])


# -- the simulator -----------------------------------------------------------------

class ClusterSim:
    def __init__(self, config: Config, seed: int, n_nodes: int,
                 registry: Optional[LocalRegistry] = None,
                 state_dir: Optional[str] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config
        self.seed = seed
        self.clock = VirtualClock()
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else LocalRegistry()
        self._owns_state_dir = state_dir is None
        self.state_dir = state_dir or tempfile.mkdtemp(prefix="udigate-sim-")
        self._cred_rng = derive_rng(seed, "cred")
        self.verifier = CredentialVerifier(config.secret, config.credential_ttl, self.clock)
        self._restarts = 0
        self.gateway_up = True
        self.gateway = self._make_gateway()
        self.gateway.recover_on_startup()

        self.identity = IdentityBackend(
            {DEFAULT_UID: DEFAULT_GIDS}, cap=config.identity_cap, timeout=config.identity_timeout,
            latency_mean=config.identity_latency_mean, tracer=self.tracer)
        self.nodes = [NodeAgent(i, self.clock, self.verifier, self.identity,
                                config, tracer=self.tracer)
                      for i in range(n_nodes)]
        self._node_rng = [derive_rng(seed, f"node:{i}") for i in range(n_nodes)]

        self._task_queue: deque[PullTask] = deque()
        self._active_chains = 0
        self._chain_events: dict[int, object] = {}
        self._chain_seq = 0
        self.max_active_chains = 0
        self.tasks_created = 0
        self._sweep_handle = None

        self._results: dict[str, JobResult] = {}
        self._job_seq = 0

    # -- wiring -------------------------------------------------------------------

    def _make_gateway(self) -> Gateway:
        label = "gateway" if self._restarts == 0 else f"gateway:restart:{self._restarts}"
        return Gateway(self.config, self.clock, self.registry, self.state_dir,
                       verifier=self.verifier, task_sink=self._on_task,
                       tracer=self.tracer, rng=derive_rng(self.seed, label))

    def make_credential(self, scope: str = "user", uid: int = DEFAULT_UID,
                        gids: tuple[int, ...] = DEFAULT_GIDS) -> Credential:
        return issue_credential(uid, gids, scope, self.config.secret,
                                now=self.clock.now(), rng=self._cred_rng)

    def mount_latency(self, node_id: int) -> float:
        base = self.config.mount_base_latency
        mean = self.config.mount_jitter_mean
        if mean > 0:
            return base + self._node_rng[node_id].expovariate(1.0 / mean)
        return base

    # -- gateway worker pool ---------------------------------------------------------

    def _on_task(self, task: PullTask) -> None:
        self.tasks_created += 1
        self._task_queue.append(task)
        self._arm_sweeper()
        self._pump_workers()

    def _pump_workers(self) -> None:
        while (self.gateway_up and self._task_queue
               and self._active_chains < self.config.worker_pool_size):
            task = self._task_queue.popleft()
            self._active_chains += 1
            self.max_active_chains = max(self.max_active_chains, self._active_chains)
            chain_id = self._chain_seq
            self._chain_seq += 1
            self._advance_chain(chain_id, self.gateway.run_pull(task))

    def _advance_chain(self, chain_id: int, pull) -> None:
        step = next(pull, None)
        if step is None:
            self._active_chains -= 1
            self._pump_workers()
            return

        def fire():
            self._chain_events.pop(chain_id, None)
            self._advance_chain(chain_id, pull)

        self._chain_events[chain_id] = self.clock.schedule(step[1], fire)

    # -- lease sweeper ------------------------------------------------------------

    def _arm_sweeper(self) -> None:
        if self._sweep_handle is not None or not self.gateway_up:
            return
        self._sweep_handle = self.clock.schedule(
            self.config.sweep_interval, self._sweep_fire, priority=20)

    def _sweep_fire(self) -> None:
        self._sweep_handle = None
        if not self.gateway_up:
            return
        flipped = self.gateway.sweep_stale()
        self.tracer.emit(self.clock.now(), "sweeper", "sweep",
                         [("flipped", len(flipped))])
        if self.gateway.has_transient() or self._task_queue or self._active_chains:
            self._arm_sweeper()

    # -- crash / restart ------------------------------------------------------------

    def crash_gateway(self) -> None:
        """Kill the gateway process: in-flight chains vanish, the queue is
        lost, nothing gets a chance to report failure."""
        for handle in self._chain_events.values():
            handle.cancel()
        self._chain_events.clear()
        self._active_chains = 0
        self._task_queue.clear()
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        self.gateway_up = False
        self.gateway.close()
        self.tracer.emit(self.clock.now(), "gateway", "crash", [])

    def restart_gateway(self) -> list[ImageRecord]:
        self._restarts += 1
        self.gateway = self._make_gateway()
        self.gateway_up = True
        recovered = self.gateway.recover_on_startup()
        self.tracer.emit(self.clock.now(), "gateway", "restart",
                         [("recovered_transients", len(recovered))])
        if self.gateway.has_transient():
            self._arm_sweeper()
        return recovered

    # -- job lifecycle --------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        validate_spec(spec, len(self.nodes))
        job_id = f"job-{self._job_seq:04d}"
        self._job_seq += 1
        result = JobResult(job_id=job_id)
        self._results[job_id] = result
        steps = _JobRun(self, spec, job_id, result).steps()
        self.clock.schedule(0.0, lambda: self._advance_job(steps))
        self.tracer.emit(self.clock.now(), job_id, "submitted",
                         [("nodes", spec.nodes), ("ranks", spec.ranks_per_node),
                          ("mode", spec.image_mode)])
        return job_id

    def _advance_job(self, steps) -> None:
        step = next(steps, None)
        if step is not None:
            delay, priority = step
            self.clock.schedule(delay, lambda: self._advance_job(steps), priority)

    def run(self) -> dict[str, JobResult]:
        self.clock.run_until_idle()
        return self._results

    def result(self, job_id: str) -> JobResult:
        return self._results[job_id]

    def total_mounted(self) -> int:
        return sum(n.mount_count() for n in self.nodes)

    def assert_clean(self) -> None:
        leftovers = self.total_mounted()
        if leftovers:
            raise AssertionError(f"{leftovers} mounts left after all jobs finished")

    def cleanup(self) -> None:
        """Close the gateway and drop the state directory if this sim made it."""
        if self.gateway_up:
            self.gateway.close()
            self.gateway_up = False
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)


class _JobFailed(Exception):
    """A job step that cannot go on; the message is the job's reason."""


class _JobRun:
    """One job's prologue -> exec -> epilogue as one step generator."""

    def __init__(self, sim: ClusterSim, spec: JobSpec, job_id: str, result: JobResult):
        self.sim = sim
        self.spec = spec
        self.job_id = job_id
        self.result = result
        self.nodes = sim.nodes[:spec.nodes]
        self.cred = sim.make_credential(uid=spec.uid, gids=spec.gids)

    # -- helpers ---------------------------------------------------------------

    def _now(self) -> float:
        return self.sim.clock.now()

    def _trace(self, event: str, details=()) -> None:
        self.sim.tracer.emit(self._now(), self.job_id, event, details)

    def _ready(self, ref_text: str):
        """One gateway pull, then a lookup every poll_interval until the
        record is READY, which is returned; any other end raises _JobFailed.

        Polls are read-only on purpose: the pull request was made once, and
        a job watching progress must not spawn retries on its own."""
        try:
            ref = parse_reference(ref_text)
            rec = self.sim.gateway.pull(ref, self.cred)
        except UdigateError as exc:
            raise _JobFailed(f"pull of {ref_text} rejected: {type(exc).__name__}: {exc}") from None
        while rec.state is not ImageState.READY:
            if rec.state is ImageState.FAILED:
                raise _JobFailed(f"image {ref.canonical()} FAILED: {rec.last_error}")
            if rec.state is ImageState.EXPIRED:
                raise _JobFailed(f"image {ref.canonical()} expired while job waited")
            yield self.sim.config.poll_interval, 10
            try:
                rec = self.sim.gateway.lookup(ref)
            except UdigateError as exc:
                raise _JobFailed(
                    f"lookup of {ref.canonical()} failed: {type(exc).__name__}") from None
        return rec

    def _stage(self, rec: ImageRecord, what: str) -> list[tuple[NodeAgent, float]]:
        """Mount rec's archive on every allocated node that lacks it and
        return [(node, setup_seconds)]. The mount comes from the record
        alone: each node checks the bytes at rec.udi_path against
        rec.udi_digest. All nodes are attempted even after a failure, a
        parallel fan-out has no shortcut; _JobFailed comes after."""
        if not rec.udi_digest:
            raise _JobFailed(f"READY record of {rec.ref.canonical()} has no archive digest "
                             f"(written before digests were recorded); expire and re-pull it")
        staged: list[tuple[NodeAgent, float]] = []
        failures: list[str] = []
        for node in self.nodes:
            if node.has_mount(self.job_id, rec.udi_digest):
                staged.append((node, 0.0))
                continue
            try:
                identity_wait = node.mount_udi(rec.udi_path, rec.udi_digest, self.cred,
                                               self.job_id)
            except UdigateError as exc:
                failures.append(f"{node.name}: {type(exc).__name__}: {exc}")
                self.sim.tracer.emit(self._now(), node.name, "mount_fail",
                                     [("job", self.job_id), ("err", type(exc).__name__)])
                continue
            staged.append((node, self.sim.mount_latency(node.node_id) + identity_wait))
        if failures:
            self.result.per_node_events.extend(failures)
            raise _JobFailed(f"{what} failed: {failures[0]}")
        return staged

    # -- the job ---------------------------------------------------------------

    def steps(self):
        """Run the job top to bottom. Yields (delay, priority) before each
        wait on the virtual clock and goes on when the simulator resumes it.
        A prologue failure goes straight to the epilogue; a failed
        PerCommand command is counted and the next command runs."""
        t_prologue = self._now()
        self._trace("prologue_start")
        try:
            if self.spec.image_mode == MODE_DIRECTIVE:
                staged = self._stage((yield from self._ready(self.spec.udi)), "prologue mount")
                for node, setup in staged:
                    self.sim.clock.schedule(setup, lambda n=node: self.sim.tracer.emit(
                        self._now(), n.name, "mount_done", [("job", self.job_id)]))
                yield max(s for _, s in staged), 11  # after a mount_done due at that time
        except _JobFailed as exc:
            self.result.outcome = "failed"
            self.result.reason = str(exc)
            self._trace("job_failed", [("at", "prologue")])
        else:
            self.result.prologue_duration = self._now() - t_prologue
            self._trace("prologue_done",
                        [("duration", fmt_time(self.result.prologue_duration))])
            t_exec = self._now()
            started = False
            for idx, cmd in enumerate(self.spec.commands):
                setup = 0.0
                if cmd.image:
                    try:
                        staged = self._stage((yield from self._ready(cmd.image)), "stage")
                    except _JobFailed as exc:
                        self.result.commands_failed += 1
                        self.result.per_node_events.append(f"cmd{idx}: {exc}")
                        self._trace("cmd_fail", [("idx", idx)])
                        continue
                    attach = self.spec.ranks_per_node * self.sim.config.rank_attach_cost
                    setup = max(s for _, s in staged) + attach
                yield setup, 10
                if not started:
                    started = True
                    self.result.startup_seconds = self._now() - t_prologue
                self._trace("cmd_start", [("idx", idx), ("image", cmd.image or "-")])
                yield self.sim.config.command_duration, 10
                self._trace("cmd_done", [("idx", idx)])
            self.result.exec_duration = self._now() - t_exec

        self._trace("epilogue_start")
        worst = max(node.unmount_job(self.job_id) for node in self.nodes)
        for hook in self.sim.gateway.site.cleanup_commands:
            self._trace("cleanup", [("hook", hook)])
        duration = worst * self.sim.config.unmount_cost
        yield duration, 10
        self.result.epilogue_duration = duration
        if self.result.outcome == "pending":
            self.result.outcome = "success"
        self._trace("epilogue_done")
        self._trace("job_done", [("outcome", self.result.outcome)])
