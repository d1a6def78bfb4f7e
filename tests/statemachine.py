"""Randomized operation sequences against a live Gateway.

Drives {pull, worker step, sweep, expire, crash/restart} with a seeded RNG
while an audit hook checks every transition against the allowed table and
insists READY is only ever entered with verification done.  Used by the
gateway unit tests and by the acceptance suite at full volume."""

from __future__ import annotations

import random
import shutil
import tempfile

from helpers import advance
from udigate.clock import VirtualClock
from udigate.errors import NotFound, UdiCorrupt
from udigate.filetree import FileTree
from udigate.gateway import ALLOWED_TRANSITIONS, Gateway, ImageState
from udigate.refs import parse_reference
from udigate.registry import LocalRegistry
from udigate.udi import verify_udi

OPS = ("pull", "pull", "step", "step", "step", "step", "step", "step",
       "sweep", "expire", "crash")


def build_registry() -> LocalRegistry:
    reg = LocalRegistry()
    for name, tag in (("app/alpha", "v1"), ("app/beta", "v2")):
        t = FileTree()
        t.add_dir("/opt")
        t.add_file(f"/opt/{name.split('/')[1]}", b"x" * 32, mode=0o755)
        reg.add_image(name, tag, [t], total_size=4096)
    return reg


class SequenceRunner:
    def __init__(self, registry: LocalRegistry, config, seed: int, base_dir: str):
        self.registry = registry
        self.config = config
        self.rng = random.Random(seed)
        self.clock = VirtualClock()
        self.state_dir = tempfile.mkdtemp(prefix="seq-", dir=base_dir)
        self.refs = [parse_reference("app/alpha:v1"), parse_reference("app/beta:v2")]
        self.illegal = 0
        self.unverified_ready = 0
        self.ready_seen = 0
        self.chains: list[dict] = []
        self.gateway = self._boot()

    def _boot(self) -> Gateway:
        gw = Gateway(self.config, self.clock, self.registry, self.state_dir,
                     verifier=None, audit_hook=self._audit,
                     rng=random.Random(self.rng.getrandbits(64)))
        gw.recover_on_startup()
        return gw

    def _audit(self, key, old, new, snapshot, verified) -> None:
        if new is None:
            # record removal: only admin clears of terminal records do this
            if old not in (ImageState.FAILED, ImageState.EXPIRED):
                self.illegal += 1
            return
        if (old, new) not in ALLOWED_TRANSITIONS:
            self.illegal += 1
        if new is ImageState.READY:
            self.ready_seen += 1
            try:
                digest = verify_udi(snapshot.udi_path).digest
            except UdiCorrupt:
                digest = None
            if not verified or digest != snapshot.udi_digest:
                self.unverified_ready += 1

    # -- ops -------------------------------------------------------------------

    def op_pull(self) -> None:
        self.gateway.pull(self.rng.choice(self.refs))
        for task in self.gateway.pending_tasks:
            pull = self.gateway.run_pull(task)
            self.chains.append({"pull": pull, "next": next(pull)})
        self.gateway.pending_tasks.clear()

    def op_step(self) -> None:
        """Charge the announced step's cost, then run it."""
        if not self.chains:
            return
        chain = self.rng.choice(self.chains)
        _, cost = chain["next"]
        advance(self.clock, cost)
        chain["next"] = next(chain["pull"], None)
        if chain["next"] is None:
            self.chains.remove(chain)

    def op_sweep(self) -> None:
        advance(self.clock, self.config.sweep_interval)
        self.gateway.sweep_stale()

    def op_expire(self) -> None:
        try:
            self.gateway.expire(self.rng.choice(self.refs))
        except NotFound:
            pass

    def op_crash(self) -> None:
        self.chains.clear()  # workers die with the process
        self.gateway.close()
        self.gateway = self._boot()

    def run(self, n_ops: int) -> None:
        dispatch = {"pull": self.op_pull, "step": self.op_step,
                    "sweep": self.op_sweep, "expire": self.op_expire,
                    "crash": self.op_crash}
        for _ in range(n_ops):
            dispatch[self.rng.choice(OPS)]()

    def finish(self) -> None:
        self.gateway.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def run_sequences(n_sequences: int, config, master_seed: int = 0,
                  base_dir: str | None = None,
                  ops_range: tuple[int, int] = (4, 12)) -> dict:
    base = base_dir or tempfile.gettempdir()
    registry = build_registry()
    totals = {"illegal": 0, "unverified_ready": 0, "ready_seen": 0, "sequences": 0}
    rng = random.Random(master_seed)
    for _ in range(n_sequences):
        runner = SequenceRunner(registry, config, rng.getrandbits(64), base)
        try:
            runner.run(rng.randrange(*ops_range))
        finally:
            runner.finish()
        totals["illegal"] += runner.illegal
        totals["unverified_ready"] += runner.unverified_ready
        totals["ready_seen"] += runner.ready_seen
        totals["sequences"] += 1
    return totals
