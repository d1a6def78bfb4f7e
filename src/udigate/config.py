"""Runtime configuration.

Config files are flat ``key = value`` lines, ``#`` comments allowed. Unknown
keys are rejected loudly, typo-ing a tunable should never pass silently.
Out-of-range values are rejected too, however the Config is built: a zero
heartbeat or a negative bandwidth would otherwise surface as a crash deep
inside a pull.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InvalidSpec


@dataclass
class Config:
    # gateway pull lifecycle
    lease_duration: float = 60.0
    heartbeat_interval: float = 10.0
    sweep_interval: float = 15.0
    worker_pool_size: int = 2
    max_attempts: int = 3

    # credentials
    credential_ttl: float = 300.0
    secret: bytes = b"udigate-dev-secret"

    # transfer / conversion cost model (virtual time)
    registry_bandwidth: float = 100e6   # bytes per second
    manifest_latency: float = 0.05
    convert_bandwidth: float = 200e6

    # node agent
    cache_enabled: bool = True
    cache_ttl: float = 600.0
    mount_base_latency: float = 0.050
    mount_jitter_mean: float = 0.010
    unmount_cost: float = 0.005
    rank_attach_cost: float = 0.002

    # identity backend
    identity_cap: int = 500
    identity_timeout: float = 5.0
    identity_latency_mean: float = 0.050

    # job execution
    poll_interval: float = 1.0
    command_duration: float = 1.0

    def __post_init__(self) -> None:
        for name in _POSITIVE + _NON_NEGATIVE:
            value = getattr(self, name)
            positive = name in _POSITIVE
            if not math.isfinite(value) or value < 0 or (positive and value == 0):
                bound = "> 0" if positive else ">= 0"
                raise InvalidSpec(f"config {name} = {value!r}: must be finite and {bound}")
        if not self.secret:  # every credential would be MACed with an empty key
            raise InvalidSpec("config secret is empty")

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)


# divisors, pool sizes and lifetimes: zero would divide by zero, start no
# worker, or expire everything on arrival
_POSITIVE = ("lease_duration", "heartbeat_interval", "sweep_interval",
             "worker_pool_size", "max_attempts", "credential_ttl",
             "registry_bandwidth", "convert_bandwidth", "identity_cap",
             "poll_interval")
# latencies, jitters and costs, where 0 means "free"
_NON_NEGATIVE = ("manifest_latency", "cache_ttl", "mount_base_latency",
                 "mount_jitter_mean", "unmount_cost", "rank_attach_cost",
                 "identity_timeout", "identity_latency_mean", "command_duration")


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type  # the annotation's text: annotations are not evaluated
    raw = raw.strip()
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "bytes":
        return raw.encode("utf-8")
    low = raw.lower()  # bool, the one field type left
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InvalidSpec(f"bad boolean for {name}: {raw!r}")


def parse_config(text: str) -> Config:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise InvalidSpec(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key == "secret_file":
            with open(raw.strip(), "rb") as fh:
                values["secret"] = fh.read().strip()
            continue
        if key not in _FIELDS:
            raise InvalidSpec(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except (ValueError, TypeError) as exc:
            raise InvalidSpec(f"config line {lineno}: {exc}") from exc
    return Config(**values)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
