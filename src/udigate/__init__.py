"""Container image gateway and job-launch pipeline for batch clusters.

The package covers the full path a containerized job takes: an image is
pulled from a registry, flattened to a single rootfs tree, adjusted for
the site, written out as a verifiable archive, and mounted on every
compute node before the first rank starts.  A virtual-clock simulator,
fault-injection scenarios, and a startup benchmark ride on the same code.
"""

from .authsvc import (
    Credential,
    CredentialVerifier,
    Principal,
    credential_from_wire,
    credential_to_wire,
    issue_credential,
)
from .bench import bench_startup, classify_scaling, read_rows, write_rows
from .chaos import run_all, run_scenario
from .clock import SystemClock, Tracer, VirtualClock
from .cluster import (
    ClusterSim,
    JobCommand,
    JobSpec,
    derive_seed,
    parse_job_file,
)
from .config import Config, load_config
from .errors import (
    AuthError,
    AuthServiceDown,
    ConversionError,
    CredentialExpired,
    IdentityTimeout,
    IllegalTransition,
    InsufficientData,
    InvalidReference,
    InvalidSpec,
    LeaseRevoked,
    MacMismatch,
    MissingGres,
    NotFound,
    PersistenceCorrupt,
    RegistryError,
    StorageIoError,
    UdiCorrupt,
    UdigateError,
    UnknownScenario,
    VerifyError,
)
from .filetree import FileTree, SiteConfig, apply_site_mods, flatten
from .gateway import Gateway, ImageRecord, ImageState, PullTask
from .nodeagent import IdentityBackend, NodeAgent
from .refs import ImageReference, parse_reference
from .registry import HttpRegistryClient, LocalRegistry
from .store import RecordLog, load_entries
from .udi import UdiDescriptor, read_udi, scan_udi, verify_udi, write_udi

__version__ = "0.1.0"

__all__ = [
    "AuthError",
    "AuthServiceDown",
    "ClusterSim",
    "Config",
    "ConversionError",
    "Credential",
    "CredentialExpired",
    "CredentialVerifier",
    "FileTree",
    "Gateway",
    "HttpRegistryClient",
    "IdentityBackend",
    "IdentityTimeout",
    "IllegalTransition",
    "ImageRecord",
    "ImageReference",
    "ImageState",
    "InsufficientData",
    "InvalidReference",
    "InvalidSpec",
    "JobCommand",
    "JobSpec",
    "LeaseRevoked",
    "LocalRegistry",
    "MacMismatch",
    "MissingGres",
    "NodeAgent",
    "NotFound",
    "PersistenceCorrupt",
    "Principal",
    "PullTask",
    "RecordLog",
    "RegistryError",
    "SiteConfig",
    "StorageIoError",
    "SystemClock",
    "Tracer",
    "UdiCorrupt",
    "UdiDescriptor",
    "UdigateError",
    "UnknownScenario",
    "VerifyError",
    "VirtualClock",
    "apply_site_mods",
    "bench_startup",
    "classify_scaling",
    "credential_from_wire",
    "credential_to_wire",
    "derive_seed",
    "flatten",
    "issue_credential",
    "load_config",
    "load_entries",
    "parse_job_file",
    "parse_reference",
    "read_rows",
    "read_udi",
    "run_all",
    "run_scenario",
    "scan_udi",
    "verify_udi",
    "write_rows",
    "write_udi",
]
