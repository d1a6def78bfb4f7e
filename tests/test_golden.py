"""Golden traces: same-seed runs must reproduce these exact bytes.

Criterion 13 checks that two runs of one build agree; these values check
that a refactor agrees with the builds before it. A change that alters a
trace on purpose updates the value here and gives the reason in CHANGES.md.
"""

import hashlib
import random

import pytest

from helpers import EDGE_NAME_POOL, OPAQUE_MARKER, random_stack
from test_cluster import _trace_for, directive_spec, seeded_registry
from udigate.chaos import SCENARIO_NAMES, run_scenario
from udigate.cli import main
from udigate.cluster import ClusterSim
from udigate.config import Config
from udigate.filetree import WHITEOUT_PREFIX, apply_site_mods, default_site_config, flatten
from udigate.registry import fixture_layers
from udigate.udi import write_udi

# two jobs on 8 nodes, seed 11, a Directive job and a PerCommand job: 3,867 bytes
CLUSTER_TRACE_SHA256 = "96b5208a001ba36b6d56935b0848151167ae63c603a1c9800ba09ca12c3547f0"
# one Directive job on 1,024 nodes, seed 11, default Config: more nodes than
# identity_cap (500), so group lookups queue; 239,418 bytes, 4,112 lines
LARGE_JOB_TRACE_SHA256 = "e23cb92e2456045a2e63852f957526b27f1b4d7387ad3675e079e753496b85e7"
# every chaos scenario, seed 1, traces concatenated in scenario order
CHAOS_TRACE_SHA256 = "276195748d0642a56570aa11cdcdf39c10b283c65c95a3eb2ed567842756385d"
# bench startup --nodes 1,8,64 --ranks 1,4 --image a:b=1e8 --image c:d=3e9
# --seed 1, the CSV file per mode
BENCH_CSV_SHA256 = {
    "Directive": "4df44cbd7fe5a954820e1ec5fdc144462b53a5b6632d4761098a959c1a9e0cbc",
    "PerCommand": "e53fc02ff7a82f3253127e8334dff7930d46cda93d653561574b8ee1fdab105e",
}

# write_udi of the gateway's pipeline (flatten, the stock site mods,
# created_at 0.0): the fixture image, then seeded
# random_stack(..., names=EDGE_NAME_POOL) stacks, each with an opaque
# marker and an entry whose kind changes over a lower layer's
FIXTURE_ARCHIVE_SHA256 = "deea57153ce0bc35d780f84dfaacc8db08e4b6a285de2b9a23f28452604005c3"
STACK_ARCHIVE_SHA256 = {
    0: "fc8e6e5be1e006a09ce06d1ff4c688bf2f0972e8c55d7012e334ad69de52c5e8",
    5: "aea19043f7012c7577a8f4372ccd18cc4e4561408622d9c483acf7682b7c839d",
    11: "3ac40be249e1fabe1f3895d53dd30fa0e6a817a53e5fa41caf58ea5bc984f3cc",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cluster_trace_matches_golden(tmp_path):
    assert _sha256(_trace_for(11, tmp_path, "golden")) == CLUSTER_TRACE_SHA256


def test_large_job_trace_matches_golden(tmp_path):
    sim = ClusterSim(Config(), seed=11, n_nodes=1024, registry=seeded_registry(),
                     state_dir=str(tmp_path / "state"))
    try:
        job_id = sim.submit(directive_spec(nodes=1024, ranks_per_node=16))
        sim.run()
        assert sim.result(job_id).outcome == "success"
        assert _sha256(sim.tracer.text()) == LARGE_JOB_TRACE_SHA256
    finally:
        sim.cleanup()


def test_chaos_traces_match_golden():
    text = "".join(run_scenario(k, seed=1).tracer.text() for k in sorted(SCENARIO_NAMES))
    assert _sha256(text) == CHAOS_TRACE_SHA256


@pytest.mark.parametrize("mode", sorted(BENCH_CSV_SHA256))
def test_bench_startup_csv_matches_golden(mode, tmp_path, capsys):
    csv_path = tmp_path / "startup.csv"
    assert main(["bench", "startup", "--nodes", "1,8,64", "--ranks", "1,4",
                 "--image", "a:b=1e8", "--image", "c:d=3e9", "--mode", mode,
                 "--seed", "1", "--csv", str(csv_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == BENCH_CSV_SHA256[mode]


def _kind_changes(lower, layer) -> list[str]:
    """The paths of layer's entries, whiteouts aside, that change the kind of
    lower's entry at the same path."""
    changed = []
    for path, entry in layer.items():
        old = lower.get(path)
        if old is not None and old.kind != entry.kind \
                and not path.rpartition("/")[2].startswith(WHITEOUT_PREFIX):
            changed.append(path)
    return changed


def _archive_sha256(layers, tmp_path) -> str:
    site = default_site_config()
    tree = apply_site_mods(flatten(layers), site)
    path = tmp_path / "image.udi"
    write_udi(tree, str(path), "golden/image:v1", 0.0, [m.summary() for m in site.mods])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixture_archive_matches_golden(tmp_path):
    assert _archive_sha256(fixture_layers(), tmp_path) == FIXTURE_ARCHIVE_SHA256


@pytest.mark.parametrize("seed", sorted(STACK_ARCHIVE_SHA256))
def test_random_stack_archive_matches_golden(seed, tmp_path):
    stack = random_stack(random.Random(seed), names=EDGE_NAME_POOL)
    names = [path.rpartition("/")[2] for layer in stack for path, _ in layer.items()]
    assert OPAQUE_MARKER in names
    assert any(_kind_changes(flatten(stack[:i]), stack[i]) for i in range(1, len(stack)))
    assert _archive_sha256(stack, tmp_path) == STACK_ARCHIVE_SHA256[seed]
