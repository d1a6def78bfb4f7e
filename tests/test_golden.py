"""Golden traces: same-seed runs must reproduce these exact bytes.

Criterion 13 checks that two runs of one build agree; these values check
that a refactor agrees with the builds before it. A change that alters a
trace on purpose updates the value here and gives the reason in CHANGES.md.
"""

import hashlib

from test_cluster import _trace_for
from udigate.chaos import run_all

# two jobs on 8 nodes, seed 11, a Directive job and a PerCommand job: 3,867 bytes
CLUSTER_TRACE_SHA256 = "96b5208a001ba36b6d56935b0848151167ae63c603a1c9800ba09ca12c3547f0"
# every chaos scenario, seed 1, traces concatenated in scenario order
CHAOS_TRACE_SHA256 = "ca1f64754570c45d9f3bb1f742566485861f0a2efdd924b5469827caff6154c7"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cluster_trace_matches_golden(tmp_path):
    assert _sha256(_trace_for(11, tmp_path, "golden")) == CLUSTER_TRACE_SHA256


def test_chaos_traces_match_golden():
    text = "".join(report.tracer.text() for report in run_all(seed=1))
    assert _sha256(text) == CHAOS_TRACE_SHA256
