"""HTTP front ends over real sockets: routing, status mapping, JSON shapes."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from helpers import FaultyRegistry, payload_tree, tiny_tree
from udigate.authsvc import (
    CredentialVerifier,
    WIRE_HEADER,
    credential_to_wire,
    issue_credential,
)
from udigate.clock import SystemClock
from udigate.gateway import Gateway
from udigate import httpd
from udigate.httpd import make_gateway_server, make_registry_server
from udigate.registry import HttpRegistryClient, LocalRegistry
from udigate.service import GatewayRuntime

SECRET = b"httpd-test-secret"
CLOCK = SystemClock()


def serve(srv):
    # short poll so fixture shutdown() does not stall the suite
    threading.Thread(target=lambda: srv.serve_forever(poll_interval=0.02),
                     daemon=True).start()
    return srv.server_address[1]


def req(port, method, path, body=None, cred=None):
    headers = {}
    if cred is not None:
        headers[WIRE_HEADER] = credential_to_wire(cred)
    data = json.dumps(body).encode() if body is not None else None
    r = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                               data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(r, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def user_cred():
    return issue_credential(1001, (100, 200), "user", SECRET, CLOCK.now())


def admin_cred():
    return issue_credential(0, (0,), "admin", SECRET, CLOCK.now())


# -- gateway API ---------------------------------------------------------------


@pytest.fixture
def gw_rig(fast_cfg, tmp_path):
    registry = LocalRegistry()
    registry.add_image("team/app", "v1", [tiny_tree(), payload_tree()],
                       total_size=8192)
    verifier = CredentialVerifier(SECRET, fast_cfg.credential_ttl, CLOCK)
    gw = Gateway(fast_cfg, CLOCK, registry, str(tmp_path / "state"),
                 verifier=verifier)
    runtime = GatewayRuntime(gw)
    gw.task_sink = runtime.submit
    runtime.start()
    srv = make_gateway_server(gw)
    port = serve(srv)
    yield port, gw, runtime
    srv.shutdown()
    srv.server_close()
    runtime.stop()
    gw.close()


def test_pull_lookup_list_roundtrip(gw_rig):
    port, _, runtime = gw_rig
    code, rec = req(port, "POST", "/api/pull/local/team/app:v1", cred=user_cred())
    assert code == 200
    assert rec["state"] in ("ENQUEUED", "PULLING", "CONVERTING", "READY")
    runtime.drain()
    code, rec = req(port, "GET", "/api/lookup/local/team/app:v1")
    assert code == 200
    assert rec["state"] == "READY"
    assert rec["ref"] == "team/app:v1"
    assert "lease_id" not in rec
    code, listing = req(port, "GET", "/api/list/local")
    assert code == 200
    assert [r["ref"] for r in listing["records"]] == ["team/app:v1"]


def test_pull_without_credential_is_401(gw_rig):
    port, _, _ = gw_rig
    code, err = req(port, "POST", "/api/pull/local/team/app:v1")
    assert code == 401
    assert err["error"] == "AuthError"


def test_pull_with_forged_credential_is_401(gw_rig):
    port, _, _ = gw_rig
    forged = issue_credential(1001, (100,), "user", b"wrong-secret", CLOCK.now())
    code, err = req(port, "POST", "/api/pull/local/team/app:v1", cred=forged)
    assert code == 401
    assert err["error"] == "MacMismatch"


def test_lookup_unknown_is_404(gw_rig):
    port, _, _ = gw_rig
    code, err = req(port, "GET", "/api/lookup/local/team/ghost:v9")
    assert code == 404
    assert err["error"] == "NotFound"


def test_malformed_reference_is_404(gw_rig):
    port, _, _ = gw_rig
    # handler unquotes before parsing, so the space reaches parse_reference
    code, err = req(port, "GET", "/api/lookup/local/not%20a%20ref")
    assert code == 404
    assert err["error"] == "InvalidReference"


def test_unknown_endpoint_is_404(gw_rig):
    port, _, _ = gw_rig
    for path in ("/api", "/api/pull/local", "/nope", "/api/zap/local/team/app:v1"):
        code, err = req(port, "GET", path)
        assert code == 404, path


def test_expire_requires_admin_scope(gw_rig):
    port, _, runtime = gw_rig
    req(port, "POST", "/api/pull/local/team/app:v1", cred=user_cred())
    runtime.drain()
    code, err = req(port, "POST", "/api/expire/local/team/app:v1", cred=user_cred())
    assert code == 401
    assert err["error"] == "AuthError"
    code, rec = req(port, "POST", "/api/expire/local/team/app:v1", cred=admin_cred())
    assert code == 200
    assert rec["state"] == "EXPIRED"


def test_unexpected_error_is_json_500_and_keeps_connection(gw_rig, monkeypatch):
    port, gw, _ = gw_rig

    def broken_lookup(ref):
        raise RuntimeError("lookup exploded")

    monkeypatch.setattr(gw, "lookup", broken_lookup)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/api/lookup/local/team/app:v1")
        resp = conn.getresponse()
        assert resp.status == 500
        assert json.loads(resp.read()) == {"error": "RuntimeError",
                                           "detail": "lookup exploded"}
        conn.request("GET", "/api/list/local")  # same keep-alive connection
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read()) == {"records": []}
    finally:
        conn.close()



def test_request_body_is_read_and_ignored(gw_rig):
    port, _, _ = gw_rig
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("POST", "/api/pull/local/team/app:v1", body=b'{"note": "hi"}',
                     headers={WIRE_HEADER: credential_to_wire(user_cred())})
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["ref"] == "team/app:v1"
        conn.request("GET", "/api/lookup/local/team/app:v1")  # same keep-alive connection
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["ref"] == "team/app:v1"
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["12x", "-1", "+3", "1_0"])
def test_malformed_content_length_is_json_400(gw_rig, length):
    port, _, _ = gw_rig
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.putrequest("POST", "/api/pull/local/team/app:v1")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert json.loads(resp.read()) == {
            "error": "ValueError", "detail": f"malformed Content-Length: {length!r}"}
    finally:
        conn.close()


def _read_until_closed(sock) -> bytes:
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


def test_idle_and_bodiless_connections_are_closed(gw_rig, monkeypatch):
    # the handler's socket timeout, cut short: a keep-alive client that goes
    # quiet, and a POST whose declared body never comes, each lose the
    # connection, and no handler thread ends in an error
    assert 1 <= httpd._JsonHandler.timeout <= 10
    monkeypatch.setattr(httpd._JsonHandler, "timeout", 0.2)
    errors = []
    monkeypatch.setattr(httpd.ThreadingHTTPServer, "handle_error",
                        lambda srv, request, address: errors.append(address))
    port, _, _ = gw_rig
    with socket.create_connection(("127.0.0.1", port), timeout=5) as idle:
        t0 = time.monotonic()
        idle.sendall(b"GET /api/lookup/local/team/app:v1 HTTP/1.1\r\nHost: x\r\n\r\n")
        answer = _read_until_closed(idle)
        assert answer.startswith(b"HTTP/1.1 404 ")  # nothing pulled yet
        assert time.monotonic() - t0 < 3
    with socket.create_connection(("127.0.0.1", port), timeout=5) as bodiless:
        bodiless.sendall(b"POST /api/pull/local/team/app:v1 HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 5\r\n\r\n")
        answer = _read_until_closed(bodiless)
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"request body not sent within 0.2 s" in answer
    assert errors == []


# -- registry ---------------------------------------------------------------------


@pytest.fixture
def reg_rig():
    registry = FaultyRegistry()
    registry.add_image("team/app", "v1", [tiny_tree(), payload_tree()],
                       total_size=8192)
    srv = make_registry_server(registry)
    port = serve(srv)
    yield port, registry
    srv.shutdown()
    srv.server_close()


def test_manifest_over_http(reg_rig):
    port, registry = reg_rig
    code, doc = req(port, "GET", "/registry/team/app:v1/manifest.json")
    assert code == 200
    assert doc == registry.fetch_manifest("team/app:v1").to_json_dict()


def test_blob_over_http(reg_rig):
    port, registry = reg_rig
    digest = registry.fetch_manifest("team/app:v1").layers[0]
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/registry/blobs/{digest}", timeout=10) as resp:
        assert resp.status == 200
        assert resp.read() == registry.fetch_layer(digest)


def test_unknown_image_is_404(reg_rig):
    port, _ = reg_rig
    code, err = req(port, "GET", "/registry/team/ghost:v1/manifest.json")
    assert code == 404
    assert err["error"] == "RegistryUnknownImage"


def test_registry_down_is_503(reg_rig):
    port, registry = reg_rig
    registry.set_down(True)
    code, err = req(port, "GET", "/registry/team/app:v1/manifest.json")
    assert code == 503
    assert err["error"] == "RegistryIoError"


def test_http_client_round_trip(reg_rig):
    port, registry = reg_rig
    client = HttpRegistryClient(f"http://127.0.0.1:{port}")
    manifest = client.fetch_manifest("team/app:v1")
    assert manifest == registry.fetch_manifest("team/app:v1")
    for digest in manifest.layers:
        assert client.fetch_layer(digest) == registry.fetch_layer(digest)
    with pytest.raises(Exception) as exc_info:
        client.fetch_manifest("team/ghost:v1")
    assert type(exc_info.value).__name__ == "RegistryUnknownImage"

