"""HTTP front ends: gateway API and registry endpoints.

Both are small stdlib ThreadingHTTPServer wrappers speaking JSON.
Error responses carry ``{"error": <class name>, "detail": <message>}`` and
map onto a fixed status table: 401 for credential problems, 404 for
unknown images or malformed references, 409 for damaged archives or
persistence, 503 when the registry is down. Other bad requests are 400.
An unexpected exception is logged and answered with 500, so the
keep-alive connection survives it. A request body is read and ignored. A
connection idle for _JsonHandler.timeout is closed, mid-body after a 400.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from .authsvc import WIRE_HEADER, Credential, credential_from_wire
from .errors import (
    AuthError,
    InvalidReference,
    NotFound,
    PersistenceCorrupt,
    RegistryIoError,
    RegistryUnknownImage,
    StorageIoError,
    UdiCorrupt,
    UdigateError,
)
from .gateway import Gateway
from .refs import parse_reference
from .registry import LocalRegistry

log = logging.getLogger(__name__)

_STATUS = (
    (AuthError, 401),
    ((NotFound, RegistryUnknownImage, InvalidReference), 404),
    ((PersistenceCorrupt, StorageIoError, UdiCorrupt), 409),
    (RegistryIoError, 503),
)


def _status_for(exc: Exception) -> int:
    for types, code in _STATUS:
        if isinstance(exc, types):
            return code
    return 400 if isinstance(exc, (UdigateError, ValueError)) else 500


class _JsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 5.0  # seconds a socket read or write may wait before the connection is closed

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        log.debug("%s %s", self.address_string(), fmt % args)

    def _send(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, route) -> None:
        """Answer with what route() returns: bytes as a blob, anything else
        as JSON. A raised exception becomes a JSON error response; one that
        is not a UdigateError or ValueError is logged and answered with 500."""
        try:
            self._discard_body()
            body, code = route(), 200
        except Exception as exc:
            code = _status_for(exc)
            if code == 500:
                log.exception("unhandled error serving %s %s", self.command, self.path)
            body = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(body, bytes):
            self._send(code, "application/octet-stream", body)
        else:
            self._send(code, "application/json", json.dumps(body).encode())

    def _discard_body(self) -> None:
        """Read and drop the request body, which no endpoint uses, so the next
        request on a keep-alive connection starts at its own request line."""
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True  # where the body ends is unknown
            raise ValueError(f"malformed Content-Length: {declared!r}")
        left = int(declared)
        try:
            while left > 0 and (chunk := self.rfile.read(min(left, 64 * 1024))):
                left -= len(chunk)
        except TimeoutError:
            self.close_connection = True
            raise ValueError(f"request body not sent within {self.timeout} s") from None

    def _credential(self) -> Credential | None:
        wire = self.headers.get(WIRE_HEADER)
        if wire is None:
            return None
        return credential_from_wire(wire)

    def _parts(self) -> list[str]:
        path = unquote(urlsplit(self.path).path)
        return [p for p in path.split("/") if p]


class _GatewayHandler(_JsonHandler):
    gateway: Gateway  # injected by make_gateway_server

    def _dispatch(self, method: str) -> dict:
        parts = self._parts()
        if len(parts) < 3 or parts[0] != "api":
            raise NotFound(f"no such endpoint: {self.path}")
        verb, system, rest = parts[1], parts[2], "/".join(parts[3:])
        cred = self._credential()
        if verb == "list" and method == "GET" and not rest:
            records = self.gateway.list_records(system)
            return {"records": [r.to_api_dict() for r in records]}
        if not rest:
            raise NotFound(f"no such endpoint: {self.path}")
        ref = parse_reference(rest, system=system)
        if verb == "pull" and method == "POST":
            rec = self.gateway.pull(ref, cred)
        elif verb == "lookup" and method == "GET":
            rec = self.gateway.lookup(ref)
        elif verb == "expire" and method == "POST":
            rec = self.gateway.expire(ref, cred)
        else:
            raise NotFound(f"no such endpoint: {self.path}")
        return rec.to_api_dict()

    def do_GET(self):  # noqa: N802
        self._reply(lambda: self._dispatch("GET"))

    def do_POST(self):  # noqa: N802
        self._reply(lambda: self._dispatch("POST"))


class _RegistryHandler(_JsonHandler):
    registry: LocalRegistry  # injected by make_registry_server

    def _dispatch(self) -> bytes | dict:
        parts = self._parts()
        if len(parts) < 2 or parts[0] != "registry":
            raise NotFound(f"no such endpoint: {self.path}")
        if parts[1] == "blobs" and len(parts) == 3:
            return self.registry.fetch_layer(parts[2])
        if parts[-1] == "manifest.json" and len(parts) >= 3:
            canonical = "/".join(parts[1:-1])
            return self.registry.fetch_manifest(canonical).to_json_dict()
        raise NotFound(f"no such endpoint: {self.path}")

    def do_GET(self):  # noqa: N802
        self._reply(self._dispatch)


def _make_server(handler_cls, host: str, port: int) -> ThreadingHTTPServer:
    srv = ThreadingHTTPServer((host, port), handler_cls)
    srv.daemon_threads = True
    return srv


def make_gateway_server(gateway: Gateway, host: str = "127.0.0.1",
                        port: int = 0) -> ThreadingHTTPServer:
    handler = type("GatewayHandler", (_GatewayHandler,), {"gateway": gateway})
    return _make_server(handler, host, port)


def make_registry_server(registry: LocalRegistry, host: str = "127.0.0.1",
                         port: int = 0) -> ThreadingHTTPServer:
    handler = type("RegistryHandler", (_RegistryHandler,), {"registry": registry})
    return _make_server(handler, host, port)
