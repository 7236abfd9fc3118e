"""The fleet's diagnose-style JSON status document and REST endpoint.

:func:`status_document` assembles one JSON document from a fleet root's
on-disk state — spec, state.json cursors, per-tenant catalog summaries —
and is what both ``repro fleet status --json`` and the HTTP ``GET
/status`` route return.  The document's shape is pinned by the committed
``status_schema.json`` next to this module; :func:`validate_status`
checks a document against it with a small built-in validator (the
repository takes no third-party dependencies, so full JSON Schema is out
of reach — the subset here covers ``type``, ``required``,
``properties``, ``items``, ``enum``, and ``additionalProperties``,
which is all the schema uses).

The HTTP server (:func:`serve`) is a stdlib ``ThreadingHTTPServer``
bound to localhost.  Routes:

* ``GET  /status`` — the full document;
* ``GET  /tenants`` / ``GET /tenants/<name>`` — tenant summaries;
* ``POST /jobs`` — body ``{"tenant": ..., "kind": "dump"|"restore",
  "lane": ..., "day": ...}``; queues an ad-hoc job the next service day
  picks up;
* ``POST /tenants/<name>/pause`` / ``.../resume``.

Every mutation goes through the same locked state.json read-modify-write
the CLI uses, so a daemon mid-run and an API client cannot lose each
other's writes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.fleet.service import FleetService, load_state, set_paused, submit_job
from repro.fleet.tenant import FleetError, Tenant, load_fleet_spec

_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "status_schema.json")


def load_status_schema() -> Dict:
    with open(_SCHEMA_PATH) as handle:
        return json.load(handle)


# -- the status document ---------------------------------------------------

def status_document(root: str) -> Dict:
    """Build the status document from a fleet root's on-disk state."""
    spec = load_fleet_spec(FleetService.spec_path(root))
    state = load_state(root)
    paused = set(state.get("paused", []))
    tenants: List[Dict] = []
    for tenant_spec in spec.tenants:
        tenant = Tenant(tenant_spec,
                        FleetService.tenant_root(root, tenant_spec.name))
        summary = tenant.load_catalog().summary()
        summary["paused"] = tenant_spec.name in paused
        tenants.append(summary)
    return {
        "fleet": {"name": spec.name, "day": state["day"],
                  "tick": state["tick"], "drive_count": spec.drives,
                  "seed": spec.seed},
        "tenants": tenants,
        "jobs": {"pending": state.get("pending", []),
                 "recent": state.get("recent", [])},
    }


# -- minimal JSON-schema-subset validation ---------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value, schema: Dict, where: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append("%s: expected %s, got %s"
                          % (where, "/".join(types), type(value).__name__))
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r not in enum %r" % (where, value, schema["enum"]))
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append("%s: missing required key %r" % (where, key))
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(value) - set(properties)
            if extra:
                errors.append("%s: unexpected key(s) %s"
                              % (where, ", ".join(sorted(map(str, extra)))))
        for key, subschema in properties.items():
            if key in value:
                _validate(value[key], subschema, "%s.%s" % (where, key),
                          errors)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], "%s[%d]" % (where, index),
                      errors)


def validate_status(document: Dict,
                    schema: Optional[Dict] = None) -> None:
    """Raise :class:`FleetError` if ``document`` violates the schema."""
    errors: List[str] = []
    _validate(document, schema or load_status_schema(), "$", errors)
    if errors:
        raise FleetError("status document is invalid: "
                         + "; ".join(errors[:10]))


# -- the HTTP endpoint -----------------------------------------------------

def _make_handler(root: str):
    from http.server import BaseHTTPRequestHandler

    class FleetApiHandler(BaseHTTPRequestHandler):
        server_version = "repro-fleet/1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _reply(self, code: int, payload: Dict) -> None:
            body = (json.dumps(payload, indent=1, sort_keys=True)
                    + "\n").encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str) -> None:
            self._reply(code, {"error": message})

        def do_GET(self):
            try:
                if self.path in ("/status", "/"):
                    self._reply(200, status_document(root))
                elif self.path == "/tenants":
                    self._reply(200,
                                {"tenants": status_document(root)["tenants"]})
                elif self.path.startswith("/tenants/"):
                    name = self.path[len("/tenants/"):]
                    for summary in status_document(root)["tenants"]:
                        if summary["name"] == name:
                            self._reply(200, summary)
                            return
                    self._error(404, "no tenant %r" % name)
                else:
                    self._error(404, "no route %r" % self.path)
            except FleetError as error:
                self._error(400, str(error))

        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw.decode() or "{}")
                if not isinstance(body, dict):
                    raise ValueError("not a JSON object")
                if self.path == "/jobs":
                    entry = submit_job(
                        root, body.get("tenant", ""),
                        kind=body.get("kind", "dump"),
                        lane=body.get("lane", "interactive"),
                        day=body.get("day"))
                    self._reply(202, {"queued": entry})
                elif (self.path.startswith("/tenants/")
                        and self.path.endswith(("/pause", "/resume"))):
                    prefix = self.path[len("/tenants/"):]
                    name, _slash, action = prefix.rpartition("/")
                    paused = set_paused(root, name, action == "pause")
                    self._reply(200, {"paused": paused})
                else:
                    self._error(404, "no route %r" % self.path)
            except ValueError as error:
                self._error(400, "bad request body: %s" % error)
            except FleetError as error:
                self._error(400, str(error))

    return FleetApiHandler


def make_server(root: str, host: str = "127.0.0.1", port: int = 0):
    """A ready-to-serve ``ThreadingHTTPServer`` bound to ``host:port``.

    ``port=0`` picks a free port (read it back from
    ``server.server_address``).  The caller owns the serve loop:
    ``server.serve_forever()`` or, in tests, a background thread.
    """
    from http.server import ThreadingHTTPServer

    return ThreadingHTTPServer((host, port), _make_handler(root))


def serve(root: str, host: str = "127.0.0.1", port: int = 7322) -> None:
    """Serve the fleet API until interrupted (the CLI's serve loop)."""
    server = make_server(root, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()


__all__ = [
    "load_status_schema",
    "make_server",
    "serve",
    "status_document",
    "validate_status",
]
