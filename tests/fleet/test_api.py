"""The status document, its schema validator, and the REST endpoint."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.fleet import (
    FleetService,
    FleetSpec,
    TenantSpec,
    load_state,
    make_server,
    status_document,
    validate_status,
)
from repro.fleet.api import load_status_schema
from repro.fleet.tenant import FleetError


def make_spec():
    return FleetSpec(
        tenants=[
            TenantSpec("acme", lane="daily", strategy="logical",
                       schedule="gfs:4x2", retention="redundancy 2",
                       data_bytes=300_000, seed=3, cartridges=6,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
            TenantSpec("bolt", lane="background", strategy="image",
                       schedule="hanoi:3", retention="redundancy 2",
                       data_bytes=250_000, seed=4, cartridges=6,
                       cartridge_capacity=2_000_000, blocks_per_disk=900),
        ],
        drives=2, seed=99)


@pytest.fixture(scope="module")
def fleet_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("fleet_api"))
    FleetService.init_fleet(root, make_spec())
    FleetService(root).run_days(2)
    return root


class TestStatusDocument:
    def test_validates_against_committed_schema(self, fleet_root):
        document = status_document(fleet_root)
        validate_status(document)  # raises on violation

    def test_reflects_fleet_state(self, fleet_root):
        document = status_document(fleet_root)
        assert document["fleet"]["day"] == 2
        assert document["fleet"]["drive_count"] == 2
        names = [t["name"] for t in document["tenants"]]
        assert names == ["acme", "bolt"]
        for summary in document["tenants"]:
            assert summary["live_sets"] >= 1
            assert summary["bytes_to_tape"] > 0
            assert summary["paused"] is False
        assert len(document["jobs"]["recent"]) == 4  # 2 tenants x 2 days

    def test_document_is_json_serialisable(self, fleet_root):
        document = status_document(fleet_root)
        assert json.loads(json.dumps(document)) == document


class TestValidator:
    def test_missing_required_key(self, fleet_root):
        document = status_document(fleet_root)
        del document["drives"]
        with pytest.raises(FleetError, match="missing required key"):
            validate_status(document)

    def test_unexpected_key_rejected(self, fleet_root):
        document = status_document(fleet_root)
        document["surprise"] = 1
        with pytest.raises(FleetError, match="unexpected key"):
            validate_status(document)

    def test_wrong_type_rejected(self, fleet_root):
        document = status_document(fleet_root)
        document["fleet"]["day"] = "two"
        with pytest.raises(FleetError, match="expected integer"):
            validate_status(document)

    def test_enum_violation_rejected(self, fleet_root):
        document = status_document(fleet_root)
        document["tenants"][0]["lane"] = "express"
        with pytest.raises(FleetError, match="not in enum"):
            validate_status(document)

    def test_boolean_is_not_an_integer(self):
        schema = {"type": "integer"}
        with pytest.raises(FleetError):
            validate_status(True, schema)

    def test_schema_file_is_wellformed(self):
        schema = load_status_schema()
        assert schema["type"] == "object"
        assert set(schema["required"]) == {"fleet", "tenants", "drives",
                                           "jobs"}


@pytest.fixture(scope="module")
def api_server(fleet_root):
    server = make_server(fleet_root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield "http://%s:%d" % (host, port)
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def http_get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def http_post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


class TestHttpApi:
    def test_get_status(self, api_server):
        status, document = http_get(api_server + "/status")
        assert status == 200
        validate_status(document)

    def test_get_single_tenant(self, api_server):
        status, summary = http_get(api_server + "/tenants/acme")
        assert status == 200
        assert summary["name"] == "acme"

    def test_get_unknown_tenant_404(self, api_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(api_server + "/tenants/ghost")
        assert excinfo.value.code == 404

    def test_post_job_queues_pending(self, api_server, fleet_root):
        status, reply = http_post(api_server + "/jobs",
                                  {"tenant": "acme", "kind": "restore",
                                   "lane": "interactive"})
        assert status == 202
        assert reply["queued"]["tenant"] == "acme"
        pending = load_state(fleet_root)["pending"]
        assert {"tenant": "acme", "kind": "restore",
                "lane": "interactive", "day": None} in pending

    def test_post_job_unknown_tenant_400(self, api_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_post(api_server + "/jobs", {"tenant": "ghost"})
        assert excinfo.value.code == 400

    def test_pause_resume_roundtrip(self, api_server, fleet_root):
        status, reply = http_post(api_server + "/tenants/bolt/pause", {})
        assert status == 200
        assert reply["paused"] == ["bolt"]
        _status, document = http_get(api_server + "/status")
        bolt = [t for t in document["tenants"] if t["name"] == "bolt"][0]
        assert bolt["paused"] is True
        _status, reply = http_post(api_server + "/tenants/bolt/resume", {})
        assert reply["paused"] == []
