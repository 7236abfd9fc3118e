"""The status document, its schema validator, and the REST endpoint."""

from __future__ import annotations

import copy
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetService,
    FleetSpec,
    TenantSpec,
    load_state,
    make_server,
    status_document,
    validate_status,
)
from repro.fleet.api import _TYPE_CHECKS, load_status_schema
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
        del document["jobs"]
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
        assert set(schema["required"]) == {"fleet", "tenants", "jobs"}


# -- fuzzing the validator ---------------------------------------------------

# Values of every JSON type (and a float): a wrong-typed value is one of
# these that no type its schema allows accepts.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _sites(value, schema, path=()):
    """``(path, schema)`` of every node of the document its schema
    describes, depth first."""
    yield path, schema
    if isinstance(value, dict):
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                yield from _sites(value[key], subschema, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            yield from _sites(item, schema["items"], path + (index,))


def _types(schema):
    kind = schema.get("type", [])
    return kind if isinstance(kind, list) else [kind]


def _accepts(schema, value):
    return any(_TYPE_CHECKS[kind](value) for kind in _types(schema))


def _mutate(document, schema, data):
    """One violation of ``schema`` in ``document``, drawn from ``data``:
    a required key deleted, a wrong-typed value, a ``bool`` where an
    integer is expected, a string outside an enum, or extra keys where
    ``additionalProperties`` is false.  Returns the mutated document."""
    sites = list(_sites(document, schema))
    where = {
        "delete": [site for site in sites if site[1].get("required")],
        "retype": [site for site in sites if "type" in site[1]],
        "bool": [site for site in sites if "integer" in _types(site[1])],
        "enum": [site for site in sites if "enum" in site[1]],
        "extra": [site for site in sites
                  if site[1].get("additionalProperties") is False]}
    kind = data.draw(st.sampled_from(sorted(where)))
    path, node = data.draw(st.sampled_from(where[kind]))
    if kind == "delete":
        del _at(document, path)[data.draw(st.sampled_from(node["required"]))]
        return document
    if kind == "extra":
        keys = data.draw(st.lists(
            st.one_of(st.text(max_size=6), st.integers()).filter(
                lambda k: k not in node.get("properties", {})),
            min_size=1, max_size=3, unique=True))
        _at(document, path).update((key, 0) for key in keys)
        return document
    if kind == "retype":
        value = data.draw(_ANY_VALUE.filter(lambda v: not _accepts(node, v)))
    elif kind == "bool":
        value = data.draw(st.booleans())
    else:
        value = data.draw(st.text(max_size=8).filter(
            lambda v: v not in node["enum"]))
    if not path:
        return value
    _at(document, path[:-1])[path[-1]] = value
    return document


def _at(document, path):
    for step in path:
        document = document[step]
    return document


class TestValidatorFuzz:
    @seed(1999)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_mutation_raises_fleet_error_and_nothing_else(
            self, fleet_root, data):
        schema = load_status_schema()
        document = status_document(fleet_root)
        validate_status(document, schema)
        mutated = _mutate(copy.deepcopy(document), schema, data)
        with pytest.raises(FleetError, match="status document is invalid"):
            validate_status(mutated, schema)


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

    @pytest.mark.parametrize("body", [
        b"[]", b'"x"', b"null", b"{not json",
        b'{"tenant": "acme", "lane": "bogus"}',
        b'{"tenant": "acme", "kind": "wipe"}',
        b'{"tenant": ["acme"]}',
        b'{"tenant": "acme", "day": "x"}',
        b'{"tenant": "acme", "day": -1}',
        b'{"tenant": "acme", "day": 1.5}',
        b'{"tenant": "acme", "day": true}',
    ])
    def test_post_bad_job_400_queues_nothing(self, api_server, fleet_root,
                                             body):
        """A job the next service day would refuse is refused now: the
        day empties the whole queue before it reads a job, so one bad
        entry would lose every job queued beside it."""
        before = load_state(fleet_root)["pending"]
        request = urllib.request.Request(
            api_server + "/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode())
        assert load_state(fleet_root)["pending"] == before

    def test_pause_resume_roundtrip(self, api_server, fleet_root):
        status, reply = http_post(api_server + "/tenants/bolt/pause", {})
        assert status == 200
        assert reply["paused"] == ["bolt"]
        _status, document = http_get(api_server + "/status")
        bolt = [t for t in document["tenants"] if t["name"] == "bolt"][0]
        assert bolt["paused"] is True
        _status, reply = http_post(api_server + "/tenants/bolt/resume", {})
        assert reply["paused"] == []
