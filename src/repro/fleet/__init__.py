"""The fleet service plane: multi-tenant backup at filer scale.

The paper's regime is one filer protecting many volumes against a small
set of shared tape drives — the interesting costs are queueing and media
contention, not any single dump.  This package turns the single-campaign
reproduction into that regime:

* :mod:`repro.fleet.tenant` — per-tenant state (catalog, media pool,
  volume) declared in a TOML/JSON fleet spec;
* :mod:`repro.fleet.scheduler` — deterministic admission control:
  priority lanes, round-robin turns within a lane, drive reservations;
* :mod:`repro.fleet.service` — the daemon loop advancing simulated
  days, pruning per policy, and emitting contention signals;
* :mod:`repro.fleet.api` — the JSON status document, its committed
  schema, and the localhost REST endpoint.
"""

from repro.fleet.scheduler import DriveTable, FleetScheduler, Job
from repro.fleet.service import (
    FleetService,
    export_fleet_trace,
    load_state,
    save_state,
    set_paused,
    submit_job,
)
from repro.fleet.tenant import (
    FleetError,
    FleetSpec,
    LANES,
    Tenant,
    TenantSpec,
    load_fleet_spec,
)
from repro.fleet.api import (
    make_server,
    serve,
    status_document,
    validate_status,
)

__all__ = [
    "DriveTable",
    "FleetError",
    "FleetScheduler",
    "FleetService",
    "FleetSpec",
    "Job",
    "LANES",
    "Tenant",
    "TenantSpec",
    "export_fleet_trace",
    "load_fleet_spec",
    "load_state",
    "make_server",
    "save_state",
    "serve",
    "set_paused",
    "status_document",
    "submit_job",
    "validate_status",
]
