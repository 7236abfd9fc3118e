#!/usr/bin/env python
"""Fleet service: three tenants, two shared drives, seven simulated days.

The paper's operational regime is one filer protecting many volumes
against a small set of shared tape drives — the interesting costs are
queueing and media contention, not any single dump.  This example builds
that regime end to end:

* three tenants with their own catalogs, media pools, schedules
  (GFS and Towers-of-Hanoi), retention policies, and priority lanes;
* two shared drive slots behind the admission controller
  (priority lanes + round-robin turns within a lane; a tenant's
  ``weight`` is recorded in the spec but does not change its turn);
* seven service days with per-day pruning, then an ad-hoc interactive
  restore submitted through the same queue.

The run is deterministic: the event log, every tenant catalog and
every tenant volume are byte-identical from run to run (CI diffs two
runs under different hash seeds).

Run:  python examples/fleet_service.py
"""

import json
import shutil
import tempfile

from repro.fleet import (
    FleetService,
    FleetSpec,
    TenantSpec,
    status_document,
    submit_job,
    validate_status,
)

DAYS = 7


def make_spec():
    return FleetSpec(
        name="filer-01",
        tenants=[
            TenantSpec("acme", lane="daily", strategy="logical",
                       schedule="gfs:7x4", retention="redundancy 2",
                       data_bytes=500_000, seed=11, cartridges=10,
                       cartridge_capacity=2_000_000, blocks_per_disk=1000),
            TenantSpec("bolt", lane="daily", strategy="image",
                       schedule="hanoi:3", retention="redundancy 2",
                       data_bytes=400_000, seed=22, cartridges=10,
                       cartridge_capacity=2_000_000, blocks_per_disk=1000),
            TenantSpec("corp", lane="background", strategy="logical",
                       schedule="gfs:7x4", retention="window 10 days",
                       data_bytes=350_000, seed=33, cartridges=10,
                       cartridge_capacity=2_000_000, blocks_per_disk=1000),
        ],
        drives=2, seed=1234)


def main():
    root = tempfile.mkdtemp(prefix="repro-fleet-")
    try:
        print("== init: 3 tenants, 2 drives, root %s" % root)
        FleetService.init_fleet(root, make_spec())

        service = FleetService(root)
        totals = service.run_days(DAYS)
        print("== %d days: %d jobs, %.1f MB to tape, %d sets retired"
              % (totals["days"], totals["jobs"],
                 totals["bytes_to_tape"] / 1e6, totals["retired"]))
        for index, busy in enumerate(service.scheduler.utilization()):
            print("   drive %d utilization: %3.0f%%" % (index, 100 * busy))
        print("   mean queue wait: %.2f tick(s)"
              % service.scheduler.mean_wait())

        # An interactive restore goes through the same admission queue —
        # and its lane preempts the daily dumps for a drive slot.
        submit_job(root, "acme", kind="restore", lane="interactive")
        totals = FleetService(root).run_days(1)
        print("== day %d with ad-hoc restore: %d jobs" % (DAYS, totals["jobs"]))

        document = status_document(root)
        validate_status(document)  # the committed schema holds
        print("== status snapshot (validated against status_schema.json)")
        print(json.dumps({
            "fleet": document["fleet"],
            "tenants": [
                {k: t[k] for k in ("name", "lane", "strategy",
                                   "live_sets", "bytes_to_tape", "paused")}
                for t in document["tenants"]
            ],
            "last_job": document["jobs"]["recent"][-1],
        }, indent=1, sort_keys=True))
        print()
        print("The shape to notice: three tenants share two drives, so one"
              " dump queues every day — the wait shows up per tenant while"
              " both drives stay hot, and the interactive restore jumps the"
              " queue without breaking determinism.")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
