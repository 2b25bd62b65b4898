"""Fleet smoke: a multi-tenant fleet with one chaos device.

Three tenants submit 40 jobs each to a six-device
:class:`~repro.control.fleet.FleetScheduler` whose ``fpx05`` boots
wedged twice.  Every job must complete (failed jobs requeue, never
drop), the chaos device must be quarantined and recover, one synthesis
per distinct configuration must serve the whole fleet, and a second
identically seeded fleet must produce the same results.  Writes the
ledger and the ``fleet.*`` metrics to a JSON report.  Run from the
repository root::

    PYTHONPATH=src python benchmarks/fleet_smoke.py \\
        [--report fleet-report.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.control.fleet import ChaosClientFactory, FleetScheduler
from repro.core import Job
from repro.core.config import BASELINE
from repro.obs import MetricsRegistry
from repro.toolchain.driver import compile_c_program

TENANTS = ("alice", "bob", "carol")
JOBS_EACH = 40
CONFIGS = [BASELINE.with_dcache_size(s) for s in (4096, 8192)]


def build() -> FleetScheduler:
    fleet = FleetScheduler(
        devices=[f"fpx{i:02d}" for i in range(6)],
        client_factories={"fpx05": ChaosClientFactory(
            ["device-down", "device-down", "burst-loss"], seed=29)},
        quarantine_after=2, quarantine_ticks=12)
    image = compile_c_program("int main(void) { return 6 * 7; }")
    for t_index, tenant in enumerate(TENANTS):
        for index in range(JOBS_EACH):
            fleet.submit(tenant, Job(
                image=image,
                config=CONFIGS[(t_index + index) % len(CONFIGS)],
                name=f"{tenant}-{index}"))
    return fleet


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="fleet-report.json")
    args = parser.parse_args(argv)

    fleet = build()
    fleet.drain()
    ledger = fleet.ledger()
    jobs = ledger["jobs"]
    # Zero lost jobs: everything submitted completes OK even though
    # fpx05 boots wedged twice.
    assert jobs["submitted"] == len(TENANTS) * JOBS_EACH
    assert jobs["completed"] == jobs["submitted"]
    assert jobs["failed"] == 0
    assert jobs["requeued"] >= 1
    chaos = ledger["devices"]["fpx05"]
    assert chaos["quarantines"] >= 1
    assert chaos["recoveries"] >= 1
    assert chaos["jobs"] >= 1
    # Sane totals: one synthesis per distinct config, shared fleet-wide;
    # every tenant served.
    assert ledger["cache"]["misses"] == len(CONFIGS)
    assert ledger["cache"]["hits"] >= 1
    assert all(ledger["tenants"][t]["completed"] == JOBS_EACH
               for t in TENANTS)
    # Same seed, same history.
    rerun = build()
    rerun.drain()
    assert fleet.canonical_results() == rerun.canonical_results()
    registry = MetricsRegistry()
    fleet.publish_obs(registry)
    Path(args.report).write_text(json.dumps(
        {"ledger": ledger, "obs": registry.snapshot()},
        indent=2, sort_keys=True) + "\n")
    print("fleet smoke ok:", jobs)


if __name__ == "__main__":
    main()
