"""Distributed campaigns: leased workers, injected faults, byte-identity.

A :class:`~repro.distrib.CampaignRunner` farms an exploration campaign out
to N supervised worker processes through a leased work queue on top of the
campaign store.  Workers that die or hang lose their leases; the chunks are
reclaimed, retried with backoff, and — because records are a pure function
of the campaign config — the finished store is byte-identical to a serial
run no matter which workers were lost when.  This walkthrough runs the same
small campaign three times: clean, under a worker kill, and under a hang,
then byte-diffs each against the serial control.

Run with:  PYTHONPATH=src python examples/distributed_campaign.py
"""

from __future__ import annotations

import os
import tempfile

from repro.distrib import CampaignRunner, FaultPlan
from repro.distrib.faults import serial_reference
from repro.explorer import ExploreOptions
from repro.persist import SqliteStore, fingerprint_from_store
from repro.workloads.program_sets import ProgramSetSpec


def main() -> None:
    spec = ProgramSetSpec.make("increments")
    kwargs = dict(max_schedules=96, seed=3, chunk_size=16)
    tmp = tempfile.mkdtemp()

    # The serial control every distributed run must reproduce exactly.
    _, control = serial_reference(spec, ExploreOptions(**kwargs))
    print(f"serial control fingerprint: {control[:16]}…\n")

    legs = [
        ("fault-free", FaultPlan()),
        ("worker 0 SIGKILLed mid-campaign",
         FaultPlan.parse(["kill:worker=0:ordinal=1"])),
        ("worker 1 hangs past its lease",
         FaultPlan.parse(["hang:worker=1:ordinal=0:duration=0.6"])),
    ]
    for index, (name, plan) in enumerate(legs):
        store = SqliteStore(os.path.join(tmp, f"leg{index}.sqlite"))
        try:
            result = CampaignRunner(
                store, spec, workers=2, faults=plan,
                lease_duration=0.4, heartbeat_interval=0.1,
                deadline_s=90.0, **kwargs).run()
            fingerprint = fingerprint_from_store(store, result.campaign_id)
            print(f"{name}:")
            print(f"  complete={result.success} in {result.duration:.2f}s — "
                  f"{result.committed_chunks} chunks, "
                  f"{result.committed_records} records")
            if result.respawns:
                print(f"  workers respawned: {result.respawns}")
            if result.recovery_latency_s is not None:
                print(f"  worst recovery latency: "
                      f"{result.recovery_latency_s * 1000:.0f} ms")
            print(f"  byte-identical to serial: {fingerprint == control}\n")
        finally:
            store.close()

    print("the same machinery from the command line:")
    print("  PYTHONPATH=src python -m repro distrib verify \\")
    print("      --store campaigns.sqlite --program-set increments \\")
    print("      --max-schedules 96 --chunk-size 16 --seed 3 \\")
    print("      --workers 2 --fault-seed 7")


if __name__ == "__main__":
    main()
