"""The ledger's names, read from ``BENCHMARK.json`` at the repository root.

The manifest is the one place that lists the workloads, the end-to-end
metrics with their bounds, and the per-layer metrics with unit and direction.
What it has no room for lives here: the bounds and workloads of the
user-visible metrics only some workloads have, and — for each layer metric —
the end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

RUN_SECONDS: int = MANIFEST["run_seconds"]

#: name -> why the workload exists.
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
ALL = tuple(WORKLOADS)

#: Every workload reports every one of these (the driver requires it).
#: name -> (unit, better, bound).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    m["name"]: (m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]}

#: Reported by ``--trace 1`` on every workload; a layer the workload bypasses
#: reads 0.  name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]}

#: User-visible metrics only some workloads have.  The driver wants every
#: end-to-end metric from every workload, so these travel in the per-layer
#: list (no driver bound); ``run.py compare`` applies the bounds below.
#: name -> (bound, workloads).
WORKLOAD_END_TO_END: Dict[str, Tuple[float, Tuple[str, ...]]] = {
    "rerun_wall_s": (0.25, ("campaign_sqlite",)),
    "store_bytes_per_record": (0.01, ("campaign_sqlite", "campaign_distrib")),
    "rtt_p50_ms": (0.15, ("certify_tcp",)),
    "max_rate_ok": (0.0, ("certify_tcp",)),
}

_T = "throughput_per_s"
_W = "wall_s"

#: Layer metric -> the end-to-end metric it should move, and where.
SHOULD_MOVE: Dict[str, str] = {
    "explorer.schedules.generate_s": f"{_T} on explore_sparse (small share)",
    "explorer.schedules.schedules": "the denominator of every share",
    "explorer.reduction.canonicalize_s": f"{_W} on table4_exhaustive; 0 on explore_*",
    "explorer.reduction.executed_share": f"{_W} on table4_exhaustive; 1 on explore_*",
    "explorer.trie_executor.execute_s": f"{_T} on explore_sparse/parallel, campaign_distrib; none on table4",
    "explorer.trie_executor.replayed_step_ratio": f"{_T} on explore_sparse via execute_s",
    "explorer.trie_executor.restores": "0 unless the kernel ejects rows",
    "explorer.batch_kernel.rows_fast": f"{_T} on explore_sparse via execute_s",
    "explorer.batch_kernel.rows_ejected": f"{_T} on explore_sparse via execute_s",
    "explorer.batch_kernel.eject_share": f"{_T} on explore_sparse via execute_s",
    "explorer.memo.classify_s": f"{_T} on explore_sparse/parallel; a one-classifier change must hold service.online.* too",
    "explorer.memo.hits": "classify_s",
    "explorer.memo.misses": "classify_s",
    "explorer.memo.hit_share": "classify_s",
    "explorer.memo.shared_hits": f"{_T} on explore_parallel only",
    "explorer.worker.chunk_s": f"{_T} on explore_sparse, campaign_sqlite",
    "explorer.worker.assemble_s": "chunk_s self time: record building and reassembly",
    "explorer.worker.testbed_build_s": f"{_T} on explore_sparse (once per level)",
    "explorer.explorer.orchestrate_s": "explore() self time: everything no wrapper names",
    "explorer.explorer.pickle_s": f"{_T} on explore_parallel only",
    "explorer.explorer.pool_spinup_s": f"{_T} on explore_parallel only",
    "explorer.explorer.ipc_wait_s": f"{_T} on explore_parallel only",
    "static_analysis.analyze_s": f"{_W} on table4_exhaustive only with static pruning (off here)",
    "explorer.scenarios.variant_s": f"{_W} on table4_exhaustive: per-variant set-up and verdict folding",
    "explorer.scenarios.variants": f"{_W} on table4_exhaustive",
    "analysis.matrix.aggregate_s": f"{_W} on table4_exhaustive",
    "engine.scheduler.run_s": f"{_W} on table4_exhaustive: the stepwise runner executes every schedule",
    "engine.scheduler.runs": f"{_W} on table4_exhaustive",
    "testbed.build_s": f"{_W} on table4_exhaustive: one engine per schedule",
    "persist.records.encode_s": f"{_T} on campaign_sqlite cold, campaign_distrib",
    "persist.records.decode_s": "rerun_wall_s on campaign_sqlite",
    "persist.sqlite_store.commit_s": f"{_T} on campaign_sqlite cold, campaign_distrib",
    "persist.sqlite_store.commits": "commit_s",
    "persist.sqlite_store.commit_ms_p50": "commit_s",
    "persist.sqlite_store.load_s": "rerun_wall_s on campaign_sqlite",
    "persist.sqlite_store.loads": "load_s",
    "persist.sqlite_store.write_transactions": "commit_s",
    "persist.sqlite_store.busy_retries": "commit_s",
    "persist.sqlite_store.wal_bytes": "store_bytes_per_record",
    "persist.session.preload_s": "rerun_wall_s on campaign_sqlite",
    "persist.session.finish_s": f"{_T} on campaign_sqlite cold",
    "persist.analytics.inspect_s": "the inspect --report a campaign user runs next",
    "persist.cli.startup_s": f"{_W} on campaign_sqlite: CLI wall minus in-process wall",
    "distrib.queue.grants": f"{_T} on campaign_distrib",
    "distrib.queue.renewals": f"{_T} on campaign_distrib",
    "distrib.queue.reclaims": "fault phase only",
    "distrib.queue.fenced": "fault phase only",
    "distrib.runner.worker_busy_share": f"{_T} on campaign_distrib",
    "distrib.runner.parent_commit_s": f"{_T} on campaign_distrib",
    "distrib.runner.ipc_wait_s": f"{_T} on campaign_distrib",
    "distrib.runner.respawns": "fault phase only",
    "distrib.runner.recovery_ms": "fault phase only",
    "service.online.feed_s": f"{_T}, rtt_p50_ms on certify_tcp (about 1/3 of RTT)",
    "service.online.feed_us_p50": "rtt_p50_ms on certify_tcp",
    "service.online.feed_us_p99": "rtt_p99_ms on certify_tcp",
    "service.online.mv_feed_s": f"{_T} on certify_tcp: buffer-and-recompute path",
    "service.online.certificates": "persist_s",
    "service.server.json_decode_s": f"{_T}, rtt_p50_ms on certify_tcp",
    "service.server.json_encode_s": f"{_T}, rtt_p50_ms on certify_tcp",
    "service.server.persist_s": "rtt_p99_ms on certify_tcp (close requests)",
    "service.server.transport_s": f"{_T}, rtt_* on certify_tcp: asyncio + sockets",
    "service.server.close_ms_p50": "rtt_p99_ms on certify_tcp",
    "service.server.rtt_p999_ms": "diagnostic: too few samples to bound",
    "rtt_p99_ms": "diagnostic: medians of five identical sets ranged over 12%",
    "open_lat_p50_ms": "diagnostic at 2000 req/s: medians of five identical sets ranged over 15%",
    "open_lat_p90_ms": "diagnostic at 2000 req/s: ranged over 117%; max_rate_ok is the bounded reading",
    "service.server.open_lat_p99_ms": "diagnostic: moved 2x between identical runs",
    "service.server.open_r1000_lat_p50_ms": "max_rate_ok",
    "service.server.open_r3000_lat_p50_ms": "max_rate_ok",
    "service.server.gen_late_p99_ms": "validity of open_lat_*: the generator kept its schedule",
    "unattributed_share": "wall outside every named layer",
    "trace_overhead_share": "traced wall over untraced wall, minus 1",
    **{name: f"end-to-end on {', '.join(where)} (bound {bound:g})"
       for name, (bound, where) in WORKLOAD_END_TO_END.items()},
}


def bound_for(metric: str) -> float:
    if metric in END_TO_END:
        return END_TO_END[metric][2]
    return WORKLOAD_END_TO_END[metric][0]


def direction_of(metric: str) -> str:
    return (END_TO_END.get(metric) or PER_LAYER[metric])[1]


def unit_of(metric: str) -> str:
    return (END_TO_END.get(metric) or PER_LAYER[metric])[0]
