"""Persisting derived artifacts and querying them back: the analytics front end.

The store's row tables make anomaly analytics *queries* instead of python
walks (frequency over logical time, witness lookup by Table 4 cell,
conflict-edge aggregation — see the analytics methods of
:class:`~repro.persist.sqlite_store.SqliteStore` and their SQL).  This
module is the write side and the human-facing summary:

* :func:`persist_result` — after a campaign finishes, derive and store its
  coverage cells and the dependency (conflict) edges of every witnessed
  cell's witness history, so edge aggregation has rows to rank;
* :func:`campaign_summary` — the CLI's ``inspect`` payload: progress per
  scope, coverage, and the analytics tables rendered as plain text.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from ..core.dependency import build_dependency_graph
from ..core.history import History
from .records import LEASE_STATES, canonical_json, encode_interleaving
from .sqlite_store import SqliteStore


def _lease_summary(store: SqliteStore, campaign_id: str) -> Optional[dict]:
    """Per-state lease counts and the quarantined chunk list, or ``None``.

    Distributed campaigns (and fault-injected ones) leave their durable
    work-queue state in the ``leases`` table; ``inspect`` used to ignore it
    entirely, so a campaign stalled on poisoned chunks summarized exactly
    like a healthy one.  Campaigns never run distributed have no lease rows
    and keep their summary unchanged (``None`` here, key omitted).
    """
    leases = store.load_leases(campaign_id)
    if not leases:
        return None
    counts = {state: 0 for state in LEASE_STATES}
    quarantined = []
    for (scope, chunk_index), lease in sorted(leases.items()):
        counts[lease.state] += 1
        if lease.state == "poisoned":
            quarantined.append({"scope": scope, "chunk_index": chunk_index,
                                "attempts": lease.attempts})
    return {"counts": counts, "quarantined": quarantined}

__all__ = ["persist_result", "witness_edge_rows", "campaign_summary",
           "campaign_summary_data", "fingerprint_from_store"]


def fingerprint_from_store(store: SqliteStore, campaign_id: str) -> str:
    """The campaign's record fingerprint, rebuilt purely from stored rows.

    Byte-compatible with ``ExplorationResult.fingerprint()``: scopes are
    visited in sorted order (identical to sorting levels by their ``value``)
    and each record hashes as the same ``repr`` tuple, so a completed
    campaign's stored fingerprint equals the live run's.
    """
    digest = hashlib.sha256()
    for scope in sorted(store.scope_progress(campaign_id)):
        digest.update(scope.encode())
        for record in store.iter_records(campaign_id, scope):
            digest.update(repr((
                record.interleaving, record.history, record.serializable,
                record.phenomena, record.committed, record.aborted,
                record.blocked_events, record.deadlocks, record.stalled,
            )).encode())
    return digest.hexdigest()


def witness_edge_rows(report) -> List[Tuple[str, str, int, int, str,
                                            Optional[str]]]:
    """Dependency-edge rows of every witnessed cell of a coverage report.

    One row per labelled edge of the witness history's dependency graph:
    ``(scope, code, source, target, kind, item)``.  The witness history is a
    shorthand string, so this parses and rebuilds the graph — a few dozen
    operations per witnessed cell, paid once per campaign.
    """
    rows: List[Tuple[str, str, int, int, str, Optional[str]]] = []
    for level, coverage in report.levels.items():
        for code, cell in coverage.phenomena.items():
            if not cell.witness_history:
                continue
            graph = build_dependency_graph(History.parse(cell.witness_history))
            for edge in graph.edges:
                rows.append((level.value, code, edge.source, edge.target,
                             edge.kind, edge.item))
    return rows


def persist_result(store: SqliteStore, campaign_id: str, result,
                   codes: Optional[Tuple[str, ...]] = None):
    """Derive and store a finished campaign's coverage cells and witness edges.

    ``result`` is the :class:`~repro.explorer.ExplorationResult` the campaign
    produced.  Returns the built
    :class:`~repro.analysis.coverage.CoverageReport`.
    """
    from ..analysis.coverage import build_coverage_report
    report = build_coverage_report(result, codes=codes)
    coverage_rows = []
    for level, coverage in report.levels.items():
        for code, cell in coverage.phenomena.items():
            interleaving = (encode_interleaving(cell.witness_interleaving)
                            if cell.witness_interleaving is not None else None)
            coverage_rows.append((level.value, code, cell.witnessed,
                                  interleaving, cell.witness_history))
    store.save_coverage(campaign_id, coverage_rows)
    store.save_witness_edges(campaign_id, witness_edge_rows(report))
    return report


def campaign_summary_data(store: SqliteStore, campaign_id: str,
                          codes: Tuple[str, ...] = ("P1", "P2", "P3",
                                                    "A5A", "A5B"),
                          ) -> Optional[dict]:
    """The ``inspect --json`` payload, which :func:`campaign_summary` renders.

    One dict per campaign with per-scope progress, per-code anomaly totals
    and first witnesses, and the ranked conflict-edge summary.  ``None``
    when the campaign does not exist.
    """
    info = store.get_campaign(campaign_id)
    if info is None:
        return None
    scopes = []
    progress = store.scope_progress(campaign_id)
    for scope in sorted(progress):
        state = progress[scope]
        anomalies = []
        groups = store.coverage_groups(campaign_id, scope)
        chunks = store.chunk_count(campaign_id, scope)
        for code in codes:
            hits = [(first, count) for listed, count, _, _, first in groups
                    if code in listed]
            if not hits:
                continue
            first = min(hits)[0]
            interleaving, _ = store.witness_at(campaign_id, scope, first)
            anomalies.append({
                "code": code, "witnesses": sum(count for _, count in hits),
                "chunks": chunks, "first_schedule": first,
                "witness": encode_interleaving(interleaving),
            })
        scopes.append({"scope": scope, "complete": state.complete,
                       "cursor": state.cursor, "records": state.records,
                       "anomalies": anomalies})
    edges = [{"scope": row.scope, "kind": row.kind, "count": row.count,
              "rank": row.rank}
             for row in store.conflict_edge_summary(campaign_id)]
    payload = {"campaign_id": campaign_id, "store": store.description(),
               "config": dict(info.config), "scopes": scopes,
               "conflict_edges": edges}
    leases = _lease_summary(store, campaign_id)
    if leases is not None:
        payload["leases"] = leases
    certificates = store.load_certificates(campaign_id)
    if certificates:
        payload["certificates"] = len(certificates)
    return payload


def campaign_summary(store: SqliteStore, campaign_id: str,
                     codes: Tuple[str, ...] = ("P1", "P2", "P3", "A5A", "A5B"),
                     ) -> str:
    """A plain-text inspection of one campaign: :func:`campaign_summary_data`
    rendered — progress, analytics, edges."""
    data = campaign_summary_data(store, campaign_id, codes)
    if data is None:
        return f"campaign {campaign_id!r}: not found"
    lines = [f"campaign {campaign_id}",
             f"  store: {data['store']}",
             f"  config: {canonical_json(data['config'])}"]
    if not data["scopes"]:
        lines.append("  no progress recorded yet")
    for scope in data["scopes"]:
        status = "complete" if scope["complete"] else f"cursor={scope['cursor']}"
        lines.append(f"  [{scope['scope']}] {status}, {scope['records']} records")
        for anomaly in scope["anomalies"]:
            lines.append(f"    {anomaly['code']}: {anomaly['witnesses']} witnesses "
                         f"over {anomaly['chunks']} chunks; first at schedule "
                         f"#{anomaly['first_schedule']}: {anomaly['witness']}")
    if data["conflict_edges"]:
        lines.append("  witness conflict edges (count-ranked per scope):")
        for row in data["conflict_edges"]:
            lines.append(f"    [{row['scope']}] {row['kind']}: {row['count']} "
                         f"(rank {row['rank']})")
    leases = data.get("leases")
    if leases is not None:
        counts = leases["counts"]
        lines.append("  chunk leases: " + ", ".join(
            f"{counts[state]} {state}" for state in LEASE_STATES))
        for chunk in leases["quarantined"]:
            lines.append(f"    quarantined: [{chunk['scope']}] chunk "
                         f"#{chunk['chunk_index']} after "
                         f"{chunk['attempts']} attempts")
    if "certificates" in data:
        lines.append(f"  anomaly certificates: {data['certificates']}")
    return "\n".join(lines)
