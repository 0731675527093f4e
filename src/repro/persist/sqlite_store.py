"""The campaign store: durable chunks, WAL crash-safety, SQL analytics.

:class:`SqliteStore` is the one store implementation.  A path names a
durable store file; ``SqliteStore(":memory:")`` is the same store in
process memory, for tests and throwaway in-process runs.

The schema follows the row encodings of :mod:`repro.persist.records` —
every collection column is canonical JSON, so the JSON1 functions
(``json_each``) can unnest phenomenon lists inside queries, and the
analytics that used to be bespoke python walks become plain SQL with
window functions:

* anomaly frequency over logical time — per-chunk witness counts with a
  running total via ``SUM(...) OVER (ORDER BY chunk_index)``;
* witness lookup by Table 4 cell — earliest stored witness via ``ORDER BY
  schedule_index LIMIT 1`` over a ``json_each`` containment probe;
* conflict-edge aggregation — ``RANK() OVER (PARTITION BY scope ORDER BY
  COUNT(*) DESC)`` over the witness-edge table.

Durability: the connection runs in WAL mode and every ``commit_chunk`` is
one transaction inserting the chunk's record rows and advancing the scope
cursor, so a SIGKILL between any two statements leaves the cursor pointing
at a fully materialized prefix of the stream.  Workers never open the
database — only the parent process writes — which keeps the concurrency
story to SQLite's single-writer default.

Crash hardening: every write transaction goes through one ``_write``
wrapper that sets ``PRAGMA busy_timeout`` and retries transient
``database is locked`` / ``database is busy`` errors a bounded number of
times with exponential backoff and seeded jitter (other processes — CI
inspectors, a second campaign, backup tooling — may hold the file briefly).
Retry counts surface through :meth:`SqliteStore.stats`, and the fault-
injection harness can force transient lock errors beneath the wrapper via
``busy_fault_hook`` to prove the retry path end to end.

Schema v2 adds the ``leases`` table: the distributed runner's durable
work-queue state (chunk lease state, fencing token, attempt count).  v3
adds the ``certificates`` table: the online certifier service's anomaly
certificates, keyed ``(campaign, stream, seq)``.  v4 drops the ``outcomes``
table of the retired schedule-outcome memo from new stores.  New stores
create only the tables this build reads or writes: no ``table4_cells``
(per-cell Table 4 results), ``classifications`` (a classification tier keyed
by history shorthand) or ``rep_records`` (the representatives of sleep-set
campaigns).  A file of an earlier build that holds them opens as before,
with no schema bump, and their rows are never read.  Older stores
migrate in place, in one transaction: the v2 and v3 tables are purely
additive, and v4 marks every explore or distributed campaign run with
``reduction: "none"`` as memo-era (:func:`_mark_memo_era`), because a build
before v4 may have written its records through the memo.  Resuming such a
campaign then raises :class:`~repro.persist.store.CampaignConfigMismatch`
instead of mixing memo records with records that each carry their own
schedule's history.

Hostile files fail closed: a file that is not an SQLite database, a schema
from a future build, a corrupt page, or a row that does not decode (see
:mod:`repro.persist.records`) raises :class:`~repro.persist.store.StoreError`
naming the file — and, for a bad row, its campaign and scope — so every CLI
entry exits 2 with ``error: …`` instead of a traceback or a silently
shorter report.
"""

from __future__ import annotations

import json
import random
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, Mapping, Optional, Sequence,
                    Tuple, TypeVar, Union)

from ..explorer.worker import ScheduleRecord
from . import records as rec
from .store import (
    AnomalyFrequencyRow,
    CampaignConfigMismatch,
    CampaignInfo,
    ConflictEdgeRow,
    ScopeProgress,
    StaleLeaseError,
    StoredWitness,
    StoreError,
)

__all__ = ["SqliteStore", "SCHEMA_VERSION"]

SCHEMA_VERSION = 4

_T = TypeVar("_T")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign TEXT PRIMARY KEY,
    config   TEXT NOT NULL,
    seq      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS cursors (
    campaign     TEXT NOT NULL,
    scope        TEXT NOT NULL,
    cursor       INTEGER NOT NULL,
    records      INTEGER NOT NULL,
    complete     INTEGER NOT NULL DEFAULT 0,
    total_chunks INTEGER,
    stats        TEXT,
    PRIMARY KEY (campaign, scope)
);
CREATE TABLE IF NOT EXISTS records (
    campaign       TEXT NOT NULL,
    scope          TEXT NOT NULL,
    chunk_index    INTEGER NOT NULL,
    schedule_index INTEGER NOT NULL,
    interleaving   TEXT NOT NULL,
    history        TEXT NOT NULL,
    serializable   INTEGER NOT NULL,
    phenomena      TEXT NOT NULL,
    committed      TEXT NOT NULL,
    aborted        TEXT NOT NULL,
    blocked_events INTEGER NOT NULL,
    deadlocks      INTEGER NOT NULL,
    stalled        INTEGER NOT NULL,
    PRIMARY KEY (campaign, scope, schedule_index)
);
CREATE INDEX IF NOT EXISTS records_by_chunk
    ON records (campaign, scope, chunk_index);
CREATE TABLE IF NOT EXISTS coverage (
    campaign             TEXT NOT NULL,
    scope                TEXT NOT NULL,
    code                 TEXT NOT NULL,
    witnessed            INTEGER NOT NULL,
    witness_interleaving TEXT,
    witness_history      TEXT,
    PRIMARY KEY (campaign, scope, code)
);
CREATE TABLE IF NOT EXISTS witness_edges (
    campaign TEXT NOT NULL,
    scope    TEXT NOT NULL,
    code     TEXT NOT NULL,
    source   INTEGER NOT NULL,
    target   INTEGER NOT NULL,
    kind     TEXT NOT NULL,
    item     TEXT
);
CREATE INDEX IF NOT EXISTS witness_edges_by_campaign
    ON witness_edges (campaign, scope, kind);
CREATE TABLE IF NOT EXISTS leases (
    campaign    TEXT NOT NULL,
    scope       TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    state       TEXT NOT NULL,
    token       INTEGER NOT NULL,
    owner       TEXT,
    attempts    INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign, scope, chunk_index)
);
CREATE TABLE IF NOT EXISTS certificates (
    campaign TEXT NOT NULL,
    stream   TEXT NOT NULL,
    seq      INTEGER NOT NULL,
    code     TEXT NOT NULL,
    txns     TEXT NOT NULL,
    items    TEXT NOT NULL,
    op_index INTEGER NOT NULL,
    witness  TEXT NOT NULL,
    PRIMARY KEY (campaign, stream, seq)
);
"""

_RECORD_INSERT = """
INSERT INTO records (campaign, scope, chunk_index, schedule_index,
                     interleaving, history, serializable, phenomena, committed,
                     aborted, blocked_events, deadlocks, stalled)
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""

_RECORD_COLS = ", ".join(rec.RECORD_COLUMNS)


#: Errors a hostile file or row raises on the way out of the store: SQLite's
#: own (not a database, corrupt page, undecodable text, malformed JSON) and
#: the row codec's.
_UNREADABLE = (sqlite3.DatabaseError, ValueError, TypeError)


def _mark_memo_era(cur: sqlite3.Cursor) -> None:
    """The v3 → v4 migration: tag campaigns a pre-v4 build may have written
    through the schedule-outcome memo.

    That memo was on by default for every ``reduction: "none"`` explore or
    distributed campaign whose space held at most 10,000 schedules, and it
    stored another schedule's history in most records.  The space size is not
    in the config, so every such campaign is tagged: adding
    ``"outcome_memo": "auto"`` makes its config differ from any this build
    writes.  Table 4 campaigns (``"kind": "table4-explored"``) and sleep-set
    campaigns never used the memo and are left untouched.
    """
    for campaign, config in cur.execute(
            "SELECT campaign, config FROM campaigns").fetchall():
        decoded = json.loads(config)
        if (isinstance(decoded, dict) and decoded.get("reduction") == "none"
                and decoded.get("kind") != "table4-explored"):
            decoded["outcome_memo"] = "auto"
            cur.execute("UPDATE campaigns SET config = ? WHERE campaign = ?",
                        (rec.canonical_json(decoded), campaign))


class SqliteStore:
    """Campaign persistence on one SQLite file (stdlib ``sqlite3``, WAL mode).

    Guarantees: (1) ``commit_chunk`` is atomic with the cursor advance;
    (2) chunks commit contiguously; (3) reads decode to objects equal to
    what was written (:mod:`repro.persist.records` round-trip); (4) a file
    or row this build cannot read raises :class:`StoreError`.
    """

    def __init__(self, path: Union[str, Path],
                 synchronous: str = "NORMAL",
                 busy_timeout_ms: int = 5000,
                 busy_retries: int = 5,
                 busy_backoff_s: float = 0.01,
                 busy_jitter_seed: int = 0) -> None:
        self.path = str(path)
        self._busy_retries = int(busy_retries)
        self._busy_backoff_s = float(busy_backoff_s)
        self._busy_rng = random.Random(busy_jitter_seed)
        self._stats: Dict[str, int] = {"write_transactions": 0, "busy_retries": 0}
        #: Test/fault-injection hook: consulted once per write-transaction
        #: attempt; returning True makes that attempt fail with a transient
        #: ``database is locked`` error beneath the retry wrapper.
        self.busy_fault_hook: Optional[Callable[[], bool]] = None
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.OperationalError as error:    # a directory, no parent
            raise StoreError(f"store {self.path!r} cannot be opened: "
                             f"{error}") from error
        self._conn.isolation_level = None      # explicit BEGIN/COMMIT below
        cur = self._conn.cursor()
        try:
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute(f"PRAGMA synchronous={synchronous}")
            cur.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            cur.executescript(_SCHEMA)
            cur.execute("INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(SCHEMA_VERSION)))
            stored = int(cur.execute("SELECT value FROM meta WHERE key = ?",
                                     ("schema_version",)).fetchone()[0])
            if stored in (1, 2, 3):
                # v1 → v2 (leases) and v2 → v3 (certificates) are purely
                # additive (the executescript above already created the empty
                # tables); v3 → v4 tags memo-era campaigns.  One transaction,
                # stamp included, so a kill leaves the file at its old version.
                cur.execute("BEGIN IMMEDIATE")
                _mark_memo_era(cur)
                cur.execute("UPDATE meta SET value = ? WHERE key = ?",
                            (str(SCHEMA_VERSION), "schema_version"))
                cur.execute("COMMIT")
                stored = SCHEMA_VERSION
        except _UNREADABLE as error:
            self._conn.close()
            raise StoreError(f"store {self.path!r} is not a campaign store "
                             f"this build can open: {error}") from error
        if stored != SCHEMA_VERSION:
            self._conn.close()
            raise StoreError(f"store {self.path!r} has schema version {stored}, "
                             f"this build expects {SCHEMA_VERSION}")

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def description(self) -> str:
        """One-line store description for CLI output."""
        return f"SqliteStore ({self.path}, schema v{SCHEMA_VERSION})"

    def stats(self) -> Dict[str, int]:
        """Write transactions and lock-contention retries so far."""
        return dict(self._stats)

    @contextmanager
    def _reading(self, campaign_id: Optional[str] = None,
                 scope: Optional[str] = None) -> Iterator[None]:
        """Re-raise a corrupt page or undecodable row as a :class:`StoreError`
        naming the file and, when known, the campaign and scope read."""
        try:
            yield
        except _UNREADABLE as error:
            raise self._unreadable(error, campaign_id, scope) from error

    def _unreadable(self, error: BaseException, campaign_id: Optional[str] = None,
                    scope: Optional[str] = None) -> StoreError:
        where = f", campaign {campaign_id!r}" if campaign_id is not None else ""
        if scope is not None:
            where += f", scope {scope!r}"
        return StoreError(f"store {self.path!r} is unreadable{where}: {error}")

    # -- write transactions -----------------------------------------------------------

    def _write(self, fn: Callable[[sqlite3.Cursor], _T]) -> _T:
        """Run ``fn`` inside ``BEGIN IMMEDIATE``..``COMMIT`` with busy-retry.

        Transient ``database is locked`` / ``busy`` errors — a concurrent
        reader holding the file, a checkpoint, an injected fault — are
        retried up to ``busy_retries`` times with exponential backoff and
        seeded jitter; anything else (including store-invariant errors
        raised by ``fn`` itself) rolls back and propagates immediately — a
        corrupt page or a constraint the file's rows break as a
        :class:`StoreError`.
        """
        attempt = 0
        while True:
            cur = self._conn.cursor()
            try:
                if self.busy_fault_hook is not None and self.busy_fault_hook():
                    raise sqlite3.OperationalError("database is locked (injected)")
                cur.execute("BEGIN IMMEDIATE")
                result = fn(cur)
                cur.execute("COMMIT")
            except sqlite3.OperationalError as error:
                self._rollback(cur)
                message = str(error).lower()
                if ("locked" not in message and "busy" not in message) \
                        or attempt >= self._busy_retries:
                    raise
                attempt += 1
                self._stats["busy_retries"] += 1
                delay = self._busy_backoff_s * (2 ** (attempt - 1))
                time.sleep(delay * (0.5 + self._busy_rng.random()))
            except sqlite3.DatabaseError as error:
                self._rollback(cur)
                raise self._unreadable(error) from error
            except BaseException:
                self._rollback(cur)
                raise
            else:
                self._stats["write_transactions"] += 1
                return result

    def _rollback(self, cur: sqlite3.Cursor) -> None:
        try:
            cur.execute("ROLLBACK")
        except sqlite3.Error:
            pass                    # the failed attempt never opened a txn

    # -- campaigns --------------------------------------------------------------------

    def open_campaign(self, campaign_id: str,
                      config: Optional[Mapping[str, Any]] = None) -> CampaignInfo:
        """Create the campaign or validate ``config`` against the stored one.

        Raises :class:`CampaignConfigMismatch` when the campaign exists with a
        different config, and :class:`StoreError` when it does not exist and
        no config was supplied.
        """
        with self._reading(campaign_id):
            row = self._conn.execute(
                "SELECT config FROM campaigns WHERE campaign = ?",
                (campaign_id,)).fetchone()
        if row is not None:
            stored = row[0]
        else:
            if config is None:
                raise StoreError(f"unknown campaign {campaign_id!r} and no config "
                                 f"supplied to create it")
            encoded = rec.canonical_json(dict(config))

            def txn(cur: sqlite3.Cursor) -> Optional[str]:
                # Re-check under BEGIN IMMEDIATE: another process may have
                # created the campaign between our read and this write.
                existing = cur.execute(
                    "SELECT config FROM campaigns WHERE campaign = ?",
                    (campaign_id,)).fetchone()
                if existing is not None:
                    return existing[0]
                seq = cur.execute("SELECT COUNT(*) FROM campaigns").fetchone()[0]
                cur.execute("INSERT INTO campaigns (campaign, config, seq) "
                            "VALUES (?, ?, ?)", (campaign_id, encoded, seq))
                return None

            created = self._write(txn)
            if created is None:
                return CampaignInfo(campaign_id, dict(config))
            stored = created
        if config is not None and rec.canonical_json(dict(config)) != stored:
            raise CampaignConfigMismatch(
                f"campaign {campaign_id!r} exists with a different config: "
                f"stored {stored}, got {rec.canonical_json(dict(config))}")
        with self._reading(campaign_id):
            return CampaignInfo(campaign_id, json.loads(stored))

    def get_campaign(self, campaign_id: str) -> Optional[CampaignInfo]:
        """The stored campaign, or ``None``."""
        with self._reading(campaign_id):
            row = self._conn.execute(
                "SELECT config FROM campaigns WHERE campaign = ?",
                (campaign_id,)).fetchone()
            if row is None:
                return None
            return CampaignInfo(campaign_id, json.loads(row[0]))

    def list_campaigns(self) -> Tuple[CampaignInfo, ...]:
        """Every stored campaign, in creation order."""
        with self._reading():
            rows = self._conn.execute(
                "SELECT campaign, config FROM campaigns ORDER BY seq").fetchall()
            return tuple(CampaignInfo(cid, json.loads(cfg)) for cid, cfg in rows)

    # -- progress ---------------------------------------------------------------------

    def _require_campaign(self, campaign_id: str) -> None:
        with self._reading(campaign_id):
            row = self._conn.execute("SELECT 1 FROM campaigns WHERE campaign = ?",
                                     (campaign_id,)).fetchone()
        if row is None:
            raise StoreError(f"unknown campaign {campaign_id!r}")

    def scope_progress(self, campaign_id: str) -> Dict[str, ScopeProgress]:
        """Durable progress per scope (empty for a fresh campaign)."""
        self._require_campaign(campaign_id)
        out: Dict[str, ScopeProgress] = {}
        with self._reading(campaign_id):
            rows = self._conn.execute(
                "SELECT scope, cursor, records, complete, total_chunks, stats "
                "FROM cursors WHERE campaign = ?", (campaign_id,)).fetchall()
            for scope, cursor, count, complete, total, stats in rows:
                out[scope] = ScopeProgress(scope, cursor, count, bool(complete),
                                           total, json.loads(stats) if stats else {})
        return out

    def cursor(self, campaign_id: str, scope: str) -> int:
        """The contiguous committed-chunk high-water mark for one scope."""
        progress = self.scope_progress(campaign_id).get(scope)
        return progress.cursor if progress else 0

    def commit_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                     records: Sequence[ScheduleRecord],
                     lease_token: Optional[int] = None) -> None:
        """Durably commit one chunk's records and advance the cursor, atomically.

        ``records`` are the chunk's per-schedule records, in stream order.
        ``chunk_index`` must equal the current cursor — chunks are committed
        contiguously, in stream order.

        When ``lease_token`` is given the commit is *fenced*: inside the same
        transaction the chunk's lease row must be in state ``leased`` holding
        exactly this token, else :class:`StaleLeaseError` is raised and
        nothing lands.  On success the lease row transitions to ``done``
        atomically with the records and the cursor, so a reclaimed-and-
        regranted chunk can only ever be committed by the current holder.
        """
        self._require_campaign(campaign_id)

        def txn(cur: sqlite3.Cursor) -> None:
            if lease_token is not None:
                lease = cur.execute(
                    "SELECT state, token FROM leases WHERE campaign = ? AND "
                    "scope = ? AND chunk_index = ?",
                    (campaign_id, scope, chunk_index)).fetchone()
                if lease is None or lease[0] != "leased" \
                        or int(lease[1]) != lease_token:
                    held = "no lease" if lease is None else \
                        f"state={lease[0]!r} token={lease[1]}"
                    raise StaleLeaseError(
                        f"fenced commit of chunk {chunk_index} "
                        f"({campaign_id!r}/{scope!r}) with token {lease_token} "
                        f"rejected: {held}")
            row = cur.execute(
                "SELECT cursor, records FROM cursors WHERE campaign = ? AND "
                "scope = ?", (campaign_id, scope)).fetchone()
            cursor, base = row if row is not None else (0, 0)
            if chunk_index != cursor:
                raise StoreError(f"non-contiguous commit: chunk {chunk_index} with "
                                 f"cursor {cursor} ({campaign_id!r}/{scope!r})")
            cur.executemany(_RECORD_INSERT, [
                (campaign_id, scope, chunk_index, base + offset)
                + rec.record_to_row(record)
                for offset, record in enumerate(records)])
            if row is None:
                cur.execute("INSERT INTO cursors (campaign, scope, cursor, records) "
                            "VALUES (?, ?, ?, ?)",
                            (campaign_id, scope, chunk_index + 1,
                             base + len(records)))
            else:
                cur.execute("UPDATE cursors SET cursor = ?, records = ? "
                            "WHERE campaign = ? AND scope = ?",
                            (chunk_index + 1, base + len(records),
                             campaign_id, scope))
            if lease_token is not None:
                cur.execute("UPDATE leases SET state = 'done' WHERE campaign = ? "
                            "AND scope = ? AND chunk_index = ?",
                            (campaign_id, scope, chunk_index))

        self._write(txn)

    def load_chunk(self, campaign_id: str, scope: str, chunk_index: int,
                   ) -> Tuple[ScheduleRecord, ...]:
        """The committed chunk's records, decoded, in stream order."""
        with self._reading(campaign_id, scope):
            row = self._conn.execute(
                "SELECT cursor FROM cursors WHERE campaign = ? AND scope = ?",
                (campaign_id, scope)).fetchone()
            if row is None or chunk_index >= row[0]:
                raise StoreError(f"chunk {chunk_index} of {campaign_id!r}/{scope!r} "
                                 f"is not committed")
            return tuple(rec.record_from_row(r) for r in self._conn.execute(
                f"SELECT {_RECORD_COLS} FROM records WHERE campaign = ? AND "
                f"scope = ? AND chunk_index = ? ORDER BY schedule_index",
                (campaign_id, scope, chunk_index)).fetchall())

    def mark_scope_complete(self, campaign_id: str, scope: str, total_chunks: int,
                            stats: Optional[Mapping[str, int]] = None) -> None:
        """Record that every chunk of the scope is durably committed."""
        self._require_campaign(campaign_id)
        encoded = rec.canonical_json(dict(stats)) if stats else None
        self._write(lambda cur: cur.execute(
            "INSERT INTO cursors (campaign, scope, cursor, records, complete, "
            "total_chunks, stats) VALUES (?, ?, 0, 0, 1, ?, ?) "
            "ON CONFLICT (campaign, scope) DO UPDATE SET complete = 1, "
            "total_chunks = excluded.total_chunks, stats = excluded.stats",
            (campaign_id, scope, total_chunks, encoded)))

    def iter_records(self, campaign_id: str, scope: str) -> Iterator[ScheduleRecord]:
        """Every committed record of the scope, in stream order."""
        with self._reading(campaign_id, scope):
            for row in self._conn.execute(
                    f"SELECT {_RECORD_COLS} FROM records WHERE campaign = ? AND "
                    f"scope = ? ORDER BY schedule_index", (campaign_id, scope)):
                yield rec.record_from_row(row)

    # -- leases (the distributed runner's durable work-queue state) -------------------

    def load_leases(self, campaign_id: str,
                    ) -> Dict[Tuple[str, int], rec.LeaseRecord]:
        """Every stored lease of the campaign, keyed ``(scope, chunk_index)``."""
        self._require_campaign(campaign_id)
        out: Dict[Tuple[str, int], rec.LeaseRecord] = {}
        with self._reading(campaign_id):
            for row in self._conn.execute(
                    "SELECT scope, chunk_index, state, token, owner, attempts "
                    "FROM leases WHERE campaign = ? ORDER BY scope, chunk_index",
                    (campaign_id,)):
                lease = rec.lease_from_row(row)
                out[(lease.scope, lease.chunk_index)] = lease
        return out

    def put_lease(self, campaign_id: str, lease: rec.LeaseRecord) -> None:
        """Upsert one chunk's lease row (grant, reclaim, poison, requeue)."""
        self._require_campaign(campaign_id)
        row = rec.lease_to_row(lease)
        self._write(lambda cur: cur.execute(
            "INSERT OR REPLACE INTO leases (campaign, scope, chunk_index, state, "
            "token, owner, attempts) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (campaign_id,) + row))

    # -- anomaly certificates (the online certifier service) --------------------------

    def save_certificates(self, campaign_id: str,
                          certificates: Sequence[rec.CertificateRecord]) -> int:
        """Upsert anomaly certificates keyed ``(stream, seq)``; returns how
        many were new.  Re-saving a stream's certificates is idempotent."""
        self._require_campaign(campaign_id)
        if not certificates:
            return 0
        rows = [rec.certificate_to_row(c) for c in certificates]

        def txn(cur: sqlite3.Cursor) -> int:
            before = cur.execute(
                "SELECT COUNT(*) FROM certificates WHERE campaign = ?",
                (campaign_id,)).fetchone()[0]
            cur.executemany(
                "INSERT OR REPLACE INTO certificates (campaign, stream, seq, "
                "code, txns, items, op_index, witness) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(campaign_id,) + row for row in rows])
            after = cur.execute(
                "SELECT COUNT(*) FROM certificates WHERE campaign = ?",
                (campaign_id,)).fetchone()[0]
            return after - before

        return self._write(txn)

    def load_certificates(self, campaign_id: str, stream: Optional[str] = None,
                          ) -> Tuple[rec.CertificateRecord, ...]:
        """Stored certificates (optionally one stream's), ordered by
        ``(stream, seq)``."""
        self._require_campaign(campaign_id)
        query = ("SELECT stream, seq, code, txns, items, op_index, witness "
                 "FROM certificates WHERE campaign = ?")
        params: Tuple[Any, ...] = (campaign_id,)
        if stream is not None:
            query += " AND stream = ?"
            params += (stream,)
        query += " ORDER BY stream, seq"
        with self._reading(campaign_id):
            return tuple(rec.certificate_from_row(row)
                         for row in self._conn.execute(query, params))

    # -- derived artifacts ------------------------------------------------------------

    def save_coverage(self, campaign_id: str,
                      rows: Sequence[Tuple[str, str, int, Optional[str],
                                           Optional[str]]]) -> None:
        """Replace the campaign's coverage cells.

        Rows are ``(scope, code, witnessed, witness_interleaving,
        witness_history)`` with the interleaving already encoded.
        """
        self._require_campaign(campaign_id)

        def txn(cur: sqlite3.Cursor) -> None:
            cur.execute("DELETE FROM coverage WHERE campaign = ?", (campaign_id,))
            cur.executemany(
                "INSERT INTO coverage (campaign, scope, code, witnessed, "
                "witness_interleaving, witness_history) VALUES (?, ?, ?, ?, ?, ?)",
                [(campaign_id,) + tuple(row) for row in rows])

        self._write(txn)

    def save_witness_edges(self, campaign_id: str,
                           rows: Sequence[Tuple[str, str, int, int, str,
                                                Optional[str]]]) -> None:
        """Replace the campaign's witness conflict edges.

        Rows are ``(scope, code, source, target, kind, item)`` — the
        dependency edges of each witnessed cell's witness history.
        """
        self._require_campaign(campaign_id)

        def txn(cur: sqlite3.Cursor) -> None:
            cur.execute("DELETE FROM witness_edges WHERE campaign = ?",
                        (campaign_id,))
            cur.executemany(
                "INSERT INTO witness_edges (campaign, scope, code, source, target, "
                "kind, item) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(campaign_id,) + tuple(row) for row in rows])

        self._write(txn)

    # -- SQL analytics ----------------------------------------------------------------

    def coverage_groups(self, campaign_id: str, scope: str) -> Tuple[Tuple, ...]:
        """``(codes, schedules, serializable, stalled, first schedule_index)``
        per distinct phenomenon list of the scope.  Every cell read is
        checked: a list that does not decode, or a flag that is not a 0/1
        integer, would give a silently different count, so such a row fails
        the query instead."""
        with self._reading(campaign_id, scope):
            rows = self._conn.execute(
                """
                SELECT phenomena, COUNT(*), SUM(serializable), SUM(stalled),
                       MIN(schedule_index),
                       SUM(typeof(phenomena) != 'text'
                           OR typeof(schedule_index) != 'integer'
                           OR typeof(serializable) != 'integer'
                           OR typeof(stalled) != 'integer'
                           OR serializable NOT IN (0, 1) OR stalled NOT IN (0, 1))
                FROM records WHERE campaign = ? AND scope = ? GROUP BY phenomena
                """, (campaign_id, scope)).fetchall()
            if any(bad for *_, bad in rows):
                raise ValueError("a record's serializable, stalled, "
                                 "schedule_index or phenomena cell has the wrong type")
            return tuple((rec.decode_codes(codes), *counts) for codes, *counts, _ in rows)

    def chunk_count(self, campaign_id: str, scope: str) -> int:
        """How many chunks of the scope hold stored records."""
        with self._reading(campaign_id, scope):
            return self._conn.execute(
                "SELECT COUNT(DISTINCT chunk_index) FROM records "
                "WHERE campaign = ? AND scope = ?", (campaign_id, scope)).fetchone()[0]

    def witness_at(self, campaign_id: str, scope: str,
                   schedule_index: int) -> Tuple[Tuple[int, ...], str]:
        """The ``(interleaving, history)`` stored at one stream position."""
        with self._reading(campaign_id, scope):
            interleaving, history = self._conn.execute(
                "SELECT interleaving, history FROM records WHERE campaign = ? "
                "AND scope = ? AND schedule_index = ?",
                (campaign_id, scope, schedule_index)).fetchone()
            if not isinstance(history, str):
                raise TypeError(f"history of schedule {schedule_index} is not text")
            return rec.decode_interleaving(interleaving), history

    def anomaly_frequency(self, campaign_id: str, scope: str,
                          code: str) -> Tuple[AnomalyFrequencyRow, ...]:
        """Witness counts of one phenomenon per chunk, with running totals."""
        with self._reading(campaign_id, scope):
            # json_each would count a malformed list as witnessing nothing;
            # coverage_groups decodes every distinct list and fails instead.
            self.coverage_groups(campaign_id, scope)
            rows = self._conn.execute(
                """
                SELECT chunk_index,
                       COUNT(*) AS schedules,
                       SUM(hit) AS witnessed,
                       SUM(SUM(hit)) OVER (ORDER BY chunk_index
                                           ROWS UNBOUNDED PRECEDING) AS cumulative
                FROM (
                    SELECT chunk_index,
                           EXISTS (SELECT 1 FROM json_each(r.phenomena) j
                                   WHERE j.value = ?) AS hit
                    FROM records r
                    WHERE r.campaign = ? AND r.scope = ?
                )
                GROUP BY chunk_index
                ORDER BY chunk_index
                """, (code, campaign_id, scope)).fetchall()
        return tuple(AnomalyFrequencyRow(chunk, schedules, witnessed, cumulative)
                     for chunk, schedules, witnessed, cumulative in rows)

    def witness_for(self, campaign_id: str, scope: str,
                    code: str) -> Optional[StoredWitness]:
        """The earliest stored witness of one (scope, code) cell, if any."""
        firsts = [first for codes, *_, first in
                  self.coverage_groups(campaign_id, scope) if code in codes]
        if not firsts:
            return None
        return StoredWitness(min(firsts),
                             *self.witness_at(campaign_id, scope, min(firsts)))

    def conflict_edge_summary(self, campaign_id: str) -> Tuple[ConflictEdgeRow, ...]:
        """Witness conflict edges aggregated by (scope, kind), ranked per scope
        (``RANK()``: tied counts share a rank, the next rank skips)."""
        with self._reading(campaign_id):
            rows = self._conn.execute(
                """
                SELECT scope, kind, COUNT(*) AS n,
                       RANK() OVER (PARTITION BY scope
                                    ORDER BY COUNT(*) DESC) AS rnk
                FROM witness_edges
                WHERE campaign = ?
                GROUP BY scope, kind
                ORDER BY scope, rnk, kind
                """, (campaign_id,)).fetchall()
        return tuple(ConflictEdgeRow(scope, kind, n, rank)
                     for scope, kind, n, rank in rows)
