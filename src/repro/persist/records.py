"""Canonical serialization of campaign records: dataclasses ↔ stored rows.

Everything a :class:`~repro.persist.sqlite_store.SqliteStore` persists
crosses through this module, in both directions: per-schedule
:class:`~repro.explorer.worker.ScheduleRecord` rows, and lease and
certificate rows.

The encoding is deliberately boring and deliberately *canonical*: flat row
tuples of SQL-native scalars (ints and strings), with every collection
rendered as JSON with sorted keys and fixed separators.  Canonicality is a
determinism requirement, not cosmetics — resumed campaigns must reproduce
byte-identical coverage reports, so ``decode(encode(x)) == x`` exactly and
``encode`` itself is a pure function (the repo invariant linter's
``store-records`` check and the round-trip property tests in
``tests/persist/test_records_roundtrip.py`` both enforce this across all
five supported isolation levels, stalled and deadlock-aborted outcomes
included).  Decoding is also where a hostile row is caught: malformed JSON,
a non-integer where an integer belongs, a phenomenon code outside the
catalog, or a lease state outside its vocabulary raises
``ValueError``/``TypeError``, which the store re-raises as a
:class:`~repro.persist.store.StoreError` naming the row's campaign and scope.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..core.phenomena import ALL_PHENOMENA
from ..explorer.schedules import Interleaving
from ..explorer.worker import ScheduleRecord

__all__ = [
    "RECORD_COLUMNS",
    "encode_interleaving",
    "decode_interleaving",
    "encode_ints",
    "decode_ints",
    "encode_strs",
    "decode_strs",
    "decode_codes",
    "canonical_json",
    "record_to_row",
    "record_from_row",
    "record_to_bytes",
    "record_from_bytes",
    "LEASE_STATES",
    "LeaseRecord",
    "lease_to_row",
    "lease_from_row",
    "config_fingerprint",
]

#: Column order of a serialized :class:`ScheduleRecord` row: the ``records``
#: columns after their key columns.
RECORD_COLUMNS: Tuple[str, ...] = (
    "interleaving", "history", "serializable", "phenomena", "committed",
    "aborted", "blocked_events", "deadlocks", "stalled",
)


def encode_interleaving(interleaving: Interleaving) -> str:
    """``(1, 2, 1)`` → ``"1,2,1"`` — compact, order-preserving, canonical."""
    return ",".join(map(str, interleaving))


def decode_interleaving(text: str) -> Interleaving:
    return tuple(int(part) for part in text.split(",")) if text else ()


def encode_ints(values: Sequence[int]) -> str:
    """A tuple of ints as canonical JSON (committed/aborted sets, sorted upstream).

    Hand-assembled rather than ``json.dumps``: ints never need escaping, the
    output is byte-identical, and this runs several times per record on the
    campaign commit path, where encoding (not SQLite) dominates the store's
    serial overhead.
    """
    return "[%s]" % ",".join(map(str, values)) if values else "[]"


def decode_ints(text: str) -> Tuple[int, ...]:
    return tuple(int(value) for value in json.loads(text))


def encode_strs(values: Sequence[str]) -> str:
    """A tuple of strings as canonical JSON (phenomenon codes, sorted upstream)."""
    # Most records manifest no phenomena; skip json.dumps for the common case.
    return json.dumps(list(values), separators=(",", ":")) if values else "[]"


def decode_strs(text: str) -> Tuple[str, ...]:
    return tuple(str(value) for value in json.loads(text))


def decode_codes(text: str) -> Tuple[str, ...]:
    """A stored phenomenon list; a code outside the catalog is a ValueError.

    Most records manifest nothing, so the empty list skips both the JSON
    parse and the catalog check.
    """
    if text == "[]":
        return ()
    codes = decode_strs(text)
    unknown = [code for code in codes if code not in ALL_PHENOMENA]
    if unknown:
        raise ValueError(f"unknown phenomenon code(s) {unknown} in {text!r}")
    return codes


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- ScheduleRecord -------------------------------------------------------------------


def record_to_row(record: ScheduleRecord) -> Tuple:
    """A record as a flat tuple of SQL-native scalars, in RECORD_COLUMNS order."""
    return (
        encode_interleaving(record.interleaving),
        record.history,
        int(record.serializable),
        encode_strs(record.phenomena),
        encode_ints(record.committed),
        encode_ints(record.aborted),
        int(record.blocked_events),
        int(record.deadlocks),
        int(record.stalled),
    )


def record_from_row(row: Sequence) -> ScheduleRecord:
    """The exact record a :func:`record_to_row` row encodes."""
    return ScheduleRecord(
        interleaving=decode_interleaving(row[0]),
        history=row[1],
        serializable=bool(row[2]),
        phenomena=decode_codes(row[3]),
        committed=decode_ints(row[4]),
        aborted=decode_ints(row[5]),
        blocked_events=int(row[6]),
        deadlocks=int(row[7]),
        stalled=bool(row[8]),
    )


def record_to_bytes(record: ScheduleRecord) -> bytes:
    """One record as canonical bytes (the property-test and fingerprint currency)."""
    return canonical_json(list(record_to_row(record))).encode("utf-8")


def record_from_bytes(blob: bytes) -> ScheduleRecord:
    return record_from_row(json.loads(blob.decode("utf-8")))


# -- LeaseRecord (the distributed runner's durable chunk-lease state) -----------------

#: The lease state machine's vocabulary, in lifecycle order.  ``pending``
#: chunks are grantable, ``leased`` chunks are owned by exactly one worker
#: until their deadline passes, ``done`` chunks are durably committed (the
#: transition happens inside the fenced ``commit_chunk`` transaction), and
#: ``poisoned`` chunks exhausted their retry budget and are quarantined.
LEASE_STATES: Tuple[str, ...] = ("pending", "leased", "done", "poisoned")


@dataclass(frozen=True)
class LeaseRecord:
    """Durable state of one schedule chunk's lease.

    Deadlines are deliberately *not* part of the durable record: they are
    measured on the supervising parent's monotonic clock and mean nothing to
    a later process.  What must survive a crash is the state, the fencing
    ``token`` (monotonically increasing per grant, campaign-wide — a commit
    carrying any older token is rejected), and the ``attempts`` count that
    feeds the retry backoff and the poison quarantine.
    """

    scope: str
    chunk_index: int
    state: str
    token: int
    owner: Optional[str] = None
    attempts: int = 0


def lease_to_row(lease: LeaseRecord) -> Tuple:
    """A lease as a row of the store's ``leases`` table, campaign omitted."""
    if lease.state not in LEASE_STATES:
        raise ValueError(f"unknown lease state {lease.state!r} "
                         f"(expected one of {LEASE_STATES})")
    return (
        lease.scope,
        int(lease.chunk_index),
        lease.state,
        int(lease.token),
        lease.owner,
        int(lease.attempts),
    )


def lease_from_row(row: Sequence) -> LeaseRecord:
    """The exact lease a :func:`lease_to_row` row encodes; a state outside
    :data:`LEASE_STATES` is a ValueError, as it is on the way in."""
    if row[2] not in LEASE_STATES:
        raise ValueError(f"unknown lease state {row[2]!r} "
                         f"(expected one of {LEASE_STATES})")
    return LeaseRecord(
        scope=row[0],
        chunk_index=int(row[1]),
        state=row[2],
        token=int(row[3]),
        owner=row[4],
        attempts=int(row[5]),
    )


# -- certificate records --------------------------------------------------------------


#: Every code an anomaly certificate may carry: the paper's phenomenon codes
#: plus ``CYCLE`` (the online certifier's serializability-violation
#: certificate — a fresh cycle closed in the committed-transaction conflict
#: graph).  Codec round-trips reject anything else, exactly like lease states.
CERTIFICATE_CODES: Tuple[str, ...] = (
    "P0", "P1", "P2", "P3", "A1", "A2", "A3", "P4", "P4C", "A5A", "A5B",
    "CYCLE",
)


@dataclass(frozen=True)
class CertificateRecord:
    """One anomaly certificate emitted by the online isolation certifier.

    ``seq`` numbers certificates per stream (a stream fires each code at most
    once — flags are sticky — so ``(stream, seq)`` is a stable identity).
    ``op_index`` is the stream position whose arrival fired the code, and
    ``witness`` is the shorthand fragment of the involved transactions' recent
    operations still inside the certifier's witness window — enough to replay
    the pattern, bounded regardless of stream length.
    """

    stream: str
    seq: int
    code: str
    txns: Tuple[int, ...]
    items: Tuple[str, ...]
    op_index: int
    witness: str


def certificate_to_row(certificate: CertificateRecord) -> Tuple:
    """A certificate as a row of the ``certificates`` table, campaign omitted."""
    if certificate.code not in CERTIFICATE_CODES:
        raise ValueError(f"unknown certificate code {certificate.code!r} "
                         f"(expected one of {CERTIFICATE_CODES})")
    return (
        certificate.stream,
        int(certificate.seq),
        certificate.code,
        encode_ints(certificate.txns),
        encode_strs(certificate.items),
        int(certificate.op_index),
        certificate.witness,
    )


def certificate_from_row(row: Sequence) -> CertificateRecord:
    """The exact certificate a :func:`certificate_to_row` row encodes."""
    return CertificateRecord(
        stream=row[0],
        seq=int(row[1]),
        code=row[2],
        txns=decode_ints(row[3]),
        items=decode_strs(row[4]),
        op_index=int(row[5]),
        witness=row[6],
    )


__all__.extend([
    "CERTIFICATE_CODES",
    "CertificateRecord",
    "certificate_to_row",
    "certificate_from_row",
])


# -- keys -----------------------------------------------------------------------------


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """A short stable digest of a campaign config (the default campaign id)."""
    digest = hashlib.sha256(canonical_json(dict(config)).encode("utf-8"))
    return digest.hexdigest()[:12]


def default_campaign_id(config: Mapping[str, Any],
                        prefix: Optional[str] = None) -> str:
    """``<spec name>-<config digest>`` — readable and collision-resistant."""
    head = prefix or str(config.get("spec_name", "campaign"))
    return f"{head}-{config_fingerprint(config)}"


__all__.append("default_campaign_id")


def merge_stats(into: Dict[str, int], extra: Mapping[str, int]) -> None:
    """Accumulate counter dicts (the cache_stats convention)."""
    for key, value in extra.items():
        into[key] = into.get(key, 0) + value


__all__.append("merge_stats")
