"""Campaign persistence: resumable exploration and SQL analytics.

**Not to be confused with** :mod:`repro.storage`.  The repo has two layers
with "storage" in their nature, on opposite sides of the experiment:

* :mod:`repro.storage` is the *simulated database under test* — the items,
  rows, tables, predicates, and recovery machinery that the paper's
  transactions read and write.  It is part of the system being measured.
* :mod:`repro.persist` (this package) is the *measurement infrastructure* —
  where exploration campaigns durably record their own progress and
  results so they survive the exploring process.  It never participates
  in a schedule's semantics; attaching a store cannot change a single
  record (the kill-and-resume tests assert byte-identical coverage).

What lives here:

* :mod:`~repro.persist.records` — canonical serialization of everything a
  store persists (schedule records, leases, certificates);
* :mod:`~repro.persist.store` — the store's error types and the rows its
  queries answer with;
* :mod:`~repro.persist.sqlite_store` — :class:`SqliteStore`, the store:
  WAL-mode SQLite with atomic chunk commits and window-function analytics
  (``SqliteStore(":memory:")`` for throwaway in-process runs);
* :mod:`~repro.persist.session` — parent-side glue ``explore(store=...)``
  drives (progress cursors and chunk commits);
* :mod:`~repro.persist.analytics` — coverage/witness-edge persistence and
  the SQL-shaped analytics front end.

``python -m repro campaign`` (:mod:`repro.cli`) runs, resumes and inspects
campaigns from the command line.
"""

from .analytics import fingerprint_from_store
from .records import (
    CertificateRecord,
    LeaseRecord,
    default_campaign_id,
)
from .sqlite_store import SqliteStore
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

__all__ = [
    "SqliteStore",
    "CampaignInfo",
    "ScopeProgress",
    "StoreError",
    "CampaignConfigMismatch",
    "StaleLeaseError",
    "LeaseRecord",
    "CertificateRecord",
    "AnomalyFrequencyRow",
    "StoredWitness",
    "ConflictEdgeRow",
    "default_campaign_id",
    "fingerprint_from_store",
]
