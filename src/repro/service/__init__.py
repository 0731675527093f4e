"""The online isolation certifier service.

Turns the offline history classifier into an **online certifier**: live
transaction streams are fed operation by operation through an incremental
classifier whose verdicts are byte-equal to draining the same realized
history through :class:`repro.explorer.memo.BatchClassifier`, with anomaly
certificates (witness fragments included) emitted the moment each phenomenon
first fires.

* :mod:`repro.service.online` — the incremental classifier
  (:class:`OnlineClassifier`): per-stream index maintenance, incremental
  conflict/MVSG edge updates, windowed eviction of committed prefixes.
* :mod:`repro.service.server` — the asyncio TCP server
  (:class:`CertifierServer`): JSON-lines protocol, many concurrent client
  sessions, optional certificate persistence into a
  :class:`repro.persist.SqliteStore`.
* :mod:`repro.service.loadgen` — the seeded load generator: zipfian
  hotspots, bursty arrival, configurable client counts, and the
  ``anomalies/sec`` / p99-classify-latency report the ``service`` bench
  section publishes.
"""

from .online import (
    AnomalyCertificate,
    OnlineClassifier,
    StreamError,
    StreamVerdict,
)
from .server import CertifierServer
from .loadgen import LoadConfig, LoadReport, generate_stream, run_load

__all__ = [
    "AnomalyCertificate",
    "OnlineClassifier",
    "StreamError",
    "StreamVerdict",
    "CertifierServer",
    "LoadConfig",
    "LoadReport",
    "generate_stream",
    "run_load",
]
