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
  :class:`repro.persist.SqliteStore`; ``python -m repro serve``
  (:mod:`repro.cli`) runs it.

Load is measured by the ``certify_tcp`` workload of the benchmark ledger
(``BENCHMARK.json``, ``benchmarks/ledger/``), which generates its own
streams and drives the server over real sockets.
"""

from .online import (
    AnomalyCertificate,
    OnlineClassifier,
    StreamError,
    StreamVerdict,
)
from .server import CertifierServer

__all__ = [
    "AnomalyCertificate",
    "OnlineClassifier",
    "StreamError",
    "StreamVerdict",
    "CertifierServer",
]
