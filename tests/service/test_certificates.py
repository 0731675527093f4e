"""Certificate codec + store round-trips, and the repolint invariant."""

from __future__ import annotations

import pytest

from repro.persist import (
    CertificateRecord,
    SqliteStore,
    StoreError,
)
from repro.persist.records import (
    CERTIFICATE_CODES,
    certificate_from_row,
    certificate_to_row,
)
from repro.static_analysis.repolint import lint_certificate_records

_FIXTURE = CertificateRecord(stream="client-3", seq=2, code="A5B",
                             txns=(7, 9), items=("x", "y"), op_index=41,
                             witness="r7[x] w9[x] r9[y] w7[y] c9 c7")


class TestCodec:
    def test_round_trip_every_code(self):
        for index, code in enumerate(CERTIFICATE_CODES):
            certificate = CertificateRecord("s", index, code, (1, 2), ("x",),
                                            index, "r1[x]")
            assert certificate_from_row(certificate_to_row(certificate)) == \
                certificate

    def test_row_elements_are_sql_native(self):
        for element in certificate_to_row(_FIXTURE):
            assert isinstance(element, (int, str))

    def test_unknown_code_rejected(self):
        bogus = CertificateRecord("s", 0, "P9", (1,), (), 0, "")
        with pytest.raises(ValueError, match="unknown certificate code"):
            certificate_to_row(bogus)

    def test_repolint_invariant_is_clean(self):
        assert lint_certificate_records() == []


class TestStores:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_save_load_round_trip(self, backend, tmp_path):
        store = SqliteStore(":memory:" if backend == "memory"
                            else tmp_path / "svc.db")
        try:
            store.open_campaign("svc", {"kind": "service"})
            other = CertificateRecord("client-0", 0, "P1", (1, 2), ("x",),
                                      3, "w1[x] r2[x]")
            assert store.save_certificates("svc", [_FIXTURE, other]) == 2
            # Idempotent re-save (stream replays re-close with the same rows).
            assert store.save_certificates("svc", [_FIXTURE]) == 0
            assert store.load_certificates("svc") == (other, _FIXTURE)
            assert store.load_certificates("svc", stream="client-3") == \
                (_FIXTURE,)
            assert store.load_certificates("svc", stream="nope") == ()
        finally:
            store.close()

    def test_unknown_campaign_rejected(self):
        store = SqliteStore(":memory:")
        with pytest.raises(StoreError):
            store.save_certificates("ghost", [_FIXTURE])
        with pytest.raises(StoreError):
            store.load_certificates("ghost")
