"""The online classifier's correctness contract: byte-equality with the
offline classifier on every stream shape — committed, aborted, stalled,
predicate/cursor traffic, every eviction cadence, and multiversion streams."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import History, parse_history
from repro.core.isolation import IsolationLevelName
from repro.core.mv_analysis import assign_write_versions, mv_is_serializable, mv_to_sv
from repro.core.operations import Operation, OperationKind
from repro.core.phenomena import detect_all
from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.memo import BatchClassifier
from repro.service import OnlineClassifier, StreamError

from ..explorer.test_memo import _realized_mv_histories

COMMON_SETTINGS = settings(max_examples=120, deadline=None)

_ITEMS = ("x", "y", "z")
_PREDICATES = ("P", "Q")
_DATA_KINDS = (
    OperationKind.READ,
    OperationKind.WRITE,
    OperationKind.CURSOR_READ,
    OperationKind.CURSOR_WRITE,
    OperationKind.PREDICATE_READ,
    OperationKind.PREDICATE_WRITE,
)


@st.composite
def streams(draw, max_txns: int = 5, max_ops: int = 36):
    """Well-formed single-version streams: interleaved transactions, some of
    which commit, some abort, and some stall (no terminal at all)."""
    txns = draw(st.integers(min_value=2, max_value=max_txns))
    budget = draw(st.integers(min_value=4, max_value=max_ops))
    alive = list(range(1, txns + 1))
    ops = []
    emitted = 0
    while alive and emitted < budget:
        txn = alive[draw(st.integers(min_value=0, max_value=len(alive) - 1))]
        if emitted > 2 and draw(st.booleans()) and draw(st.booleans()):
            kind = draw(st.sampled_from((OperationKind.COMMIT,
                                         OperationKind.COMMIT,
                                         OperationKind.ABORT)))
            ops.append(Operation(kind, txn))
            alive.remove(txn)
        else:
            kind = draw(st.sampled_from(_DATA_KINDS))
            if kind.uses_predicate:
                pred = draw(st.sampled_from(_PREDICATES))
                item = (draw(st.sampled_from(_ITEMS))
                        if kind is OperationKind.PREDICATE_WRITE else None)
                ops.append(Operation(kind, txn, item=item, predicate=pred))
            else:
                ops.append(Operation(kind, txn,
                                     item=draw(st.sampled_from(_ITEMS))))
        emitted += 1
    for txn in list(alive):
        fate = draw(st.sampled_from(("commit", "abort", "stall")))
        if fate == "commit":
            ops.append(Operation(OperationKind.COMMIT, txn))
        elif fate == "abort":
            ops.append(Operation(OperationKind.ABORT, txn))
    return ops


def _offline_fields(ops):
    classification = BatchClassifier().classify(
        History(tuple(ops), name="t", validate=False))
    return (classification.serializable, classification.phenomena,
            classification.committed, classification.aborted)


def _drain(ops, **kwargs):
    classifier = OnlineClassifier("t", **kwargs)
    for op in ops:
        classifier.feed(op)
    return classifier


class TestOnlineMatchesOffline:
    @COMMON_SETTINGS
    @given(streams(), st.sampled_from((1, 3, 256)))
    def test_verdict_matches_offline(self, ops, evict_interval):
        """The tentpole contract: draining any stream yields the offline
        classification, field for field, at every eviction cadence."""
        classifier = _drain(ops, evict_interval=evict_interval)
        assert classifier.verdict().classification_fields() == \
            _offline_fields(ops)

    @COMMON_SETTINGS
    @given(streams(max_txns=4, max_ops=16))
    def test_every_prefix_matches_offline(self, ops):
        """The verdict is offline-correct at *every* prefix, not just at the
        end — the property that makes mid-stream certification trustworthy."""
        classifier = OnlineClassifier("t", evict_interval=1)
        for cut, op in enumerate(ops, start=1):
            classifier.feed(op)
            assert classifier.verdict().classification_fields() == \
                _offline_fields(ops[:cut])

    @COMMON_SETTINGS
    @given(streams())
    def test_eviction_never_changes_the_verdict(self, ops):
        """Aggressive eviction and no eviction agree exactly."""
        eager = _drain(ops, evict_interval=1)
        lazy = _drain(ops, evict=False)
        assert eager.verdict() == lazy.verdict()
        assert [c.code for c in eager.certificates] == \
            [c.code for c in lazy.certificates]

    def test_long_stream_state_is_bounded(self):
        """Disjoint committed epochs are evicted: per-transaction state does
        not accumulate over a long stream of non-overlapping transactions."""
        classifier = OnlineClassifier("t", evict_interval=8)
        for epoch in range(500):
            base = 2 * epoch + 1
            classifier.feed_shorthand(
                f"r{base}[x] w{base + 1}[x] w{base}[y] c{base} c{base + 1}")
        assert len(classifier._txns) < 50
        assert len(classifier._parent) < 50
        verdict = classifier.verdict()
        assert len(verdict.committed) == 1000


class TestCertificates:
    @COMMON_SETTINGS
    @given(streams(), st.sampled_from((1, 256)))
    def test_certificates_mirror_the_verdict(self, ops, evict_interval):
        """Certificates are exactly the fired phenomena (plus CYCLE when the
        stream went non-serializable), sequenced contiguously, each carrying
        a witness fragment of the involved transactions' own operations."""
        classifier = _drain(ops, evict_interval=evict_interval)
        verdict = classifier.verdict()
        certificates = classifier.certificates
        codes = [c.code for c in certificates]
        assert sorted(code for code in codes if code != "CYCLE") == \
            list(verdict.phenomena)
        assert (codes.count("CYCLE") == 1) == (not verdict.serializable)
        assert [c.seq for c in certificates] == list(range(len(certificates)))
        assert all(a.op_index <= b.op_index for a, b in
                   zip(certificates, certificates[1:]))
        for certificate in certificates:
            assert certificate.stream == "t"
            for op in parse_history(certificate.witness):
                assert op.txn in certificate.txns

    def test_certificate_fires_at_first_occurrence(self):
        classifier = OnlineClassifier("t")
        fresh = classifier.feed_shorthand("w1[x]")
        assert fresh == []
        fresh = classifier.feed_shorthand("w2[x]")
        assert [c.code for c in fresh] == ["P0"]
        assert fresh[0].txns == (1, 2)
        assert fresh[0].items == ("x",)
        assert fresh[0].op_index == 1
        # Same phenomenon never certifies twice.
        assert classifier.feed_shorthand("w1[y] w2[y]") == []

    @pytest.mark.parametrize("text, code", [
        ("w1[x] r2[x] a1 c2", "A1"),
        ("r1[P] w2[insert y to P] c2 r1[P] c1", "A3"),
        ("r1[x] w2[x] w2[y] c2 r1[y] c1", "A5A"),
        # The first occurrence in ``find`` order (earliest i, then j), not
        # the first item the stream recorded: T1 wrote y before x.
        ("w1[y] w1[x] r2[x] r2[y] a1 c2", "A1"),
        # T1 read x before z, so x is the A5A pair's first item.
        ("r1[x] r1[z] w2[z] w2[x] w2[y] c2 r1[y] c1", "A5A"),
    ])
    @pytest.mark.parametrize("multiversion", [False, True])
    def test_certificate_names_the_items_of_the_definition(
            self, text, code, multiversion):
        """Both modes name the items of the first offline occurrence: A1 the
        item read dirty, A3 the item written into the predicate, A5A both
        items."""
        classifier = OnlineClassifier("t", multiversion=multiversion,
                                      evict=False)
        classifier.feed_shorthand(text)
        (certificate,) = [c for c in classifier.certificates
                          if c.code == code]
        expected = detect_all(parse_history(text))[code][0].items
        assert certificate.items == expected

    def test_witness_window_bounds_the_fragment(self):
        classifier = OnlineClassifier("t", witness_window=4)
        classifier.feed_shorthand("w1[x]")
        classifier.feed_shorthand("r3[z] r3[z] r3[z] r3[z]")
        (certificate,) = classifier.feed_shorthand("w2[x]")
        # T1's write has rolled out of the 4-op window; only T2's remains.
        assert certificate.witness == "w2[x]"


class TestWellFormedness:
    def test_op_after_commit_raises(self):
        classifier = OnlineClassifier("t")
        classifier.feed_shorthand("r1[x] c1")
        with pytest.raises(StreamError, match=r"T1 performs w1\[x\] after "
                                              r"terminating"):
            classifier.feed_shorthand("w1[x]")

    def test_op_after_abort_raises(self):
        classifier = OnlineClassifier("t")
        classifier.feed_shorthand("r1[x] a1")
        with pytest.raises(StreamError):
            classifier.feed_shorthand("c1")

    def test_versioned_op_needs_multiversion(self):
        classifier = OnlineClassifier("t")
        with pytest.raises(StreamError, match="multiversion=True"):
            classifier.feed(Operation(OperationKind.WRITE, 1, item="x",
                                      version=1))

    def test_multiversion_excludes_eviction(self):
        with pytest.raises(StreamError, match="evict=False"):
            OnlineClassifier("t", multiversion=True, evict=True)


class TestMultiversionStreams:
    def test_paper_shapes_match_offline(self):
        cases = [
            "r1[x0] r2[x0] w1[x1] c1 w2[x2] c2",
            "r1[x0] r1[y0] r2[x0] r2[y0] w1[y1] w2[x1] c1 c2",  # write skew
            "r1[x0] w1[x1] r2[x0] a1 c2",
            "r1[x0] r2[x0] w2[x1] c2 r1[y0] w1[y1] c1",
        ]
        offline = BatchClassifier()
        for text in cases:
            history = parse_history(text, name="mv", multiversion=True)
            want = offline.classify(history)
            classifier = OnlineClassifier("mv", multiversion=True)
            for op in history:
                classifier.feed(op)
            assert classifier.verdict().classification_fields() == \
                (want.serializable, want.phenomena, want.committed,
                 want.aborted), text

    def test_si_realized_histories_match_offline(self):
        """Streams realized by the Snapshot Isolation engine — the service's
        actual multiversion input shape — classify identically online."""
        spec = ProgramSetSpec.make("write-skew")
        result = explore(spec,
                         ExploreOptions(levels=(IsolationLevelName.SNAPSHOT_ISOLATION,),
                                        max_schedules=40, seed=11))
        offline = BatchClassifier()
        (level,) = result.levels.values()
        assert level.records, "exploration produced no records"
        for record in level.records:
            history = parse_history(record.history, multiversion=True)
            want = offline.classify(history)
            classifier = OnlineClassifier("si", multiversion=True)
            for op in history:
                classifier.feed(op)
            assert classifier.verdict().classification_fields() == \
                (want.serializable, want.phenomena, want.committed,
                 want.aborted), record.history


    def test_read_consistency_and_si_streams_equal_the_definitions(self):
        """Realized Snapshot Isolation and Oracle Read Consistency streams,
        with the workload's initial items: the verdict is the MV graph of
        the version-completed stream and the phenomena of its mapping."""
        distinct = {history.to_shorthand(): (history, items)
                    for history, items in _realized_mv_histories()}
        assert len(distinct) > 100
        for history, items in distinct.values():
            classifier = OnlineClassifier("mv", multiversion=True,
                                          initial_items=items)
            for op in history:
                classifier.feed(op)
            completed = assign_write_versions(history, items)
            flags = detect_all(mv_to_sv(completed))
            assert classifier.verdict().classification_fields() == (
                mv_is_serializable(completed),
                tuple(sorted(code for code, found in flags.items() if found)),
                tuple(sorted(history.committed_set())),
                tuple(sorted(history.aborted_set()))), history.to_shorthand()


class TestFeedShorthand:
    @COMMON_SETTINGS
    @given(streams(max_txns=4, max_ops=20))
    def test_feed_shorthand_equals_feed(self, ops):
        by_op = _drain(ops)
        by_text = OnlineClassifier("t")
        by_text.feed_shorthand(
            History(tuple(ops), validate=False).to_shorthand())
        assert by_op.verdict() == by_text.verdict()
        assert by_op.certificates == by_text.certificates
