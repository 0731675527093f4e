"""Round-trip properties of the store serialization layer.

``decode(encode(x)) == x`` exactly, and ``encode`` is a pure function — over
hypothesis-generated payloads (stalled and deadlock-aborted shapes included)
and over every record realized by exploring a contentious workload under all
five supported isolation levels.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explorer import ExploreOptions, ProgramSetSpec, explore
from repro.explorer.explorer import DEFAULT_LEVELS
from repro.explorer.worker import ScheduleRecord
from repro.persist import records as rec

COMMON_SETTINGS = settings(max_examples=120, deadline=None)

txn_ids = st.integers(min_value=1, max_value=40)
interleavings = st.lists(txn_ids, max_size=16).map(tuple)
histories = st.text(min_size=0, max_size=60)
phenomena = st.lists(
    st.sampled_from(["P0", "P1", "P2", "P3", "P4", "P4C", "A1", "A2", "A3",
                     "A5A", "A5B"]),
    max_size=5, unique=True).map(tuple)
int_tuples = st.lists(txn_ids, max_size=6, unique=True).map(tuple)


@st.composite
def schedule_records(draw) -> ScheduleRecord:
    return ScheduleRecord(
        interleaving=draw(interleavings),
        history=draw(histories),
        serializable=draw(st.booleans()),
        phenomena=draw(phenomena),
        committed=draw(int_tuples),
        aborted=draw(int_tuples),
        blocked_events=draw(st.integers(min_value=0, max_value=1000)),
        deadlocks=draw(st.integers(min_value=0, max_value=50)),
        stalled=draw(st.booleans()),
    )


class TestGeneratedPayloads:
    @COMMON_SETTINGS
    @given(schedule_records())
    def test_record_row_round_trips(self, record):
        row = rec.record_to_row(record)
        assert rec.record_from_row(row) == record
        assert rec.record_to_row(record) == row  # encoding is pure
        assert all(isinstance(element, (int, str)) for element in row)

    @COMMON_SETTINGS
    @given(schedule_records())
    def test_record_bytes_round_trips(self, record):
        blob = rec.record_to_bytes(record)
        assert rec.record_from_bytes(blob) == record
        assert rec.record_to_bytes(record) == blob

    @COMMON_SETTINGS
    @given(interleavings)
    def test_interleaving_text_round_trips(self, interleaving):
        assert rec.decode_interleaving(
            rec.encode_interleaving(interleaving)) == interleaving

    @COMMON_SETTINGS
    @given(st.dictionaries(st.text(max_size=8),
                           st.one_of(st.integers(), st.text(max_size=8),
                                     st.booleans(), st.none()),
                           max_size=6))
    def test_canonical_json_ignores_insertion_order(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert rec.canonical_json(payload) == rec.canonical_json(reordered)


class TestRealizedRecords:
    """Every record the explorer actually produces, under all five levels."""

    def test_all_levels_round_trip(self):
        result = explore(ProgramSetSpec.make("contention"),
                         ExploreOptions(levels=DEFAULT_LEVELS, max_schedules=200,
                                        chunk_size=32))
        assert len(result.levels) == 5
        deadlock_aborted = 0
        for level_result in result.levels.values():
            assert level_result.records  # every level contributed
            for record in level_result.records:
                row = rec.record_to_row(record)
                assert rec.record_from_row(row) == record
                assert rec.record_from_bytes(rec.record_to_bytes(record)) \
                    == record
                if record.deadlocks and record.aborted:
                    deadlock_aborted += 1
        assert deadlock_aborted > 0  # the worst shape really was exercised

    def test_stalled_record_round_trips(self):
        # Stalls are rare in the curated workloads, so pin the shape directly.
        record = ScheduleRecord(
            interleaving=(1, 2, 2, 1), history="w1[x] w2[y] ...",
            serializable=False, phenomena=(), committed=(), aborted=(1, 2),
            blocked_events=4, deadlocks=0, stalled=True)
        assert rec.record_from_row(rec.record_to_row(record)) == record
