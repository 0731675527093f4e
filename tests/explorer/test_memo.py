"""The memoized classifier must agree exactly with the direct analyses."""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dependency import is_serializable
from repro.core.history import History, parse_history
from repro.core.isolation import IsolationLevelName
from repro.core.mv_analysis import assign_write_versions, mv_is_serializable, mv_to_sv
from repro.core.operations import Operation, OperationKind
from repro.core.phenomena import detect_all
from repro.explorer import ProgramSetSpec, memo
from repro.explorer.memo import BatchClassifier, HistoryClassification
from repro.explorer.schedules import schedule_space
from repro.explorer.worker import ChunkTask, _initial_items, execute_chunk
from repro.workloads.generators import history_corpus
from repro.workloads.program_sets import build_program_set

from ..property.strategies import ITEMS, transaction_bodies


class TestBatchClassifier:
    def test_matches_direct_serializability_and_detection(self):
        classifier = BatchClassifier()
        for history in history_corpus(seed=4, count=80):
            result = classifier.classify(history)
            assert result.serializable == is_serializable(history)
            expected = tuple(sorted(
                code for code, found in detect_all(history).items() if found
            ))
            assert result.phenomena == expected

    def test_duplicate_histories_hit_the_cache(self):
        classifier = BatchClassifier()
        history = parse_history("w1[x] r2[x] c1 c2")
        first = classifier.classify(history)
        second = classifier.classify(parse_history("w1[x] r2[x] c1 c2"))
        assert first == second
        assert classifier.stats["hits"] == 1
        assert classifier.stats["misses"] == 1

    def test_multiversion_histories_use_the_mv_touchstone(self):
        # Write skew realized under SI: versioned reads, unversioned writes.
        skew = parse_history(
            "r1[x0=50] r1[y0=50] w1[y=100] r2[x0=50] c1 r2[y0=50] w2[x=100] c2",
            multiversion=True,
        )
        completed = assign_write_versions(skew)
        assert all(op.version is not None for op in completed
                   if op.is_write and op.item is not None)
        assert not mv_is_serializable(completed)
        result = BatchClassifier().classify(skew)
        assert not result.serializable
        assert "A5B" in result.phenomena

    def test_items_created_during_the_run_version_from_zero(self):
        # T1 creates item z (not in the initial database); T2 then reads the
        # version T1 installed, which the engine numbers 0.  With the initial
        # item set supplied, the serial execution classifies as serializable.
        history = parse_history(
            "r1[y0=5] w1[z=7] c1 r2[z0=7] w2[y=9] c2", multiversion=True,
        )
        informed = BatchClassifier(initial_items=("y",)).classify(history)
        assert informed.serializable
        completed = assign_write_versions(history, initial_items=("y",))
        z_writes = [op for op in completed if op.is_write and op.item == "z"]
        assert [op.version for op in z_writes] == [0]
        # Without the initial item set, every item is assumed to pre-exist and
        # the first write of z is stamped 1 — misaligned with its reader.
        assert not BatchClassifier().classify(history).serializable

    def test_write_skew_over_items_created_mid_run_is_caught(self):
        # T1 and T2 each read the item the other then creates: the classic
        # rw-cycle, but over items with no initial version — their reads come
        # back unversioned, so the anti-dependencies hinge on read completion.
        history = parse_history(
            "r1[x0=1] r2[x0=1] r1[z] r2[w] w1[w=1] w2[z=2] c1 c2",
            multiversion=True,
        )
        completed = assign_write_versions(history, initial_items=("x",))
        reads = {(op.txn, op.item): op.version for op in completed if op.is_read}
        assert reads[(1, "z")] == -1 and reads[(2, "w")] == -1
        assert not mv_is_serializable(completed)
        result = BatchClassifier(initial_items=("x",)).classify(history)
        assert not result.serializable

    def test_reads_of_own_pending_writes_stay_at_the_commit_point(self):
        # The engines return a txn's own buffered write with version=None; the
        # completion must stamp it with the installed version so mv_to_sv does
        # not relocate it before the write that produced its value.
        history = parse_history(
            "r2[y0=1] w1[x=5] r1[x=5] c1 c2", multiversion=True,
        )
        completed = assign_write_versions(history, initial_items=("x", "y"))
        own_read = next(op for op in completed if op.is_read and op.txn == 1)
        own_write = next(op for op in completed if op.is_write and op.txn == 1)
        assert own_read.version == own_write.version == 1
        mapped = mv_to_sv(completed)
        ops = list(mapped)
        write_at = next(i for i, op in enumerate(ops) if op.is_write and op.txn == 1)
        read_at = next(i for i, op in enumerate(ops) if op.is_read and op.txn == 1)
        assert write_at < read_at

    def test_snapshot_reads_are_not_dirty_reads(self):
        # T2 reads the *old* version after T1's write: no P1 under the MV mapping.
        history = parse_history("w1[x=10] r2[x0=50] c1 c2", multiversion=True)
        result = BatchClassifier().classify(history)
        assert "P1" not in result.phenomena
        assert "A1" not in result.phenomena


class TestFusedMvClassifyCore:
    """The fused MV core must equal the unfused three-stage pipeline."""

    def _assert_equivalent(self, history, initial_items=None):
        from repro.explorer.memo import _mv_classify_core

        completed = assign_write_versions(history, initial_items)
        expected_serializable = mv_is_serializable(completed)
        expected_mapped = mv_to_sv(completed)
        serializable, mapped = _mv_classify_core(
            history, None if initial_items is None else frozenset(initial_items))
        assert serializable == expected_serializable, history.to_shorthand()
        assert mapped == expected_mapped, history.to_shorthand()

    def test_on_catalogued_mv_histories(self):
        from repro.core.catalog import CATALOG

        checked = 0
        for entry in CATALOG.values():
            history = entry.history if hasattr(entry, "history") else entry
            if history.is_multiversion():
                self._assert_equivalent(history)
                checked += 1
        assert checked >= 1

    def test_on_realized_snapshot_isolation_histories(self):
        from repro.core.isolation import IsolationLevelName
        from repro.explorer import ProgramSetSpec, schedule_space
        from repro.explorer.trie_executor import TrieExecutor
        from repro.explorer.worker import _initial_items
        from repro.workloads.program_sets import build_program_set

        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        for level in (IsolationLevelName.SNAPSHOT_ISOLATION,
                      IsolationLevelName.ORACLE_READ_CONSISTENCY):
            database, programs = build_program_set(spec)
            items = _initial_items(database)
            executor = TrieExecutor(database, programs, level)
            schedules = schedule_space(programs, mode="sample",
                                       max_schedules=120, seed=11).schedules
            for _, outcome in executor.run_batch(schedules):
                if outcome.history.is_multiversion():
                    self._assert_equivalent(outcome.history, items)


# -- class tables ------------------------------------------------------------------

_K = OperationKind
_WRITES = (_K.WRITE, _K.CURSOR_WRITE, _K.PREDICATE_WRITE)
INITIAL_ITEMS = st.sampled_from((None, ("x",), ITEMS))


def _versioned(draw, op: Operation) -> Operation:
    """``op`` with a drawn version subscript on item reads and writes.  The
    shorthand of a predicate operation renders no version, so those stay
    unversioned (the memo identifies an operation by its shorthand)."""
    if op.kind in (_K.READ, _K.CURSOR_READ):
        version = draw(st.sampled_from((None, 0, 1, 2)))
    elif op.kind in (_K.WRITE, _K.CURSOR_WRITE):
        version = draw(st.sampled_from((None, None, 1, 2)))
    else:
        return op
    return Operation(op.kind, op.txn, item=op.item, version=version)


@st.composite
def transaction_sets(draw, multiversion: bool):
    """Transaction bodies with every operation kind, aborts and unterminated
    transactions; multiversion bodies carry read and write versions (at least
    one), and sometimes an operation follows a transaction's terminal."""
    bodies = draw(transaction_bodies(every_kind=True))
    if multiversion:
        bodies = [[_versioned(draw, op) for op in body] for body in bodies]
        if not any(op.version is not None for body in bodies for op in body):
            bodies[0].insert(0, Operation(_K.READ, bodies[0][0].txn,
                                          item="x", version=0))
    if draw(st.integers(0, 5)) == 0:
        body = draw(st.sampled_from(bodies))
        if body[-1].kind.is_terminal:
            body.append(Operation(_K.READ, body[0].txn, item="y"))
    return bodies


def _interleave(draw, bodies) -> History:
    remaining = [list(body) for body in bodies]
    merged: List[Operation] = []
    while any(remaining):
        choice = draw(st.sampled_from(
            [index for index, body in enumerate(remaining) if body]))
        merged.append(remaining[choice].pop(0))
    return History(merged, validate=False)


@st.composite
def class_histories(draw) -> History:
    """One interleaving of a drawn transaction set, either kind."""
    return _interleave(draw, draw(transaction_sets(draw(st.booleans()))))


@st.composite
def history_batches(draw, multiversion: bool):
    """A few interleavings of drawn transaction sets, each with every history
    one adjacent swap away: histories of one class under different
    shorthands, next to ones a missing key component would conflate."""
    batch = []
    for _ in range(draw(st.integers(1, 2))):
        history = _interleave(draw, draw(transaction_sets(multiversion)))
        batch.append(history)
        batch.extend(swapped for _, swapped in _adjacent_swaps(history))
    return batch


def _frozen(initial_items):
    return None if initial_items is None else frozenset(initial_items)


def _uncached(history: History, initial_items) -> HistoryClassification:
    return HistoryClassification(
        history.to_shorthand(),
        *memo._classify_pass(history, _frozen(initial_items)))


def _key(history: History) -> Optional[tuple]:
    ops = history.operations
    names = [op.to_shorthand() for op in ops]
    if history.is_multiversion():
        return memo._mv_class_key(ops, names)
    return memo._sv_class_key(ops, names)


def _ends_early(history: History) -> bool:
    ended = set()
    for op in history:
        if op.txn in ended:
            return True
        if op.kind.is_terminal:
            ended.add(op.txn)
    return False


def _sv_scopes(history: History) -> List[frozenset]:
    """Per operation, the items and predicates whose order sweep reads: an
    operation's own group (sweep's grouping), and for a terminal every group
    its transaction joined.  Derived here, not from the key."""
    own = []
    for op in history:
        scopes = set()
        if op.kind in (_K.READ, _K.CURSOR_READ):
            scopes.add(("item", op.item))
        elif op.kind is _K.PREDICATE_READ:
            scopes.add(("predicate", op.predicate))
        elif op.kind in _WRITES:
            if op.item is not None:
                scopes.add(("item", op.item))
            if op.predicate is not None:
                scopes.add(("predicate", op.predicate))
        own.append(scopes)
    joined: dict = {}
    for op, scopes in zip(history, own):
        joined.setdefault(op.txn, set()).update(scopes)
    return [frozenset(joined[op.txn] if op.kind.is_terminal else scopes)
            for op, scopes in zip(history, own)]


def _mv_events(history: History) -> List[bool]:
    """Per operation, whether the MV passes read its position against other
    transactions': a transaction's start, its terminal, a versioned write."""
    started = set()
    events = []
    for op in history:
        start = op.txn not in started
        started.add(op.txn)
        events.append(start or op.kind.is_terminal or (
            op.kind in _WRITES and op.item is not None
            and op.version is not None))
    return events


def _adjacent_swaps(history: History):
    """``(i, h)`` for every history ``h`` that swaps the adjacent operations
    ``i`` and ``i + 1`` of two different transactions."""
    ops = list(history)
    for i in range(len(ops) - 1):
        if ops[i].txn != ops[i + 1].txn:
            yield i, History(ops[:i] + [ops[i + 1], ops[i]] + ops[i + 2:],
                             validate=False)


def _independent_pairs(history: History) -> List[bool]:
    """Per adjacent pair, whether the passes read its order."""
    if history.is_multiversion():
        events = _mv_events(history)
        return [not (first and second)
                for first, second in zip(events, events[1:])]
    scopes = _sv_scopes(history)
    return [not (first & second) for first, second in zip(scopes, scopes[1:])]


CLASS_SETTINGS = settings(max_examples=60, deadline=None)


class TestClassKeys:
    @CLASS_SETTINGS
    @given(class_histories(), INITIAL_ITEMS)
    def test_independent_swaps_keep_key_and_classification(self, history,
                                                           initial_items):
        key = _key(history)
        if _ends_early(history):
            assert key is None
            return
        assert key is not None
        items = _frozen(initial_items)
        expected = memo._classify_pass(history, items)
        independent = _independent_pairs(history)
        for i, swapped in _adjacent_swaps(history):
            if independent[i]:
                assert _key(swapped) == key, swapped.to_shorthand()
                assert memo._classify_pass(swapped, items) == expected
            else:
                # The key tells dependent orders apart.
                assert _key(swapped) != key, swapped.to_shorthand()

    @CLASS_SETTINGS
    @given(st.booleans().flatmap(history_batches), INITIAL_ITEMS,
           st.sampled_from((None, 0, 2)))
    # T3's start against T2's commit places its snapshot read in the mapping.
    @example([parse_history(text, multiversion=True) for text in (
        "r1[x] c1 w2[x] c2 r3[x0] c3", "r1[x] c1 w2[x] r3[x0] c2 c3")],
        None, None)
    def test_classify_equals_the_uncached_pass(self, batch, initial_items, cap):
        patch = (nullcontext() if cap is None
                 else mock.patch.object(memo, "CLASSIFICATION_MEMO_CAP", cap))
        with patch:
            warm = BatchClassifier(initial_items=initial_items)
            for history in batch + batch:
                cold = BatchClassifier(initial_items=initial_items)
                expected = _uncached(history, initial_items)
                assert cold.classify(history) == expected
                assert warm.classify(history) == expected
        assert warm.class_hits + warm.class_misses == warm.misses
        if cap == 0:
            assert warm.class_hits == 0 and warm.hits == 0
            assert not warm._sv_classes and not warm._mv_classes

    def test_operations_after_a_terminal_take_the_uncached_path(self):
        for multiversion in (False, True):
            history = History([
                Operation(_K.WRITE, 1, item="x"), Operation(_K.COMMIT, 1),
                Operation(_K.READ, 2, item="x",
                          version=0 if multiversion else None),
                Operation(_K.WRITE, 1, item="x"), Operation(_K.COMMIT, 2),
            ], validate=False)
            assert _key(history) is None
            classifier = BatchClassifier()
            for _ in range(2):
                rebuilt = History(history.operations, validate=False)
                assert classifier.classify(rebuilt) == _uncached(history, None)
            assert (classifier.class_hits, classifier.class_misses) == (0, 1)
            assert not classifier._sv_classes and not classifier._mv_classes


class TestClassCounters:
    def test_one_class_under_several_shorthands(self):
        classifier = BatchClassifier(initial_items=("x", "y"))
        for text in ("w1[x] r2[y] c1 c2", "r2[y] w1[x] c1 c2",
                     "r2[y] w1[x] c2 c1", "w1[x] r2[x] c1 c2"):
            classifier.classify(parse_history(text))
        for text in ("r1[x0] w2[y] r1[y0] c2 c1", "r1[x0] w2[y] c2 r1[y0] c1",
                     "w2[y] r1[x0] r1[y0] c2 c1"):
            classifier.classify(parse_history(text, multiversion=True))
        assert classifier.stats == {"hits": 0, "misses": 7, "shared_hits": 0,
                                    "class_hits": 3, "class_misses": 4}
        assert (len(classifier._sv_classes), len(classifier._mv_classes)) == (2, 2)

    def test_execute_chunk_reports_class_counts_per_chunk(self):
        spec = ProgramSetSpec.make("contention", transactions=3, items=3,
                                   hot_items=2, operations_per_transaction=2)
        database, programs = build_program_set(spec)
        schedules = schedule_space(programs, mode="sample", max_schedules=96,
                                   seed=5).schedules
        classifier = BatchClassifier(initial_items=_initial_items(database))
        counts = []
        for level in (IsolationLevelName.READ_UNCOMMITTED,
                      IsolationLevelName.SNAPSHOT_ISOLATION,
                      IsolationLevelName.SNAPSHOT_ISOLATION):
            stats = execute_chunk(ChunkTask(0, spec, level, schedules),
                                  classifier).cache_stats
            counts.append(tuple(stats[name] for name in (
                "hits", "misses", "class_hits", "class_misses")))
        # (hits, misses, class_hits, class_misses) per chunk: the memo's
        # counts keep their meaning, and every memo miss is a class hit or
        # a class miss; the repeated chunk answers everything from the memo.
        assert counts == [(36, 60, 5, 55), (0, 96, 59, 37), (96, 0, 0, 0)]
