"""Enumeration and seeded sampling of the interleaving space of a program set.

An *interleaving* is a sequence of transaction ids, one slot per program step,
saying whose step the scheduler attempts next.  For programs with step counts
``n_1 .. n_k`` the space of distinct interleavings is the multinomial
coefficient ``(n_1 + .. + n_k)! / (n_1! * .. * n_k!)`` — tiny program sets can
be enumerated exhaustively, larger ones are sampled uniformly at random under
a seed.  Everything here is pure combinatorics: deterministic given the seed,
independent of worker counts, and oblivious to what the schedules later do to
an engine.

The space is **streamed**, never materialized: :class:`ScheduleSpace` holds a
recipe (step counts, mode, seed, budget), and both :meth:`ScheduleSpace.__iter__`
and :meth:`ScheduleSpace.iter_chunks` regenerate the identical schedule stream
on demand, so sampling 10M+ schedules of a huge space never builds a 10M-tuple
list — iteration is O(chunk) memory in the i.i.d. regime.  Deduplicated
samples additionally track a seen-set whose size is hard-bounded by
``_DEDUPE_TRACK_MAX`` (whole-space "samples" stream the exhaustive
enumeration instead and need no seen-set; see :func:`_should_dedupe`).
``ScheduleSpace.schedules`` still materializes the full tuple for callers
that want it (tests, small spaces); the explorer's hot path does not.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..engine.programs import TransactionProgram
from ..workloads.generators import SeedLike, as_rng

__all__ = [
    "MODES",
    "Interleaving",
    "ScheduleSpace",
    "count_interleavings",
    "enumerate_interleavings",
    "sample_interleavings",
    "iter_sampled_interleavings",
    "schedule_space",
]

#: One interleaving: transaction ids, one per step slot.
Interleaving = Tuple[int, ...]

#: Hard bound on rejection-sampling seen-set memory: deduplicated sampling
#: never tracks more than this many schedules.  Samples up to the bound
#: dedupe with a seen-set; a sample covering its whole space (``count >=
#: total``) dedupes for free by streaming the exhaustive enumeration; every
#: other configuration streams i.i.d. draws with no tracking at all.
_DEDUPE_TRACK_MAX = 200_000


def count_interleavings(step_counts: Sequence[int]) -> int:
    """The number of distinct interleavings (the multinomial coefficient)."""
    if any(count < 0 for count in step_counts):
        raise ValueError("step counts must be non-negative")
    total = sum(step_counts)
    result = math.factorial(total)
    for count in step_counts:
        result //= math.factorial(count)
    return result


def enumerate_interleavings(txns: Sequence[int],
                            step_counts: Sequence[int]) -> Iterator[Interleaving]:
    """Every distinct interleaving, in lexicographic order of transaction ids.

    ``txns[i]`` has ``step_counts[i]`` slots.  The enumeration is a standard
    multiset-permutation backtrack, produced lazily — consuming it holds one
    prefix in memory, never the whole space.
    """
    if len(txns) != len(step_counts):
        raise ValueError("txns and step_counts must align")
    order = sorted(range(len(txns)), key=lambda index: txns[index])
    ids = [txns[index] for index in order]
    remaining = [step_counts[index] for index in order]
    total = sum(remaining)
    prefix: List[int] = []

    def backtrack() -> Iterator[Interleaving]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for position, txn in enumerate(ids):
            if remaining[position] == 0:
                continue
            remaining[position] -= 1
            prefix.append(txn)
            yield from backtrack()
            prefix.pop()
            remaining[position] += 1

    return backtrack()


def _should_dedupe(count: int, total: int) -> bool:
    """Whether a sample of ``count`` from a space of ``total`` is deduplicated.

    Two regimes dedupe, and both respect the :data:`_DEDUPE_TRACK_MAX` memory
    bound:

    * ``count <= _DEDUPE_TRACK_MAX`` — rejection-sample with a seen-set of at
      most ``count`` entries.
    * ``count >= total`` — the "sample" covers the whole space, which streams
      through the exhaustive enumerator with **no** seen-set at all.

    Everything else streams i.i.d. draws without tracking.  In particular, a
    ``> _DEDUPE_TRACK_MAX`` sample of a space less than 4x its size — which a
    previous policy deduplicated because duplicates are statistically
    plausible there — now stays i.i.d.: plausible duplicates are not worth an
    unbounded (up to ``min(count, total)``-entry) seen-set.  The seen-set
    therefore never exceeds ``_DEDUPE_TRACK_MAX`` entries for any
    ``(count, total)``.
    """
    return count <= _DEDUPE_TRACK_MAX or count >= total


def iter_sampled_interleavings(txns: Sequence[int], step_counts: Sequence[int],
                               count: int, seed: SeedLike,
                               dedupe: Optional[bool] = None) -> Iterator[Interleaving]:
    """Stream a seeded uniform sample of the interleaving space.

    Shuffling the flat slot list is uniform over slot permutations, and every
    distinct interleaving corresponds to the same number of permutations
    (``prod n_i!``), so each draw is exactly uniform over the space.  When
    ``dedupe`` is on (the default policy is :func:`_should_dedupe`), draws
    already seen are rejected — still seeded and deterministic — and the
    stream yields ``min(count, total)`` *distinct* schedules; otherwise the
    stream is i.i.d. and duplicates are possible.  Asking for the whole space
    (``count >= total``) streams the exhaustive enumeration directly, in
    lexicographic order.
    """
    rng = as_rng(seed)
    slots: List[int] = []
    for txn, steps in zip(txns, step_counts):
        slots.extend([txn] * steps)
    total = count_interleavings(step_counts)
    if dedupe is None:
        dedupe = _should_dedupe(count, total)

    if not dedupe:
        for _ in range(count):
            drawn = list(slots)
            rng.shuffle(drawn)
            yield tuple(drawn)
        return

    target = min(count, total)
    if target == total:
        # "Sampling" the whole space: rejection would coupon-collect through
        # ~total*ln(total) draws; the exhaustive enumerator streams the same
        # distinct set directly (in lexicographic rather than seeded order).
        yield from enumerate_interleavings(txns, step_counts)
        return
    seen: Set[Interleaving] = set()
    while len(seen) < target:
        drawn = list(slots)
        rng.shuffle(drawn)
        schedule = tuple(drawn)
        if schedule in seen:
            continue
        seen.add(schedule)
        yield schedule


def sample_interleavings(txns: Sequence[int], step_counts: Sequence[int],
                         count: int, seed: SeedLike,
                         dedupe: Optional[bool] = None) -> List[Interleaving]:
    """A seeded uniform sample of the space, as a list.

    Deduplicated by default policy (see :func:`_should_dedupe`): samples up
    to ``_DEDUPE_TRACK_MAX`` and whole-space samples are distinct; larger
    sub-space samples stream i.i.d. and may repeat schedules — the seen-set
    memory bound wins over distinctness there.  The draw depends only on the
    seed.
    """
    return list(iter_sampled_interleavings(txns, step_counts, count, seed,
                                           dedupe=dedupe))


class ScheduleSpace:
    """The resolved schedule stream the explorer will execute.

    A lazy, re-iterable source: the schedule stream is a pure function of
    (program step counts, mode, seed, budget) and is regenerated identically
    on every iteration — never dependent on worker or chunk configuration,
    never materialized unless :attr:`schedules` is explicitly read.

    ``total`` is the size of the full interleaving space; ``selected`` is how
    many schedules the stream yields (the whole space when exhaustive, the
    sample budget otherwise); ``distinct`` is the number of *distinct*
    schedules among them — equal to ``selected`` for exhaustive and deduped
    sample streams, ``None`` when a huge-space i.i.d. sample skips duplicate
    tracking.
    """

    def __init__(self, txns: Tuple[int, ...], step_counts: Tuple[int, ...],
                 total: int, mode: str, seed: int, selected: int,
                 dedupe: bool = False):
        self.txns = txns
        self.step_counts = step_counts
        self.total = total
        self.mode = mode
        self.seed = seed
        self.selected = selected
        self.dedupe = dedupe
        self._materialized: Optional[Tuple[Interleaving, ...]] = None

    @property
    def distinct(self) -> Optional[int]:
        """Distinct schedules in the stream (``None`` when not tracked)."""
        if self.mode == "exhaustive" or self.dedupe:
            return self.selected
        return None

    def __len__(self) -> int:
        return self.selected

    def __iter__(self) -> Iterator[Interleaving]:
        """Stream the schedule set, regenerated deterministically each time."""
        if self._materialized is not None:
            return iter(self._materialized)
        if self.mode == "exhaustive":
            return enumerate_interleavings(self.txns, self.step_counts)
        return iter_sampled_interleavings(self.txns, self.step_counts,
                                          self.selected, self.seed,
                                          dedupe=self.dedupe)

    def iter_chunks(self, chunk_size: int) -> Iterator[Tuple[int, Tuple[Interleaving, ...]]]:
        """Stream ``(chunk_index, schedules)`` pairs of at most ``chunk_size``.

        Chunks are produced lazily from the same deterministic stream, so a
        consumer holding one chunk at a time uses O(chunk_size) memory
        regardless of the space or sample size.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        index = 0
        buffer: List[Interleaving] = []
        for schedule in self:
            buffer.append(schedule)
            if len(buffer) == chunk_size:
                yield index, tuple(buffer)
                index += 1
                buffer = []
        if buffer:
            yield index, tuple(buffer)

    @property
    def schedules(self) -> Tuple[Interleaving, ...]:
        """The full schedule tuple, materialized on first access and cached.

        Convenience for small spaces and tests; the explorer's streaming path
        never touches it.
        """
        if self._materialized is None:
            self._materialized = tuple(self)
        return self._materialized

    def _recipe(self) -> Tuple:
        return (self.txns, self.step_counts, self.total, self.mode, self.seed,
                self.selected, self.dedupe)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleSpace):
            return NotImplemented
        return self._recipe() == other._recipe()

    def __hash__(self) -> int:
        return hash(self._recipe())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleSpace(mode={self.mode!r}, total={self.total}, "
                f"selected={self.selected}, seed={self.seed}, dedupe={self.dedupe})")


#: The modes :func:`schedule_space` accepts.
MODES = ("auto", "exhaustive", "sample")


def schedule_space(programs: Sequence[TransactionProgram], mode: str = "auto",
                   max_schedules: int = 1000, seed: int = 0) -> ScheduleSpace:
    """Resolve the schedule stream for a program set.

    ``mode`` is ``"exhaustive"`` (enumerate everything; fails if the space
    exceeds ``max_schedules``), ``"sample"`` (seeded uniform sample of
    ``max_schedules`` schedules, deduplicated when tracking is feasible), or
    ``"auto"`` (exhaustive when the space fits within ``max_schedules``, else
    sample).  No schedules are generated here — the returned space streams
    them on demand.
    """
    if mode not in MODES:
        raise ValueError(f"unknown schedule mode {mode!r}")
    txns = tuple(program.txn for program in programs)
    step_counts = tuple(len(program) for program in programs)
    total = count_interleavings(step_counts)

    if mode == "auto":
        mode = "exhaustive" if total <= max_schedules else "sample"
    if mode == "exhaustive":
        if total > max_schedules:
            raise ValueError(
                f"interleaving space has {total} schedules, above the "
                f"max_schedules={max_schedules} budget; use mode='sample'"
            )
        return ScheduleSpace(txns=txns, step_counts=step_counts, total=total,
                             mode=mode, seed=seed, selected=total)
    dedupe = _should_dedupe(max_schedules, total)
    selected = min(max_schedules, total) if dedupe else max_schedules
    return ScheduleSpace(txns=txns, step_counts=step_counts, total=total,
                         mode=mode, seed=seed, selected=selected, dedupe=dedupe)
