"""The harness-owned span recorder and the timing wrappers it installs.

Spans come only from outside the program: before a traced run the harness
replaces the layers' callables (module attributes and methods) with timing
wrappers, and restores them afterwards.  Nothing under ``src/`` knows it is
being traced.

A span is ``(name, start, end, parent)`` plus a call ``count`` and the
``busy`` time it stands for.  A plain span stands for one call and is busy
for its whole interval.  A *hot* span aggregates every call a layer received
under one parent (one chunk, one variant, one commit): it stretches from the
first call's start to the last call's end but is busy only for the sum of the
calls, so 100k classify calls cost one span per chunk instead of 100k.

Self time is a span's busy time minus the part its children cover: the union
of the plain children's intervals plus the busy time of the hot children
(hot calls are leaves and run between, never inside, their plain siblings).
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Recorder", "LAYER_WRAPPERS", "install"]

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    count: int = 1
    #: ``None`` for a plain span (busy for its whole interval).
    hot_busy: Optional[float] = None

    @property
    def busy(self) -> float:
        return self.end - self.start if self.hot_busy is None else self.hot_busy


class Recorder:
    """Spans of one workload run, held in memory until the run ends."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._hot: Dict[Tuple[Optional[int], str], Span] = {}

    # -- recording ---------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        now = _clock()
        self.spans.append(Span(name, now, now, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span.end = _clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span.end - span.start

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def hot(self, name: str, start: float, end: float, weight: int = 1) -> None:
        """Fold one call of a hot layer into its per-parent aggregate span.

        ``weight`` scales a sampled call up to the calls it stands for.
        """
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        span = self._hot.get(key)
        if span is None:
            span = self._hot[key] = Span(name, start, end, parent, count=0,
                                         hot_busy=0.0)
            self.spans.append(span)
        span.end = end
        span.count += weight
        span.hot_busy += (end - start) * weight

    # -- analysis ----------------------------------------------------------------------

    def _subtree(self, root: Optional[int]) -> List[bool]:
        """Which spans lie under ``root`` (all of them for ``None``)."""
        if root is None:
            return [True] * len(self.spans)
        inside = [False] * len(self.spans)
        # A hot span is appended after its parent began, a plain span too:
        # parents always precede children in recording order.
        for index, span in enumerate(self.spans):
            inside[index] = index == root or (
                span.parent is not None and inside[span.parent])
        return inside

    def self_times(self, root: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name: busy minus what the children cover."""
        inside = self._subtree(root)
        plain_children: Dict[int, List[Tuple[float, float]]] = {}
        hot_children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is None:
                continue
            if span.hot_busy is None:
                plain_children.setdefault(span.parent, []).append(
                    (span.start, span.end))
            else:
                hot_children[span.parent] = (
                    hot_children.get(span.parent, 0.0) + span.hot_busy)
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if not inside[index]:
                continue
            cover = hot_children.get(index, 0.0) + _union_length(
                plain_children.get(index, ()), span.start, span.end)
            out[span.name] = out.get(span.name, 0.0) + max(0.0, span.busy - cover)
        return out

    def totals(self, root: Optional[int] = None) -> Dict[str, Tuple[float, int]]:
        """Busy time and call count per span name (children included)."""
        inside = self._subtree(root)
        out: Dict[str, Tuple[float, int]] = {}
        for index, span in enumerate(self.spans):
            if not inside[index]:
                continue
            busy, count = out.get(span.name, (0.0, 0))
            out[span.name] = (busy + span.busy, count + span.count)
        return out

    def durations(self, name: str) -> List[float]:
        """Busy time of every plain span of one name, in recording order."""
        return [span.busy for span in self.spans
                if span.name == name and span.hot_busy is None]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "trace": self.trace_id, "span": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "count": span.count,
                    "busy": span.busy}) + "\n")


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals``, clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


# -- wrappers --------------------------------------------------------------------------

def _span_call(recorder: Recorder, name: str, original: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(index)
    return wrapper


def _hot_call(recorder: Recorder, name: str, original: Callable) -> Callable:
    hot = recorder.hot

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = _clock()
        try:
            return original(*args, **kwargs)
        finally:
            hot(name, started, _clock())
    return wrapper


def _hot_generator(recorder: Recorder, name: str, original: Callable) -> Callable:
    """Time every ``next()`` of the generator the callable returns."""
    hot = recorder.hot

    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        started = _clock()
        iterator = iter(original(*args, **kwargs))
        hot(name, started, _clock())
        while True:
            started = _clock()
            try:
                item = next(iterator)
            except StopIteration:
                hot(name, started, _clock())
                return
            hot(name, started, _clock())
            yield item
    return wrapper


def _hot_property(recorder: Recorder, name: str, original: property) -> property:
    return property(_hot_call(recorder, name, original.fget))


_KINDS = {"span": _span_call, "hot": _hot_call, "hotgen": _hot_generator,
          "hotprop": _hot_property}

#: (group, span name, module, attribute path, wrapper kind).  A traced run
#: installs only the groups its workload exercises.  Hot layers must be
#: leaves: nothing they call may be wrapped, or the time counts twice.
LAYER_WRAPPERS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("generate", "explorer.schedules.generate",
     "repro.explorer.explorer", "schedule_space", "hot"),
    ("generate", "explorer.schedules.generate",
     "repro.explorer.scenarios", "schedule_space", "hot"),
    ("generate", "explorer.schedules.generate",
     "repro.distrib.runner", "schedule_space", "hot"),
    ("generate", "explorer.schedules.generate",
     "repro.explorer.schedules", "ScheduleSpace.iter_chunks", "hotgen"),
    ("generate", "explorer.schedules.generate",
     "repro.explorer.schedules", "ScheduleSpace.schedules", "hotprop"),
    ("generate", "explorer.reduction.canonicalize",
     "repro.explorer.reduction", "StreamingReducer.reduce", "hot"),
    ("generate", "static_analysis.analyze",
     "repro.explorer.explorer", "analyze_programs", "hot"),
    # chunk = testbed build + execute + classify + assembly (its self time).
    # Not installable under a process pool: the pool pickles execute_chunk
    # by reference.
    ("chunk", "explorer.worker.chunk",
     "repro.explorer.explorer", "execute_chunk", "span"),
    ("chunk", "explorer.worker.testbed_build",
     "repro.explorer.worker", "_testbed_for", "hot"),
    ("chunk", "explorer.trie_executor.execute",
     "repro.explorer.trie_executor", "TrieExecutor.run_batch", "hotgen"),
    ("chunk", "explorer.memo.classify",
     "repro.explorer.memo", "BatchClassifier.classify", "hot"),
    # The Table 4 bridge runs every schedule through the stepwise runner.
    ("table4", "explorer.scenarios.variant",
     "repro.explorer.scenarios", "explore_variant", "span"),
    ("table4", "explorer.reduction.canonicalize",
     "repro.explorer.scenarios", "_cached_plan", "hot"),
    ("table4", "static_analysis.analyze",
     "repro.explorer.scenarios", "analyze_scenario_programs", "hot"),
    ("table4", "testbed.build",
     "repro.explorer.scenarios", "make_engine", "hot"),
    ("table4", "engine.scheduler.run",
     "repro.engine.scheduler", "ScheduleRunner.run", "hot"),
    ("table4", "engine.scheduler.reset",
     "repro.engine.scheduler", "ScheduleRunner.reset", "hot"),
    ("table4", "analysis.matrix.aggregate",
     "repro.analysis.matrix", "build_explored_cell", "hot"),
    ("persist", "persist.records.encode",
     "repro.persist.records", "record_to_row", "hot"),
    ("persist", "persist.records.decode",
     "repro.persist.records", "record_from_row", "hot"),
    ("persist", "persist.sqlite_store.commit",
     "repro.persist.sqlite_store", "SqliteStore.commit_chunk", "span"),
    ("persist", "persist.sqlite_store.load",
     "repro.persist.sqlite_store", "SqliteStore.load_chunk", "span"),
    ("persist", "persist.session.preload",
     "repro.persist.session", "LevelPersistence.preload_classifier", "span"),
    ("persist", "persist.session.preload",
     "repro.persist.session", "LevelPersistence.preload_outcome_memo", "span"),
    ("persist", "persist.session.finish",
     "repro.persist.session", "LevelPersistence.finish", "span"),
    # The distributed runner, parent side only (workers are other processes).
    ("distrib", "distrib.queue.acquire",
     "repro.distrib.queue", "LeaseQueue.acquire", "span"),
    ("distrib", "distrib.runner.parent_commit",
     "repro.distrib.queue", "LeaseQueue.complete", "span"),
    ("distrib", "distrib.queue.renew",
     "repro.distrib.queue", "LeaseQueue.renew", "hot"),
    ("distrib", "distrib.runner.ipc_wait",
     "multiprocessing.connection", "wait", "hot"),
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner = importlib.import_module(module_name)
    *holders, leaf = path.split(".")
    for part in holders:
        owner = getattr(owner, part)
    # Class attributes are read raw so properties stay properties.
    raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    return owner, leaf, raw


def install(recorder: Recorder, groups: Sequence[str],
            wrappers=LAYER_WRAPPERS) -> Tuple[Callable[[], None], List[str]]:
    """Wrap the named groups' layer callables; return (uninstall, missing).

    A callable a later refactor renamed or deleted is skipped and named in
    ``missing``: its layer then reads 0 and its time shows up in the parent's
    self time, instead of the benchmark refusing to run.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for group, name, module_name, path, kind in wrappers:
        if group not in groups:
            continue
        try:
            owner, leaf, original = _resolve(module_name, path)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, leaf, _KINDS[kind](recorder, name, original))
        undo.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall, missing
