"""The lock manager: granted-lock table, conflict detection, upgrades.

"If a transaction holds a lock, and another transaction requests a conflicting
lock, then the new lock request is not granted until the former transaction's
conflicting lock has been released." (Section 2.3.)

The manager is deliberately *non-queueing*: a conflicting request returns a
:class:`LockRequestResult` naming the blocking transactions, and the schedule
runner is responsible for retrying the operation later and for feeding the
waits-for graph used by deadlock detection.  This keeps the manager a pure
state machine over the granted-lock table, which makes it easy to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .modes import (
    ItemTarget,
    LockDuration,
    LockMode,
    LockTarget,
    modes_conflict,
)

__all__ = ["HeldLock", "LockRequestResult", "LockManager"]


@dataclass
class HeldLock:
    """One granted lock."""

    txn: int
    target: LockTarget
    mode: LockMode
    duration: LockDuration
    #: For CURSOR-duration locks, the cursor that holds the lock.
    cursor: Optional[str] = None

    def describe(self) -> str:
        """Human-readable rendering for diagnostics."""
        extra = f" via cursor {self.cursor}" if self.cursor else ""
        return f"T{self.txn} {self.mode}-{self.duration} on {self.target}{extra}"


@dataclass(frozen=True)
class LockRequestResult:
    """Outcome of a lock request."""

    granted: bool
    #: Transactions holding conflicting locks (empty when granted).
    blockers: FrozenSet[int] = frozenset()

    @classmethod
    def ok(cls) -> "LockRequestResult":
        return cls(granted=True)

    @classmethod
    def blocked(cls, blockers: Iterable[int]) -> "LockRequestResult":
        return cls(granted=False, blockers=frozenset(blockers))


#: The shared granted result — immutable, so one instance serves every grant.
_GRANTED = LockRequestResult(granted=True)


class LockManager:
    """Tracks granted locks and answers (non-blocking) lock requests."""

    #: The ItemTarget interning cache stays out of the checkpoint token: one
    #: immutable target per item name, a pure function of the name.
    _checkpoint_stable = ("_item_targets",)

    def __init__(self) -> None:
        self._locks: List[HeldLock] = []
        #: Cumulative count of requests that came back blocked (for benchmarks).
        self.blocked_requests = 0
        #: Monotonic counter bumped on every change to the granted-lock table.
        #: A blocked request's outcome is a pure function of the table, so the
        #: schedule runner memoizes blocked results keyed on this version and
        #: skips re-submitting a retry the table cannot have changed.
        self.version = 0
        #: Interned ItemTargets: one immutable target instance per item name
        #: serves every request.
        self._item_targets: Dict[str, ItemTarget] = {}
        #: Per-item-name version counters, bumped alongside ``version``
        #: whenever a table change touches a lock on that :class:`ItemTarget`.
        #: An item lock request can only be blocked by locks on the same item
        #: name (ItemTargets never overlap row or predicate targets), so a
        #: blocked item request's outcome is a pure function of the item's
        #: counter — the schedule runner keys its parked blocked-result memos
        #: on :meth:`version_for` and parked attempts survive unrelated lock
        #: traffic.  Missing names read as 0.
        self._item_versions: Dict[str, int] = {}
        #: The (version, lock) of a just-granted NEW short-duration lock, used
        #: by release_short to recognise a transient grant/release pair within
        #: one engine action and roll the version back to its pre-grant value.
        #: A short lock is invisible to every other transaction (it exists
        #: only inside one cooperative action), so a grant+release that leaves
        #: the table unchanged cannot change any blocked outcome — keeping the
        #: version unchanged lets the schedule runner's blocked-result memos
        #: survive transient actions instead of re-submitting provable no-ops.
        self._short_grant: Optional[Tuple[int, HeldLock]] = None

    # -- queries ----------------------------------------------------------------

    def locks_of(self, txn: int) -> List[HeldLock]:
        """All locks currently held by a transaction."""
        return [lock for lock in self._locks if lock.txn == txn]

    def holders(self, target: LockTarget, mode: LockMode = LockMode.SHARED) -> Set[int]:
        """Transactions holding locks that would conflict with (target, mode)."""
        return {
            lock.txn
            for lock in self._locks
            if lock.target.overlaps(target) and modes_conflict(lock.mode, mode)
        }

    def held_by(self, txn: int, target: LockTarget,
                minimum: LockMode = LockMode.SHARED) -> bool:
        """True when the transaction already holds a sufficient lock on the target."""
        for lock in self._locks:
            if lock.txn != txn or lock.target.key() != target.key():
                continue
            if minimum is LockMode.SHARED or lock.mode is LockMode.EXCLUSIVE:
                return True
        return False

    def all_locks(self) -> List[HeldLock]:
        """Every granted lock (a copy)."""
        return list(self._locks)

    def version_for(self, name: str) -> int:
        """The per-item version counter of one item name (0 until first touched).

        Bumped exactly when a table change adds, removes, or strengthens a
        lock on ``ItemTarget(name)`` — the only state a blocked item request
        on that name can depend on.
        """
        return self._item_versions.get(name, 0)

    def _bump_item(self, name: str) -> None:
        versions = self._item_versions
        versions[name] = versions.get(name, 0) + 1

    # -- checkpoints -----------------------------------------------------------------

    def checkpoint(self) -> Tuple:
        """A value token of the granted-lock table (for :meth:`restore`).

        Entries are flattened to field tuples because live ``HeldLock``
        objects are mutated in place on upgrades — the token must survive
        that.  The version counter is part of the token: the schedule
        runner's blocked-result memos are keyed on it, so rolling the table
        back must roll the version back to the exact value it had at the
        checkpoint (sound because a version value identifies a unique table
        state along any execution path through the checkpoint).
        """
        return (
            tuple((lock.txn, lock.target, lock.mode, lock.duration, lock.cursor)
                  for lock in self._locks),
            self.blocked_requests,
            self.version,
            dict(self._item_versions),
        )

    def restore(self, token: Tuple) -> None:
        """Reset the granted-lock table to a :meth:`checkpoint` token (reusable)."""
        entries, blocked, version, item_versions = token
        self._locks = [HeldLock(*entry) for entry in entries]
        self.blocked_requests = blocked
        self.version = version
        self._item_versions = dict(item_versions)
        self._short_grant = None

    # -- acquisition ---------------------------------------------------------------

    def request(self, txn: int, target: LockTarget, mode: LockMode,
                duration: LockDuration, cursor: Optional[str] = None) -> LockRequestResult:
        """Request a lock.

        Grants immediately when no *other* transaction holds a conflicting
        lock; otherwise reports the blockers.  A transaction's own locks never
        block it — re-requests and Share→Exclusive upgrades are handled by
        strengthening the existing entry.
        """
        self._short_grant = None
        blockers = None
        for lock in self._locks:
            if (lock.txn != txn
                    and lock.target.overlaps(target)
                    and modes_conflict(lock.mode, mode)):
                if blockers is None:
                    blockers = {lock.txn}
                else:
                    blockers.add(lock.txn)
        if blockers:
            self.blocked_requests += 1
            return LockRequestResult.blocked(blockers)

        self.version += 1
        if type(target) is ItemTarget:
            self._bump_item(target.name)
        existing = self._find(txn, target)
        if existing is not None:
            # Upgrade mode and extend duration rather than duplicating.
            if mode is LockMode.EXCLUSIVE:
                existing.mode = LockMode.EXCLUSIVE
            existing.duration = _stronger_duration(existing.duration, duration)
            if cursor is not None:
                existing.cursor = cursor
            return _GRANTED

        granted = HeldLock(txn, target, mode, duration, cursor)
        self._locks.append(granted)
        if duration is LockDuration.SHORT:
            self._short_grant = (self.version, granted)
        return _GRANTED

    def item_target(self, name: str) -> ItemTarget:
        """The interned :class:`ItemTarget` for a name (one instance per item)."""
        target = self._item_targets.get(name)
        if target is None:
            target = self._item_targets[name] = ItemTarget(name)
        return target

    def _find(self, txn: int, target: LockTarget) -> Optional[HeldLock]:
        for lock in self._locks:
            if lock.txn == txn and lock.target.key() == target.key():
                return lock
        return None

    # -- release -------------------------------------------------------------------------

    def release(self, txn: int, target: LockTarget) -> None:
        """Release one transaction's lock on a specific target (if held)."""
        self._short_grant = None
        kept = [
            lock for lock in self._locks
            if not (lock.txn == txn and lock.target.key() == target.key())
        ]
        if len(kept) != len(self._locks):
            self.version += 1
            if type(target) is ItemTarget:
                self._bump_item(target.name)
            self._locks = kept

    def release_short(self, txn: int) -> None:
        """Release every SHORT-duration lock held by a transaction.

        The engines call this after each action completes, which is what
        "short duration" means in Table 2.  Levels whose rules take no short
        locks still call it on every action, so the no-op case avoids the
        list rebuild.

        A grant/release pair that leaves the table exactly as it was — the
        common transient case: the action appended one new short lock and
        removes it again — rolls the version back to its pre-grant value
        instead of bumping it.  Sound because a short lock lives entirely
        inside one cooperative action: no other transaction can ever observe
        it, so a net-unchanged table yields bit-identical blocked outcomes
        and the runner's parked blocked-result memos may keep their version.
        (A transaction holds no short locks when an action *starts* — every
        action drops its short locks before returning and blocked actions
        never acquire — so the marker lock is the only short lock in play.)
        """
        marker = self._short_grant
        self._short_grant = None
        if (marker is not None and marker[0] == self.version
                and marker[1].txn == txn
                and marker[1].duration is LockDuration.SHORT):
            self._locks.remove(marker[1])
            self.version -= 1
            target = marker[1].target
            if type(target) is ItemTarget:
                # Roll the per-item counter back too: the transient pair left
                # that item's lock population exactly as it was.
                self._item_versions[target.name] -= 1
            return
        if not any(lock.txn == txn and lock.duration is LockDuration.SHORT
                   for lock in self._locks):
            return
        self.version += 1
        kept = []
        for lock in self._locks:
            if lock.txn == txn and lock.duration is LockDuration.SHORT:
                target = lock.target
                if type(target) is ItemTarget:
                    self._bump_item(target.name)
            else:
                kept.append(lock)
        self._locks = kept

    def release_cursor(self, txn: int, cursor: str) -> None:
        """Release CURSOR-duration locks held through a specific cursor.

        Called when the cursor moves to another row or closes.  Locks that
        were upgraded to LONG (e.g. because the fetched row was updated) are
        not affected.
        """
        self._short_grant = None
        kept = []
        removed = False
        for lock in self._locks:
            if (lock.txn == txn
                    and lock.duration is LockDuration.CURSOR
                    and lock.cursor == cursor):
                removed = True
                target = lock.target
                if type(target) is ItemTarget:
                    self._bump_item(target.name)
            else:
                kept.append(lock)
        if removed:
            self.version += 1
            self._locks = kept

    def release_all(self, txn: int) -> None:
        """Release every lock of a transaction (at commit or abort)."""
        self._short_grant = None
        kept = []
        removed = False
        for lock in self._locks:
            if lock.txn == txn:
                removed = True
                target = lock.target
                if type(target) is ItemTarget:
                    self._bump_item(target.name)
            else:
                kept.append(lock)
        if removed:
            self.version += 1
            self._locks = kept

    def __len__(self) -> int:
        return len(self._locks)


#: Duration strength order, hoisted out of _stronger_duration (hot path).
_DURATION_ORDER = {LockDuration.SHORT: 0, LockDuration.CURSOR: 1, LockDuration.LONG: 2}


def _stronger_duration(current: LockDuration, requested: LockDuration) -> LockDuration:
    """Keep the longer of two durations when re-requesting a held lock."""
    if current is requested:
        return current
    return current if _DURATION_ORDER[current] >= _DURATION_ORDER[requested] else requested
