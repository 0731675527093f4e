"""Locking policies: Table 2 of the paper, one policy per isolation level.

Table 2 defines the locking isolation levels by the scope, mode, and duration
of the locks a well-formed transaction must take:

========================  =============================  =========================
Level                     Read locks                     Write locks
========================  =============================  =========================
Degree 0                  none                           well-formed, short
Degree 1 = Locking RU     none                           well-formed, long
Degree 2 = Locking RC     well-formed, short (both)      well-formed, long
Cursor Stability          short; held on current of      well-formed, long
                          cursor; short predicate locks
Locking REPEATABLE READ   long item locks, short         well-formed, long
                          predicate locks
Degree 3 = Locking SER    long (both)                    well-formed, long
========================  =============================  =========================

A :class:`LockingPolicy` answers, for each kind of action, what lock the
engine must request (mode + duration), or ``None`` for "no lock required".
:func:`machine_key` says which of those rules a program set can reach: on
*item-only* programs (:func:`item_only`) only the item-read and write rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..core.isolation import IsolationLevelName
from ..engine.programs import Abort, Commit, ReadItem, TransactionProgram, WriteItem
from .modes import LockDuration, LockMode

__all__ = ["ITEM_STEPS", "LockRule", "LockingPolicy", "POLICIES", "item_only",
           "machine_key", "policy_for"]

#: The step types of an item-only program, in the batch kernel's op-code
#: order.  A subclass (one overriding ``perform``, say) is not one of them.
ITEM_STEPS = (ReadItem, WriteItem, Commit, Abort)


@dataclass(frozen=True)
class LockRule:
    """The lock a policy requires for one kind of action."""

    mode: LockMode
    duration: LockDuration


@dataclass(frozen=True)
class LockingPolicy:
    """What locks each action must take under one locking isolation level."""

    level: IsolationLevelName
    #: Lock for an item / row read, or None when reads take no locks.
    item_read: Optional[LockRule]
    #: Lock for a predicate read, or None.
    predicate_read: Optional[LockRule]
    #: Lock for any write (item, row, insert, update, delete).
    write: LockRule
    #: Lock for a read through a cursor (FETCH).  Cursor Stability holds this
    #: until the cursor moves or closes.
    cursor_read: Optional[LockRule]

    @property
    def name(self) -> str:
        """The level's display name."""
        return self.level.value

    def describe(self) -> Dict[str, str]:
        """A rendering of the policy used by the Table 2 benchmark."""
        def render(rule: Optional[LockRule]) -> str:
            if rule is None:
                return "none required"
            return f"{rule.mode.value} {rule.duration.value}"

        return {
            "item read": render(self.item_read),
            "predicate read": render(self.predicate_read),
            "cursor read": render(self.cursor_read),
            "write": render(self.write),
        }


POLICIES: Dict[IsolationLevelName, LockingPolicy] = {
    IsolationLevelName.DEGREE_0: LockingPolicy(
        level=IsolationLevelName.DEGREE_0,
        item_read=None,
        predicate_read=None,
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.SHORT),
        cursor_read=None,
    ),
    IsolationLevelName.READ_UNCOMMITTED: LockingPolicy(
        level=IsolationLevelName.READ_UNCOMMITTED,
        item_read=None,
        predicate_read=None,
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=None,
    ),
    IsolationLevelName.READ_COMMITTED: LockingPolicy(
        level=IsolationLevelName.READ_COMMITTED,
        item_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
        predicate_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
    ),
    IsolationLevelName.CURSOR_STABILITY: LockingPolicy(
        level=IsolationLevelName.CURSOR_STABILITY,
        item_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
        predicate_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=LockRule(LockMode.SHARED, LockDuration.CURSOR),
    ),
    IsolationLevelName.REPEATABLE_READ: LockingPolicy(
        level=IsolationLevelName.REPEATABLE_READ,
        item_read=LockRule(LockMode.SHARED, LockDuration.LONG),
        predicate_read=LockRule(LockMode.SHARED, LockDuration.SHORT),
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=LockRule(LockMode.SHARED, LockDuration.LONG),
    ),
    IsolationLevelName.SERIALIZABLE: LockingPolicy(
        level=IsolationLevelName.SERIALIZABLE,
        item_read=LockRule(LockMode.SHARED, LockDuration.LONG),
        predicate_read=LockRule(LockMode.SHARED, LockDuration.LONG),
        write=LockRule(LockMode.EXCLUSIVE, LockDuration.LONG),
        cursor_read=LockRule(LockMode.SHARED, LockDuration.LONG),
    ),
}


def policy_for(level: IsolationLevelName) -> LockingPolicy:
    """The Table 2 locking policy for an isolation level."""
    try:
        return POLICIES[level]
    except KeyError:
        raise KeyError(
            f"{level.value} is not a locking isolation level (see Table 2)"
        ) from None


def item_only(programs: Sequence[TransactionProgram]) -> bool:
    """Whether there are programs and every step is exactly an :data:`ITEM_STEPS` type."""
    return bool(programs) and all(type(step) in ITEM_STEPS
                                  for program in programs
                                  for step in program.steps)


def machine_key(programs: Sequence[TransactionProgram],
                level: IsolationLevelName) -> Any:
    """What decides every record of ``programs`` run at ``level``.

    Item-only programs at a Table 2 locking level (with the default engine
    options, the only ones ``explore()`` builds) consult two rules of the
    level's policy and nothing else: the item-read lock and the write lock.
    Predicate and cursor rules never fire, and the real engine uses the
    level only to name itself.  For them the key is that pair of
    :class:`LockRule` values, so REPEATABLE READ and SERIALIZABLE (which
    differ in predicate-read duration) are one machine, and so are READ
    COMMITTED and Cursor Stability (cursor-read duration).  Degree 0 and
    READ UNCOMMITTED stay apart: their write durations differ.  Any other
    program set or level is keyed by the level itself.
    """
    if level in POLICIES and item_only(programs):
        policy = POLICIES[level]
        return (policy.item_read, policy.write)
    return level
