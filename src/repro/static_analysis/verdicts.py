"""Per-(scenario, level) static verdicts over a dependency graph.

Each rule answers "can this scenario's ``manifests`` predicate hold in any
interleaving of these programs under these semantics?", where the semantics
are a :class:`~repro.locking.policy.LockingPolicy` value (a Table 2 level, or
any other policy) or one of the two multiversion levels.

Six Table 4 columns are pair-anchored phenomena, and their verdicts are
derived from two inputs: the column's :data:`~repro.core.phenomena.PATTERNS`
row and the policy.  The P2 column reads the strict A2 row, because its
scenario needs the committed re-read.  Three arguments decide a row:

* **Structure.**  The row's operation classes ``a`` and ``b`` name the
  static graph's edge kind: (w, w) is ``ww``, (w, r) ``wr``, (r, w) ``rw``.
  The row's third operation keeps the edges whose a-side (transaction,
  item) can issue it.  No edge (and, for a row over cursor or predicate
  classes, no opaque step) means no occurrence.  Only sound when every
  footprint is exact: one opaque step leaves the question open.
* **Lock scope** (Table 2).  Every row needs a's transaction active at b.
  When every lock rule of a's class is held to the terminal and every rule
  of b's class is taken and conflicts with it, b must wait out a's
  terminal, so the row cannot occur.  A row over a predicate also needs the
  write lock long: a change released early is read by a later ``r[P]``,
  a dirty predicate read that no row names.
* **Multiversion semantics** (:func:`_multiversion_reason`).  The engines
  in :mod:`repro.mvcc` never expose uncommitted writes, and the
  single-valued mapping the classifier applies emits each transaction's
  writes atomically with its terminal, so no row whose ``a`` is a write
  appears in a mapped history.  Snapshot reads pin all of a transaction's
  foreign reads to one instant, so a re-read across a commit (A2, A5A)
  returns the same version when no program rereads its own writes.

A5A and A5B relate two items, so they are written by hand, as their
detectors are; they take the same lock-scope and multiversion arguments.

An ``IMPOSSIBLE`` verdict from :func:`analyze_scenario_programs` is what
licenses :func:`~repro.explorer.scenarios.explore_scenario` to skip a whole
variant space.  ``tests/integration/test_static_dynamic_agreement.py`` holds
every such verdict to the executed space, at the named levels and at every
policy of the Table 2 design space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..core.isolation import IsolationLevelName
from ..core.phenomena import PATTERNS, Pattern
from ..engine.programs import TransactionProgram
from ..locking.modes import LockDuration
from ..locking.policy import POLICIES, LockingPolicy, LockRule
from .sdg import ConflictEdge, StaticDependencyGraph, Verdict, build_sdg

__all__ = [
    "CLASS_RULES",
    "StaticVerdict",
    "SCENARIO_RULES",
    "analyze_scenario_programs",
]

SI = IsolationLevelName.SNAPSHOT_ISOLATION
#: The engine-backed levels without a locking policy.
_MULTIVERSION = (SI, IsolationLevelName.ORACLE_READ_CONSISTENCY)

#: The :class:`LockingPolicy` rules each ``PATTERNS`` operation class takes.
CLASS_RULES: Dict[str, Tuple[str, ...]] = {
    "w": ("write",),
    "w[P]": ("write",),
    "r": ("item_read", "cursor_read"),
    "rc": ("cursor_read",),
    "r[P]": ("predicate_read",),
}
#: The static graph's edge kind of each pair of exact classes; cursor and
#: predicate classes have opaque footprints, so no edge.
_EDGE_KINDS = {("w", "w"): "ww", ("w", "r"): "wr", ("r", "w"): "rw"}
_PREDICATE_CLASSES = frozenset({"r[P]", "w[P]"})
#: A row's third operation -> the (txn, item) pairs that can issue it.
_THIRD: Dict[str, Optional[Callable[[StaticDependencyGraph],
                                    Tuple[Tuple[int, str], ...]]]] = {
    "": None,
    "own write after j": StaticDependencyGraph.read_then_write_pairs,
    "own re-read after c2": StaticDependencyGraph.repeated_reads,
}
_OPAQUE_NOTE = ("opaque footprints (predicate / cursor / computed steps) "
                "hide reads and writes from the static graph")


@dataclass(frozen=True)
class StaticVerdict:
    """One phenomenon's static verdict at one level, with its explanation."""

    code: str
    level: IsolationLevelName
    verdict: Verdict
    reason: str
    edges: Tuple[ConflictEdge, ...] = field(default=())

    def describe(self) -> str:
        """``P4 @ READ COMMITTED: POSSIBLE (reason) [edges]`` for reports."""
        text = f"{self.code} @ {self.level.value}: {self.verdict.value}"
        text += f" — {self.reason}"
        if self.edges:
            text += "".join(f"\n    {edge.describe()}" for edge in self.edges)
        return text


_Rule = Callable[[str, StaticDependencyGraph, IsolationLevelName,
                  Optional[LockingPolicy]], StaticVerdict]


def _long(rule: Optional[LockRule]) -> bool:
    return rule is not None and rule.duration is LockDuration.LONG


def _locks(policy: LockingPolicy, cls: str) -> str:
    """``item read S long and cursor read S long``: the rules of a class."""
    rendered = []
    for name in CLASS_RULES[cls]:
        rule = getattr(policy, name)
        label = name.replace("_", " ")
        rendered.append(f"no {label} lock" if rule is None else
                        f"{label} {rule.mode.value} {rule.duration.value}")
    return " and ".join(rendered)


def _lock_reason(a: str, b: str, policy: LockingPolicy) -> Optional[str]:
    """Why ``policy`` forbids a b-step of class ``b`` after a conflicting
    a-step of class ``a`` while a's transaction is active, or None.

    Every pair holds a write, so a's lock and b's always conflict.
    """
    held = [getattr(policy, name) for name in CLASS_RULES[a]]
    taken = [getattr(policy, name) for name in CLASS_RULES[b]]
    if not all(map(_long, held)) or None in taken:
        return None
    # A change to a predicate's extent under a short write lock is seen by a
    # later r[P]: a dirty predicate read, which no PATTERNS row names.
    if ({a, b} & _PREDICATE_CLASSES) and not all(map(_long, taken)):
        return None
    return (f"{_locks(policy, a)} held to T1's terminal; "
            f"{_locks(policy, b)} must wait for it")


def _multiversion_reason(level: IsolationLevelName, sdg: StaticDependencyGraph,
                         a: str, reads_across: bool) -> Optional[str]:
    """Why a multiversion engine forbids a pattern whose a-step has class
    ``a``, or None.  ``reads_across``: a's transaction reads before and
    after b's commit."""
    if a in ("w", "w[P]"):
        return ("multiversion engines keep uncommitted writes private; each "
                "transaction's writes are atomic with its terminal in the "
                "single-valued mapping")
    if (reads_across and level is SI and not sdg.write_then_read_pairs()
            and not sdg.has_opaque):
        return ("snapshot reads are pinned to the transaction-start instant "
                "and no program rereads its own writes, so every read of an "
                "item returns one version")
    return None


def _argument(level: IsolationLevelName, sdg: StaticDependencyGraph,
              policy: Optional[LockingPolicy], a: str, b: str,
              reads_across: bool) -> Optional[str]:
    """The lock-scope or multiversion argument against the pattern, or None."""
    if policy is None:
        return _multiversion_reason(level, sdg, a, reads_across)
    return _lock_reason(a, b, policy)


def _why_open(level: IsolationLevelName, policy: Optional[LockingPolicy],
              a: str, b: str) -> str:
    if policy is None:
        return f"no multiversion argument applies at {level.value}"
    return f"{_locks(policy, a)} with {_locks(policy, b)} leave room for it"


def _pair_rule(row: Pattern) -> _Rule:
    """The rule of one pair-anchored ``PATTERNS`` row."""
    # The lock argument needs a's transaction active at j: said outright, or
    # implied by a third operation of a's after j.
    if "active at j" not in row.a_txn and not row.third:
        raise ValueError(f"{row.code}: a's transaction must be active at j")
    kind = _EDGE_KINDS.get((row.a, row.b))
    pairs_of = _THIRD[row.third]
    prefix = f"{row.code} {row.paper}"

    def rule(code: str, sdg: StaticDependencyGraph, level: IsolationLevelName,
             policy: Optional[LockingPolicy]) -> StaticVerdict:
        edges: Tuple[ConflictEdge, ...] = ()
        if kind is not None:
            edges = sdg.edges_of(kind)
            if pairs_of is not None:
                edges = tuple(edge for txn, item in pairs_of(sdg)
                              for edge in edges
                              if edge.src_txn == txn and edge.item == item)
        if not edges and not sdg.has_opaque:
            if kind is None:
                why = f"every footprint is exact, so no {row.a}/{row.b} pair"
            else:
                why = f"no {kind} edge" + (f" with an {row.third}"
                                           if row.third else "")
            return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                                 f"{prefix}: {why}")
        reason = _argument(level, sdg, policy, row.a, row.b,
                           reads_across=row.third == "own re-read after c2")
        if reason is not None:
            return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                                 f"{prefix}: {reason}")
        if edges:
            return StaticVerdict(
                code, level, Verdict.POSSIBLE,
                f"{prefix}: {_why_open(level, policy, row.a, row.b)}; each "
                f"{kind} edge is a candidate", edges)
        return StaticVerdict(code, level, Verdict.UNKNOWN,
                             f"{prefix}: {_OPAQUE_NOTE}")

    return rule


def _edges_on(sdg: StaticDependencyGraph, kind: str, txn: int,
              item: str) -> Tuple[ConflictEdge, ...]:
    return tuple(e for e in sdg.edges_of(kind)
                 if e.src_txn == txn and e.item == item)


def _rule_read_skew(code: str, sdg: StaticDependencyGraph,
                    level: IsolationLevelName,
                    policy: Optional[LockingPolicy]) -> StaticVerdict:
    """A5A: T1 reads x, T2 writes x and y and commits, T1 reads y."""
    prefix = "A5A r1[x]...w2[x]...w2[y]...c2...r1[y]...(c1 or a1)"
    candidates = sdg.read_skew_candidates()
    if not candidates and not sdg.has_opaque:
        return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                             f"{prefix}: no program reads two distinct items "
                             f"that a single other program writes")
    reason = _argument(level, sdg, policy, "r", "w", reads_across=True)
    if reason is not None:
        return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                             f"{prefix}: {reason}")
    if candidates:
        edges = []
        for reader, writer, x, y in candidates:
            edges.extend(_edges_on(sdg, "rw", reader, x))
            edges.extend(e for e in sdg.edges_of("wr")
                         if e.src_txn == writer and e.dst_txn == reader
                         and e.item == y)
        return StaticVerdict(
            code, level, Verdict.POSSIBLE,
            f"{prefix}: {_why_open(level, policy, 'r', 'w')}; the writer "
            f"can commit between the reader's two reads", tuple(edges))
    return StaticVerdict(code, level, Verdict.UNKNOWN,
                         f"{prefix}: {_OPAQUE_NOTE}")


def _rule_write_skew(code: str, sdg: StaticDependencyGraph,
                     level: IsolationLevelName,
                     policy: Optional[LockingPolicy]) -> StaticVerdict:
    """A5B: crossed rw-antidependencies on distinct items, both commit."""
    prefix = "A5B r1[x]...r2[y]...w1[y]...w2[x]...(c1 and c2 occur)"
    candidates = sdg.write_skew_candidates()
    if not candidates and not sdg.has_opaque:
        return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                             f"{prefix}: no pair of programs forms crossed "
                             f"read/write conflicts on two distinct items")
    reason = _argument(level, sdg, policy, "r", "w", reads_across=False)
    if reason is not None:
        return StaticVerdict(code, level, Verdict.IMPOSSIBLE,
                             f"{prefix}: {reason}")
    if candidates:
        edges = []
        for t1, t2, x, y in candidates:
            edges.extend(_edges_on(sdg, "rw", t1, x))
            edges.extend(_edges_on(sdg, "rw", t2, y))
        why = ("first-committer-wins only arbitrates ww conflicts"
               if level is SI else _why_open(level, policy, "r", "w"))
        return StaticVerdict(code, level, Verdict.POSSIBLE,
                             f"{prefix}: {why}; the crossed rw edges survive",
                             tuple(edges))
    return StaticVerdict(code, level, Verdict.UNKNOWN,
                         f"{prefix}: {_OPAQUE_NOTE}")


_ROWS = {row.code: row for row in PATTERNS}

#: The rule table, one per Table 4 column, in the paper's column order.  The
#: P2 scenario requires a committed transaction to observe two different
#: values for one item, so its column reads the strict A2 row; every other
#: scenario manifests exactly when its pattern occurs.
SCENARIO_RULES: Dict[str, _Rule] = {
    "P0": _pair_rule(_ROWS["P0"]),
    "P1": _pair_rule(_ROWS["P1"]),
    "P4C": _pair_rule(_ROWS["P4C"]),
    "P4": _pair_rule(_ROWS["P4"]),
    "P2": _pair_rule(_ROWS["A2"]),
    "P3": _pair_rule(_ROWS["P3"]),
    "A5A": _rule_read_skew,
    "A5B": _rule_write_skew,
}


def analyze_scenario_programs(
        programs: Sequence[TransactionProgram], code: str,
        semantics: Union[IsolationLevelName, LockingPolicy]) -> StaticVerdict:
    """The verdict for one curated scenario variant's programs.

    ``semantics`` is an engine-backed level or any :class:`LockingPolicy`;
    a policy's verdict carries the policy's ``level``.  ``IMPOSSIBLE`` here
    licenses skipping the variant's entire interleaving space: no schedule
    can satisfy the scenario's ``manifests`` predicate.
    """
    try:
        rule = SCENARIO_RULES[code]
    except KeyError:
        raise KeyError(f"no static rule for scenario {code!r}") from None
    if isinstance(semantics, LockingPolicy):
        level, policy = semantics.level, semantics
    elif semantics in POLICIES or semantics in _MULTIVERSION:
        level, policy = semantics, POLICIES.get(semantics)
    else:
        raise KeyError(f"{semantics.value} has no engine, so no static "
                       f"semantics")
    return rule(code, build_sdg(programs), level, policy)
