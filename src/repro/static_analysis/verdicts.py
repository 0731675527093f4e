"""Per-(scenario, level) static verdicts over a dependency graph.

There is one rule per Table 4 column.  Each answers "can this scenario's
``manifests`` predicate hold in any interleaving of these programs under
this level?" by combining three kinds of argument:

* **Structural**: the pattern's candidate edges simply do not exist (no two
  programs write a common item ⇒ no P0).  Only sound when every footprint is
  exact — one opaque step downgrades a structural ``IMPOSSIBLE`` to
  ``UNKNOWN``.
* **Lock-scope** (Table 2): a lock held to the transaction's terminal makes
  the pattern's required orderings contradictory.  Long exclusive write
  locks leave no room for ``w1[x] .. w2[x]`` before T1's terminal (P0);
  long read locks leave no room for ``r1[x] .. w2[x]`` (P2/P4/A5A/A5B).
  These arguments hold even with opaque footprints, because they constrain
  the operations the pattern itself names.
* **Multiversion semantics**: the engines in :mod:`repro.mvcc` never expose
  uncommitted writes, and the single-valued mapping the classifier applies
  (``repro.explorer.memo``) emits each transaction's writes atomically with
  its terminal — so P0/P1 cannot appear in any mapped history.  Snapshot
  reads additionally pin all of a transaction's foreign reads to one
  instant, killing the strict P2 and A5A when no program rereads its own
  writes.

An ``IMPOSSIBLE`` verdict from :func:`analyze_scenario_programs` is what
licenses :func:`~repro.explorer.scenarios.explore_scenario` to skip a whole
variant space.  ``tests/integration/test_static_dynamic_agreement.py`` holds
every such verdict to the executed space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.programs import TransactionProgram
from .levels import LevelProfile, profile_for
from .sdg import ConflictEdge, StaticDependencyGraph, Verdict, build_sdg

__all__ = [
    "StaticVerdict",
    "SCENARIO_RULES",
    "analyze_sdg",
    "analyze_scenario_programs",
]


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


_Rule = Callable[[str, StaticDependencyGraph, LevelProfile], StaticVerdict]


def _impossible(code: str, profile: LevelProfile, reason: str) -> StaticVerdict:
    return StaticVerdict(code, profile.level, Verdict.IMPOSSIBLE, reason)


def _possible(code: str, profile: LevelProfile, reason: str,
              edges: Sequence[ConflictEdge]) -> StaticVerdict:
    return StaticVerdict(code, profile.level, Verdict.POSSIBLE, reason,
                         tuple(edges))


def _unknown(code: str, profile: LevelProfile, reason: str) -> StaticVerdict:
    return StaticVerdict(code, profile.level, Verdict.UNKNOWN, reason)


_OPAQUE_NOTE = ("opaque footprints (predicate / cursor / computed steps) "
                "hide reads and writes from the static graph")


def _edges_on(sdg: StaticDependencyGraph, kind: str, txn: int,
              item: str) -> Tuple[ConflictEdge, ...]:
    return tuple(e for e in sdg.edges_of(kind)
                 if e.src_txn == txn and e.item == item)


# -- the shared rule bodies ----------------------------------------------------------


def _rule_dirty_write(code: str, sdg: StaticDependencyGraph,
                      p: LevelProfile) -> StaticVerdict:
    """P0 ``w1[x] .. w2[x]`` before T1's terminal."""
    ww = sdg.edges_of("ww")
    if not ww and not sdg.has_opaque:
        return _impossible(code, p, "no two programs write a common item, so "
                                    "no w1[x]..w2[x] pair exists")
    if not p.single_version:
        return _impossible(code, p, "multiversion engines keep uncommitted "
                                    "writes private; each transaction's "
                                    "writes are atomic with its terminal in "
                                    "the single-valued mapping")
    if p.write_locks_long:
        return _impossible(code, p, "long exclusive write locks hold every "
                                    "written item to the writer's terminal, "
                                    "so a second write cannot intervene")
    if ww:
        return _possible(code, p, "short write locks release before the "
                                  "terminal; each ww edge is a candidate "
                                  "w1[x]..w2[x]", ww)
    return _unknown(code, p, _OPAQUE_NOTE)


def _rule_dirty_read(code: str, sdg: StaticDependencyGraph,
                     p: LevelProfile) -> StaticVerdict:
    """P1 ``w1[x] .. r2[x]`` before T1's terminal."""
    wr = sdg.edges_of("wr")
    if not wr and not sdg.has_opaque:
        return _impossible(code, p, "no program reads an item another "
                                    "program writes, so no w1[x]..r2[x] "
                                    "pair exists")
    if not p.single_version:
        return _impossible(code, p, "multiversion reads only ever return "
                                    "committed versions; uncommitted writes "
                                    "are invisible to other transactions")
    if p.all_reads_locked and p.write_locks_long:
        return _impossible(code, p, "every read takes a shared lock that "
                                    "must wait out the writer's long "
                                    "exclusive lock, so no read of "
                                    "uncommitted data can be realized")
    if wr:
        return _possible(code, p, "reads take no lock (or the writer's lock "
                                  "is short); each wr edge is a candidate "
                                  "w1[x]..r2[x]", wr)
    return _unknown(code, p, _OPAQUE_NOTE)


def _rule_strict_fuzzy_read(code: str, sdg: StaticDependencyGraph,
                            p: LevelProfile) -> StaticVerdict:
    """Strict A2: T1 rereads x after T2's write of x commits, then commits."""
    candidates = [(txn, item) for txn, item in sdg.repeated_reads()
                  if any(other != txn and item in sdg.write_items(other)
                         for other in sdg.txns)]
    if not candidates and not sdg.has_opaque:
        return _impossible(code, p, "no program reads the same item twice "
                                    "while another writes it, so there is "
                                    "nothing to reread inconsistently")
    if p.single_version and p.read_locks_long:
        return _impossible(code, p, "long read locks hold every read item "
                                    "to the reader's terminal, so a foreign "
                                    "write cannot land between two reads")
    if (p.snapshot_reads and not sdg.write_then_read_pairs()
            and not sdg.has_opaque):
        return _impossible(code, p, "snapshot reads are pinned to the "
                                    "transaction-start instant and no "
                                    "program rereads its own writes, so "
                                    "both reads return the same version")
    if candidates:
        edges = tuple(e for txn, item in candidates
                      for e in _edges_on(sdg, "rw", txn, item))
        return _possible(code, p, "a reread can straddle a foreign "
                                  "committed write", edges)
    return _unknown(code, p, _OPAQUE_NOTE)


def _rule_phantom(code: str, sdg: StaticDependencyGraph,
                  p: LevelProfile) -> StaticVerdict:
    """P3: a predicate read whose extent a foreign write changes.

    Predicate reads are exactly the opaque footprints, so structure decides
    the no-opaque case and locks decide the SERIALIZABLE case; anything else
    is statically undecidable.
    """
    if not sdg.has_opaque:
        return _impossible(code, p, "every footprint is exact — no step can "
                                    "issue a predicate read, so no phantom "
                                    "pattern can form")
    if p.single_version and p.predicate_read_locks_long and p.write_locks_long:
        return _impossible(code, p, "long predicate locks hold the "
                                    "predicate's whole extent to the "
                                    "reader's terminal, blocking any write "
                                    "that would change it")
    return _unknown(code, p, "predicate footprints are opaque; the static "
                             "graph cannot bound the predicate's extent")


def _rule_lost_update(code: str, sdg: StaticDependencyGraph,
                      p: LevelProfile) -> StaticVerdict:
    """P4 ``r1[x] .. w2[x] .. w1[x]``, T1 commits."""
    candidates = [(txn, item) for txn, item in sdg.read_then_write_pairs()
                  if any(other != txn and item in sdg.write_items(other)
                         for other in sdg.txns)]
    if not candidates and not sdg.has_opaque:
        return _impossible(code, p, "no program reads an item it later "
                                    "writes while another program also "
                                    "writes it — no RMW race exists")
    if p.single_version and p.read_locks_long:
        return _impossible(code, p, "the long read lock taken at r1[x] "
                                    "holds x to T1's terminal, so w2[x] "
                                    "cannot slip in before w1[x]")
    if candidates:
        edges = tuple(e for txn, item in candidates
                      for e in _edges_on(sdg, "rw", txn, item))
        return _possible(code, p, "a foreign write can land between a "
                                  "program's read and its dependent write",
                         edges)
    return _unknown(code, p, _OPAQUE_NOTE)


def _rule_cursor_lost_update(code: str, sdg: StaticDependencyGraph,
                             p: LevelProfile) -> StaticVerdict:
    """P4C: the cursor variant — ``rc1[x] .. w2[x] .. w1[x]``.

    Cursor reads are opaque footprints, so structure decides the no-opaque
    case; a cursor-duration (or longer) lock on the current row blocks the
    intervening write either way.
    """
    if not sdg.has_opaque:
        return _impossible(code, p, "every footprint is exact — no step "
                                    "reads through a cursor, so no rc1[x] "
                                    "exists")
    if p.single_version and p.cursor_read_locks_long:
        return _impossible(code, p, "cursor read locks are held to the "
                                    "reader's terminal, so no write can "
                                    "intervene while the cursor is on x")
    return _unknown(code, p, "cursor footprints are opaque; cursor-duration "
                             "locks (or their absence) decide dynamically")


def _rule_read_skew(code: str, sdg: StaticDependencyGraph,
                    p: LevelProfile) -> StaticVerdict:
    """A5A: T1 reads x, T2 writes x and y and commits, T1 reads y."""
    candidates = sdg.read_skew_candidates()
    if not candidates and not sdg.has_opaque:
        return _impossible(code, p, "no program reads two distinct items "
                                    "that a single other program writes, so "
                                    "no inconsistent pair can be observed")
    if p.single_version and p.read_locks_long:
        return _impossible(code, p, "the long read lock on the first item "
                                    "holds to the reader's terminal, so the "
                                    "writer cannot commit between the two "
                                    "reads")
    if (p.snapshot_reads and not sdg.write_then_read_pairs()
            and not sdg.has_opaque):
        return _impossible(code, p, "all of a transaction's reads come from "
                                    "one snapshot instant (and no program "
                                    "rereads its own writes), so the pair "
                                    "read is always mutually consistent")
    if candidates:
        edges = []
        for reader, writer, x, y in candidates:
            edges.extend(_edges_on(sdg, "rw", reader, x))
            edges.extend(e for e in sdg.edges_of("wr")
                         if e.src_txn == writer and e.dst_txn == reader
                         and e.item == y)
        return _possible(code, p, "the writer can commit between the "
                                  "reader's two reads", edges)
    return _unknown(code, p, _OPAQUE_NOTE)


def _rule_write_skew(code: str, sdg: StaticDependencyGraph,
                     p: LevelProfile) -> StaticVerdict:
    """A5B: crossed rw-antidependencies on distinct items, both commit."""
    candidates = sdg.write_skew_candidates()
    if not candidates and not sdg.has_opaque:
        return _impossible(code, p, "no pair of programs forms crossed "
                                    "read/write conflicts on two distinct "
                                    "items — no rw-antidependency cycle "
                                    "exists")
    if p.single_version and p.read_locks_long:
        return _impossible(code, p, "long read locks make the crossed "
                                    "orderings contradictory: each read "
                                    "lock holds its item past the other "
                                    "transaction's write")
    if candidates:
        edges = []
        for t1, t2, x, y in candidates:
            edges.extend(_edges_on(sdg, "rw", t1, x))
            edges.extend(_edges_on(sdg, "rw", t2, y))
        return _possible(code, p, "first-committer-wins only arbitrates ww "
                                  "conflicts; the crossed rw edges survive",
                         edges)
    return _unknown(code, p, _OPAQUE_NOTE)


#: The rule table, one per Table 4 column, in the paper's column order.  The
#: P2 scenario requires a committed transaction to observe two different
#: values for one item (the strict A2 shape) and the P3 scenario an observed
#: change across a re-select, so both take the strict rules; every other
#: scenario manifests exactly when its pattern occurs.
SCENARIO_RULES: Dict[str, _Rule] = {
    "P0": _rule_dirty_write,
    "P1": _rule_dirty_read,
    "P4C": _rule_cursor_lost_update,
    "P4": _rule_lost_update,
    "P2": _rule_strict_fuzzy_read,
    "P3": _rule_phantom,
    "A5A": _rule_read_skew,
    "A5B": _rule_write_skew,
}


def analyze_sdg(sdg: StaticDependencyGraph, level: IsolationLevelName,
                codes: Optional[Sequence[str]] = None,
                ) -> Dict[str, StaticVerdict]:
    """Verdicts for ``codes`` (default: every Table 4 column) on a prebuilt graph."""
    profile = profile_for(level)
    selected = tuple(SCENARIO_RULES) if codes is None else tuple(codes)
    verdicts = {}
    for code in selected:
        try:
            rule = SCENARIO_RULES[code]
        except KeyError:
            raise KeyError(f"no static rule for scenario {code!r}") from None
        verdicts[code] = rule(code, sdg, profile)
    return verdicts


def analyze_scenario_programs(programs: Sequence[TransactionProgram],
                              code: str,
                              level: IsolationLevelName) -> StaticVerdict:
    """The verdict for one curated scenario variant's programs at one level.

    ``IMPOSSIBLE`` here licenses skipping the variant's entire interleaving
    space at this level: no schedule can satisfy the scenario's
    ``manifests`` predicate.
    """
    return analyze_sdg(build_sdg(programs), level, (code,))[code]
