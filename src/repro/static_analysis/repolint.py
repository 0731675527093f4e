"""Repo invariant linter: the rules the codebase silently depends on, enforced.

Seven invariants keep the explorer's determinism and checkpoint/restore
contracts honest, and none of them is expressible in a generic linter:

* **determinism** (AST) — no wall-clock reads (``time.time``,
  ``datetime.now`` and friends) and no module-level ``random.*`` calls
  (which share interpreter-global state) anywhere under ``src/repro``.
  ``time.perf_counter`` is fine (timing stats are excluded from result
  fingerprints) and seeded ``random.Random(...)`` instances are fine (their
  streams are pure functions of the seed).
* **checkpoint-completeness** (AST) — any class that defines both
  ``__init__`` and ``checkpoint`` must reference every attribute its
  ``__init__`` assigns somewhere in its checkpoint/restore machinery,
  or list it in a class-level ``_checkpoint_stable`` tuple (the explicit
  "immutable configuration, not state" marker).  A mutable attribute
  missing from both is exactly the bug that makes trie-executor restores
  diverge from fresh runs.
  A class that also defines ``state_key`` (the transition table's state
  identity) must carry every attribute its checkpoint/restore machinery
  references into the key as well, or list it in a class-level
  ``_state_key_derivable`` tuple of ``(attribute, reason)`` pairs — a field
  the key silently leaves out is exactly the bug that merges two states a
  later step can tell apart.
* **picklability** (runtime) — every registered program set must survive
  the process boundary the parallel explorer ships it across:
  ``ProgramSetSpec`` round-trips through pickle and the registered builder
  pickles by reference.
* **footprint-coverage** (runtime) — every concrete
  :class:`~repro.engine.programs.Step` subclass either overrides
  ``footprint()`` or carries ``opaque_footprint = True``, the explicit
  "this step is opaque to the static analyzer" marker.  A step with
  neither would silently default to an opaque footprint, quietly degrading
  both partial-order reduction and the static dependency graph.
* **store-records** (runtime) — the campaign store's serialization
  (:mod:`repro.persist.records`) is canonical and lossless:
  ``decode(encode(x)) == x`` exactly, encoding is a pure function, and
  every row element is an SQL-native scalar, across representative
  schedule records, classifications, and Table 4 cells
  (stalled and deadlock-aborted shapes included).  This is the invariant
  that makes resumed campaigns byte-identical to uninterrupted ones.
* **lease-records** (runtime) — the distributed runner's lease rows obey
  the same contract: every lease state round-trips losslessly through
  ``lease_to_row``/``lease_from_row``, encoding is pure, row elements are
  SQL-native scalars, and an out-of-vocabulary state is rejected rather
  than silently persisted.  A drifting lease row is how a crashed
  campaign resumes into the wrong work-queue state.
* **certificate-records** (runtime) — the online certifier's anomaly
  certificates obey the same contract: every phenomenon code round-trips
  losslessly through ``certificate_to_row``/``certificate_from_row``,
  encoding is pure, row elements are SQL-native scalars, and an unknown
  certificate code is rejected rather than silently persisted.  A lossy
  certificate row would make persisted service evidence disagree with
  what the classifier actually witnessed.

Run as ``python -m repro.static_analysis.repolint [root]`` (exits non-zero
on any violation); CI runs it repo-wide and requires zero.
"""

from __future__ import annotations

import ast
import importlib
import pickle
import pkgutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "lint_determinism",
    "lint_checkpoints",
    "lint_picklability",
    "lint_footprints",
    "lint_store_records",
    "lint_lease_records",
    "lint_certificate_records",
    "lint_tree",
    "lint_paths",
    "lint_repo",
    "main",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which check, where, and what is wrong."""

    check: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# -- determinism ---------------------------------------------------------------------

#: ``module.attr`` calls that read the wall clock or ambient entropy.
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: The only ``random.*`` attribute that may be called: seeded generator
#: construction.  Module-level functions (``random.random``, ``shuffle``...)
#: draw from the interpreter-global stream and are banned.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}


def _dotted(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``("time", "time")`` for a ``time.time`` attribute access, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    return None


def lint_determinism(tree: ast.AST, path: str) -> List[Violation]:
    """Wall-clock reads and global-stream randomness, anywhere in a module."""
    violations: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _dotted(node.func)
        if target is None:
            continue
        if target in _WALL_CLOCK_CALLS:
            violations.append(Violation(
                "determinism", path, node.lineno,
                f"wall-clock call {target[0]}.{target[1]}() breaks the "
                f"explorer's determinism contract (use a logical clock, or "
                f"time.perf_counter for timing stats)"))
        elif target[0] == "random" and target[1] not in _RANDOM_ALLOWED:
            violations.append(Violation(
                "determinism", path, node.lineno,
                f"module-level random.{target[1]}() draws from interpreter-"
                f"global state; use a seeded random.Random instance"))
    return violations


# -- checkpoint completeness ---------------------------------------------------------


def _assigned_self_attrs(func: ast.FunctionDef) -> List[Tuple[str, int]]:
    """``self.X`` names assigned anywhere in a function, with line numbers."""
    found: List[Tuple[str, int]] = []
    seen: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in seen):
                seen.add(target.attr)
                found.append((target.attr, target.lineno))
    return found


def _referenced_self_attrs(funcs: Iterable[ast.FunctionDef]) -> Set[str]:
    """Every ``self.X`` referenced (read or written) across the functions."""
    names: Set[str] = set()
    for func in funcs:
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
    return names


def _stable_names(cls: ast.ClassDef) -> Set[str]:
    """The class-level ``_checkpoint_stable`` exemption tuple, if declared."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "_checkpoint_stable":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        return set()
                    return {str(name) for name in value}
    return set()


def _is_stub(func: ast.FunctionDef) -> bool:
    """A body that only raises (after an optional docstring)."""
    body = [stmt for stmt in func.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    return all(isinstance(stmt, ast.Raise) for stmt in body)


def _state_attrs(funcs: Iterable[ast.FunctionDef]) -> Dict[str, int]:
    """``self.X`` values the functions touch (method calls excluded), by first line."""
    calls = {id(node.func) for func in funcs for node in ast.walk(func)
             if isinstance(node, ast.Call)}
    found: Dict[str, int] = {}
    for func in funcs:
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and id(node) not in calls):
                found.setdefault(node.attr, node.lineno)
    return found


def _derivable_names(cls: ast.ClassDef, path: str,
                     violations: List[Violation]) -> Set[str]:
    """The ``_state_key_derivable`` pairs; a pair without a reason is flagged."""
    for node in cls.body:
        if not (isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id == "_state_key_derivable"
                for target in node.targets)):
            continue
        try:
            entries = ast.literal_eval(node.value)
        except ValueError:
            entries = None
        names: Set[str] = set()
        for entry in entries if isinstance(entries, tuple) else (entries,):
            if (isinstance(entry, tuple) and len(entry) == 2
                    and all(isinstance(part, str) for part in entry)
                    and entry[1].strip()):
                names.add(entry[0])
            else:
                violations.append(Violation(
                    "state-key-completeness", path, node.lineno,
                    f"{cls.name}._state_key_derivable entries must be "
                    f"(attribute, reason) string pairs, got {entry!r}"))
        return names
    return set()


def lint_checkpoints(tree: ast.AST, path: str) -> List[Violation]:
    """Every ``__init__``-assigned attribute must reach the checkpoint token,
    and every checkpointed attribute the state key.

    The reference scan covers the class's ``checkpoint`` and ``restore``
    methods plus any sibling method whose name mentions ``checkpoint`` (the
    helper pattern), so tokens assembled via ``self._base_checkpoint()``
    count.  ``_checkpoint_stable = ("attr", ...)`` marks immutable
    configuration that deliberately stays out of the token.

    A class with a (non-stub) ``state_key`` — or a helper whose name
    mentions it — is held to the key the same way: every attribute value its
    checkpoint machinery touches must be touched by a key method too, or be
    declared in ``_state_key_derivable = (("attr", "reason"), ...)``.
    """
    violations: List[Violation] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {node.name: node for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
        scan = [func for name, func in methods.items()
                if name in ("checkpoint", "restore") or "checkpoint" in name]
        keys = [func for name, func in methods.items()
                if "state_key" in name and not _is_stub(func)]
        if keys:
            derivable = _derivable_names(cls, path, violations)
            keyed = _state_attrs(keys)
            for attr, line in _state_attrs(scan).items():
                if attr in keyed or attr in derivable:
                    continue
                violations.append(Violation(
                    "state-key-completeness", path, line,
                    f"{cls.name}'s checkpoint machinery captures self.{attr} "
                    f"but its state key never reads it; add it to the key "
                    f"or declare it in _state_key_derivable with a reason"))
        init = methods.get("__init__")
        checkpoint = methods.get("checkpoint")
        if init is None or checkpoint is None:
            continue
        if _is_stub(checkpoint):
            continue  # an unsupported-checkpoint stub has no token to audit
        referenced = _referenced_self_attrs(scan)
        stable = _stable_names(cls)
        for attr, line in _assigned_self_attrs(init):
            if attr in referenced or attr in stable:
                continue
            violations.append(Violation(
                "checkpoint-completeness", path, line,
                f"{cls.name}.__init__ assigns self.{attr} but "
                f"{cls.name}.checkpoint/restore never references it; add it "
                f"to the token or declare it in _checkpoint_stable"))
    return violations


# -- runtime checks ------------------------------------------------------------------


def lint_picklability() -> List[Violation]:
    """Registered program sets must cross the worker process boundary."""
    from ..workloads.program_sets import (
        ProgramSetSpec,
        available_program_sets,
        resolve_program_set,
    )

    violations: List[Violation] = []
    for name in available_program_sets():
        spec = ProgramSetSpec.make(name)
        try:
            clone = pickle.loads(pickle.dumps(spec))
        except Exception as error:  # noqa: BLE001 - report, don't crash
            violations.append(Violation(
                "picklability", "repro.workloads.program_sets", 0,
                f"spec for program set {name!r} does not pickle: {error}"))
            continue
        if clone != spec:
            violations.append(Violation(
                "picklability", "repro.workloads.program_sets", 0,
                f"spec for program set {name!r} does not round-trip by value"))
        builder = resolve_program_set(spec)
        try:
            pickle.loads(pickle.dumps(builder))
        except Exception as error:  # noqa: BLE001
            violations.append(Violation(
                "picklability", "repro.workloads.program_sets", 0,
                f"builder for program set {name!r} does not pickle by "
                f"reference: {error}"))
    return violations


def _import_repro_modules() -> None:
    """Import every repro submodule so Step subclasses register themselves."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)


def _concrete_subclasses(base: type) -> List[type]:
    found: List[type] = []
    for sub in base.__subclasses__():
        found.append(sub)
        found.extend(_concrete_subclasses(sub))
    return found


def lint_footprints() -> List[Violation]:
    """Every concrete Step overrides ``footprint`` or is marked opaque."""
    _import_repro_modules()
    from ..engine.programs import Step

    violations: List[Violation] = []
    for sub in _concrete_subclasses(Step):
        overrides = "footprint" in sub.__dict__ or any(
            "footprint" in ancestor.__dict__
            for ancestor in sub.__mro__[1:-1] if ancestor is not Step)
        marked = getattr(sub, "opaque_footprint", False)
        if not overrides and not marked:
            violations.append(Violation(
                "footprint-coverage", sys.modules[sub.__module__].__file__ or
                sub.__module__, 0,
                f"Step subclass {sub.__name__} neither overrides footprint() "
                f"nor sets opaque_footprint = True; the static analyzer "
                f"would silently treat it as opaque"))
    return violations


def _store_record_fixtures():
    """Representative campaign-store payloads, worst cases included."""
    from ..analysis.coverage import ExploredCell
    from ..core.isolation import Possibility
    from ..explorer.memo import HistoryClassification
    from ..explorer.worker import ScheduleRecord

    records = [
        ScheduleRecord((1, 2, 1, 2), "w1[x] r2[x] c1 c2", True, (),
                       (1, 2), (), 0, 0, False),
        ScheduleRecord((1, 2), "w1[x] w2[x] a1 c2", False, ("P0", "P4"),
                       (2,), (1,), 1, 1, False),          # deadlock-aborted
        ScheduleRecord((10, 11, 10), "w10[x] r11[x]", False, ("P1",),
                       (), (10, 11), 3, 0, True),         # stalled, 2-digit txns
    ]
    classification = HistoryClassification(
        shorthand="w1[x] c1", serializable=True, phenomena=(),
        committed=(1,), aborted=())
    cell = ExploredCell(
        code="P2", possibility=Possibility.SOMETIMES_POSSIBLE, schedules=12,
        manifested=3, stalled=1, witness=("variant-a", (1, 2, 1), "r1[x] w2[x]"),
        variant_frequencies=(("variant-a", 0.5), ("variant-b", 0.0)),
        pruned_variants=1, static_reasons=(("variant-c", "no rw edge"),))
    return records, classification, cell


def lint_store_records() -> List[Violation]:
    """Campaign-store serialization is canonical and lossless.

    The persist layer's determinism contract: ``decode(encode(x)) == x``
    exactly, ``encode`` is a pure function (same input → same row twice),
    and every row element is an SQL-native scalar — for schedule records,
    shared classifications, and explored Table 4 cells,
    including stalled and deadlock-aborted shapes.  A breach here is the bug
    that makes a resumed campaign's coverage report drift from the
    uninterrupted one.
    """
    from ..persist import records as rec

    where = "repro.persist.records"
    violations: List[Violation] = []

    def check(kind: str, value, encode, decode) -> None:
        row = encode(value)
        again = encode(value)
        if row != again:
            violations.append(Violation(
                "store-records", where, 0,
                f"{kind} encoding is not deterministic: {row!r} != {again!r}"))
        flat = row if isinstance(row, tuple) else (row,)
        for element in flat:
            if not isinstance(element, (int, str, type(None))):
                violations.append(Violation(
                    "store-records", where, 0,
                    f"{kind} row element {element!r} is not an SQL-native "
                    f"scalar (int/str/None)"))
        try:
            decoded = decode(row)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            violations.append(Violation(
                "store-records", where, 0,
                f"{kind} decoding crashed on its own encoding: {error}"))
            return
        if decoded != value:
            violations.append(Violation(
                "store-records", where, 0,
                f"{kind} does not round-trip: {value!r} -> {decoded!r}"))

    records, classification, cell = _store_record_fixtures()
    for record in records:
        check("ScheduleRecord", record, rec.record_to_row, rec.record_from_row)
        if rec.record_from_bytes(rec.record_to_bytes(record)) != record:
            violations.append(Violation(
                "store-records", where, 0,
                f"ScheduleRecord bytes round-trip fails for {record!r}"))
    check("HistoryClassification", classification,
          lambda value: rec.classification_to_row(value.shorthand, value),
          lambda row: rec.classification_from_row(row)[1])
    check("ExploredCell", cell, rec.cell_to_payload, rec.cell_from_payload)
    return violations


def lint_lease_records() -> List[Violation]:
    """Lease serialization is canonical, lossless, and state-checked.

    One :class:`~repro.persist.records.LeaseRecord` fixture per legal state
    (pending, leased, done, poisoned — owner present and absent) must
    round-trip exactly through ``lease_to_row``/``lease_from_row`` with a
    pure encoding and SQL-native row elements, and an invalid state must
    raise instead of encoding.  The lease table is what a restarted parent
    trusts to rebuild its work queue; a lossy row here resurrects
    quarantined chunks or re-runs committed ones.
    """
    from ..persist import records as rec

    where = "repro.persist.records"
    violations: List[Violation] = []
    fixtures = [
        rec.LeaseRecord("SERIALIZABLE", 0, "pending", 0),
        rec.LeaseRecord("READ COMMITTED", 3, "leased", 17, owner="w1",
                        attempts=2),
        rec.LeaseRecord("Snapshot Isolation", 11, "done", 4, owner="w0",
                        attempts=1),
        rec.LeaseRecord("REPEATABLE READ", 7, "poisoned", 99, attempts=5),
    ]
    for lease in fixtures:
        row = rec.lease_to_row(lease)
        if row != rec.lease_to_row(lease):
            violations.append(Violation(
                "lease-records", where, 0,
                f"lease encoding is not deterministic for {lease!r}"))
        for element in row:
            if not isinstance(element, (int, str, type(None))):
                violations.append(Violation(
                    "lease-records", where, 0,
                    f"lease row element {element!r} is not an SQL-native "
                    f"scalar (int/str/None)"))
        try:
            decoded = rec.lease_from_row(row)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            violations.append(Violation(
                "lease-records", where, 0,
                f"lease decoding crashed on its own encoding: {error}"))
            continue
        if decoded != lease:
            violations.append(Violation(
                "lease-records", where, 0,
                f"lease does not round-trip: {lease!r} -> {decoded!r}"))
    bogus = rec.LeaseRecord("SERIALIZABLE", 0, "zombie", 1)
    try:
        rec.lease_to_row(bogus)
    except ValueError:
        pass
    else:
        violations.append(Violation(
            "lease-records", where, 0,
            "lease_to_row accepted out-of-vocabulary state 'zombie'; "
            "unknown states must raise, not persist"))
    return violations


def lint_certificate_records() -> List[Violation]:
    """Certificate serialization is canonical, lossless, and code-checked.

    One :class:`~repro.persist.records.CertificateRecord` fixture per legal
    certificate code (every phenomenon plus ``CYCLE``) must round-trip
    exactly through ``certificate_to_row``/``certificate_from_row`` with a
    pure encoding and SQL-native row elements, and an unknown code must
    raise instead of encoding.  Certificates are the service's durable
    evidence; a lossy row here would let the persisted record disagree with
    the verdict the online classifier actually certified.
    """
    from ..persist import records as rec

    where = "repro.persist.records"
    violations: List[Violation] = []
    fixtures = [
        rec.CertificateRecord(f"stream-{index % 3}", index, code,
                              txns=(index + 1, index + 2),
                              items=("x", "y")[: index % 3],
                              op_index=index * 7,
                              witness=f"r{index + 1}[x] w{index + 2}[x]")
        for index, code in enumerate(rec.CERTIFICATE_CODES)
    ]
    for certificate in fixtures:
        row = rec.certificate_to_row(certificate)
        if row != rec.certificate_to_row(certificate):
            violations.append(Violation(
                "certificate-records", where, 0,
                f"certificate encoding is not deterministic for "
                f"{certificate!r}"))
        for element in row:
            if not isinstance(element, (int, str, type(None))):
                violations.append(Violation(
                    "certificate-records", where, 0,
                    f"certificate row element {element!r} is not an "
                    f"SQL-native scalar (int/str/None)"))
        try:
            decoded = rec.certificate_from_row(row)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            violations.append(Violation(
                "certificate-records", where, 0,
                f"certificate decoding crashed on its own encoding: {error}"))
            continue
        if decoded != certificate:
            violations.append(Violation(
                "certificate-records", where, 0,
                f"certificate does not round-trip: {certificate!r} -> "
                f"{decoded!r}"))
    bogus = rec.CertificateRecord("s", 0, "P99", (1,), (), 0, "")
    try:
        rec.certificate_to_row(bogus)
    except ValueError:
        pass
    else:
        violations.append(Violation(
            "certificate-records", where, 0,
            "certificate_to_row accepted unknown code 'P99'; unknown codes "
            "must raise, not persist"))
    return violations


# -- drivers -------------------------------------------------------------------------


def lint_tree(tree: ast.AST, path: str) -> List[Violation]:
    """All AST checks over one parsed module."""
    return lint_determinism(tree, path) + lint_checkpoints(tree, path)


def lint_paths(paths: Iterable[Path]) -> List[Violation]:
    """All AST checks over a set of Python files."""
    violations: List[Violation] = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(lint_tree(tree, str(path)))
    return violations


def lint_repo(root: Optional[Path] = None,
              runtime: bool = True) -> List[Violation]:
    """The full pass: AST checks over ``src/repro`` plus the runtime checks."""
    if root is None:
        root = Path(__file__).resolve().parents[2]  # .../src
    violations = lint_paths((root / "repro").rglob("*.py"))
    if runtime:
        violations.extend(lint_picklability())
        violations.extend(lint_footprints())
        violations.extend(lint_store_records())
        violations.extend(lint_lease_records())
        violations.extend(lint_certificate_records())
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = Path(args[0]) if args else None
    violations = lint_repo(root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"repolint: {len(violations)} violation(s)")
        return 1
    print("repolint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
