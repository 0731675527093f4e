"""Unit tests for the repo invariant linter (repro.static_analysis.repolint)."""

from __future__ import annotations

import ast
import textwrap

from repro.static_analysis.repolint import (
    lint_checkpoints,
    lint_determinism,
    lint_footprints,
    lint_picklability,
    lint_repo,
    lint_store_records,
    lint_tree,
    main,
)


def _lint(source, check):
    tree = ast.parse(textwrap.dedent(source))
    if check == "determinism":
        return lint_determinism(tree, "<test>")
    return lint_checkpoints(tree, "<test>")


class TestDeterminism:
    def test_flags_wall_clock_calls(self):
        source = """
            import time
            def stamp():
                return time.time()
        """
        (violation,) = _lint(source, "determinism")
        assert violation.check == "determinism"
        assert "time.time" in violation.message

    def test_flags_datetime_now_and_module_level_random(self):
        source = """
            import random
            from datetime import datetime
            def unstable():
                return datetime.now(), random.random(), random.shuffle([])
        """
        violations = _lint(source, "determinism")
        assert len(violations) == 3

    def test_allows_perf_counter_and_seeded_random(self):
        source = """
            import random, time
            def stable(seed):
                rng = random.Random(seed)
                start = time.perf_counter()
                return rng.random(), time.perf_counter() - start
        """
        assert _lint(source, "determinism") == []


class TestCheckpoints:
    COMPLETE = """
        class Engine:
            def __init__(self):
                self.state = {}
            def checkpoint(self):
                return dict(self.state)
            def restore(self, token):
                self.state = dict(token)
    """

    def test_accepts_complete_checkpoint(self):
        assert _lint(self.COMPLETE, "checkpoints") == []

    def test_flags_attribute_missing_from_token(self):
        source = """
            class Engine:
                def __init__(self):
                    self.state = {}
                    self.pending = []
                def checkpoint(self):
                    return dict(self.state)
                def restore(self, token):
                    self.state = dict(token)
        """
        (violation,) = _lint(source, "checkpoints")
        assert violation.check == "checkpoint-completeness"
        assert "pending" in violation.message

    def test_checkpoint_stable_exempts_configuration(self):
        source = """
            class Engine:
                _checkpoint_stable = ("policy",)
                def __init__(self, policy):
                    self.policy = policy
                    self.state = {}
                def checkpoint(self):
                    return dict(self.state)
        """
        assert _lint(source, "checkpoints") == []

    def test_helper_methods_count_as_references(self):
        source = """
            class Engine:
                def __init__(self):
                    self.state = {}
                    self.locks = {}
                def _base_checkpoint(self):
                    return (dict(self.state), dict(self.locks))
                def checkpoint(self):
                    return self._base_checkpoint()
        """
        assert _lint(source, "checkpoints") == []

    def test_skips_raise_only_stubs(self):
        source = """
            class Engine:
                def __init__(self):
                    self.database = None
                def checkpoint(self):
                    '''Unsupported.'''
                    raise RuntimeError("no checkpoints here")
        """
        assert _lint(source, "checkpoints") == []

    def test_classes_without_checkpoint_are_ignored(self):
        source = """
            class Plain:
                def __init__(self):
                    self.anything = 1
        """
        assert _lint(source, "checkpoints") == []


class TestStateKeys:
    """A state key must carry everything the checkpoint carries, or say why not."""

    KEYED = """
        class Manager:
            _state_key_derivable = (
                ("version", "read only to ask whether a parked request moved"),
            )
            def __init__(self):
                self.locks = []
                self.version = 0
            def _base_checkpoint(self):
                return tuple(self.locks)
            def checkpoint(self):
                return (self._base_checkpoint(), self.version)
            def restore(self, token):
                self.locks = list(token[0])
                self.version = token[1]
            def _base_state_key(self):
                return frozenset(self.locks)
            def state_key(self):
                return self._base_state_key()
    """

    def test_accepts_a_complete_key(self):
        # Helpers on both sides count; method calls are not state.
        assert _lint(self.KEYED, "checkpoints") == []

    def test_flags_a_planted_attribute_missing_from_the_key(self):
        source = self.KEYED.replace(
            "self.version = 0", "self.version = 0\n                self.undo = {}"
        ).replace(
            "return (self._base_checkpoint(), self.version)",
            "return (self._base_checkpoint(), self.version, dict(self.undo))")
        (violation,) = _lint(source, "checkpoints")
        assert violation.check == "state-key-completeness"
        assert "self.undo" in violation.message

    def test_flags_an_undeclared_derivable_attribute(self):
        source = self.KEYED.replace(
            '("version", "read only to ask whether a parked request moved"),',
            "")
        (violation,) = _lint(source, "checkpoints")
        assert violation.check == "state-key-completeness"
        assert "self.version" in violation.message

    def test_a_derivable_entry_needs_a_reason(self):
        source = self.KEYED.replace(
            '("version", "read only to ask whether a parked request moved"),',
            '("version", "  "),')
        violations = _lint(source, "checkpoints")
        assert [v.check for v in violations] == ["state-key-completeness"] * 2
        assert "(attribute, reason)" in violations[0].message

    def test_stub_keys_are_not_audited(self):
        source = """
            class Engine:
                def __init__(self):
                    self.state = {}
                def checkpoint(self):
                    return dict(self.state)
                def restore(self, token):
                    self.state = dict(token)
                def state_key(self):
                    raise RuntimeError("no state keys here")
        """
        assert _lint(source, "checkpoints") == []


class TestStoreRecords:
    def test_current_serialization_is_clean(self):
        assert lint_store_records() == []

    def test_broken_round_trip_is_flagged(self, monkeypatch):
        """A decoder that drops information must produce a violation."""
        from repro.persist import records as rec

        original = rec.record_from_row

        def lossy(row):
            record = original(row)
            return record.__class__(**{**record.__dict__, "blocked_events": 0})

        monkeypatch.setattr(rec, "record_from_row", lossy)
        violations = lint_store_records()
        assert violations
        assert all(violation.check == "store-records"
                   for violation in violations)

    def test_nondeterministic_encoding_is_flagged(self, monkeypatch):
        from itertools import count

        from repro.persist import records as rec

        original = rec.record_to_row
        ticker = count()

        def impure(record):
            return original(record) + (next(ticker),)

        monkeypatch.setattr(rec, "record_to_row", impure)
        violations = lint_store_records()
        assert any("not deterministic" in violation.message
                   for violation in violations)


class TestRepoWide:
    def test_runtime_checks_are_clean(self):
        assert lint_picklability() == []
        assert lint_footprints() == []
        assert lint_store_records() == []

    def test_whole_repo_is_clean(self):
        """The CI gate: zero violations across src/repro, AST + runtime."""
        assert lint_repo() == []

    def test_main_exit_status_reflects_cleanliness(self, capsys):
        assert main([]) == 0
        assert "repolint: clean" in capsys.readouterr().out

    def test_lint_tree_combines_all_ast_checks(self):
        source = textwrap.dedent("""
            import time
            class Engine:
                def __init__(self):
                    self.extra = 1
                    self.state = {}
                def checkpoint(self):
                    return (time.time(), dict(self.state))
        """)
        violations = lint_tree(ast.parse(source), "<test>")
        assert {violation.check for violation in violations} == \
            {"determinism", "checkpoint-completeness"}
