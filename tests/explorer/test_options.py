"""ExploreOptions: validation, from_env, and the one way to call explore().

``explore(spec, ExploreOptions(...))`` is the only spelling: anything else in
the options position, or any loose keyword knob, raises ``TypeError``.
``from_env`` is the CI configuration surface — malformed variables must fail
naming the variable.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, explore, worker
from repro.explorer.options import DEFAULT_LEVELS
from repro.explorer.trie_executor import TrieExecutor
from repro.workloads.program_sets import ProgramSetSpec, build_program_set

SPEC = ProgramSetSpec.make("contention", transactions=2, items=2, hot_items=1,
                           operations_per_transaction=2)
LEVELS = (IsolationLevelName.READ_COMMITTED,
          IsolationLevelName.SNAPSHOT_ISOLATION)


class TestValidation:
    def test_defaults_match_legacy_signature(self):
        options = ExploreOptions()
        assert options.levels == DEFAULT_LEVELS
        assert options.mode == "auto"
        assert options.max_schedules == 1000
        assert options.workers == 1
        assert options.chunk_size == 64
        assert options.reduction == "none"
        assert options.batch_kernel is None
        assert len(dataclasses.fields(ExploreOptions)) == 10

    def test_levels_sequence_normalized_to_tuple(self):
        options = ExploreOptions(levels=list(LEVELS))
        assert options.levels == LEVELS
        assert isinstance(options.levels, tuple)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExploreOptions().mode = "sample"

    def test_replace_revalidates(self):
        base = ExploreOptions(seed=3)
        assert base.replace(seed=4).seed == 4
        assert base.seed == 3
        with pytest.raises(ValueError, match="workers must be >= 1"):
            base.replace(workers=0)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(workers=0), "workers must be >= 1"),
        (dict(workers=1.5), "workers must be an int or 'auto'"),
        (dict(workers=True), "workers must be an int or 'auto'"),
        (dict(chunk_size=0), "chunk_size must be >= 1"),
        (dict(reduction="dpor"), "unknown reduction 'dpor'"),
        (dict(workers="many"), "workers must be an int or 'auto'"),
        (dict(batch_kernel="maybe"), "batch_kernel must be None, 'auto'"),
        (dict(campaign_id="c"), "campaign_id requires a store"),
        (dict(max_schedules=0), "max_schedules must be >= 1"),
        (dict(max_schedules=-5), "max_schedules must be >= 1"),
    ])
    def test_bad_values_rejected_eagerly(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExploreOptions(**kwargs)

    def test_positional_non_options_raises(self):
        with pytest.raises(TypeError, match="must be an ExploreOptions"):
            explore(SPEC, {"seed": 1})

    def test_loose_keyword_knobs_raise(self):
        with pytest.raises(TypeError, match="seed"):
            explore(SPEC, seed=1)


class TestFromEnv:
    def test_empty_environment_gives_defaults(self):
        assert ExploreOptions.from_env({}) == ExploreOptions()

    def test_reads_every_variable(self):
        options = ExploreOptions.from_env({
            "EXPLORER_LEVELS": "READ COMMITTED, SERIALIZABLE",
            "EXPLORER_MODE": "sample",
            "EXPLORER_MAX_SCHEDULES": "123",
            "EXPLORER_SEED": "7",
            "EXPLORER_WORKERS": "auto",
            "EXPLORER_CHUNK_SIZE": "16",
            "EXPLORER_REDUCTION": "sleep-set",
            "EXPLORER_BATCH_KERNEL": "off",
        })
        assert options.levels == (IsolationLevelName.READ_COMMITTED,
                                  IsolationLevelName.SERIALIZABLE)
        assert options.mode == "sample"
        assert options.max_schedules == 123
        assert options.seed == 7
        assert options.workers == "auto"
        assert options.chunk_size == 16
        assert options.reduction == "sleep-set"
        assert options.batch_kernel == "off"

    def test_overrides_beat_environment(self):
        options = ExploreOptions.from_env({"EXPLORER_SEED": "7"}, seed=11,
                                          mode="exhaustive")
        assert options.seed == 11
        assert options.mode == "exhaustive"

    @pytest.mark.parametrize("name,raw,match", [
        ("EXPLORER_MAX_SCHEDULES", "many", "EXPLORER_MAX_SCHEDULES"),
        ("EXPLORER_MAX_SCHEDULES", "0", "EXPLORER_MAX_SCHEDULES must be >= 1"),
        ("EXPLORER_SEED", "1.5", "EXPLORER_SEED"),
        ("EXPLORER_WORKERS", "two", "EXPLORER_WORKERS"),
        ("EXPLORER_CHUNK_SIZE", "", "EXPLORER_CHUNK_SIZE"),
    ])
    def test_malformed_values_name_the_variable(self, name, raw, match):
        with pytest.raises(ValueError, match=match):
            ExploreOptions.from_env({name: raw})

    def test_invalid_level_name_rejected(self):
        with pytest.raises(ValueError):
            ExploreOptions.from_env({"EXPLORER_LEVELS": "CHAOS MODE"})


def _serial_explore():
    explore(SPEC, ExploreOptions(levels=LEVELS[:1], mode="sample",
                                 max_schedules=4))


def _build_executor():
    TrieExecutor(*build_program_set(SPEC), LEVELS[0])


class TestExecutorEnvVars:
    """The variables read below ``from_env`` — inside the executor and the
    workers — fail closed with the same named error ``from_env`` raises.
    """

    @pytest.mark.parametrize("name,raw,trigger", [
        ("EXPLORER_CHECKPOINT_SPACING", "abc", _serial_explore),
        ("EXPLORER_CHECKPOINT_SPACING", "0", _serial_explore),
        ("EXPLORER_BATCH_KERNEL", "fast", _build_executor),
        ("EXPLORER_BATCH_KERNEL", "fast", ExploreOptions.from_env),
    ])
    def test_malformed_values_name_the_variable(self, monkeypatch, name, raw,
                                                trigger):
        monkeypatch.setattr(worker, "_TESTBED_CACHE", {})  # force a build
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name} must be .*{raw!r}"):
            trigger()

    def test_retired_compiled_kernel_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_COMPILED_KERNEL", "maybe")
        _build_executor()

    def test_retired_outcome_memo_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_OUTCOME_MEMO", "sometimes")
        assert ExploreOptions.from_env(
            {"EXPLORER_OUTCOME_MEMO": "sometimes"}) == ExploreOptions()
        _serial_explore()
        with pytest.raises(TypeError, match="outcome_memo"):
            ExploreOptions(outcome_memo=True)

    def test_retired_static_pruning_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("EXPLORER_STATIC_PRUNING", "2")
        assert ExploreOptions.from_env(
            {"EXPLORER_STATIC_PRUNING": "2"}) == ExploreOptions()
        _serial_explore()
        with pytest.raises(TypeError, match="static_pruning"):
            ExploreOptions(static_pruning=True)


def test_trie_executor_has_no_compiled_option():
    with pytest.raises(TypeError, match="compiled"):
        TrieExecutor(*build_program_set(SPEC), LEVELS[0], compiled=True)
