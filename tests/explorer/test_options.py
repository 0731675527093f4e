"""ExploreOptions: validation, and the one way to call explore().

``explore(spec, ExploreOptions(...))`` is the only spelling: anything else in
the options position, or any loose keyword knob, raises ``TypeError``.
Nothing reads the environment.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, explore, worker
from repro.explorer.options import DEFAULT_LEVELS
from repro.explorer.schedules import MODES, schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.testbed import ALL_ENGINE_LEVELS
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
        assert len(dataclasses.fields(ExploreOptions)) == 8

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
        (dict(workers="many"), "workers must be an int or 'auto'"),
        (dict(campaign_id="c"), "campaign_id requires a store"),
        (dict(max_schedules=0), "max_schedules must be >= 1"),
        (dict(max_schedules=-5), "max_schedules must be >= 1"),
        (dict(mode="bogus"), "mode must be one of"),
        (dict(mode=None), "mode must be one of"),
        (dict(seed="7"), "seed must be an int"),
        (dict(seed=True), "seed must be an int"),
        (dict(chunk_size=True), "chunk_size must be an int"),
        (dict(chunk_size=8.0), "chunk_size must be an int"),
        (dict(max_schedules=2.5), "max_schedules must be an int"),
        (dict(max_schedules=True), "max_schedules must be an int"),
        (dict(levels=("read committed",)),
         "levels must be IsolationLevelName members, got 'read committed'"),
        (dict(levels=(IsolationLevelName.READ_COMMITTED, "SERIALIZABLE")),
         "levels must be IsolationLevelName members"),
        (dict(levels=(IsolationLevelName.ANSI_READ_UNCOMMITTED,)),
         "no engine implements isolation level 'ANSI READ UNCOMMITTED'"),
        (dict(levels=(IsolationLevelName.ANSI_READ_COMMITTED,)),
         "no engine implements isolation level 'ANSI READ COMMITTED'"),
        (dict(levels=(IsolationLevelName.ANSI_REPEATABLE_READ,)),
         "no engine implements isolation level 'ANSI REPEATABLE READ'"),
        (dict(levels=(IsolationLevelName.READ_COMMITTED,
                      IsolationLevelName.ANOMALY_SERIALIZABLE)),
         "no engine implements isolation level 'ANOMALY SERIALIZABLE'"),
    ])
    def test_bad_values_rejected_eagerly(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExploreOptions(**kwargs)

    @pytest.mark.parametrize("level", ALL_ENGINE_LEVELS,
                             ids=lambda level: level.name)
    def test_every_engine_level_is_accepted_and_explored(self, level):
        """The eager checks admit every level an engine implements, and the
        exploration runs on exactly that scope."""
        options = ExploreOptions(levels=(level,), mode="sample",
                                 max_schedules=4)
        assert options.levels == (level,)
        result = explore(SPEC, options)
        assert list(result.levels) == [level]
        assert result.executed_schedules() == 4

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_is_accepted(self, mode):
        # The space holds 252 schedules: within budget, so auto enumerates.
        options = ExploreOptions(levels=LEVELS[:1], mode=mode,
                                 max_schedules=300)
        assert options.mode == mode
        result = explore(SPEC, options)
        assert result.space.mode == ("exhaustive" if mode == "auto" else mode)
        assert result.executed_schedules() == result.space.selected

    def test_repeated_level_rejected_before_any_work(self):
        with pytest.raises(ValueError,
                           match="isolation level 'READ COMMITTED' given twice"):
            explore(SPEC, ExploreOptions(levels=LEVELS + LEVELS[:1]))

    def test_positional_non_options_raises(self):
        with pytest.raises(TypeError, match="must be an ExploreOptions"):
            explore(SPEC, {"seed": 1})

    def test_loose_keyword_knobs_raise(self):
        with pytest.raises(TypeError, match="seed"):
            explore(SPEC, seed=1)


def _serial_fingerprint():
    return explore(SPEC, ExploreOptions(levels=LEVELS, mode="sample",
                                        max_schedules=16)).fingerprint()


def _executor_counts():
    database, programs = build_program_set(SPEC)
    schedules = schedule_space(programs, mode="sample", max_schedules=8,
                               seed=1).schedules
    executor = TrieExecutor(database, programs, LEVELS[0])
    for schedule in schedules:                   # the trie walk, checkpoints
        executor.run_one(schedule)
    list(executor.run_batch(schedules))          # the batch kernel
    return executor.stats.as_dict(), executor.batch_stats.as_dict()


def test_no_environment_variable_is_read(monkeypatch):
    """Nothing reads ``EXPLORER_*``: malformed values of the variables the
    workers once read, and of the retired ones, change neither ``explore()``
    nor the executor."""
    monkeypatch.setattr(worker, "_TESTBED_CACHE", {})
    expected = _serial_fingerprint(), _executor_counts()
    for name, raw in (("EXPLORER_BATCH_KERNEL", "fast"),
                      ("EXPLORER_CHECKPOINT_SPACING", "0"),
                      ("EXPLORER_COMPILED_KERNEL", "maybe"),
                      ("EXPLORER_OUTCOME_MEMO", "sometimes"),
                      ("EXPLORER_STATIC_PRUNING", "2"),
                      ("EXPLORER_SHARED_CACHE", "maybe")):
        monkeypatch.setenv(name, raw)
    monkeypatch.setattr(worker, "_TESTBED_CACHE", {})   # force a rebuild
    assert (_serial_fingerprint(), _executor_counts()) == expected
    assert not hasattr(ExploreOptions, "from_env")


@pytest.mark.parametrize("knob", ["outcome_memo", "static_pruning",
                                  "reduction", "batch_kernel"])
def test_retired_knobs_are_rejected_by_name(knob):
    with pytest.raises(TypeError, match=knob):
        ExploreOptions(**{knob: True})


def test_trie_executor_has_no_compiled_option():
    with pytest.raises(TypeError, match="compiled"):
        TrieExecutor(*build_program_set(SPEC), LEVELS[0], compiled=True)


def test_trie_executor_has_no_batch_kernel_option():
    """The programs and level pick the machine; nothing overrides it."""
    with pytest.raises(TypeError, match="batch_kernel"):
        TrieExecutor(*build_program_set(SPEC), LEVELS[0], batch_kernel="off")
